#include "rko/mem/pagetable.hpp"

#include <algorithm>

namespace rko::mem {

Pte* PageTable::find(Vaddr vaddr) {
    auto* l3 = root_.children[index_at(vaddr, 3)].get();
    if (l3 == nullptr) return nullptr;
    auto* l2 = l3->children[index_at(vaddr, 2)].get();
    if (l2 == nullptr) return nullptr;
    auto* l1 = l2->children[index_at(vaddr, 1)].get();
    if (l1 == nullptr) return nullptr;
    return &l1->entries[index_at(vaddr, 0)];
}

const Pte* PageTable::find(Vaddr vaddr) const {
    return const_cast<PageTable*>(this)->find(vaddr);
}

Pte& PageTable::ensure(Vaddr vaddr) {
    auto& l3 = root_.children[index_at(vaddr, 3)];
    if (l3 == nullptr) l3 = std::make_unique<Level3>();
    auto& l2 = l3->children[index_at(vaddr, 2)];
    if (l2 == nullptr) l2 = std::make_unique<Level2>();
    auto& l1 = l2->children[index_at(vaddr, 1)];
    if (l1 == nullptr) l1 = std::make_unique<Level1>();
    return l1->entries[index_at(vaddr, 0)];
}

void PageTable::map(Vaddr vaddr, Paddr paddr, std::uint32_t prot) {
    RKO_ASSERT_MSG(paddr != 0 && (paddr & kPageMask) == 0, "mapping a bad paddr");
    Pte& pte = ensure(vaddr);
    if (!pte.present) ++present_;
    pte.paddr = paddr;
    pte.prot = prot;
    pte.present = true;
    pte.dirty = false;
}

bool PageTable::protect(Vaddr vaddr, std::uint32_t prot) {
    Pte* pte = find(vaddr);
    if (pte == nullptr || !pte->present) return false;
    pte->prot = prot;
    return true;
}

Pte PageTable::clear(Vaddr vaddr) {
    Pte* pte = find(vaddr);
    if (pte == nullptr || !pte->present) return Pte{};
    const Pte old = *pte;
    *pte = Pte{};
    --present_;
    return old;
}

void PageTable::for_each_present(Vaddr start, Vaddr end,
                                 const std::function<void(Vaddr, Pte&)>& fn) {
    RKO_ASSERT(start <= end);
    // Walk leaf tables, skipping absent subtrees wholesale. Spans per level:
    // L1 leaf table covers 2 MiB, L2 covers 1 GiB, L3 covers 512 GiB.
    const Vaddr first_page = page_floor(start);
    for (std::size_t i3 = 0; i3 < kFanout; ++i3) {
        auto* l3 = root_.children[i3].get();
        if (l3 == nullptr) continue;
        const Vaddr base3 = static_cast<Vaddr>(i3) << (kPageShift + 3 * kBitsPerLevel);
        if (base3 >= end || base3 + (1ULL << (kPageShift + 3 * kBitsPerLevel)) <= first_page)
            continue;
        for (std::size_t i2 = 0; i2 < kFanout; ++i2) {
            auto* l2 = l3->children[i2].get();
            if (l2 == nullptr) continue;
            const Vaddr base2 = base3 | (static_cast<Vaddr>(i2)
                                         << (kPageShift + 2 * kBitsPerLevel));
            if (base2 >= end ||
                base2 + (1ULL << (kPageShift + 2 * kBitsPerLevel)) <= first_page)
                continue;
            for (std::size_t i1 = 0; i1 < kFanout; ++i1) {
                auto* l1 = l2->children[i1].get();
                if (l1 == nullptr) continue;
                const Vaddr base1 = base2 | (static_cast<Vaddr>(i1)
                                             << (kPageShift + kBitsPerLevel));
                if (base1 >= end ||
                    base1 + (1ULL << (kPageShift + kBitsPerLevel)) <= first_page)
                    continue;
                for (std::size_t i0 = 0; i0 < kFanout; ++i0) {
                    Pte& pte = l1->entries[i0];
                    if (!pte.present) continue;
                    const Vaddr va = base1 | (static_cast<Vaddr>(i0) << kPageShift);
                    if (va < first_page || va >= end) continue;
                    fn(va, pte);
                }
            }
        }
    }
}

} // namespace rko::mem
