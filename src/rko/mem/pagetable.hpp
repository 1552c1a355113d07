// Software page table: a 4-level radix tree over 48-bit guest virtual
// addresses with 9 bits per level, mirroring x86-64 paging. The MMU walks
// it on TLB misses; the consistency protocol (core/page_owner) flips
// present/write bits as pages replicate and migrate between kernels.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "rko/base/assert.hpp"
#include "rko/mem/types.hpp"

namespace rko::mem {

/// Page-table entry. `prot` is what the local kernel currently permits,
/// which may be narrower than the VMA protection while the ownership
/// protocol holds the page read-only or absent here.
struct Pte {
    Paddr paddr = 0;
    std::uint32_t prot = kProtNone;
    bool present = false;
    /// Stored to since the mapping was installed: map() clears it and the
    /// soft MMU sets it on the first store through a translation. A hint
    /// for the ownership protocol (migratory pages), never for correctness.
    bool dirty = false;

    bool allows(std::uint32_t access) const {
        return present && (prot & access) == access;
    }
};

class PageTable {
public:
    PageTable() = default;
    PageTable(const PageTable&) = delete;
    PageTable& operator=(const PageTable&) = delete;

    /// Looks up the PTE for `vaddr`; returns null if no mapping exists.
    Pte* find(Vaddr vaddr);
    const Pte* find(Vaddr vaddr) const;

    /// Installs (or replaces) the mapping for the page containing `vaddr`,
    /// clean.
    void map(Vaddr vaddr, Paddr paddr, std::uint32_t prot);

    /// Narrows/widens the permitted access of an existing mapping; returns
    /// false if the page is not present.
    bool protect(Vaddr vaddr, std::uint32_t prot);

    /// Drops the mapping; returns the old entry (present=false if none).
    /// Intermediate tables are not reclaimed eagerly, as in most kernels.
    Pte clear(Vaddr vaddr);

    /// Invokes `fn(vaddr, pte)` for every present entry in [start, end).
    /// `fn` may change prot but must not flip `present` (use clear()).
    void for_each_present(Vaddr start, Vaddr end,
                          const std::function<void(Vaddr, Pte&)>& fn);

    std::size_t present_pages() const { return present_; }

    /// Number of radix levels traversed on a find/ensure (the modeled walk
    /// depth; constant 4 here, exposed for cost accounting symmetry).
    static constexpr int kLevels = 4;

private:
    /// Finds or creates the PTE (intermediate levels materialize on demand).
    Pte& ensure(Vaddr vaddr);

    static constexpr int kBitsPerLevel = 9;
    static constexpr std::size_t kFanout = 1ULL << kBitsPerLevel;

    static std::size_t index_at(Vaddr vaddr, int level) {
        // level 3 = root … level 0 = leaf, like PML4..PT.
        const int shift = kPageShift + kBitsPerLevel * level;
        return (vaddr >> shift) & (kFanout - 1);
    }

    struct Level1 { // leaf: PTEs
        std::array<Pte, kFanout> entries{};
    };
    struct Level2 {
        std::array<std::unique_ptr<Level1>, kFanout> children{};
    };
    struct Level3 {
        std::array<std::unique_ptr<Level2>, kFanout> children{};
    };
    struct Level4 {
        std::array<std::unique_ptr<Level3>, kFanout> children{};
    };

    Level4 root_;
    std::size_t present_ = 0;

    friend class PageTableWalker;
};

} // namespace rko::mem
