#include "rko/mem/mmu.hpp"

#include <algorithm>
#include <cstring>

namespace rko::mem {

void Mmu::attach(AddressSpace* space, FaultHandler handler) {
    RKO_ASSERT(space != nullptr);
    space_ = space;
    handler_ = std::move(handler);
    flush_tlb();
}

void Mmu::detach() {
    flush_charges();
    space_ = nullptr;
    handler_ = nullptr;
    flush_tlb();
}

void Mmu::flush_tlb() {
    tlb_.fill(TlbEntry{});
    if (space_ != nullptr) seen_generation_ = space_->tlb_generation();
}

void Mmu::flush_charges() {
    if (pending_ == 0) return;
    const Nanos bill = pending_;
    pending_ = 0;
    sim::current_actor().sleep_for(bill);
}

std::byte* Mmu::translate(Vaddr addr, std::uint32_t access) {
    RKO_ASSERT_MSG(space_ != nullptr, "MMU not attached to an address space");
    // Charge the access up front: charging may flush the pending bill and
    // yield, and the world can change while we sleep (invalidations from
    // other kernels). The translation below must therefore come after any
    // potential yield, or the caller could write through a pointer to a
    // frame that was reclaimed mid-sleep.
    charge(costs_.mem_access);
    // Shootdown check: any invalidation on this replica flushes us.
    if (seen_generation_ != space_->tlb_generation()) flush_tlb();

    const std::uint64_t vpn = vpn_of(addr);
    TlbEntry& entry = tlb_[vpn % kTlbEntries];
    if (entry.vpn == vpn && (entry.prot & access) == access) {
        ++hits_;
        return entry.host;
    }
    // A hardware TLB sets the dirty bit on the first store without a walk
    // the program can see: charge it as the hit it would have been.
    if (entry.vpn == vpn && (entry.pte_prot & access) == access) {
        mark_dirty(entry, addr);
        ++hits_;
        return entry.host;
    }

    for (int attempt = 0; attempt < 64; ++attempt) {
        ++misses_;
        charge(costs_.tlb_fill);
        if (seen_generation_ != space_->tlb_generation()) flush_tlb();
        Pte* pte = space_->page_table().find(page_floor(addr));
        if (pte != nullptr && pte->allows(access)) {
            if ((access & kProtWrite) != 0) pte->dirty = true;
            entry.vpn = vpn;
            entry.host = phys_.frame_ptr(pte->paddr);
            entry.pte_prot = pte->prot;
            entry.prot = pte->dirty ? pte->prot : (pte->prot & ~kProtWrite);
            return entry.host;
        }
        // Page fault: hand over to the kernel. Settle the local time bill
        // first so the protocol observes an exact clock.
        ++faults_;
        flush_charges();
        sim::current_actor().sleep_for(costs_.trap);
        const FaultResult result = handler_ ? handler_(page_floor(addr), access)
                                            : FaultResult::kSegv;
        if (result == FaultResult::kSegv) throw GuestFault{addr, access};
        // The fault handler may have invalidated other pages meanwhile.
        if (seen_generation_ != space_->tlb_generation()) flush_tlb();
    }
    RKO_UNREACHABLE("fault handler made no progress after 64 retries");
}

void Mmu::mark_dirty(TlbEntry& entry, Vaddr addr) {
    // Every path that narrows or replaces a PTE bumps the TLB generation,
    // and translate() flushed on a bump, so the PTE still backs the entry.
    Pte* pte = space_->page_table().find(page_floor(addr));
    RKO_ASSERT_MSG(pte != nullptr && pte->allows(entry.pte_prot) &&
                       phys_.frame_ptr(pte->paddr) == entry.host,
                   "TLB entry outlived a PTE change without a shootdown");
    pte->dirty = true;
    entry.prot = entry.pte_prot;
}

void Mmu::read_bytes(Vaddr addr, std::byte* out, std::size_t n) {
    while (n > 0) {
        const std::byte* page = translate(addr, kProtRead);
        const std::size_t offset = addr & kPageMask;
        const std::size_t chunk = std::min<std::size_t>(n, kPageSize - offset);
        std::memcpy(out, page + offset, chunk);
        charge(static_cast<Nanos>(chunk / 64) * costs_.mem_access);
        addr += chunk;
        out += chunk;
        n -= chunk;
    }
}

void Mmu::write_bytes(Vaddr addr, const std::byte* src, std::size_t n) {
    while (n > 0) {
        std::byte* page = translate(addr, kProtWrite);
        const std::size_t offset = addr & kPageMask;
        const std::size_t chunk = std::min<std::size_t>(n, kPageSize - offset);
        std::memcpy(page + offset, src, chunk);
        charge(static_cast<Nanos>(chunk / 64) * costs_.mem_access);
        addr += chunk;
        src += chunk;
        n -= chunk;
    }
}

std::uint32_t Mmu::rmw_u32(Vaddr addr,
                           const std::function<std::uint32_t(std::uint32_t)>& fn) {
    RKO_ASSERT_MSG((addr & 3) == 0, "unaligned atomic");
    std::byte* page = translate(addr, kProtRead | kProtWrite);
    // Coherence invariant: the translation must still be backed by the page
    // table in the same no-yield window (guards against the stale-TLB bugs
    // the invalidation paths are written to prevent).
    {
        const Pte* pte = space_->page_table().find(page_floor(addr));
        RKO_ASSERT_MSG(pte != nullptr && pte->present &&
                           phys_.frame_ptr(pte->paddr) == page,
                       "rmw through a translation the page table no longer backs");
    }
    auto* word = reinterpret_cast<std::uint32_t*>(page + (addr & kPageMask));
    const std::uint32_t old = *word;
    *word = fn(old);
    charge(costs_.lock.uncontended); // an atomic RMW's latency
    return old;
}

} // namespace rko::mem
