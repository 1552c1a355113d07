// Software MMU: how guest code touches guest memory.
//
// Each task owns an Mmu bound to the address-space replica of the kernel it
// currently executes on. Accesses hit a small direct-mapped soft-TLB; a
// miss walks the page table; an access the PTE does not permit invokes the
// kernel's fault handler (which may run the full cross-kernel consistency
// protocol) and retries.
//
// Timing: per-access costs are accumulated locally and flushed to the
// simulation clock in quanta (default 2 us) to keep host overhead and event
// counts sane; fault paths always flush first, so protocol-visible ordering
// is exact at every protocol boundary.
#pragma once

#include <array>
#include <cstring>
#include <functional>

#include "rko/base/assert.hpp"
#include "rko/mem/addrspace.hpp"
#include "rko/mem/phys.hpp"
#include "rko/mem/types.hpp"
#include "rko/sim/actor.hpp"
#include "rko/topo/topology.hpp"

namespace rko::mem {

/// Thrown when the kernel decides an access is fatal (unmapped address or
/// protection violation with no consistency action available). Caught at
/// the task boundary and converted to a SIGSEGV-style exit.
struct GuestFault {
    Vaddr addr;
    std::uint32_t access;
};

class Mmu {
public:
    enum class FaultResult { kFixed, kSegv };
    /// Runs in the faulting task's context; may block on messages/locks.
    using FaultHandler = std::function<FaultResult(Vaddr, std::uint32_t access)>;

    Mmu(PhysMem& phys, const topo::CostModel& costs) : phys_(phys), costs_(costs) {}

    /// Binds this MMU to an address-space replica (at spawn and after each
    /// migration). Flushes the TLB.
    void attach(AddressSpace* space, FaultHandler handler);
    void detach();

    AddressSpace* space() { return space_; }

    template <typename T>
    T read(Vaddr addr) {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        if (const std::byte* page = tlb_hit(addr, sizeof(T), kProtRead)) {
            std::memcpy(&value, page + (addr & kPageMask), sizeof(T));
        } else {
            read_bytes(addr, reinterpret_cast<std::byte*>(&value), sizeof(T));
        }
        return value;
    }

    template <typename T>
    void write(Vaddr addr, const T& value) {
        static_assert(std::is_trivially_copyable_v<T>);
        if (std::byte* page = tlb_hit(addr, sizeof(T), kProtWrite)) {
            std::memcpy(page + (addr & kPageMask), &value, sizeof(T));
        } else {
            write_bytes(addr, reinterpret_cast<const std::byte*>(&value), sizeof(T));
        }
    }

    void read_bytes(Vaddr addr, std::byte* out, std::size_t n);
    void write_bytes(Vaddr addr, const std::byte* src, std::size_t n);

    /// Atomic guest read-modify-write of a 32-bit word (futex values, lock
    /// words). The page is faulted in writable first; the update applies
    /// with no intervening virtual time, so it is indivisible.
    std::uint32_t rmw_u32(Vaddr addr,
                          const std::function<std::uint32_t(std::uint32_t)>& fn);

    /// Drops all cached translations (migration, address-space switch).
    void flush_tlb();

    /// Pushes accumulated per-access charges to the virtual clock. Called
    /// automatically at fault boundaries; syscalls call it on entry.
    void flush_charges();

    std::uint64_t tlb_hits() const { return hits_; }
    std::uint64_t tlb_misses() const { return misses_; }
    std::uint64_t faults() const { return faults_; }

private:
    static constexpr std::size_t kTlbEntries = 64;

    struct TlbEntry {
        std::uint64_t vpn = ~0ULL;
        std::byte* host = nullptr;
        std::uint32_t prot = kProtNone;
    };

    /// Translates one page for `access`, faulting as needed; returns the
    /// host pointer to the page base.
    std::byte* translate(Vaddr addr, std::uint32_t access);

    /// The inline soft-TLB hit for an `n`-byte access: the host page base
    /// when translate + read_bytes/write_bytes would take nothing but a TLB
    /// hit, with the same bookkeeping (one mem_access, one hit); null
    /// otherwise. Null whenever their slow steps could run: an access of a
    /// whole 64-byte line or more (charged per line), one that straddles a
    /// page, a charge that would flush and yield, a pending shootdown, or a
    /// TLB miss or protection mismatch (fill or fault).
    std::byte* tlb_hit(Vaddr addr, std::size_t n, std::uint32_t access) {
        if (n >= 64 || (addr & kPageMask) + n > kPageSize) return nullptr;
        if (pending_ + costs_.mem_access >= costs_.charge_quantum) return nullptr;
        if (space_ == nullptr || seen_generation_ != space_->tlb_generation()) {
            return nullptr;
        }
        const std::uint64_t vpn = vpn_of(addr);
        const TlbEntry& entry = tlb_[vpn % kTlbEntries];
        if (entry.vpn != vpn || (entry.prot & access) != access) return nullptr;
        pending_ += costs_.mem_access;
        ++hits_;
        return entry.host;
    }

    void charge(Nanos ns) {
        pending_ += ns;
        if (pending_ >= costs_.charge_quantum) flush_charges();
    }

    PhysMem& phys_;
    const topo::CostModel& costs_;
    AddressSpace* space_ = nullptr;
    FaultHandler handler_;
    std::array<TlbEntry, kTlbEntries> tlb_{};
    std::uint64_t seen_generation_ = 0;
    Nanos pending_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t faults_ = 0;
};

} // namespace rko::mem
