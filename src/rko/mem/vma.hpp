// Virtual memory areas and the per-address-space interval tree.
//
// Supports the operations the VMA-consistency protocol replicates between
// kernels: insert (mmap), erase with splitting (munmap), re-protect with
// splitting (mprotect), containment queries (fault validation), and gap
// search (address assignment at the origin).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "rko/base/assert.hpp"
#include "rko/mem/types.hpp"

namespace rko::mem {

struct Vma {
    Vaddr start = 0;
    Vaddr end = 0; ///< exclusive, page-aligned
    std::uint32_t prot = kProtNone;

    std::uint64_t length() const { return end - start; }
    bool contains(Vaddr a) const { return a >= start && a < end; }
    bool overlaps(Vaddr s, Vaddr e) const { return start < e && s < end; }
    bool operator==(const Vma&) const = default;
};

class VmaTree {
public:
    /// Inserts a mapping; fails (returns false) on any overlap.
    bool insert(const Vma& vma);

    /// The VMA containing `addr`, or null.
    const Vma* find(Vaddr addr) const;

    /// Removes [start, end) from the tree, splitting VMAs that straddle the
    /// boundary. Returns the removed subranges (for page-table teardown).
    std::vector<Vma> erase_range(Vaddr start, Vaddr end);

    /// Applies `prot` to [start, end), splitting at the edges. Returns the
    /// affected subranges with their *new* protection. Ranges with no VMA
    /// are skipped (Linux mprotect would fail; the callers pre-validate).
    std::vector<Vma> protect_range(Vaddr start, Vaddr end, std::uint32_t prot);

    /// Lowest gap of `length` bytes within [lo, hi); 0 if none.
    Vaddr find_gap(std::uint64_t length, Vaddr lo, Vaddr hi) const;

    std::size_t count() const { return by_start_.size(); }
    std::uint64_t mapped_bytes() const { return mapped_bytes_; }

    /// Snapshot in address order (replica reconciliation, tests).
    std::vector<Vma> snapshot() const;

private:
    // Key: start address. Invariant: entries are disjoint and sorted.
    std::map<Vaddr, Vma> by_start_;
    std::uint64_t mapped_bytes_ = 0;
};

} // namespace rko::mem
