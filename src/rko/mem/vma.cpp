#include "rko/mem/vma.hpp"

#include <algorithm>

namespace rko::mem {

namespace {

bool page_aligned_range(Vaddr start, Vaddr end) {
    return (start & kPageMask) == 0 && (end & kPageMask) == 0 && start < end;
}

} // namespace

bool VmaTree::insert(const Vma& vma) {
    RKO_ASSERT_MSG(page_aligned_range(vma.start, vma.end), "unaligned VMA");
    // The first entry whose start is >= vma.start, plus its predecessor,
    // are the only overlap candidates.
    auto next = by_start_.lower_bound(vma.start);
    if (next != by_start_.end() && next->second.overlaps(vma.start, vma.end)) {
        return false;
    }
    if (next != by_start_.begin()) {
        auto prev = std::prev(next);
        if (prev->second.overlaps(vma.start, vma.end)) return false;
    }
    by_start_.emplace(vma.start, vma);
    mapped_bytes_ += vma.length();
    return true;
}

const Vma* VmaTree::find(Vaddr addr) const {
    auto it = by_start_.upper_bound(addr);
    if (it == by_start_.begin()) return nullptr;
    --it;
    return it->second.contains(addr) ? &it->second : nullptr;
}

std::vector<Vma> VmaTree::erase_range(Vaddr start, Vaddr end) {
    RKO_ASSERT_MSG(page_aligned_range(start, end), "unaligned munmap range");
    std::vector<Vma> removed;

    auto it = by_start_.upper_bound(start);
    if (it != by_start_.begin()) --it;
    while (it != by_start_.end() && it->second.start < end) {
        Vma vma = it->second;
        if (!vma.overlaps(start, end)) {
            ++it;
            continue;
        }
        it = by_start_.erase(it);
        mapped_bytes_ -= vma.length();

        if (vma.start < start) {
            // Keep the left remainder.
            Vma left = vma;
            left.end = start;
            by_start_.emplace(left.start, left);
            mapped_bytes_ += left.length();
        }
        if (vma.end > end) {
            // Keep the right remainder.
            Vma right = vma;
            right.start = end;
            it = by_start_.emplace(right.start, right).first;
            mapped_bytes_ += right.length();
            ++it;
        }
        Vma middle = vma;
        middle.start = std::max(vma.start, start);
        middle.end = std::min(vma.end, end);
        removed.push_back(middle);
    }
    return removed;
}

std::vector<Vma> VmaTree::protect_range(Vaddr start, Vaddr end, std::uint32_t prot) {
    RKO_ASSERT_MSG(page_aligned_range(start, end), "unaligned mprotect range");
    std::vector<Vma> affected;
    // Erase the covered subranges, re-insert them with the new protection.
    for (Vma piece : erase_range(start, end)) {
        piece.prot = prot;
        RKO_ASSERT(insert(piece));
        affected.push_back(piece);
    }
    return affected;
}

Vaddr VmaTree::find_gap(std::uint64_t length, Vaddr lo, Vaddr hi) const {
    RKO_ASSERT((length & kPageMask) == 0 && length > 0);
    Vaddr candidate = lo;
    auto it = by_start_.upper_bound(lo);
    if (it != by_start_.begin()) {
        auto prev = std::prev(it);
        if (prev->second.end > candidate) candidate = prev->second.end;
    }
    while (it != by_start_.end() && it->second.start < hi) {
        if (it->second.start >= candidate + length) break;
        candidate = std::max(candidate, it->second.end);
        ++it;
    }
    if (candidate + length > hi) return 0;
    return candidate;
}

std::vector<Vma> VmaTree::snapshot() const {
    std::vector<Vma> all;
    all.reserve(by_start_.size());
    for (const auto& [start, vma] : by_start_) all.push_back(vma);
    return all;
}

} // namespace rko::mem
