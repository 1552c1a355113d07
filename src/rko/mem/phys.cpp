#include "rko/mem/phys.hpp"

#include <new>

namespace rko::mem {

PhysMem::PhysMem(int nkernels, std::size_t frames_per_kernel)
    : nkernels_(nkernels), frames_per_kernel_(frames_per_kernel) {
    RKO_ASSERT(nkernels >= 1 && frames_per_kernel >= 1);
    partitions_.reserve(static_cast<std::size_t>(nkernels));
    for (int k = 0; k < nkernels; ++k) {
        // Frames start zeroed, like RAM after kernel boot scrubbing, but the
        // zeroing is the host's, done lazily: a partition this large is a
        // fresh anonymous mapping, so calloc skips the memset and the OS
        // supplies a zero page on first touch. A machine then pays host
        // memory and time only for the frames its guests use. Guest-visible
        // zeroing cost is charged at allocation (alloc_page_zeroed).
        auto* base = static_cast<std::byte*>(std::calloc(frames_per_kernel, kPageSize));
        if (base == nullptr) throw std::bad_alloc();
        partitions_.emplace_back(base);
    }
}

std::byte* PhysMem::frame_ptr(Paddr paddr) {
    const std::uint64_t global = global_index(paddr);
    const auto kernel = static_cast<std::size_t>(global / frames_per_kernel_);
    const std::uint64_t index = global % frames_per_kernel_;
    return partitions_[kernel].get() + index * kPageSize;
}

const std::byte* PhysMem::frame_ptr(Paddr paddr) const {
    return const_cast<PhysMem*>(this)->frame_ptr(paddr);
}

topo::KernelId PhysMem::home_of(Paddr paddr) const {
    return static_cast<topo::KernelId>(global_index(paddr) / frames_per_kernel_);
}

std::size_t PhysMem::frame_index(Paddr paddr) const {
    return static_cast<std::size_t>(global_index(paddr) % frames_per_kernel_);
}

} // namespace rko::mem
