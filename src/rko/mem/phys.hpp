// Simulated physical memory, partitioned per kernel.
//
// At boot Popcorn carves the machine's RAM into per-kernel partitions; we
// model each partition as a host allocation, zeroed lazily by the host (see
// PhysMem::PhysMem). A Paddr encodes (kernel, frame): paddr =
// (global_frame_index + 1) * kPageSize, so paddr 0 stays an invalid
// sentinel.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <vector>

#include "rko/base/assert.hpp"
#include "rko/mem/types.hpp"
#include "rko/topo/topology.hpp"

namespace rko::mem {

class PhysMem {
public:
    PhysMem(int nkernels, std::size_t frames_per_kernel);

    int nkernels() const { return nkernels_; }
    std::size_t frames_per_kernel() const { return frames_per_kernel_; }

    /// Host pointer to the 4 KiB frame backing `paddr` (page-aligned).
    std::byte* frame_ptr(Paddr paddr);
    const std::byte* frame_ptr(Paddr paddr) const;

    /// Which kernel's partition a frame belongs to.
    topo::KernelId home_of(Paddr paddr) const;

    /// Paddr of frame `index` within kernel `k`'s partition.
    Paddr frame_paddr(topo::KernelId k, std::size_t index) const {
        RKO_ASSERT(k >= 0 && k < nkernels_ && index < frames_per_kernel_);
        const std::uint64_t global =
            static_cast<std::uint64_t>(k) * frames_per_kernel_ + index;
        return (global + 1) * kPageSize;
    }

    /// Inverse of frame_paddr: partition-local frame index.
    std::size_t frame_index(Paddr paddr) const;

private:
    std::uint64_t global_index(Paddr paddr) const {
        RKO_ASSERT_MSG(paddr != 0 && (paddr & kPageMask) == 0, "bad paddr");
        const std::uint64_t global = paddr / kPageSize - 1;
        RKO_ASSERT(global < static_cast<std::uint64_t>(nkernels_) * frames_per_kernel_);
        return global;
    }

    struct FreeDeleter {
        void operator()(std::byte* p) const { std::free(p); }
    };

    int nkernels_;
    std::size_t frames_per_kernel_;
    std::vector<std::unique_ptr<std::byte[], FreeDeleter>> partitions_;
};

} // namespace rko::mem
