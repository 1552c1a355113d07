// Unit tests for the memory substrate: physical partitions, the buddy
// allocator, page tables, VMA trees, and the software MMU (including the
// fault-retry loop and TLB shootdown generations).
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <vector>

#include "rko/mem/addrspace.hpp"
#include "rko/mem/frame_alloc.hpp"
#include "rko/mem/mmu.hpp"
#include "rko/mem/pagetable.hpp"
#include "rko/mem/phys.hpp"
#include "rko/mem/vma.hpp"
#include "rko/sim/actor.hpp"

namespace rko::mem {
namespace {

using sim::Actor;
using sim::Engine;

/// Runs `body` inside a simulation actor (allocator/MMU ops charge time and
/// need a current actor).
void in_sim(const std::function<void(Actor&)>& body) {
    Engine engine;
    Actor actor(engine, "test", body);
    actor.start();
    engine.run();
    ASSERT_TRUE(actor.finished());
}

TEST(PhysMem, PaddrRoundTrip) {
    PhysMem phys(3, 128);
    const Paddr p = phys.frame_paddr(2, 5);
    EXPECT_EQ(phys.home_of(p), 2);
    EXPECT_EQ(phys.frame_index(p), 5u);
    EXPECT_NE(phys.frame_ptr(p), nullptr);
    EXPECT_NE(p, 0u);
}

TEST(PhysMem, DistinctFramesDistinctStorage) {
    PhysMem phys(2, 16);
    std::byte* a = phys.frame_ptr(phys.frame_paddr(0, 0));
    std::byte* b = phys.frame_ptr(phys.frame_paddr(0, 1));
    std::byte* c = phys.frame_ptr(phys.frame_paddr(1, 0));
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    a[0] = std::byte{0xaa};
    EXPECT_EQ(b[0], std::byte{0});
    EXPECT_EQ(c[0], std::byte{0});
    // Fresh frames read zero end to end, up to each partition's last byte.
    for (int k = 0; k < phys.nkernels(); ++k) {
        const std::byte* last =
            phys.frame_ptr(phys.frame_paddr(k, phys.frames_per_kernel() - 1));
        for (std::size_t i = 0; i < kPageSize; ++i) {
            ASSERT_EQ(last[i], std::byte{0}) << "kernel " << k << " byte " << i;
        }
    }
}

TEST(FrameAllocator, AllocatesDistinctFrames) {
    in_sim([](Actor&) {
        PhysMem phys(1, 64);
        topo::CostModel costs;
        FrameAllocator alloc(phys, 0, costs);
        std::set<Paddr> seen;
        for (int i = 0; i < 64; ++i) {
            const Paddr p = alloc.alloc();
            ASSERT_NE(p, 0u);
            EXPECT_TRUE(seen.insert(p).second);
        }
        EXPECT_EQ(alloc.free_frames(), 0u);
        EXPECT_EQ(alloc.alloc(), 0u); // exhausted
        EXPECT_EQ(alloc.failed_allocs(), 1u);
    });
}

TEST(FrameAllocator, FreeMergesBuddiesBack) {
    in_sim([](Actor&) {
        PhysMem phys(1, 64);
        topo::CostModel costs;
        FrameAllocator alloc(phys, 0, costs);
        std::vector<Paddr> pages;
        for (int i = 0; i < 64; ++i) pages.push_back(alloc.alloc());
        for (const Paddr p : pages) alloc.free(p);
        EXPECT_EQ(alloc.free_frames(), 64u);
        // After full free, a max-order block must be allocatable again.
        const Paddr big = alloc.alloc(6); // 64 frames => order 6
        EXPECT_NE(big, 0u);
        alloc.free(big, 6);
    });
}

TEST(FrameAllocator, HigherOrderAllocationAligned) {
    in_sim([](Actor&) {
        PhysMem phys(1, 256);
        topo::CostModel costs;
        FrameAllocator alloc(phys, 0, costs);
        const Paddr p = alloc.alloc(4); // 16 frames
        ASSERT_NE(p, 0u);
        EXPECT_EQ(phys.frame_index(p) % 16, 0u);
        alloc.free(p, 4);
        EXPECT_EQ(alloc.free_frames(), 256u);
    });
}

TEST(FrameAllocator, ZeroedPageIsZero) {
    in_sim([](Actor&) {
        PhysMem phys(1, 16);
        topo::CostModel costs;
        FrameAllocator alloc(phys, 0, costs);
        const Paddr dirty = alloc.alloc();
        phys.frame_ptr(dirty)[123] = std::byte{7};
        alloc.free(dirty);
        const Paddr p = alloc.alloc_page_zeroed();
        const std::byte* frame = phys.frame_ptr(p);
        for (std::size_t i = 0; i < kPageSize; ++i) {
            ASSERT_EQ(frame[i], std::byte{0});
        }
    });
}

TEST(FrameAllocator, PartitionHonoursHomeKernel) {
    in_sim([](Actor&) {
        PhysMem phys(2, 32);
        topo::CostModel costs;
        FrameAllocator a0(phys, 0, costs);
        FrameAllocator a1(phys, 1, costs);
        const Paddr p0 = a0.alloc();
        const Paddr p1 = a1.alloc();
        EXPECT_EQ(phys.home_of(p0), 0);
        EXPECT_EQ(phys.home_of(p1), 1);
    });
}

TEST(PageTable, MapFindClear) {
    PageTable pt;
    EXPECT_EQ(pt.find(0x7000'0000'0000ULL), nullptr);
    pt.map(0x7000'0000'0000ULL, kPageSize, kProtRead | kProtWrite);
    const Pte* pte = pt.find(0x7000'0000'0000ULL);
    ASSERT_NE(pte, nullptr);
    EXPECT_TRUE(pte->allows(kProtRead));
    EXPECT_TRUE(pte->allows(kProtRead | kProtWrite));
    EXPECT_FALSE(pte->allows(kProtExec));
    EXPECT_EQ(pt.present_pages(), 1u);
    const Pte old = pt.clear(0x7000'0000'0000ULL);
    EXPECT_TRUE(old.present);
    EXPECT_EQ(pt.present_pages(), 0u);
    EXPECT_FALSE(pt.clear(0x7000'0000'0000ULL).present);
}

TEST(PageTable, ProtectNarrowsAccess) {
    PageTable pt;
    pt.map(kPageSize, kPageSize, kProtRead | kProtWrite);
    EXPECT_TRUE(pt.protect(kPageSize, kProtRead));
    EXPECT_FALSE(pt.find(kPageSize)->allows(kProtWrite));
    EXPECT_FALSE(pt.protect(2 * kPageSize, kProtRead)); // absent
}

TEST(PageTable, SparseAddressesDoNotCollide) {
    PageTable pt;
    const Vaddr a = 0x0000'1000'0000'0000ULL;
    const Vaddr b = 0x0000'7fff'ffff'f000ULL;
    pt.map(a, kPageSize, kProtRead);
    pt.map(b, 2 * kPageSize, kProtWrite);
    EXPECT_EQ(pt.find(a)->paddr, kPageSize);
    EXPECT_EQ(pt.find(b)->paddr, 2 * kPageSize);
    EXPECT_EQ(pt.present_pages(), 2u);
}

TEST(PageTable, ForEachPresentRespectsRange) {
    PageTable pt;
    for (int i = 0; i < 10; ++i) {
        pt.map(kMmapBase + static_cast<Vaddr>(i) * kPageSize,
               static_cast<Paddr>(i + 1) * kPageSize, kProtRead);
    }
    std::vector<Vaddr> seen;
    pt.for_each_present(kMmapBase + 2 * kPageSize, kMmapBase + 7 * kPageSize,
                        [&](Vaddr va, Pte&) { seen.push_back(va); });
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_EQ(seen.front(), kMmapBase + 2 * kPageSize);
    EXPECT_EQ(seen.back(), kMmapBase + 6 * kPageSize);
}

TEST(VmaTree, InsertRejectsOverlap) {
    VmaTree tree;
    EXPECT_TRUE(tree.insert({kMmapBase, kMmapBase + 4 * kPageSize, kProtRead}));
    EXPECT_FALSE(tree.insert({kMmapBase + kPageSize, kMmapBase + 2 * kPageSize, kProtRead}));
    EXPECT_FALSE(tree.insert({kMmapBase - kPageSize, kMmapBase + kPageSize, kProtRead}));
    EXPECT_TRUE(tree.insert({kMmapBase + 4 * kPageSize, kMmapBase + 5 * kPageSize, kProtRead}));
    EXPECT_EQ(tree.count(), 2u);
    EXPECT_EQ(tree.mapped_bytes(), 5 * kPageSize);
}

TEST(VmaTree, FindContainingAddress) {
    VmaTree tree;
    tree.insert({kMmapBase, kMmapBase + 2 * kPageSize, kProtRead | kProtWrite});
    EXPECT_EQ(tree.find(kMmapBase), &*tree.find(kMmapBase));
    EXPECT_NE(tree.find(kMmapBase + kPageSize + 5), nullptr);
    EXPECT_EQ(tree.find(kMmapBase + 2 * kPageSize), nullptr); // end exclusive
    EXPECT_EQ(tree.find(kMmapBase - 1), nullptr);
}

TEST(VmaTree, EraseMiddleSplits) {
    VmaTree tree;
    tree.insert({kMmapBase, kMmapBase + 10 * kPageSize, kProtRead});
    auto removed = tree.erase_range(kMmapBase + 3 * kPageSize, kMmapBase + 6 * kPageSize);
    ASSERT_EQ(removed.size(), 1u);
    EXPECT_EQ(removed[0].start, kMmapBase + 3 * kPageSize);
    EXPECT_EQ(removed[0].end, kMmapBase + 6 * kPageSize);
    EXPECT_EQ(tree.count(), 2u);
    EXPECT_NE(tree.find(kMmapBase + 2 * kPageSize), nullptr);
    EXPECT_EQ(tree.find(kMmapBase + 4 * kPageSize), nullptr);
    EXPECT_NE(tree.find(kMmapBase + 7 * kPageSize), nullptr);
    EXPECT_EQ(tree.mapped_bytes(), 7 * kPageSize);
}

TEST(VmaTree, EraseSpanningMultipleVmas) {
    VmaTree tree;
    tree.insert({kMmapBase, kMmapBase + 2 * kPageSize, kProtRead});
    tree.insert({kMmapBase + 2 * kPageSize, kMmapBase + 4 * kPageSize, kProtWrite | kProtRead});
    tree.insert({kMmapBase + 8 * kPageSize, kMmapBase + 9 * kPageSize, kProtRead});
    auto removed = tree.erase_range(kMmapBase + kPageSize, kMmapBase + 9 * kPageSize);
    EXPECT_EQ(removed.size(), 3u);
    EXPECT_EQ(tree.count(), 1u);
    EXPECT_EQ(tree.mapped_bytes(), kPageSize);
}

TEST(VmaTree, EraseUnmappedRangeIsNoop) {
    VmaTree tree;
    tree.insert({kMmapBase, kMmapBase + kPageSize, kProtRead});
    auto removed = tree.erase_range(kMmapBase + 4 * kPageSize, kMmapBase + 8 * kPageSize);
    EXPECT_TRUE(removed.empty());
    EXPECT_EQ(tree.count(), 1u);
}

TEST(VmaTree, ProtectSplitsAtEdges) {
    VmaTree tree;
    tree.insert({kMmapBase, kMmapBase + 8 * kPageSize, kProtRead | kProtWrite});
    auto affected =
        tree.protect_range(kMmapBase + 2 * kPageSize, kMmapBase + 4 * kPageSize, kProtRead);
    ASSERT_EQ(affected.size(), 1u);
    EXPECT_EQ(affected[0].prot, kProtRead);
    EXPECT_EQ(tree.count(), 3u);
    EXPECT_EQ(tree.find(kMmapBase + 2 * kPageSize)->prot, kProtRead);
    EXPECT_EQ(tree.find(kMmapBase + 5 * kPageSize)->prot, kProtRead | kProtWrite);
    EXPECT_EQ(tree.mapped_bytes(), 8 * kPageSize);
}

TEST(VmaTree, FindGapSkipsMappings) {
    VmaTree tree;
    tree.insert({kMmapBase, kMmapBase + kPageSize, kProtRead});
    tree.insert({kMmapBase + 2 * kPageSize, kMmapBase + 3 * kPageSize, kProtRead});
    // A 1-page gap exists between the two.
    EXPECT_EQ(tree.find_gap(kPageSize, kMmapBase, kMmapTop), kMmapBase + kPageSize);
    // A 2-page request must skip past both.
    EXPECT_EQ(tree.find_gap(2 * kPageSize, kMmapBase, kMmapTop), kMmapBase + 3 * kPageSize);
    // Bounded search that cannot fit returns 0.
    EXPECT_EQ(tree.find_gap(4 * kPageSize, kMmapBase, kMmapBase + 4 * kPageSize), 0u);
}

TEST(VmaTree, SnapshotSorted) {
    VmaTree tree;
    tree.insert({kMmapBase + 4 * kPageSize, kMmapBase + 5 * kPageSize, kProtRead});
    tree.insert({kMmapBase, kMmapBase + kPageSize, kProtRead});
    auto snap = tree.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_LT(snap[0].start, snap[1].start);
}

// ---------------------------------------------------------------------------
// MMU tests with a minimal demand-zero fault handler.
// ---------------------------------------------------------------------------

struct MmuFixture {
    PhysMem phys{1, 256};
    topo::CostModel costs;
    FrameAllocator alloc{phys, 0, costs};
    AddressSpace space{1, 0, 0};
    Mmu mmu{phys, costs};
    int faults_seen = 0;

    void attach_demand_zero() {
        space.vmas().insert({kMmapBase, kMmapBase + 64 * kPageSize, kProtRead | kProtWrite});
        mmu.attach(&space, [this](Vaddr va, std::uint32_t access) {
            ++faults_seen;
            const Vma* vma = space.vmas().find(va);
            if (vma == nullptr || (vma->prot & access) != access) {
                return Mmu::FaultResult::kSegv;
            }
            const Paddr frame = alloc.alloc_page_zeroed();
            RKO_ASSERT(frame != 0);
            space.page_table().map(va, frame, vma->prot);
            return Mmu::FaultResult::kFixed;
        });
    }
};

TEST(Mmu, DemandZeroReadAfterWrite) {
    in_sim([](Actor&) {
        MmuFixture f;
        f.attach_demand_zero();
        f.mmu.write<std::uint64_t>(kMmapBase + 8, 0xdeadbeefULL);
        EXPECT_EQ(f.mmu.read<std::uint64_t>(kMmapBase + 8), 0xdeadbeefULL);
        EXPECT_EQ(f.faults_seen, 1);
        EXPECT_EQ(f.mmu.read<std::uint32_t>(kMmapBase), 0u); // zero-filled
    });
}

TEST(Mmu, TlbHitAvoidsSecondWalk) {
    in_sim([](Actor&) {
        MmuFixture f;
        f.attach_demand_zero();
        f.mmu.write<int>(kMmapBase, 1);
        const auto misses_before = f.mmu.tlb_misses();
        for (int i = 0; i < 100; ++i) f.mmu.read<int>(kMmapBase);
        EXPECT_EQ(f.mmu.tlb_misses(), misses_before);
        EXPECT_GE(f.mmu.tlb_hits(), 100u);
    });
}

TEST(Mmu, CrossPageAccessSpansCorrectly) {
    in_sim([](Actor&) {
        MmuFixture f;
        f.attach_demand_zero();
        const Vaddr boundary = kMmapBase + kPageSize - 4;
        f.mmu.write<std::uint64_t>(boundary, 0x1122334455667788ULL);
        EXPECT_EQ(f.mmu.read<std::uint64_t>(boundary), 0x1122334455667788ULL);
        EXPECT_EQ(f.faults_seen, 2); // both pages faulted in
        // The two halves live in different frames.
        EXPECT_EQ(f.mmu.read<std::uint32_t>(boundary), 0x55667788u);
        EXPECT_EQ(f.mmu.read<std::uint32_t>(boundary + 4), 0x11223344u);
    });
}

TEST(Mmu, SegvOnUnmappedAddress) {
    in_sim([](Actor&) {
        MmuFixture f;
        f.attach_demand_zero();
        EXPECT_THROW(f.mmu.read<int>(0x1000), GuestFault);
    });
}

TEST(Mmu, SegvOnWriteToReadOnly) {
    in_sim([](Actor&) {
        MmuFixture f;
        f.attach_demand_zero();
        f.space.vmas().insert({kHeapBase, kHeapBase + kPageSize, kProtRead});
        EXPECT_THROW(f.mmu.write<int>(kHeapBase, 1), GuestFault);
    });
}

TEST(Mmu, GenerationBumpFlushesTlb) {
    in_sim([](Actor&) {
        MmuFixture f;
        f.attach_demand_zero();
        f.mmu.write<int>(kMmapBase, 42);
        // Simulate an invalidation: unmap the page and bump the generation.
        const Pte old = f.space.page_table().clear(kMmapBase);
        EXPECT_TRUE(old.present);
        f.space.bump_tlb_generation();
        // Next access must re-fault (demand-zero gives a fresh zero page).
        EXPECT_EQ(f.mmu.read<int>(kMmapBase), 0);
        EXPECT_EQ(f.faults_seen, 2);
    });
}

TEST(Mmu, RmwIsAppliedAtomically) {
    in_sim([](Actor&) {
        MmuFixture f;
        f.attach_demand_zero();
        f.mmu.write<std::uint32_t>(kMmapBase, 10);
        const std::uint32_t old =
            f.mmu.rmw_u32(kMmapBase, [](std::uint32_t v) { return v + 5; });
        EXPECT_EQ(old, 10u);
        EXPECT_EQ(f.mmu.read<std::uint32_t>(kMmapBase), 15u);
    });
}

TEST(Mmu, ChargesAdvanceVirtualTime) {
    Engine engine;
    Nanos elapsed = 0;
    Actor actor(engine, "t", [&](Actor& self) {
        MmuFixture f;
        f.attach_demand_zero();
        const Nanos t0 = self.now();
        for (int i = 0; i < 100'000; ++i) {
            f.mmu.write<int>(kMmapBase + static_cast<Vaddr>(i % 1024) * 4, i);
        }
        f.mmu.flush_charges();
        elapsed = self.now() - t0;
    });
    actor.start();
    engine.run();
    // 100k accesses at ~2 ns each plus fault costs: at least 200 us.
    EXPECT_GE(elapsed, 200'000);
}

// read<T>/write<T> take an inline soft-TLB hit; read_bytes/write_bytes go
// through translate. The same access sequence through each, in its own
// engine, must book the same virtual time and the same TLB counters.
struct AccessTotals {
    Nanos clock_sum = 0; ///< now() after every access pair: flush points
    Nanos before_flush = 0;
    Nanos after_flush = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t faults = 0;
    std::uint64_t checksum = 0;
};

template <typename T>
T load(Mmu& mmu, Vaddr addr, bool typed) {
    if (typed) return mmu.read<T>(addr);
    T value{};
    mmu.read_bytes(addr, reinterpret_cast<std::byte*>(&value), sizeof(T));
    return value;
}

template <typename T>
void store(Mmu& mmu, Vaddr addr, const T& value, bool typed) {
    if (typed) {
        mmu.write<T>(addr, value);
    } else {
        mmu.write_bytes(addr, reinterpret_cast<const std::byte*>(&value), sizeof(T));
    }
}

AccessTotals run_access_sequence(bool typed) {
    struct Line {
        std::uint64_t words[8];
    };
    static_assert(sizeof(Line) == 64);
    AccessTotals totals;
    Engine engine;
    Actor actor(engine, "t", [&](Actor& self) {
        MmuFixture f;
        f.attach_demand_zero();
        Mmu& mmu = f.mmu;
        // ~6000 accesses at 2 ns: several 2 us charge quanta, with faults
        // and fills on eight pages mixed in.
        for (std::uint32_t i = 0; i < 3000; ++i) {
            const Vaddr a = kMmapBase + (i % 8) * kPageSize + (i * 12) % (kPageSize - 4);
            store<std::uint32_t>(mmu, a, i, typed);
            totals.checksum += load<std::uint32_t>(mmu, a, typed);
            totals.clock_sum += self.now();
        }
        // A shootdown between two hits on the same page.
        totals.checksum += load<std::uint32_t>(mmu, kMmapBase, typed);
        f.space.bump_tlb_generation();
        totals.checksum += load<std::uint32_t>(mmu, kMmapBase, typed);
        // A u64 straddling a page boundary.
        const Vaddr straddle = kMmapBase + 9 * kPageSize - 4;
        store<std::uint64_t>(mmu, straddle, 0x1122334455667788ULL, typed);
        totals.checksum += load<std::uint64_t>(mmu, straddle, typed);
        // One whole 64-byte line: charged a line on top of the access.
        Line line{};
        for (std::uint64_t w = 0; w < 8; ++w) line.words[w] = w * 0x0101;
        store<Line>(mmu, kMmapBase + 10 * kPageSize + 128, line, typed);
        const Line back = load<Line>(mmu, kMmapBase + 10 * kPageSize + 128, typed);
        for (const std::uint64_t w : back.words) totals.checksum += w;
        totals.before_flush = self.now();
        mmu.flush_charges();
        totals.after_flush = self.now();
        totals.hits = mmu.tlb_hits();
        totals.misses = mmu.tlb_misses();
        totals.faults = mmu.faults();
    });
    actor.start();
    engine.run();
    EXPECT_TRUE(actor.finished());
    return totals;
}

TEST(Mmu, InlineTlbHitMatchesByteCopyPath) {
    const AccessTotals typed = run_access_sequence(true);
    const AccessTotals bytes = run_access_sequence(false);
    EXPECT_EQ(typed.clock_sum, bytes.clock_sum);
    EXPECT_EQ(typed.before_flush, bytes.before_flush);
    EXPECT_EQ(typed.after_flush, bytes.after_flush);
    EXPECT_EQ(typed.hits, bytes.hits);
    EXPECT_EQ(typed.misses, bytes.misses);
    EXPECT_EQ(typed.faults, bytes.faults);
    EXPECT_EQ(typed.checksum, bytes.checksum);
    // The sequence really crossed quanta and mostly hit.
    EXPECT_GT(typed.after_flush, 5 * topo::CostModel{}.charge_quantum);
    EXPECT_GT(typed.hits, 5000u);
    EXPECT_EQ(typed.faults, 11u); // pages 0-7, both halves of 8|9, page 10
}

// The PTE dirty bit (the migratory-page reversion signal): a fresh
// mapping is clean, reads leave it clean, and the first store sets it. The
// store that sets it is charged exactly like a store through a dirty
// translation: one soft-TLB hit, no walk.
TEST(Mmu, DirtyBitSetOnFirstStoreOnly) {
    Engine engine;
    Actor actor(engine, "t", [&](Actor& self) {
        MmuFixture f;
        f.attach_demand_zero();
        (void)f.mmu.read<int>(kMmapBase); // read fault maps the page RW, clean
        (void)f.mmu.read<int>(kMmapBase + kPageSize);
        const Pte* pte = f.space.page_table().find(kMmapBase);
        ASSERT_TRUE(pte != nullptr && pte->present);
        ASSERT_TRUE(pte->allows(kProtWrite));
        for (int i = 0; i < 8; ++i) (void)f.mmu.read<int>(kMmapBase + 64);
        EXPECT_FALSE(pte->dirty);

        // Times one store, from a settled clock to a settled clock.
        const auto store_cost = [&](Vaddr addr) {
            f.mmu.flush_charges();
            const Nanos t0 = self.now();
            const auto hits = f.mmu.tlb_hits();
            const auto misses = f.mmu.tlb_misses();
            f.mmu.write<int>(addr, 7);
            f.mmu.flush_charges();
            EXPECT_EQ(f.mmu.tlb_hits(), hits + 1);
            EXPECT_EQ(f.mmu.tlb_misses(), misses);
            return self.now() - t0;
        };
        const Nanos first = store_cost(kMmapBase);
        EXPECT_TRUE(pte->dirty);
        const Nanos second = store_cost(kMmapBase + 8);
        EXPECT_EQ(first, second);
        EXPECT_EQ(first, f.costs.mem_access);
        // The other page was only read: still clean.
        EXPECT_FALSE(f.space.page_table().find(kMmapBase + kPageSize)->dirty);

        // Remapping the page (a fresh grant) starts it clean again.
        f.space.page_table().map(kMmapBase, pte->paddr, kProtRead | kProtWrite);
        f.space.bump_tlb_generation();
        EXPECT_FALSE(pte->dirty);
        f.mmu.write<int>(kMmapBase, 8);
        EXPECT_TRUE(pte->dirty);
    });
    actor.start();
    engine.run();
    EXPECT_TRUE(actor.finished());
}

TEST(Mmu, BulkCopyThroughPages) {
    in_sim([](Actor&) {
        MmuFixture f;
        f.attach_demand_zero();
        std::vector<std::byte> src(3 * kPageSize);
        for (std::size_t i = 0; i < src.size(); ++i) {
            src[i] = static_cast<std::byte>(i * 7);
        }
        f.mmu.write_bytes(kMmapBase + 100, src.data(), src.size());
        std::vector<std::byte> dst(src.size());
        f.mmu.read_bytes(kMmapBase + 100, dst.data(), dst.size());
        EXPECT_EQ(src, dst);
    });
}

} // namespace
} // namespace rko::mem
