// Property-based tests: randomized operation sequences checked against
// reference models (parameterized over seeds and machine shapes).
//
//  - VmaTree vs. a per-page map model (insert/erase/protect/find/gap).
//  - Buddy allocator vs. a set model (uniqueness, alignment, conservation).
//  - PageTable vs. a hash-map model (map/clear/protect over sparse VAs).
//  - DSM coherence fuzz: threads on different kernels randomly increment
//    privately-owned slots scattered across shared pages, interleaved with
//    reads of other slots, migrations, mmap churn, and barriers; every
//    increment must survive (the invariant that caught two real protocol
//    bugs during development).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "rko/api/machine.hpp"
#include "rko/base/rng.hpp"
#include "rko/mem/frame_alloc.hpp"
#include "rko/mem/pagetable.hpp"
#include "rko/mem/vma.hpp"
#include "rko/sim/actor.hpp"
#include "rko/smp/smp.hpp"

namespace rko {
namespace {

using namespace rko::time_literals;
using mem::kPageSize;
using mem::Vaddr;

// ---------------------------------------------------------------------------
// VmaTree vs. reference model.
// ---------------------------------------------------------------------------

struct VmaModel {
    std::map<std::uint64_t, std::uint32_t> pages; // vpn -> prot

    bool overlaps(Vaddr start, Vaddr end) const {
        for (Vaddr va = start; va < end; va += kPageSize) {
            if (pages.contains(mem::vpn_of(va))) return true;
        }
        return false;
    }
    void insert(Vaddr start, Vaddr end, std::uint32_t prot) {
        for (Vaddr va = start; va < end; va += kPageSize) {
            pages[mem::vpn_of(va)] = prot;
        }
    }
    void erase(Vaddr start, Vaddr end) {
        for (Vaddr va = start; va < end; va += kPageSize) {
            pages.erase(mem::vpn_of(va));
        }
    }
    void protect(Vaddr start, Vaddr end, std::uint32_t prot) {
        for (Vaddr va = start; va < end; va += kPageSize) {
            auto it = pages.find(mem::vpn_of(va));
            if (it != pages.end()) it->second = prot;
        }
    }
};

class VmaProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(VmaProperty, RandomOpsMatchModel) {
    base::Rng rng(GetParam());
    mem::VmaTree tree;
    VmaModel model;
    constexpr Vaddr kBase = mem::kMmapBase;
    constexpr std::uint64_t kSpanPages = 256;

    for (int op = 0; op < 3000; ++op) {
        const Vaddr start =
            kBase + rng.below(kSpanPages) * kPageSize;
        const std::uint64_t length = (1 + rng.below(8)) * kPageSize;
        const Vaddr end = start + length;
        const auto prot = static_cast<std::uint32_t>(1 + rng.below(3));
        switch (rng.below(4)) {
        case 0: { // insert (must agree on overlap acceptance)
            const bool accepted = tree.insert({start, end, prot});
            EXPECT_EQ(accepted, !model.overlaps(start, end));
            if (accepted) model.insert(start, end, prot);
            break;
        }
        case 1:
            tree.erase_range(start, end);
            model.erase(start, end);
            break;
        case 2:
            tree.protect_range(start, end, prot);
            model.protect(start, end, prot);
            break;
        case 3: { // point query
            const Vaddr probe = kBase + rng.below(kSpanPages) * kPageSize +
                                rng.below(kPageSize);
            const mem::Vma* vma = tree.find(probe);
            auto it = model.pages.find(mem::vpn_of(probe));
            if (it == model.pages.end()) {
                EXPECT_EQ(vma, nullptr) << "tree maps an unmapped page";
            } else {
                ASSERT_NE(vma, nullptr) << "tree lost a mapped page";
                EXPECT_EQ(vma->prot, it->second);
            }
            break;
        }
        }
    }
    // Final full sweep + byte accounting.
    std::uint64_t model_bytes = model.pages.size() * kPageSize;
    EXPECT_EQ(tree.mapped_bytes(), model_bytes);
    for (Vaddr va = kBase; va < kBase + kSpanPages * kPageSize; va += kPageSize) {
        const bool in_tree = tree.find(va) != nullptr;
        EXPECT_EQ(in_tree, model.pages.contains(mem::vpn_of(va)));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmaProperty, testing::Values(1, 2, 3, 17, 99));

// ---------------------------------------------------------------------------
// Buddy allocator vs. set model.
// ---------------------------------------------------------------------------

class BuddyProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(BuddyProperty, NoOverlapAlignedAndConserving) {
    sim::Engine engine;
    sim::Actor actor(engine, "alloc", [&](sim::Actor&) {
        base::Rng rng(GetParam());
        mem::PhysMem phys(1, 1024);
        topo::CostModel costs;
        mem::FrameAllocator alloc(phys, 0, costs);
        const std::size_t total = alloc.free_frames();

        struct Block {
            mem::Paddr paddr;
            int order;
        };
        std::vector<Block> live;
        std::set<std::size_t> owned_frames;

        for (int op = 0; op < 4000; ++op) {
            if (live.empty() || rng.chance(0.55)) {
                const int order = static_cast<int>(rng.below(5));
                const mem::Paddr p = alloc.alloc(order);
                if (p == 0) continue; // exhausted at this order
                const std::size_t index = phys.frame_index(p);
                ASSERT_EQ(index % (1ULL << order), 0u) << "misaligned block";
                for (std::size_t f = index; f < index + (1ULL << order); ++f) {
                    ASSERT_TRUE(owned_frames.insert(f).second)
                        << "allocator handed out an owned frame";
                }
                live.push_back({p, order});
            } else {
                const std::size_t pick = rng.below(live.size());
                const Block block = live[pick];
                live[pick] = live.back();
                live.pop_back();
                alloc.free(block.paddr, block.order);
                const std::size_t index = phys.frame_index(block.paddr);
                for (std::size_t f = index; f < index + (1ULL << block.order); ++f) {
                    owned_frames.erase(f);
                }
            }
            ASSERT_EQ(alloc.free_frames() + owned_frames.size(), total)
                << "frames leaked or double-counted";
        }
        for (const Block& block : live) alloc.free(block.paddr, block.order);
        EXPECT_EQ(alloc.free_frames(), total);
        // Everything merged back: the max-order block must be available.
        const mem::Paddr big = alloc.alloc(mem::FrameAllocator::kMaxOrder);
        EXPECT_NE(big, 0u);
    });
    actor.start();
    engine.run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyProperty, testing::Values(4, 5, 6, 42));

// ---------------------------------------------------------------------------
// PageTable vs. hash-map model.
// ---------------------------------------------------------------------------

class PageTableProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(PageTableProperty, SparseRandomOpsMatchModel) {
    base::Rng rng(GetParam());
    mem::PageTable pt;
    std::map<Vaddr, std::pair<mem::Paddr, std::uint32_t>> model;

    // Sparse addresses across the whole canonical range stress every radix
    // level.
    auto random_va = [&rng] {
        return (rng.below(1ULL << 35)) << mem::kPageShift;
    };
    std::vector<Vaddr> known;
    for (int op = 0; op < 5000; ++op) {
        const bool reuse = !known.empty() && rng.chance(0.5);
        const Vaddr va = reuse ? known[rng.below(known.size())] : random_va();
        if (!reuse) known.push_back(va);
        switch (rng.below(3)) {
        case 0: {
            const mem::Paddr paddr = (1 + rng.below(1 << 20)) * kPageSize;
            const auto prot = static_cast<std::uint32_t>(1 + rng.below(3));
            pt.map(va, paddr, prot);
            model[va] = {paddr, prot};
            break;
        }
        case 1: {
            const mem::Pte old = pt.clear(va);
            const auto it = model.find(va);
            EXPECT_EQ(old.present, it != model.end());
            if (it != model.end()) {
                EXPECT_EQ(old.paddr, it->second.first);
                model.erase(it);
            }
            break;
        }
        case 2: {
            const mem::Pte* pte = pt.find(va);
            const auto it = model.find(va);
            if (it == model.end()) {
                EXPECT_TRUE(pte == nullptr || !pte->present);
            } else {
                ASSERT_NE(pte, nullptr);
                EXPECT_TRUE(pte->present);
                EXPECT_EQ(pte->paddr, it->second.first);
                EXPECT_EQ(pte->prot, it->second.second);
            }
            break;
        }
        }
        ASSERT_EQ(pt.present_pages(), model.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTableProperty, testing::Values(7, 8, 1234));

// ---------------------------------------------------------------------------
// DSM coherence fuzz.
// ---------------------------------------------------------------------------

struct FuzzParam {
    std::uint64_t seed;
    int cores;
    int kernels;
    int threads;
    bool read_replication = true;
    /// 0: the MachineConfig default (RKO_HOME_SHARDS / RKO_WORKSET_PUSH).
    std::uint8_t home_shards = 0;
    std::uint16_t workset_push = 0;
};
// gtest_discover_tests names each case after the printed bytes of its
// param, so the two knobs above live in what was tail padding: growing the
// struct would rename every existing case.
static_assert(sizeof(FuzzParam) == 24);

class DsmFuzz : public testing::TestWithParam<FuzzParam> {};

TEST_P(DsmFuzz, NoIncrementEverLost) {
    const FuzzParam param = GetParam();
    auto config = smp::popcorn_config(param.cores, param.kernels);
    config.read_replication = param.read_replication;
    if (param.home_shards != 0) config.home_shards = param.home_shards;
    if (param.workset_push != 0) config.workset_push = param.workset_push;
    api::Machine machine(config);
    auto& process = machine.create_process(0);

    constexpr int kSlotsPerThread = 8;
    constexpr int kOpsPerThread = 400;
    const int threads = param.threads;
    Vaddr slots = 0;   // interleaved: slot (s * threads + t) belongs to t
    Vaddr scratch_len = 4 * kPageSize;
    std::vector<std::uint64_t> expected(static_cast<std::size_t>(threads), 0);

    auto& init = process.spawn(
        [&](api::Guest& g) {
            slots = g.mmap(static_cast<std::uint64_t>(
                mem::page_ceil(static_cast<std::uint64_t>(kSlotsPerThread) *
                               static_cast<std::uint64_t>(threads) * 8)));
        },
        0);

    for (int t = 0; t < threads; ++t) {
        process.spawn(
            [&, t](api::Guest& g) {
                g.join(init);
                base::Rng rng(param.seed * 1000003 + static_cast<std::uint64_t>(t));
                std::uint64_t my_increments = 0;
                for (int op = 0; op < kOpsPerThread; ++op) {
                    switch (rng.below(10)) {
                    case 0: { // mmap/touch/munmap churn
                        const Vaddr buf = g.mmap(scratch_len);
                        if (buf != 0) {
                            g.write<int>(buf + kPageSize, op);
                            g.munmap(buf, scratch_len);
                        }
                        break;
                    }
                    case 1: // migrate somewhere
                        g.migrate(static_cast<topo::KernelId>(
                            rng.below(static_cast<std::uint64_t>(param.kernels))));
                        break;
                    case 2: { // read a random (possibly foreign) slot
                        const auto idx = rng.below(static_cast<std::uint64_t>(
                            kSlotsPerThread * threads));
                        (void)g.read<std::uint64_t>(slots + idx * 8);
                        break;
                    }
                    case 3:
                        g.yield();
                        break;
                    default: { // increment one of my own slots (non-atomic!)
                        const auto s = rng.below(kSlotsPerThread);
                        const Vaddr addr =
                            slots + (s * static_cast<std::uint64_t>(threads) +
                                     static_cast<std::uint64_t>(t)) *
                                        8;
                        g.write<std::uint64_t>(addr,
                                               g.read<std::uint64_t>(addr) + 1);
                        ++my_increments;
                        break;
                    }
                    }
                }
                expected[static_cast<std::size_t>(t)] = my_increments;
            },
            static_cast<topo::KernelId>(t % param.kernels));
    }

    machine.run();
    process.check_all_joined();

    // Verify from a fresh reader thread (pulls authoritative copies).
    std::vector<std::uint64_t> actual(static_cast<std::size_t>(threads), 0);
    process.spawn(
        [&](api::Guest& g) {
            for (int t = 0; t < threads; ++t) {
                std::uint64_t sum = 0;
                for (int s = 0; s < kSlotsPerThread; ++s) {
                    sum += g.read<std::uint64_t>(
                        slots + (static_cast<std::uint64_t>(s) *
                                     static_cast<std::uint64_t>(threads) +
                                 static_cast<std::uint64_t>(t)) *
                                    8);
                }
                actual[static_cast<std::size_t>(t)] = sum;
            }
        },
        0);
    machine.run();
    process.check_all_joined();
    for (int t = 0; t < threads; ++t) {
        EXPECT_EQ(actual[static_cast<std::size_t>(t)],
                  expected[static_cast<std::size_t>(t)])
            << "thread " << t << " lost or duplicated increments";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, DsmFuzz,
    testing::Values(FuzzParam{11, 4, 2, 4}, FuzzParam{12, 8, 2, 8},
                    FuzzParam{13, 8, 4, 8}, FuzzParam{14, 8, 4, 12},
                    FuzzParam{15, 16, 8, 16}, FuzzParam{16, 8, 1, 8},
                    // migrate-on-any-fault ablation (no Shared state)
                    FuzzParam{17, 8, 4, 8, false},
                    FuzzParam{18, 8, 2, 6, false},
                    // sharded homes + working-set push: a munmap replica
                    // sweep can drop a push source's copy mid-push
                    FuzzParam{12, 8, 2, 8, true, 4, 32},
                    FuzzParam{13, 8, 4, 8, true, 4, 32},
                    FuzzParam{15, 16, 8, 16, true, 4, 32}),
    [](const testing::TestParamInfo<FuzzParam>& param_info) {
        const FuzzParam& p = param_info.param;
        return "seed" + std::to_string(p.seed) + "_c" + std::to_string(p.cores) + "_k" +
               std::to_string(p.kernels) + "_t" + std::to_string(p.threads) +
               (p.read_replication ? "" : "_noshared") +
               (p.home_shards != 0 ? "_s" + std::to_string(p.home_shards) : "") +
               (p.workset_push != 0 ? "_w" + std::to_string(p.workset_push) : "");
    });

} // namespace
} // namespace rko
