// rko/home: sharded page/VMA directory homes (DESIGN.md §14).
//
// Unit coverage: the home Map's hash/rendezvous properties (stability,
// full-shard coverage, minimal disruption on membership shrink) and the
// unsharded fallback. Behavioural coverage: a sharded machine spreads
// directory transactions over the eligible kernels (home.msgs_per_kernel)
// while serving VMA validations from the replicated cache
// (vma.replica_hit); guest-visible results match the unsharded run; and —
// the failover contract — killing a shard-owning kernel mid-fault-storm
// makes the survivors shrink the map, census-rebuild the inherited
// shards, and complete every retried fault. Audits (all nine families,
// `home` included) run at every quiesce point in these tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "rko/api/machine.hpp"
#include "rko/check/invariants.hpp"
#include "rko/core/dfutex.hpp"
#include "rko/home/home.hpp"

namespace rko::api {
namespace {

using namespace rko::time_literals;
using mem::kPageSize;
using mem::Vaddr;

std::uint64_t counter_value(trace::MetricsRegistry& m, std::string_view name) {
    const trace::Counter* c = m.find_counter(name);
    return c == nullptr ? 0 : c->value;
}

double gauge_value(trace::MetricsRegistry& m, const std::string& name) {
    const trace::Gauge* g = m.find_gauge(name);
    return g == nullptr ? 0.0 : g->value;
}

// ---------------------------------------------------------------------------
// home::Map unit tests.
// ---------------------------------------------------------------------------

TEST(HomeMap, ShardOfIsStableAndCoversAllShards) {
    home::Map map;
    map.init(8, 0b1111);
    ASSERT_TRUE(map.sharded());
    std::set<int> hit;
    for (std::uint64_t vpn = 0; vpn < 4096; ++vpn) {
        const int s = map.shard_of(vpn);
        ASSERT_GE(s, 0);
        ASSERT_LT(s, 8);
        EXPECT_EQ(s, map.shard_of(vpn)); // pure
        hit.insert(s);
    }
    EXPECT_EQ(hit.size(), 8u) << "splitmix64 left a shard empty over 4k VPNs";
}

TEST(HomeMap, UnshardedEverythingIsShardZero) {
    home::Map map;
    map.init(1, 0b1111);
    EXPECT_FALSE(map.sharded());
    for (std::uint64_t vpn = 0; vpn < 64; ++vpn) {
        EXPECT_EQ(map.shard_of(vpn), 0);
    }
}

TEST(HomeMap, RendezvousOwnerIsAMaskMember) {
    for (Pid pid = 1; pid <= 3; ++pid) {
        for (int shard = 0; shard < 8; ++shard) {
            const topo::KernelId owner = home::Map::owner_in(pid, shard, 0b1011);
            EXPECT_TRUE(owner == 0 || owner == 1 || owner == 3)
                << "pid " << pid << " shard " << shard;
        }
    }
}

// The property failover depends on: removing a kernel only moves the
// shards that kernel owned; every other (pid, shard) keeps its owner.
TEST(HomeMap, RemovalOnlyMovesTheDeadKernelsShards) {
    constexpr topo::KernelMask kBefore = 0b1111;
    constexpr topo::KernelMask kAfter = kBefore & ~topo::kbit(2);
    for (Pid pid = 1; pid <= 4; ++pid) {
        for (int shard = 0; shard < 16; ++shard) {
            const topo::KernelId before = home::Map::owner_in(pid, shard, kBefore);
            const topo::KernelId after = home::Map::owner_in(pid, shard, kAfter);
            if (before == 2) {
                EXPECT_NE(after, 2);
            } else {
                EXPECT_EQ(after, before)
                    << "pid " << pid << " shard " << shard
                    << " moved although its owner survived";
            }
        }
    }
}

TEST(HomeMap, RemoveKernelShrinksEligibility) {
    home::Map map;
    map.init(4, 0b1111);
    map.remove_kernel(1);
    EXPECT_EQ(map.eligible(), 0b1101u);
    map.remove_kernel(1); // idempotent
    EXPECT_EQ(map.eligible(), 0b1101u);
    for (int shard = 0; shard < 4; ++shard) {
        EXPECT_NE(map.owner_of(1, shard), 1);
    }
}

TEST(HomeMap, HomeOfFallsBackToOrigin) {
    home::Map unsharded;
    unsharded.init(1, 0b1111);
    EXPECT_EQ(home::home_of(unsharded, 1, 2, 0x1234), 2);

    home::Map emptied;
    emptied.init(4, 0b0100);
    emptied.remove_kernel(2); // eligibility can reach zero only in theory
    EXPECT_EQ(home::home_of(emptied, 1, 0, 0x1234), 0);

    home::Map sharded;
    sharded.init(4, 0b1111);
    const topo::KernelId home = home::home_of(sharded, 1, 0, 0x1234);
    EXPECT_EQ(home, sharded.owner_of(1, sharded.shard_of(0x1234)));
}

// ---------------------------------------------------------------------------
// Sharded-machine behaviour.
// ---------------------------------------------------------------------------

MachineConfig home_config(int nkernels, int shards) {
    MachineConfig config;
    config.ncores = 2 * nkernels;
    config.nkernels = nkernels;
    config.frames_per_kernel = 4096;
    config.home_shards = shards;
    config.check = true; // audit all nine families at every quiesce point
    return config;
}

/// Threads on every kernel each increment a private slot in every page of
/// a shared region, then one reader sums the slots. Returns the sum.
std::uint64_t run_shared_increments(Machine& machine, int nthreads, int pages,
                                    int rounds) {
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn(
        [&, pages](Guest& g) {
            buf = g.mmap(static_cast<std::uint64_t>(pages) * kPageSize);
        },
        0);
    std::vector<Thread*> workers;
    for (int i = 0; i < nthreads; ++i) {
        workers.push_back(&process.spawn(
            [&, i, pages, rounds](Guest& g) {
                g.join(init);
                for (int r = 0; r < rounds; ++r) {
                    const int p = (i + 3 * r) % pages;
                    g.rmw_u32(buf + static_cast<Vaddr>(p) * kPageSize +
                                  static_cast<Vaddr>(i) * 8,
                              [](std::uint32_t v) { return v + 1; });
                }
            },
            static_cast<topo::KernelId>(i % machine.nkernels())));
    }
    std::uint64_t sum = 0;
    process.spawn(
        [&, nthreads, pages](Guest& g) {
            for (Thread* w : workers) g.join(*w);
            for (int p = 0; p < pages; ++p) {
                for (int i = 0; i < nthreads; ++i) {
                    sum += g.read<std::uint32_t>(
                        buf + static_cast<Vaddr>(p) * kPageSize +
                        static_cast<Vaddr>(i) * 8);
                }
            }
        },
        0);
    machine.run();
    process.check_all_joined();
    return sum;
}

// The tentpole's load claim: with sharded homes, directory transactions
// run at the page's home, so non-origin kernels serve a share of them and
// the origin's share drops. The replicated VMA cache serves the remote
// homes' fault validations (replica hits, with the `home` audit family
// proving no replica was stale at quiesce).
TEST(Home, ShardedFaultsSpreadHomeLoadAcrossKernels) {
    constexpr int kThreads = 8;
    constexpr int kPages = 24;
    constexpr int kRounds = 12;
    Machine machine(home_config(4, 8));
    const std::uint64_t sum = run_shared_increments(machine, kThreads, kPages,
                                                    kRounds);
    EXPECT_EQ(sum, static_cast<std::uint64_t>(kThreads) * kRounds);

    auto metrics = machine.collect_metrics();
    int serving = 0;
    double origin_share = 0, total = 0;
    for (int k = 0; k < 4; ++k) {
        const double v =
            gauge_value(metrics, "home.msgs_per_kernel.k" + std::to_string(k));
        total += v;
        if (k == 0) origin_share = v;
        if (v > 0) ++serving;
    }
    EXPECT_GE(serving, 3) << "sharding left the directory load on one kernel";
    ASSERT_GT(total, 0);
    EXPECT_LT(origin_share / total, 0.75) << "origin still serves the bulk";
    EXPECT_GT(counter_value(metrics, "vma.replica_hit"), 0u);
}

// With home_shards == 1 every transaction still runs at the origin and no
// other kernel touches directory state — the pre-home wire behaviour.
TEST(Home, UnshardedKeepsEveryTransactionAtTheOrigin) {
    Machine machine(home_config(4, 1));
    const std::uint64_t sum = run_shared_increments(machine, 8, 8, 6);
    EXPECT_EQ(sum, 8u * 6u);
    auto metrics = machine.collect_metrics();
    for (int k = 1; k < 4; ++k) {
        EXPECT_EQ(gauge_value(metrics,
                              "home.msgs_per_kernel.k" + std::to_string(k)),
                  0.0)
            << "kernel " << k << " served directory traffic unsharded";
    }
}

// Guest-visible results must not depend on the shard count.
TEST(Home, ShardedAndUnshardedAgreeOnGuestState) {
    Machine unsharded(home_config(4, 1));
    Machine sharded(home_config(4, 8));
    const std::uint64_t a = run_shared_increments(unsharded, 6, 12, 8);
    const std::uint64_t b = run_shared_increments(sharded, 6, 12, 8);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, 6u * 8u);
}

// ---------------------------------------------------------------------------
// Failover: the satellite scenario from the issue. A shard-owning kernel
// dies mid-fault-storm; survivors shrink the map, census-rebuild the
// inherited shards, and every retried fault completes.
// ---------------------------------------------------------------------------

MachineConfig failover_config(int shards) {
    MachineConfig config = home_config(4, shards);
    config.balance.policy = balance::Policy::kIdleSteal;
    config.balance.period = 20_us;
    config.balance.min_residency = 50_us;
    config.balance.migration_budget = 4;
    config.elastic.enabled = true;
    config.elastic.lease_misses = 4;
    return config;
}

TEST(Home, KillingAShardOwnerRehomesAndRetriedFaultsComplete) {
    constexpr int kPages = 16;
    Machine machine(failover_config(8));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn(
        [&](Guest& g) { buf = g.mmap(kPages * kPageSize); }, 0);
    // Anchor k3 so idle-steal cannot move its storm threads to safety —
    // the kill must land while k3 both owns shards and runs faulting code.
    for (int c = 0; c < 2; ++c) {
        process.spawn([](Guest& g) { g.compute(4_ms); }, 3);
    }
    std::vector<Thread*> storm;
    for (int i = 0; i < 6; ++i) {
        storm.push_back(&process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                for (int r = 0; r < 60; ++r) {
                    const int p = (i + 5 * r) % kPages;
                    g.rmw_u32(buf + static_cast<Vaddr>(p) * kPageSize +
                                  static_cast<Vaddr>(i) * 8,
                              [](std::uint32_t v) { return v + 1; });
                    g.compute(10_us);
                }
            },
            static_cast<topo::KernelId>(i % 3))); // k0..k2 — they survive
    }
    machine.run_until(250_us);
    machine.kill_kernel(3);
    machine.run();
    process.check_all_joined();

    // Survivor threads all completed their 60 rounds (faults stalled on
    // rebuilding shards were retried, not lost or deadlocked).
    for (Thread* t : storm) EXPECT_EQ(t->exit_status(), 0);
    EXPECT_TRUE(machine.is_killed(3));

    auto metrics = machine.collect_metrics();
    EXPECT_GE(counter_value(metrics, "elastic.home_rebuilds"), 1u)
        << "no survivor inherited and rebuilt a shard of the dead kernel";

    // Every page is still readable post-failover: entries for the dead
    // kernel's shards were reconstructed at their new homes (a page whose
    // sole copy died refaults as zero-fill, but the fault COMPLETES).
    std::uint64_t reads = 0;
    process.spawn(
        [&](Guest& g) {
            for (int p = 0; p < kPages; ++p) {
                (void)g.read<std::uint32_t>(buf + static_cast<Vaddr>(p) *
                                                      kPageSize);
                ++reads;
            }
        },
        1);
    machine.run();
    process.check_all_joined();
    EXPECT_EQ(reads, static_cast<std::uint64_t>(kPages));
}

// Drain takes the voluntary path through the same machinery: the drained
// kernel removes itself from the map, waits for its slices to quiesce,
// parts, and hands its page copies home — no data is lost.
TEST(Home, DrainingAShardOwnerPreservesDataAndRehomes) {
    constexpr int kPages = 8;
    Machine machine(failover_config(8));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& writer = process.spawn(
        [&](Guest& g) {
            buf = g.mmap(kPages * kPageSize);
            for (int p = 0; p < kPages; ++p) {
                g.write<std::uint32_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                       static_cast<std::uint32_t>(0x100 + p));
            }
        },
        2);
    process.spawn([](Guest& g) { g.compute(2_ms); }, 0); // keep ticks alive
    machine.run_until(300_us);
    ASSERT_TRUE(writer.finished());
    machine.drain_kernel(2);
    machine.run();

    auto metrics = machine.collect_metrics();
    EXPECT_GE(counter_value(metrics, "elastic.home_rebuilds"), 1u);

    std::vector<std::uint32_t> seen(kPages, 0);
    process.spawn(
        [&](Guest& g) {
            for (int p = 0; p < kPages; ++p) {
                seen[static_cast<std::size_t>(p)] = g.read<std::uint32_t>(
                    buf + static_cast<Vaddr>(p) * kPageSize);
            }
        },
        0);
    machine.run();
    process.check_all_joined();
    for (int p = 0; p < kPages; ++p) {
        EXPECT_EQ(seen[static_cast<std::size_t>(p)],
                  static_cast<std::uint32_t>(0x100 + p))
            << "page " << p << " lost its data across the drain";
    }
}

// A home that parts while a fault it admitted is still running finishes
// that transaction after the new home's census began. Here the fault is
// the page's first touch, and the parting home first pulls the VMA into
// its replica, so the transaction outlives the part by a round trip. The
// requester's install is then the only record of the page, and the census
// must wait for it: otherwise the new home rebuilds no entry and the
// requester keeps a PTE no directory names. Sweeps the drain across the
// fault, one instant per 250 ns.
TEST(Home, CensusWaitsForGrantsInFlightFromAPartingHome) {
    constexpr int kPages = 16;
    const auto run = [](Nanos drain_at, Nanos* fault_start) {
        MachineConfig config = failover_config(8);
        config.check = false; // audited below, per drain instant
        Machine machine(config);
        auto& process = machine.create_process(0);
        // The first page kernel 2 homes.
        Vaddr page = 0;
        for (int p = 0; p < kPages && page == 0; ++p) {
            const Vaddr va = mem::kMmapBase + static_cast<Vaddr>(p) * kPageSize;
            if (home::home_of(machine.kernel(0).home_map(), process.pid(), 0,
                              mem::vpn_of(va)) == 2) {
                page = va;
            }
        }
        ASSERT_NE(page, 0u);
        auto& mapper = process.spawn([](Guest& g) { g.mmap(kPages * kPageSize); }, 0);
        process.spawn(
            [&](Guest& g) {
                g.join(mapper);
                g.compute(20_us);
                g.flush_timing();
                if (fault_start != nullptr) *fault_start = g.now();
                g.write<std::uint64_t>(page, 0xB0B);
            },
            1);
        process.spawn([](Guest& g) { g.compute(1_ms); }, 0); // keeps ticks alive
        if (drain_at != 0) {
            machine.run_until(drain_at);
            machine.drain_kernel(2);
        }
        machine.run();
        process.check_all_joined();
        std::uint64_t seen = 0;
        process.spawn([&](Guest& g) { seen = g.read<std::uint64_t>(page); }, 3);
        machine.run();
        process.check_all_joined();
        EXPECT_EQ(seen, 0xB0Bu) << "drain at " << drain_at << " ns";
        const check::Report report = check::run_all(machine);
        EXPECT_TRUE(report.ok()) << "drain at " << drain_at << " ns\n"
                                 << report.to_string();
    };
    Nanos start = 0;
    run(0, &start);
    ASSERT_GT(start, 0);
    for (Nanos at = start; at <= start + 6_us; at += 250) run(at, nullptr);
}

// A futex peek reads the word through the page protocol (ensure_readable),
// and a shard being census-rebuilt answers its faults with kRetry. The peek
// must wait the rebuild out, not report the mapped word as EFAULT: neither
// when the origin homes the word itself, nor when another kernel does.
TEST(Home, FutexPeekWaitsOutAShardRebuild) {
    constexpr int kPages = 64;
    const auto run = [](topo::KernelId home, Nanos rebuild) {
        Machine machine(home_config(4, 32));
        auto& process = machine.create_process(0);
        const Pid pid = process.pid();
        Vaddr word = 0;
        for (int p = 0; p < kPages && word == 0; ++p) {
            const Vaddr va = mem::kMmapBase + static_cast<Vaddr>(p) * kPageSize;
            if (home::home_of(machine.kernel(0).home_map(), pid, 0, mem::vpn_of(va)) ==
                home) {
                word = va;
            }
        }
        EXPECT_NE(word, 0u) << "no page homed at kernel " << home;
        auto& mapper = process.spawn([](Guest& g) { g.mmap(kPages * kPageSize); }, 0);
        // The word's page ends Exclusive at kernel 1.
        process.spawn(
            [&](Guest& g) {
                g.join(mapper);
                g.write<std::uint32_t>(word, 7);
            },
            1);
        machine.run();
        process.check_all_joined();

        core::ProcessSite& site = machine.kernel(home).site(pid);
        const int shard = machine.kernel(home).home_map().shard_of(mem::vpn_of(word));
        process.spawn(
            [&site, shard, rebuild](Guest& g) {
                site.set_home_rebuilding(shard, true);
                g.compute(rebuild);
                g.flush_timing();
                site.set_home_rebuilding(shard, false);
            },
            home);
        int rc = -1;
        Nanos waited = 0;
        process.spawn(
            [&](Guest& g) {
                g.compute(1_us); // the rebuild flag is up
                g.flush_timing();
                const Nanos t0 = g.now();
                rc = g.futex_wait_for(word, 7, 200_us);
                waited = g.now() - t0;
            },
            0);
        machine.run();
        process.check_all_joined();
        EXPECT_NE(rc, core::kEfault) << "home k" << home;
        EXPECT_TRUE(rc == 0 || rc == core::kEtimedout) << "home k" << home << ": " << rc;
        EXPECT_GE(waited, rebuild) << "home k" << home;
    };
    run(0, 100_us); // the origin homes the word
    run(2, 150_us); // a remote home
}

// A guest fault on a page whose shard is being census-rebuilt is answered
// kRetry until the rebuild ends. The fault must wait the rebuild out in
// 1 us beats, not spend the MMU's 64 trap retries on it: neither on the
// rebuilding home itself (the origin, then a non-origin home) nor from a
// remote kernel, each with the flag up for longer than 64 traps take.
TEST(Home, GuestFaultWaitsOutAShardRebuild) {
    constexpr int kPages = 64;
    const auto run = [](topo::KernelId home, topo::KernelId reader, Nanos rebuild) {
        Machine machine(home_config(4, 32));
        auto& process = machine.create_process(0);
        const Pid pid = process.pid();
        Vaddr page = 0;
        for (int p = 0; p < kPages && page == 0; ++p) {
            const Vaddr va = mem::kMmapBase + static_cast<Vaddr>(p) * kPageSize;
            if (home::home_of(machine.kernel(0).home_map(), pid, 0, mem::vpn_of(va)) ==
                home) {
                page = va;
            }
        }
        ASSERT_NE(page, 0u) << "no page homed at kernel " << home;
        auto& mapper = process.spawn([](Guest& g) { g.mmap(kPages * kPageSize); }, 0);
        // The page ends Exclusive at kernel 1.
        process.spawn(
            [&](Guest& g) {
                g.join(mapper);
                g.write<std::uint32_t>(page, 7);
            },
            1);
        machine.run();
        process.check_all_joined();

        core::ProcessSite& site = machine.kernel(home).site(pid);
        const int shard = machine.kernel(home).home_map().shard_of(mem::vpn_of(page));
        process.spawn(
            [&site, shard, rebuild](Guest& g) {
                site.set_home_rebuilding(shard, true);
                g.compute(rebuild);
                g.flush_timing();
                site.set_home_rebuilding(shard, false);
            },
            home);
        std::uint32_t seen = 0;
        Nanos waited = 0;
        process.spawn(
            [&](Guest& g) {
                g.compute(1_us); // the rebuild flag is up
                g.flush_timing();
                const Nanos t0 = g.now();
                seen = g.read<std::uint32_t>(page);
                waited = g.now() - t0;
            },
            reader);
        machine.run();
        process.check_all_joined();
        EXPECT_EQ(seen, 7u) << "home k" << home << ", reader k" << reader;
        EXPECT_GE(waited, rebuild - 1_us) << "home k" << home << ", reader k" << reader;
    };
    run(0, 0, 100_us); // a reader on the rebuilding origin
    run(2, 2, 100_us); // a reader on a rebuilding non-origin home
    run(2, 3, 400_us); // a remote reader
}

} // namespace
} // namespace rko::api
