// Hierarchical futex tier (DESIGN.md §13): per-kernel convoy aggregation,
// batched grants, local wake handoffs, and the owner-affinity census.
//
// Coverage: contended-mutex correctness across kernels with the hierarchy
// on, off, and with the handoff budget pinned to zero; the message-count
// win aggregation buys; drain evacuating parked convoy members through the
// local wildcard cancel; short timeouts racing kFutexGrantBatch grants;
// cross-kernel barriers (wake-all fan-out); origin-local waits bypassing
// the convoy tier entirely; the splitmix bucket hash's distribution; and
// the hottest-word census the balancer gossips.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string_view>
#include <vector>

#include "rko/api/machine.hpp"
#include "rko/core/dfutex.hpp"
#include "rko/smp/smp.hpp"

namespace rko {
namespace {

using namespace rko::time_literals;
using api::Guest;
using api::Machine;
using api::MachineConfig;
using api::Thread;
using mem::kPageSize;
using mem::Vaddr;

MachineConfig hier_config(int ncores, int nkernels) {
    MachineConfig config = smp::popcorn_config(ncores, nkernels);
    config.check = true; // audit both tiers at every quiesce point
    return config;
}

std::uint64_t counter_value(trace::MetricsRegistry& m, std::string_view name) {
    const trace::Counter* c = m.find_counter(name);
    return c == nullptr ? 0 : c->value;
}

/// T threads spread round-robin over the kernels fight over one mutex,
/// each incrementing a shared counter `iters` times. Returns the machine
/// for metric assertions; the counter value proves no acquisition was
/// lost or duplicated.
std::uint64_t run_contended_mutex(Machine& machine, int threads, int iters,
                                  Nanos hold = 2_us,
                                  std::function<topo::KernelId(int)> place = {}) {
    auto& process = machine.create_process(0);
    const int nk = machine.nkernels();
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
    for (int t = 0; t < threads; ++t) {
        process.spawn(
            [&, iters, hold](Guest& g) {
                g.join(init);
                for (int n = 0; n < iters; ++n) {
                    g.mutex_lock(buf);
                    g.rmw_u32(buf + 64, [](std::uint32_t v) { return v + 1; });
                    g.compute(hold); // hold the lock long enough to convoy
                    g.mutex_unlock(buf);
                }
            },
            place ? place(t) : static_cast<topo::KernelId>(t % nk));
    }
    machine.run();
    process.check_all_joined();
    std::uint64_t total = 0;
    process.spawn([&](Guest& g) { total = g.read<std::uint32_t>(buf + 64); }, 0);
    machine.run();
    process.check_all_joined();
    return total;
}

// Six threads on four kernels hammer one lock: every acquisition lands,
// remote kernels build convoys (aggregated registrations at the origin),
// and wake(1) handoffs serve some acquisitions with zero RPCs.
TEST(FutexHier, ContendedMutexCorrectAndHandsOff) {
    Machine machine(hier_config(8, 4));
    EXPECT_EQ(run_contended_mutex(machine, 6, 10), 60u);
    auto metrics = machine.collect_metrics();
    EXPECT_GT(counter_value(metrics, "futex.aggregated_waits"), 0u);
    EXPECT_GT(counter_value(metrics, "futex.local_handoffs"), 0u);
}

// A whole convoy's worth of contenders on one remote kernel: the flat
// protocol pays wait + grant RPCs per waiter per round, the hierarchy one
// registration per convoy and zero-message local handoffs — strictly
// fewer messages for the same exact result.
TEST(FutexHier, AggregationReducesMessages) {
    // A 20 us hold gives the convoy head's registration (which drags the
    // word's page to the origin) time to land, so followers aggregate and
    // handoffs run against a registered convoy.
    const auto on_k1 = [](int) { return topo::KernelId{1}; };
    Machine hier(hier_config(8, 4));
    EXPECT_EQ(run_contended_mutex(hier, 6, 10, 20_us, on_k1), 60u);

    MachineConfig flat_config = hier_config(8, 4);
    flat_config.futex_hierarchy = false;
    Machine flat(flat_config);
    EXPECT_EQ(run_contended_mutex(flat, 6, 10, 20_us, on_k1), 60u);

    auto flat_metrics = flat.collect_metrics();
    EXPECT_EQ(counter_value(flat_metrics, "futex.aggregated_waits"), 0u);
    EXPECT_EQ(counter_value(flat_metrics, "futex.local_handoffs"), 0u);
    EXPECT_LT(hier.total_messages(), flat.total_messages());
}

// futex_handoff_cap = 0 disables the local fast path outright: every wake
// goes back to the origin, yet the lock still behaves.
TEST(FutexHier, ZeroHandoffBudgetFallsBackToOrigin) {
    MachineConfig config = hier_config(8, 4);
    config.futex_handoff_cap = 0;
    Machine machine(config);
    EXPECT_EQ(run_contended_mutex(machine, 6, 8), 48u);
    auto metrics = machine.collect_metrics();
    EXPECT_EQ(counter_value(metrics, "futex.local_handoffs"), 0u);
}

// Waiters whose kernels match the origin never touch the convoy tier: the
// single-kernel (SMP) machine runs the identical flat protocol.
TEST(FutexHier, OriginLocalWaitsBypassConvoys) {
    Machine machine(hier_config(8, 1));
    EXPECT_EQ(run_contended_mutex(machine, 4, 10), 40u);
    auto metrics = machine.collect_metrics();
    EXPECT_EQ(counter_value(metrics, "futex.aggregated_waits"), 0u);
    EXPECT_EQ(counter_value(metrics, "futex.local_handoffs"), 0u);
}

// A cross-kernel barrier is a wake(ALL) on the generation word: the grant
// must fan out to every kernel's convoy in batched kFutexGrantBatch RPCs
// and release all parties, round after round.
TEST(FutexHier, BarrierWakeAllSpansConvoys) {
    constexpr int kThreads = 8;
    constexpr int kRounds = 4;
    Machine machine(hier_config(8, 4));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
    for (int i = 0; i < kThreads; ++i) {
        process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                const Vaddr slot = buf + 128 + static_cast<Vaddr>(i) * 4;
                for (int r = 0; r < kRounds; ++r) {
                    g.rmw_u32(slot, [](std::uint32_t v) { return v + 1; });
                    g.barrier_wait(buf, kThreads);
                }
            },
            static_cast<topo::KernelId>(i % 4));
    }
    machine.run();
    process.check_all_joined();
    std::uint64_t sum = 0;
    process.spawn(
        [&](Guest& g) {
            for (int i = 0; i < kThreads; ++i) {
                sum += g.read<std::uint32_t>(buf + 128 + static_cast<Vaddr>(i) * 4);
            }
        },
        0);
    machine.run();
    process.check_all_joined();
    EXPECT_EQ(sum, static_cast<std::uint64_t>(kThreads) * kRounds);
}

// Short timed waits on the contended word race grants through the local
// tier: every return (0, EAGAIN, ETIMEDOUT) is legal, queues on both
// tiers must be empty afterwards, and the mutex count must still be exact.
TEST(FutexHier, TimeoutsRaceGrantBatches) {
    Machine machine(hier_config(8, 4));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
    for (int t = 0; t < 4; ++t) {
        process.spawn(
            [&](Guest& g) {
                g.join(init);
                for (int n = 0; n < 12; ++n) {
                    g.mutex_lock(buf);
                    g.rmw_u32(buf + 64, [](std::uint32_t v) { return v + 1; });
                    g.mutex_unlock(buf);
                }
            },
            static_cast<topo::KernelId>(t % 4));
    }
    for (int w = 0; w < 3; ++w) {
        process.spawn(
            [&, w](Guest& g) {
                g.join(init);
                for (int n = 0; n < 10; ++n) {
                    const int rc = g.futex_wait_for(
                        buf, static_cast<std::uint32_t>((n + w) % 3), 2_us);
                    EXPECT_TRUE(rc == 0 || rc == core::kEagain ||
                                rc == core::kEtimedout)
                        << "rc=" << rc;
                }
            },
            static_cast<topo::KernelId>(1 + w % 3));
    }
    machine.run();
    process.check_all_joined();
    for (topo::KernelId k = 0; k < machine.nkernels(); ++k) {
        EXPECT_EQ(machine.kernel(k).futex().queued_waiters(), 0u)
            << "k" << k << " retained waiters";
    }
    std::uint64_t total = 0;
    process.spawn([&](Guest& g) { total = g.read<std::uint32_t>(buf + 64); }, 0);
    machine.run();
    EXPECT_EQ(total, 48u);
}

// Drain evacuates convoy-parked waiters through the local wildcard cancel
// (uaddr unknown to the evacuator): the spuriously-woken thread re-waits
// on its new kernel and the late wake still reaches every survivor.
TEST(FutexHier, DrainEvacuatesConvoyWaiters) {
    MachineConfig config = hier_config(8, 4);
    config.balance.policy = balance::Policy::kIdleSteal;
    config.balance.period = 20_us;
    config.balance.min_residency = 50_us;
    config.balance.migration_budget = 4;
    config.elastic.enabled = true;
    config.elastic.lease_misses = 4;
    Machine machine(config);
    auto& process = machine.create_process(0);
    Vaddr word = 0;
    auto& init = process.spawn([&](Guest& g) { word = g.mmap(kPageSize); }, 0);
    // Two waiters park in k1's convoy for the same word (one head
    // registration at the origin, one follower known only locally).
    for (int i = 0; i < 2; ++i) {
        process.spawn(
            [&](Guest& g) {
                g.join(init);
                while (g.read<std::uint32_t>(word) == 0) {
                    g.futex_wait(word, 0);
                }
            },
            1);
    }
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            g.compute(800_us); // outlive the drain
            g.write<std::uint32_t>(word, 1);
            g.futex_wake(word, std::numeric_limits<std::uint32_t>::max());
        },
        0);
    machine.run_until(200_us);
    machine.drain_kernel(1);
    machine.run();
    process.check_all_joined();
    for (topo::KernelId k = 0; k < machine.nkernels(); ++k) {
        EXPECT_EQ(machine.kernel(k).futex().queued_waiters(), 0u) << "k" << k;
    }
}

// The origin census names the kernel the contended word was last granted
// to, keyed by the exact (pid, uaddr) — the row the balancer gossips for
// owner-affinity hints.
TEST(FutexHier, HottestWordNamesGrantHolder) {
    // Handoffs bypass the origin, so pin the budget to zero: every grant
    // flows through note_grant and the mutex word dominates the census.
    MachineConfig config = hier_config(8, 4);
    config.futex_handoff_cap = 0;
    Machine machine(config);
    auto& process = machine.create_process(0);
    const Pid pid = process.pid();
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
    std::vector<Thread*> contenders;
    for (int t = 0; t < 4; ++t) {
        contenders.push_back(&process.spawn(
            [&](Guest& g) {
                g.join(init);
                for (int n = 0; n < 10; ++n) {
                    g.mutex_lock(buf);
                    g.compute(10_us); // park the others past registration
                    g.mutex_unlock(buf);
                }
            },
            static_cast<topo::KernelId>(1 + t % 3))); // all remote contenders
    }
    // Sample the census from inside the simulation (the spin lock needs a
    // running engine), after every contender is done, and time it: the
    // census locks only non-empty buckets, a few simulated locks, where
    // locking every bucket would cost 257 x 20 ns.
    core::DFutex::HotWord hot;
    Nanos census_ns = 0;
    process.spawn(
        [&](Guest& g) {
            for (Thread* c : contenders) g.join(*c);
            g.flush_timing();
            const Nanos start = g.now();
            hot = machine.kernel(0).futex().hottest_word();
            census_ns = g.now() - start;
        },
        0);
    machine.run();
    process.check_all_joined();
    EXPECT_LT(census_ns, 1_us);
    ASSERT_GE(hot.owner, 0);
    EXPECT_NE(hot.owner, 0); // granted kernels were all remote
    EXPECT_EQ(hot.pid, pid);
    EXPECT_EQ(hot.uaddr, buf);
    EXPECT_GT(hot.heat, 0u);
}

// Splitmix64 bucket hash (the bucket_of fix): sequential words of one
// process — the common layout for a process's futexes — must spread over
// the table instead of piling into a handful of buckets, and so must the
// same word across sequential pids.
TEST(FutexHier, BucketHashSpreadsSequentialKeys) {
    constexpr std::size_t kKeys = 1024;
    const auto audit = [](auto key_fn) {
        std::vector<int> load(core::DFutex::kBuckets, 0);
        for (std::size_t i = 0; i < kKeys; ++i) {
            const auto [pid, uaddr] = key_fn(i);
            ++load[core::DFutex::bucket_index(pid, uaddr)];
        }
        std::size_t used = 0;
        int max_load = 0;
        for (int n : load) {
            used += n > 0 ? 1 : 0;
            max_load = std::max(max_load, n);
        }
        // 1024 keys over 256 buckets: a uniform hash touches nearly every
        // bucket and keeps the worst bucket near the mean of 4.
        EXPECT_GT(used, core::DFutex::kBuckets * 9 / 10);
        EXPECT_LE(max_load, 16);
    };
    audit([](std::size_t i) {
        return std::pair<Pid, Vaddr>{1, 0x7f0000000000ULL + i * 4};
    });
    audit([](std::size_t i) {
        return std::pair<Pid, Vaddr>{static_cast<Pid>(i + 1), 0x7f0000001000ULL};
    });
}

} // namespace
} // namespace rko
