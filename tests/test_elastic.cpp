// rko/elastic: kernel failure, drain, and hot add/remove.
//
// Behavioural coverage: an expired lease declares a silent kernel dead and
// unwinds its threads with SIGKILL semantics; re-homing erases the dead
// holder from page directories (sole copies refault as zero-fill); futex
// waiters registered to a corpse are dequeued so later wakes reach the
// survivors; drain evacuates every thread and hands page copies home with
// their data intact; a deferred-boot kernel hot-joins and steals work
// within a balance period. Every test runs with the invariant audits on,
// so the elastic.* family enforces the membership postconditions too.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "rko/api/machine.hpp"
#include "rko/check/invariants.hpp"
#include "rko/smp/smp.hpp"

namespace rko::api {
namespace {

using namespace rko::time_literals;
using mem::kPageSize;
using mem::Vaddr;

MachineConfig elastic_config(int ncores, int nkernels) {
    MachineConfig config;
    config.ncores = ncores;
    config.nkernels = nkernels;
    config.frames_per_kernel = 4096;
    config.balance.policy = balance::Policy::kIdleSteal;
    config.balance.period = 20_us;
    config.balance.min_residency = 50_us;
    config.balance.migration_budget = 4;
    config.elastic.enabled = true;
    config.elastic.lease_misses = 4;
    config.check = true; // every quiesce point audits the 7 families
    return config;
}

std::uint64_t counter_value(trace::MetricsRegistry& m, std::string_view name) {
    const trace::Counter* c = m.find_counter(name);
    return c == nullptr ? 0 : c->value;
}

// A balanced compute load (2 threads per 2-core kernel, so idle-steal has
// nothing to move), then k3 fail-stops mid-run. Its threads exit 137, the
// survivors' leases expire and declare it dead, and the origin reaps the
// lost group members.
TEST(Elastic, LeaseExpiryDeclaresDeadKernelAndReapsThreads) {
    Machine machine(elastic_config(8, 4));
    auto& process = machine.create_process(0);
    std::vector<Thread*> threads;
    for (topo::KernelId k = 0; k < 4; ++k) {
        for (int i = 0; i < 2; ++i) {
            threads.push_back(
                &process.spawn([](Guest& g) { g.compute(1500_us); }, k));
        }
    }
    machine.run_until(200_us);
    machine.kill_kernel(3);
    machine.run();
    process.check_all_joined();

    for (std::size_t i = 0; i < threads.size(); ++i) {
        const bool on_dead = i >= 6; // the two spawned on k3
        EXPECT_EQ(threads[i]->exit_status(), on_dead ? 137 : 0) << "thread " << i;
    }
    EXPECT_TRUE(machine.is_killed(3));
    for (topo::KernelId k = 0; k < 3; ++k) {
        EXPECT_FALSE(machine.kernel(k).elastic()->alive(3)) << "survivor k" << k;
    }
    auto metrics = machine.collect_metrics();
    EXPECT_GE(counter_value(metrics, "elastic.probes"), 1u);
    EXPECT_GE(counter_value(metrics, "elastic.deaths_declared"), 1u);
    EXPECT_GE(counter_value(metrics, "elastic.peer_deaths"), 3u);
    EXPECT_EQ(counter_value(metrics, "elastic.threads_lost"), 2u);
}

// A writer on k2 dirties a page (sole Exclusive copy there), exits, and k2
// is killed. The origin's reap strips the dead holder; the data died with
// the kernel, so a later read at the origin refaults as zero-fill.
TEST(Elastic, KillLosesSoleCopiesAndRehomesDirectory) {
    Machine machine(elastic_config(8, 4));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& writer = process.spawn(
        [&](Guest& g) {
            buf = g.mmap(kPageSize);
            g.write<std::uint32_t>(buf, 42);
        },
        2);
    // Companion keeps the survivors' balance ticks (and so the failure
    // detector) running well past the lease expiry.
    process.spawn([](Guest& g) { g.compute(2_ms); }, 0);
    machine.run_until(300_us);
    ASSERT_TRUE(writer.finished());
    machine.kill_kernel(2);
    machine.run();

    EXPECT_TRUE(machine.is_killed(2));
    auto metrics = machine.collect_metrics();
    EXPECT_GE(counter_value(metrics, "elastic.pages_lost"), 1u);

    std::uint32_t observed = 1; // anything nonzero
    process.spawn([&](Guest& g) { observed = g.read<std::uint32_t>(buf); }, 0);
    machine.run();
    process.check_all_joined();
    EXPECT_EQ(observed, 0u); // the sole copy died with k2: zero-fill
}

// A kill after the machine went quiet: no guest thread runs past it, so
// every survivor's balancer is parked and gossips nothing. The survivors
// must still notice the silence, probe, declare k1 dead and strip it from
// the directory, or the pages it wrote keep naming a dead holder.
TEST(Elastic, KillAfterQuiesceIsStillDeclared) {
    constexpr int kPages = 8;
    MachineConfig config = smp::popcorn_config(8, 4);
    config.balance.policy = balance::Policy::kIdleSteal;
    config.balance.period = 20_us;
    config.elastic.enabled = true;
    config.elastic.lease_misses = 4;
    config.check = false; // audited below, so a finding fails, not aborts
    Machine machine(config);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPages * kPageSize); }, 0);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int i = 0; i < kPages; ++i) {
                g.write<std::uint32_t>(buf + static_cast<Vaddr>(i) * kPageSize, 1);
            }
        },
        1);
    machine.run();
    process.check_all_joined();
    const Nanos killed_at = machine.now();
    machine.kill_kernel(1);
    machine.run();

    for (const topo::KernelId k : {0, 2, 3}) {
        EXPECT_FALSE(machine.kernel(k).elastic()->alive(1)) << "survivor k" << k;
    }
    // Detected by lease expiry and a timed-out probe, not sooner.
    EXPECT_GE(machine.now() - killed_at,
              config.elastic.lease_misses * config.balance.period);
    const check::Report report = check::run_all(machine);
    EXPECT_TRUE(report.ok()) << report.to_string();
}

// Two waiters block on one futex word homed at k0 — one from k1, one from
// k2 — and k2 is killed. The orphaned registration must be dequeued (the
// audit would flag it as a lost wake) and the surviving waiter still wakes.
TEST(Elastic, FutexWaitersOnDeadKernelAreDequeued) {
    Machine machine(elastic_config(8, 4));
    auto& process = machine.create_process(0);
    Vaddr word = 0;
    auto& init = process.spawn(
        [&](Guest& g) { word = g.mmap(kPageSize); }, 0);
    auto wait_loop = [&](Guest& g) {
        g.join(init);
        while (g.read<std::uint32_t>(word) == 0) {
            g.futex_wait(word, 0);
        }
    };
    process.spawn(wait_loop, 1);
    auto& doomed = process.spawn(wait_loop, 2);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            g.compute(1500_us); // outlive detection + reap
            g.write<std::uint32_t>(word, 1);
            g.futex_wake(word, std::numeric_limits<std::uint32_t>::max());
        },
        0);
    machine.run_until(200_us);
    machine.kill_kernel(2);
    machine.run();
    process.check_all_joined();

    EXPECT_EQ(doomed.exit_status(), 137);
    auto metrics = machine.collect_metrics();
    EXPECT_GE(counter_value(metrics, "elastic.futex_orphans"), 1u);
}

// drain(): every thread leaves k1 alive (status 0) — queued ones are
// detached, running ones take the hint at a preemption checkpoint, the
// blocked one is spuriously woken and re-waits elsewhere — then the page
// copies are handed home with their bytes and the bare kernel parts. The
// run-idle audit enforces that the parted kernel kept nothing.
TEST(Elastic, DrainEvacuatesThreadsAndHandsPagesHome) {
    Machine machine(elastic_config(8, 4));
    auto& process = machine.create_process(0);
    Vaddr word = 0;
    Vaddr data = 0;
    auto& init = process.spawn(
        [&](Guest& g) {
            word = g.mmap(kPageSize);
            data = g.mmap(kPageSize);
        },
        0);
    std::vector<topo::KernelId> ended(5, -1);
    // A writer whose dirty page lives on k1 when the drain hits.
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            g.write<std::uint32_t>(data, 7);
            g.compute(1_ms);
            ended[0] = g.kernel();
        },
        1);
    for (int i = 1; i < 4; ++i) {
        process.spawn(
            [&ended, i](Guest& g) {
                g.compute(1_ms);
                ended[static_cast<std::size_t>(i)] = g.kernel();
            },
            1);
    }
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            while (g.read<std::uint32_t>(word) == 0) {
                g.futex_wait(word, 0);
            }
            ended[4] = g.kernel();
        },
        1);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            g.compute(2_ms);
            g.write<std::uint32_t>(word, 1);
            g.futex_wake(word, std::numeric_limits<std::uint32_t>::max());
        },
        0);
    machine.run_until(200_us);
    machine.drain_kernel(1);
    machine.run();
    process.check_all_joined();

    EXPECT_TRUE(machine.is_killed(1)); // parted counts as out
    EXPECT_EQ(machine.kernel(1).elastic()->peer_state(1),
              elastic::PeerState::kParted);
    for (const auto& thread : process.threads()) {
        EXPECT_EQ(thread->exit_status(), 0);
    }
    for (std::size_t i = 0; i < ended.size(); ++i) {
        EXPECT_NE(ended[i], 1) << "thread " << i << " finished on the drained kernel";
    }
    auto metrics = machine.collect_metrics();
    // Idle-steal spreads some of the burst before the drain even starts;
    // the drain itself must still have evacuated the stragglers (at least
    // the blocked waiter, which only a spurious wake can move).
    EXPECT_GE(counter_value(metrics, "elastic.drain_evacuated"), 1u);
    EXPECT_GE(counter_value(metrics, "elastic.drain_pages_evicted"), 1u);

    // Unlike a kill, the drain preserved the dirty page's bytes.
    std::uint32_t observed = 0;
    process.spawn([&](Guest& g) { observed = g.read<std::uint32_t>(data); }, 0);
    machine.run();
    EXPECT_EQ(observed, 7u);
}

// Hot add: k3 boots parted (deferred_mask) while a 12-thread burst lands on
// k0. Joining it mid-run brings its balancer up and idle-steal pulls work
// onto the new capacity within a balance period or two.
TEST(Elastic, HotJoinStealsWorkOntoNewKernel) {
    MachineConfig config = elastic_config(8, 4);
    config.elastic.deferred_mask = 1u << 3;
    Machine machine(config);
    EXPECT_TRUE(machine.is_killed(3)); // deferred boot = out until joined
    auto& process = machine.create_process(0);
    for (int i = 0; i < 12; ++i) {
        process.spawn([](Guest& g) { g.compute(1_ms); }, 0);
    }
    machine.run_until(100_us);
    machine.join_kernel(3);
    machine.run();
    process.check_all_joined();

    EXPECT_FALSE(machine.is_killed(3));
    for (topo::KernelId k = 0; k < 3; ++k) {
        EXPECT_TRUE(machine.kernel(k).elastic()->alive(3)) << "peer k" << k;
    }
    auto metrics = machine.collect_metrics();
    EXPECT_EQ(counter_value(metrics, "elastic.joins"), 1u);
    // The joiner itself pulled threads off the overloaded kernel.
    EXPECT_GE(counter_value(machine.kernel(3).metrics(), "balance.steals"), 1u);
}

} // namespace
} // namespace rko::api
