// rko/race: the sim-aware dynamic race detector — lockset/lock-order
// tracking on SpinLock/RwLock, await-atomicity via ShadowCell, the "race"
// invariant family, and the re-injected PR 6 futex-registration race.
#include <gtest/gtest.h>

#include <string>

#include "rko/api/machine.hpp"
#include "rko/api/process.hpp"
#include "rko/core/dfutex.hpp"
#include "rko/kernel/kernel.hpp"
#include "rko/race/race.hpp"
#include "rko/sim/actor.hpp"
#include "rko/sim/engine.hpp"
#include "rko/sim/sync.hpp"

namespace rko {
namespace {

using api::Guest;
using api::Machine;
using api::MachineConfig;
using mem::kPageSize;
using mem::Vaddr;
using namespace time_literals;

/// Arms the race detector for one test and restores the gate after.
/// Construct BEFORE any Machine/Engine so lock naming and the per-machine
/// reset in api::Machine's constructor both see the detector enabled.
class ScopedRace {
public:
    explicit ScopedRace() : saved_(race::enabled()) {
        race::set_enabled(true);
        race::reset();
    }
    ~ScopedRace() { race::set_enabled(saved_); }

private:
    bool saved_;
};

/// Count findings of one rule.
std::size_t count_rule(const std::string& rule) {
    std::size_t n = 0;
    for (const race::Finding& f : race::findings()) {
        if (f.rule == rule) ++n;
    }
    return n;
}

bool any_finding_mentions(const std::string& rule, const std::string& text) {
    for (const race::Finding& f : race::findings()) {
        if (f.rule == rule && f.detail.find(text) != std::string::npos) {
            return true;
        }
    }
    return false;
}

// --- Lock-order cycles ----------------------------------------------------

// Two actors take the same two locks in opposite orders, but sequenced in
// virtual time so no deadlock actually occurs — only the order graph can
// see the hazard. That is the point of the checker: the cycle is reported
// from a run where nothing hung.
TEST(Race, SequentialOppositeOrderAcquisitionReportsCycle) {
    ScopedRace on;
    sim::Engine engine;
    sim::SpinLock lock_a;
    sim::SpinLock lock_b;
    race::name_lock(&lock_a, "toy.A");
    race::name_lock(&lock_b, "toy.B");

    sim::Actor first(engine, "first", [&](sim::Actor&) {
        lock_a.lock();
        lock_b.lock();
        lock_b.unlock();
        lock_a.unlock();
    });
    sim::Actor second(engine, "second", [&](sim::Actor& self) {
        self.sleep_for(10_us); // strictly after `first` is done
        lock_b.lock();
        lock_a.lock();
        lock_a.unlock();
        lock_b.unlock();
    });
    first.start();
    second.start();
    engine.run();

    EXPECT_EQ(count_rule("lock_cycle"), 1u) << race::findings_to_string();
    EXPECT_TRUE(any_finding_mentions("lock_cycle", "toy.A"));
    EXPECT_TRUE(any_finding_mentions("lock_cycle", "toy.B"));
    // Same-order acquisitions alone must not report (the dedup set keeps
    // the single cycle from multiplying on repeated runs of the pattern).
    EXPECT_EQ(race::findings().size(), 1u) << race::findings_to_string();
}

TEST(Race, ConsistentOrderIsClean) {
    ScopedRace on;
    sim::Engine engine;
    sim::SpinLock lock_a;
    sim::SpinLock lock_b;

    for (int i = 0; i < 2; ++i) {
        auto body = [&](sim::Actor&) {
            lock_a.lock();
            lock_b.lock();
            lock_b.unlock();
            lock_a.unlock();
        };
        sim::Actor actor(engine, std::string("a").append(std::to_string(i)), body);
        actor.start();
        engine.run();
    }
    EXPECT_TRUE(race::findings().empty()) << race::findings_to_string();
}

// --- Foreign release ------------------------------------------------------

// RwLock::unlock_shared tracks only a reader COUNT — it cannot itself
// catch one actor releasing another actor's read hold. The detector's
// per-actor locksets can.
TEST(Race, CrossActorUnlockSharedReportsForeignRelease) {
    ScopedRace on;
    sim::Engine engine;
    sim::RwLock rw;
    race::name_lock(&rw, "toy.rw");

    sim::Actor reader(engine, "reader", [&](sim::Actor& self) {
        rw.lock_shared();
        self.sleep_for(20_us);
        // Never unlocks: `releaser` does it for us (the bug under test).
    });
    sim::Actor releaser(engine, "releaser", [&](sim::Actor& self) {
        self.sleep_for(5_us);
        rw.unlock_shared(); // legal by reader-count, foreign by lockset
    });
    reader.start();
    releaser.start();
    engine.run();

    EXPECT_EQ(count_rule("foreign_release"), 1u) << race::findings_to_string();
    EXPECT_TRUE(any_finding_mentions("foreign_release", "toy.rw"));
    EXPECT_TRUE(any_finding_mentions("foreign_release", "releaser"));
}

// --- Await atomicity (ShadowCell) -----------------------------------------

// The PR 6 bug shape in miniature: a decision read taken before an await
// is invalidated by another actor's write while the reader is parked.
// With no common lock between read and write, the reader resumes holding
// a stale decision — flagged. When both sides hold the same lock, the
// write proves the reader could not have been mid-decision — clean.
TEST(Race, StaleReadAcrossAwaitFlaggedOnlyWithoutCommonLock) {
    ScopedRace on;

    { // Unlocked read vs locked write: flagged.
        sim::Engine engine;
        sim::SpinLock lock;
        race::ShadowCell cell{"toy.cell"};
        race::name_lock(&lock, "toy.lock");
        sim::Actor reader(engine, "reader", [&](sim::Actor& self) {
            cell.on_read(); // no lock held: the decision can go stale
            self.sleep_for(10_us);
        });
        sim::Actor writer(engine, "writer", [&](sim::Actor& self) {
            self.sleep_for(1_us);
            lock.lock();
            cell.on_write();
            lock.unlock();
        });
        reader.start();
        writer.start();
        engine.run();
        EXPECT_EQ(count_rule("stale_read_across_await"), 1u)
            << race::findings_to_string();
        EXPECT_TRUE(any_finding_mentions("stale_read_across_await", "toy.cell"));
    }

    race::reset();

    { // Same discipline on both sides: clean.
        sim::Engine engine;
        sim::SpinLock lock;
        race::ShadowCell cell{"toy.cell"};
        sim::Actor reader(engine, "reader", [&](sim::Actor& self) {
            lock.lock();
            cell.on_read();
            lock.unlock();
            self.sleep_for(10_us);
        });
        sim::Actor writer(engine, "writer", [&](sim::Actor& self) {
            self.sleep_for(1_us);
            lock.lock();
            cell.on_write();
            lock.unlock();
        });
        reader.start();
        writer.start();
        engine.run();
        EXPECT_TRUE(race::findings().empty()) << race::findings_to_string();
    }
}

// A kRacyOk cell is the data_race() analog: reads are exempt by policy.
TEST(Race, RacyOkPolicySuppressesStaleReads) {
    ScopedRace on;
    sim::Engine engine;
    race::ShadowCell cell{"toy.racy", race::ShadowCell::Policy::kRacyOk};
    sim::Actor reader(engine, "reader", [&](sim::Actor& self) {
        cell.on_read();
        self.sleep_for(10_us);
    });
    sim::Actor writer(engine, "writer", [&](sim::Actor& self) {
        self.sleep_for(1_us);
        cell.on_write();
    });
    reader.start();
    writer.start();
    engine.run();
    EXPECT_TRUE(race::findings().empty()) << race::findings_to_string();
}

// --- Clean machine --------------------------------------------------------

// A migrating, faulting, futex-using, kernel-killing workload produces
// zero findings at head: every directory/futex decision follows the lock
// or busy-bit discipline the detector encodes. This is the "no false
// positives" contract that lets ci run the whole suite under RKO_RACE=1.
TEST(Race, CleanWorkloadHasZeroFindings) {
    ScopedRace on;
    MachineConfig cfg;
    cfg.ncores = 8;
    cfg.nkernels = 4;
    cfg.frames_per_kernel = 1024;
    cfg.seed = 42;
    cfg.shuffle_ties = true;
    cfg.fabric.delivery_jitter = 2000;
    cfg.fabric.jitter_seed = 42;
    Machine machine(cfg);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
    for (int i = 0; i < 6; ++i) {
        process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                const Vaddr slot = buf + static_cast<Vaddr>(i % 3) * 64;
                for (int r = 0; r < 10; ++r) {
                    g.rmw_u32(slot, [](std::uint32_t v) { return v + 1; });
                    g.futex_wait_for(buf + 512, 0, 2_us);
                    g.compute(5_us);
                }
                g.futex_wake(buf + 512, 4);
            },
            static_cast<topo::KernelId>(i % 4));
    }
    machine.run();
    EXPECT_TRUE(race::findings().empty()) << race::findings_to_string();
    EXPECT_EQ(race::findings_dropped(), 0u);
}

// Hierarchical-futex churn (DESIGN.md §13): convoys form and drain on one
// contended mutex word across three kernels while short stale-value timed
// waits race kFutexGrantBatch grants and local handoffs. Every convoy
// mutation goes through the per-kernel convoy lock and its shadow cell;
// zero findings proves the two-tier discipline holds under jitter.
TEST(Race, ConvoyChurnHasZeroFindings) {
    ScopedRace on;
    MachineConfig cfg;
    cfg.ncores = 8;
    cfg.nkernels = 4;
    cfg.frames_per_kernel = 1024;
    cfg.seed = 7;
    cfg.shuffle_ties = true;
    cfg.fabric.delivery_jitter = 2000;
    cfg.fabric.jitter_seed = 7;
    Machine machine(cfg);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
    for (int i = 0; i < 6; ++i) {
        process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                for (int r = 0; r < 8; ++r) {
                    g.mutex_lock(buf);
                    g.rmw_u32(buf + 64, [](std::uint32_t v) { return v + 1; });
                    g.compute(5_us);
                    g.mutex_unlock(buf);
                    if (i % 2 == 0) {
                        (void)g.futex_wait_for(buf, 2, 2_us);
                    }
                }
            },
            static_cast<topo::KernelId>(1 + i % 3)); // remote convoys only
    }
    machine.run();
    EXPECT_TRUE(race::findings().empty()) << race::findings_to_string();
    EXPECT_EQ(race::findings_dropped(), 0u);
}

// --- PR 6 bug re-injection ------------------------------------------------

// The lost-wake bug this repo fixed in PR 6: origin_wait sampled the
// bucket's registration state before the fault-path await and enqueued
// without re-checking, so a waiter whose kernel died during the await was
// registered into a queue the reaper had already swept. The fix re-checks
// under the bucket lock; set_inject_stale_registration() reverts
// origin_wait to the buggy shape, and the detector must catch it as a
// stale-read-across-await on the futex bucket's shadow cell.
TEST(Race, ReinjectedFutexRegistrationRaceIsCaught) {
    ScopedRace on;
    MachineConfig cfg;
    cfg.ncores = 8;
    cfg.nkernels = 4;
    cfg.frames_per_kernel = 1024;
    cfg.seed = 11;
    cfg.shuffle_ties = true;
    cfg.fabric.delivery_jitter = 2000;
    cfg.fabric.jitter_seed = 11;
    // Findings are collected and asserted on below, not enforced: the
    // injected bug must not abort the run at a quiesce point.
    cfg.check = false;
    cfg.balance.policy = balance::Policy::kIdleSteal;
    cfg.balance.period = 20_us;
    cfg.balance.min_residency = 50_us;
    cfg.elastic.enabled = true;
    cfg.elastic.lease_misses = 4;
    Machine machine(cfg);
    machine.kernel(0).futex().set_inject_stale_registration(true);

    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
    // Anchor computes keep k0/k1 busy so idle-steal cannot migrate the
    // victims off the doomed kernel before it dies.
    for (topo::KernelId k = 0; k < 2; ++k) {
        process.spawn([](Guest& g) { g.compute(2_ms); }, k);
    }
    // Victims on k2/k3: long futex waits at the k0 origin, so their
    // registrations are live in k0's buckets when their kernels die.
    for (int i = 0; i < 4; ++i) {
        process.spawn(
            [&](Guest& g) {
                g.join(init);
                g.futex_wait_for(buf + 512, 0, 5_ms);
            },
            static_cast<topo::KernelId>(2 + i % 2));
    }
    machine.run_until(300_us);
    machine.kill_kernel(3);
    machine.run_until(700_us);
    machine.kill_kernel(2);
    machine.run();

    EXPECT_GE(count_rule("stale_read_across_await"), 1u)
        << "the re-injected PR 6 race went undetected\n"
        << race::findings_to_string();
    EXPECT_TRUE(any_finding_mentions("stale_read_across_await", "futex.bucket"))
        << race::findings_to_string();
}

// The same storm without the injection is clean: proves the finding above
// comes from the re-injected bug, not from the kill/reap machinery.
TEST(Race, KillStormWithoutInjectionIsClean) {
    ScopedRace on;
    MachineConfig cfg;
    cfg.ncores = 8;
    cfg.nkernels = 4;
    cfg.frames_per_kernel = 1024;
    cfg.seed = 11;
    cfg.shuffle_ties = true;
    cfg.fabric.delivery_jitter = 2000;
    cfg.fabric.jitter_seed = 11;
    cfg.balance.policy = balance::Policy::kIdleSteal;
    cfg.balance.period = 20_us;
    cfg.balance.min_residency = 50_us;
    cfg.elastic.enabled = true;
    cfg.elastic.lease_misses = 4;
    Machine machine(cfg);

    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
    for (topo::KernelId k = 0; k < 2; ++k) {
        process.spawn([](Guest& g) { g.compute(2_ms); }, k);
    }
    for (int i = 0; i < 4; ++i) {
        process.spawn(
            [&](Guest& g) {
                g.join(init);
                g.futex_wait_for(buf + 512, 0, 5_ms);
            },
            static_cast<topo::KernelId>(2 + i % 2));
    }
    machine.run_until(300_us);
    machine.kill_kernel(3);
    machine.run_until(700_us);
    machine.kill_kernel(2);
    machine.run();

    EXPECT_TRUE(race::findings().empty()) << race::findings_to_string();
}

// --- Plumbing -------------------------------------------------------------

TEST(Race, EnabledGateTogglesAndResets) {
    const bool initial = race::enabled();
    race::set_enabled(true);
    EXPECT_TRUE(race::enabled());
    race::set_enabled(false);
    EXPECT_FALSE(race::enabled());
    race::set_enabled(initial);
}

} // namespace
} // namespace rko
