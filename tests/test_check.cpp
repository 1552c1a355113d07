// rko/check: cross-kernel invariant audits, the RKO_CHECK gate, the
// fault-injection detection path, and the rko_explore scenario library.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "rko/api/machine.hpp"
#include "rko/check/explore.hpp"
#include "rko/check/gate.hpp"
#include "rko/check/invariants.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/kernel/kernel.hpp"

namespace rko {
namespace {

using api::Guest;
using api::Machine;
using api::MachineConfig;
using mem::kPageSize;
using mem::Vaddr;

/// Flips the global check gate for one test and restores it after.
class ScopedCheck {
public:
    explicit ScopedCheck(bool on) : saved_(check::enabled()) {
        check::set_enabled(on);
    }
    ~ScopedCheck() { check::set_enabled(saved_); }

private:
    bool saved_;
};

MachineConfig explore_like_config(std::uint64_t seed) {
    MachineConfig cfg;
    cfg.ncores = 8;
    cfg.nkernels = 4;
    cfg.frames_per_kernel = 1024;
    cfg.seed = seed;
    cfg.shuffle_ties = true;
    cfg.fabric.delivery_jitter = 2000;
    cfg.fabric.jitter_seed = seed;
    return cfg;
}

TEST(Check, GateToggles) {
    const bool initial = check::enabled();
    check::set_enabled(true);
    EXPECT_TRUE(check::enabled());
    check::set_enabled(false);
    EXPECT_FALSE(check::enabled());
    check::set_enabled(initial);
}

TEST(Check, RegistryListsEveryFamily) {
    const auto& invariants = check::Registry::builtin().invariants();
    ASSERT_EQ(invariants.size(), 9u);
    std::vector<std::string> names;
    for (const auto& inv : invariants) names.emplace_back(inv.name);
    EXPECT_NE(std::find(names.begin(), names.end(), "pages"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "futex"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "groups"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "msg"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "locks"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "balance"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "elastic"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "home"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "race"), names.end());
    for (const auto& inv : invariants) EXPECT_STRNE(inv.paper_ref, "");
}

// A migrating, faulting, futex-using workload audits clean, both via
// run_all and via the enforce points a check-enabled Machine runs
// automatically at run-idle and teardown (an abort there fails the test).
TEST(Check, CleanWorkloadAuditsClean) {
    ScopedCheck on(true);
    MachineConfig cfg = explore_like_config(7);
    cfg.check = true;
    Machine machine(cfg);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(2 * kPageSize); }, 0);
    for (int i = 0; i < 3; ++i) {
        process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                g.rmw_u32(buf + static_cast<Vaddr>(i) * 4,
                          [](std::uint32_t v) { return v + 1; });
                g.migrate(static_cast<topo::KernelId>((i + 1) % 4));
                g.rmw_u32(buf + kPageSize, [](std::uint32_t v) { return v + 1; });
                g.futex_wake(buf + kPageSize, 4);
            },
            static_cast<topo::KernelId>(i + 1));
    }
    machine.run();
    process.check_all_joined();
    const check::Report report = check::run_all(machine);
    EXPECT_TRUE(report.ok()) << report.to_string();
}

// The process-wide gate (RKO_CHECK) arms inline protocol assertions, the
// munmap post-condition sweeps among them. They are host-side: a
// munmap-heavy run ends at the same virtual time with the same message
// count whether they are armed or not.
TEST(Check, GateLeavesVirtualTimeUnchanged) {
    const auto run = [](bool on) {
        ScopedCheck gate(on);
        MachineConfig cfg;
        cfg.ncores = 4;
        cfg.nkernels = 2;
        cfg.frames_per_kernel = 1024;
        Machine machine(cfg);
        auto& process = machine.create_process(0);
        for (topo::KernelId k = 0; k < 2; ++k) {
            process.spawn(
                [](Guest& g) {
                    for (std::uint32_t i = 0; i < 16; ++i) {
                        const Vaddr buf = g.mmap(4 * kPageSize);
                        for (Vaddr p = 0; p < 4; ++p) {
                            g.write<std::uint32_t>(buf + p * kPageSize, i);
                        }
                        g.munmap(buf, 4 * kPageSize);
                    }
                },
                k);
        }
        machine.run();
        process.check_all_joined();
        return std::pair{machine.now(), machine.total_messages()};
    };
    const auto armed = run(true);
    const auto unarmed = run(false);
    EXPECT_EQ(armed.first, unarmed.first);
    EXPECT_EQ(armed.second, unarmed.second);
}

// Dropping one victim invalidation during a write upgrade leaves a stale
// read-only PTE at the victim kernel; the pages checker must name it.
TEST(Check, InjectedLostInvalidateIsCaught) {
    MachineConfig cfg = explore_like_config(3);
    cfg.check = false; // collect the report instead of aborting
    Machine machine(cfg);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn(
        [&](Guest& g) {
            buf = g.mmap(kPageSize);
            g.write<std::uint32_t>(buf, 0x41);
        },
        0);
    auto& reader = process.spawn(
        [&](Guest& g) {
            g.join(init);
            EXPECT_EQ(g.read<std::uint32_t>(buf), 0x41u); // Shared {k0, k1}
        },
        1);
    process.spawn(
        [&](Guest& g) {
            g.join(reader);
            for (int ik = 0; ik < machine.nkernels(); ++ik) {
                machine.kernel(ik).pages().set_inject_lost_invalidate(true);
            }
            g.write<std::uint32_t>(buf, 0x43); // k1's invalidate is dropped
            for (int ik = 0; ik < machine.nkernels(); ++ik) {
                machine.kernel(ik).pages().set_inject_lost_invalidate(false);
            }
        },
        0);
    machine.run();
    const check::Report report = check::run_all(machine);
    ASSERT_FALSE(report.ok());
    bool named = false;
    for (const auto& v : report.violations()) {
        named = named || v.invariant == "pages.pte_not_in_holders";
    }
    EXPECT_TRUE(named) << report.to_string();
}

TEST(Check, ScenarioRegistry) {
    const auto& list = check::scenarios();
    ASSERT_GE(list.size(), 5u);
    EXPECT_NE(check::find_scenario("migration_storm"), nullptr);
    EXPECT_NE(check::find_scenario("fault_munmap_race"), nullptr);
    EXPECT_NE(check::find_scenario("futex_ping"), nullptr);
    EXPECT_NE(check::find_scenario("mprotect_demote"), nullptr);
    EXPECT_NE(check::find_scenario("sequester_race"), nullptr);
    EXPECT_NE(check::find_scenario("inject_lost_invalidate"), nullptr);
    EXPECT_NE(check::find_scenario("kill_storm"), nullptr);
    EXPECT_NE(check::find_scenario("join_storm"), nullptr);
    EXPECT_NE(check::find_scenario("home_storm"), nullptr);
    EXPECT_NE(check::find_scenario("prefetch_race"), nullptr);
    EXPECT_NE(check::find_scenario("home_prefetch_race"), nullptr);
    EXPECT_NE(check::find_scenario("home_readahead_race"), nullptr);
    EXPECT_NE(check::find_scenario("first_touch_race"), nullptr);
    EXPECT_NE(check::find_scenario("push_race_sharded"), nullptr);
    EXPECT_NE(check::find_scenario("migratory_race"), nullptr);
    EXPECT_EQ(check::find_scenario("no_such_scenario"), nullptr);
}

TEST(Check, SameSeedIsBitReproducible) {
    const check::Scenario* s = check::find_scenario("migration_storm");
    ASSERT_NE(s, nullptr);
    const check::ExploreConfig cfg{42, 2000, true};
    const check::ScenarioResult a = s->run(cfg);
    const check::ScenarioResult b = s->run(cfg);
    EXPECT_EQ(a.replay_hash, b.replay_hash);
    EXPECT_EQ(a.content_hash, b.content_hash);
    EXPECT_EQ(a.vtime, b.vtime);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_TRUE(a.report.ok()) << a.report.to_string();
}

TEST(Check, TieShuffleActuallyPerturbsSchedules) {
    const check::Scenario* s = check::find_scenario("migration_storm");
    ASSERT_NE(s, nullptr);
    // Different seeds must change the schedule (replay hash) somewhere in a
    // small window, while the guest-visible result stays fixed.
    const check::ScenarioResult base = s->run(check::ExploreConfig{1, 2000, true});
    bool schedule_varies = false;
    for (std::uint64_t seed = 2; seed <= 6; ++seed) {
        const check::ScenarioResult r = s->run(check::ExploreConfig{seed, 2000, true});
        EXPECT_EQ(r.content_hash, base.content_hash);
        EXPECT_TRUE(r.report.ok()) << r.report.to_string();
        schedule_varies = schedule_varies || r.replay_hash != base.replay_hash;
    }
    EXPECT_TRUE(schedule_varies);
}

// Satellite coverage: munmap-vs-remote-fault races stay invariant-clean
// and per-seed reproducible across a seed window.
TEST(Check, MunmapFaultRaceSeeds) {
    ScopedCheck on(true); // arm the gated inline protocol checks too
    const check::Scenario* s = check::find_scenario("fault_munmap_race");
    ASSERT_NE(s, nullptr);
    check::SweepOptions options;
    options.seeds = 6;
    options.first_seed = 1;
    const check::SweepStats stats = check::sweep(*s, options);
    EXPECT_EQ(stats.runs, 6);
    EXPECT_TRUE(stats.ok());
}

// Satellite coverage: mprotect write-bit demotion cycles against
// concurrent readers/writers.
TEST(Check, MprotectDemoteSeeds) {
    ScopedCheck on(true);
    const check::Scenario* s = check::find_scenario("mprotect_demote");
    ASSERT_NE(s, nullptr);
    check::SweepOptions options;
    options.seeds = 6;
    options.first_seed = 11;
    const check::SweepStats stats = check::sweep(*s, options);
    EXPECT_EQ(stats.runs, 6);
    EXPECT_TRUE(stats.ok());
}

// Satellite coverage: kernels fail-stop / hot-join / drain mid-run under
// the elastic membership protocol; the audits (including the elastic
// family) must stay clean across an explored seed window.
TEST(Check, ElasticStormSeeds) {
    ScopedCheck on(true);
    for (const char* name : {"kill_storm", "join_storm"}) {
        const check::Scenario* s = check::find_scenario(name);
        ASSERT_NE(s, nullptr) << name;
        check::SweepOptions options;
        options.seeds = 4;
        options.first_seed = 1;
        const check::SweepStats stats = check::sweep(*s, options);
        EXPECT_EQ(stats.runs, 4) << name;
        EXPECT_TRUE(stats.ok()) << name;
    }
}

// Satellite coverage: the sharded-home torture — 8-way homes under a
// cross-kernel fault storm while a shard-owning kernel dies and another
// drains. The nine audit families (home included) must stay clean and the
// schedule must replay bit-identically across a seed window.
TEST(Check, HomeStormSeeds) {
    ScopedCheck on(true);
    const check::Scenario* s = check::find_scenario("home_storm");
    ASSERT_NE(s, nullptr);
    check::SweepOptions options;
    options.seeds = 4;
    options.first_seed = 1;
    const check::SweepStats stats = check::sweep(*s, options);
    EXPECT_EQ(stats.runs, 4);
    EXPECT_TRUE(stats.ok());
}

// The sweep treats a *clean* report from the fault-injection scenario as
// the failure — detection is what is being asserted.
TEST(Check, SweepRequiresInjectionToBeDetected) {
    const check::Scenario* s = check::find_scenario("inject_lost_invalidate");
    ASSERT_NE(s, nullptr);
    EXPECT_TRUE(s->expect_violation);
    check::SweepOptions options;
    options.seeds = 3;
    const check::SweepStats stats = check::sweep(*s, options);
    EXPECT_EQ(stats.runs, 3);
    EXPECT_TRUE(stats.ok()); // ok == the injected bug was flagged every seed
}

} // namespace
} // namespace rko
