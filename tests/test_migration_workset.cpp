// Working-set migration: pre-copy page push + post-copy demand pull
// (DESIGN.md §15).
//
// Behavioural coverage: the per-task top-K tracker ranks by heat and ages
// by decay; a migration with workset push enabled reaches the exact same
// guest-visible state as the demand-only protocol (pre-copy is a pure
// latency optimization); pushes racing a destination kill fail cleanly
// (kPeerDead) without leaking directory busy bits; and sharded homes
// (RKO_HOME_SHARDS=4 equivalent) serve the pull round identically to the
// unsharded origin. The stale stride-detector regression (a revisit
// reactivating an old task record must not send a bogus window)
// rides along because migration arrival owns both resets.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "rko/api/machine.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/smp/smp.hpp"
#include "rko/task/task.hpp"

namespace rko::api {
namespace {

using namespace rko::time_literals;
using mem::kPageSize;
using mem::Vaddr;

std::uint64_t counter_value(trace::MetricsRegistry& m, std::string_view name) {
    const trace::Counter* c = m.find_counter(name);
    return c == nullptr ? 0 : c->value;
}

// --- Tracker unit behavior (no machine) -------------------------------------

TEST(WorksetTracker, TopKTrackingAndDecay) {
    task::Task t;
    // Fill every slot once.
    for (std::uint64_t vpn = 0; vpn < task::kMaxWorkset; ++vpn) {
        t.workset_touch(vpn);
    }
    ASSERT_EQ(t.workset_size, task::kMaxWorkset);
    // Re-touching an existing page bumps its heat, not the size.
    t.workset_touch(0);
    t.workset_touch(0);
    EXPECT_EQ(t.workset_size, task::kMaxWorkset);
    EXPECT_EQ(t.workset[0].heat, 3u);
    // A full tracker with every slot warm drops new touches: a page must
    // outlive a decay tick's cooling to displace an established entry.
    t.workset_touch(1000);
    for (std::uint32_t i = 0; i < t.workset_size; ++i) {
        EXPECT_NE(t.workset[i].vpn, 1000u);
    }
    // One decay halves everything: the heat-1 entries cool to zero and the
    // next new touch claims a cold slot.
    t.workset_decay();
    EXPECT_EQ(t.workset[0].heat, 1u);
    EXPECT_EQ(t.workset[1].heat, 0u);
    t.workset_touch(1000);
    bool found = false;
    for (std::uint32_t i = 0; i < t.workset_size; ++i) {
        found = found || (t.workset[i].vpn == 1000 && t.workset[i].heat == 1);
    }
    EXPECT_TRUE(found);
    // The hot entry survives repeated decay longer than the cold ones.
    t.workset_decay();
    EXPECT_EQ(t.workset[0].heat, 0u);
}

// --- Stale stride state across migration (regression) -----------------------

// A thread builds a partial sequential run (2 faults, below kPrefetchMinRun)
// on k1, migrates away and back — reactivating its OLD task record — then
// faults the next sequential page. Before the arrival-time reset, the stale
// read streak completed the run and sent a bogus windowed fault; with the reset the revisit starts a fresh run and no
// prefetch is ever issued.
TEST(WorksetMigration, StrideDetectorResetsOnRevisit) {
    MachineConfig config = smp::popcorn_config(8, 4);
    config.prefetch_window = 8;
    config.workset_push = 0;
    Machine machine(config);
    auto& process = machine.create_process(0);
    process.spawn(
        [](Guest& g) {
            const Vaddr buf = g.mmap(16 * kPageSize);
            g.read<std::uint64_t>(buf);                 // run = 1
            g.read<std::uint64_t>(buf + kPageSize);     // run = 2 (< min run 3)
            g.migrate(2);
            g.migrate(1); // revisit: old task record reactivated
            g.read<std::uint64_t>(buf + 2 * kPageSize); // fresh run, not 3
        },
        1);
    machine.run();
    process.check_all_joined();
    auto metrics = machine.collect_metrics();
    EXPECT_EQ(counter_value(metrics, "pages.prefetch.issued"), 0u);
    EXPECT_EQ(counter_value(metrics, "pages.prefetch.hit"), 0u);
}

// --- Push vs demand: guest-visible state agreement ---------------------------

struct RetouchResult {
    std::vector<std::uint64_t> values;
    Nanos retouch = 0;
    std::uint64_t pushed = 0;
    std::uint64_t hit = 0;
    std::uint64_t wasted = 0;
};

RetouchResult run_retouch(int workset_push, int home_shards, int pages) {
    MachineConfig config = smp::popcorn_config(8, 4);
    config.workset_push = workset_push;
    config.home_shards = home_shards;
    RetouchResult r;
    r.values.resize(static_cast<std::size_t>(pages));
    Machine machine(config);
    auto& process = machine.create_process(0);
    process.spawn(
        [&](Guest& g) {
            const Vaddr buf =
                g.mmap(static_cast<std::uint64_t>(pages) * kPageSize);
            for (int p = 0; p < pages; ++p) {
                g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                       0x1000u + static_cast<std::uint64_t>(p));
            }
            g.flush_timing();
            g.migrate(1);
            const Nanos t0 = g.now();
            for (int p = 0; p < pages; ++p) {
                r.values[static_cast<std::size_t>(p)] = g.read<std::uint64_t>(
                    buf + static_cast<Vaddr>(p) * kPageSize);
            }
            g.flush_timing();
            r.retouch = g.now() - t0;
        },
        0);
    machine.run();
    process.check_all_joined();
    auto metrics = machine.collect_metrics();
    r.pushed = counter_value(metrics, "migration.workset.pushed");
    r.hit = counter_value(metrics, "migration.workset.hit");
    r.wasted = counter_value(metrics, "migration.workset.wasted");
    return r;
}

TEST(WorksetMigration, PushAndDemandAgreeOnGuestState) {
    // 48 pages fit the push budget plus one stream; 256 pages are mostly
    // the tail past the budget, which must stream in as fast as it would
    // without the push.
    for (const int pages : {48, 256}) {
        const RetouchResult demand = run_retouch(/*workset_push=*/0,
                                                 /*home_shards=*/1, pages);
        const RetouchResult push = run_retouch(/*workset_push=*/32,
                                               /*home_shards=*/1, pages);
        // Pre-copy is a pure latency optimization: every byte the guest can
        // observe is identical to the demand-only protocol.
        EXPECT_EQ(demand.values, push.values) << pages << " pages";
        for (int p = 0; p < pages; ++p) {
            EXPECT_EQ(demand.values[static_cast<std::size_t>(p)],
                      0x1000u + static_cast<std::uint64_t>(p))
                << "page " << p << " of " << pages;
        }
        // The demand run never speaks the workset protocol.
        EXPECT_EQ(demand.pushed, 0u) << pages << " pages";
        EXPECT_EQ(demand.hit, 0u) << pages << " pages";
        // The push run pre-copied the tracked top-K and every push landed
        // (nothing raced the installs in this single-thread workload).
        EXPECT_GE(push.pushed, task::kMaxWorkset / 2) << pages << " pages";
        EXPECT_EQ(push.hit, push.pushed) << pages << " pages";
        EXPECT_EQ(push.wasted, 0u) << pages << " pages";
        // And it pays: the retouch is cheaper than demand paging's.
        EXPECT_LT(push.retouch, demand.retouch) << pages << " pages";
    }
}

// --- Sharded homes serve the pull round identically --------------------------

TEST(WorksetMigration, ShardedAndUnshardedAgree) {
    const RetouchResult unsharded = run_retouch(/*workset_push=*/32,
                                                /*home_shards=*/1, /*pages=*/48);
    const RetouchResult sharded = run_retouch(/*workset_push=*/32,
                                              /*home_shards=*/4, /*pages=*/48);
    EXPECT_EQ(unsharded.values, sharded.values);
    // Sharded pulls fan out per home; pages homed at the destination are
    // skipped entirely (their faults never cross the fabric), so fewer
    // pushes may happen — but the ones that do must all land.
    EXPECT_GE(sharded.pushed, 1u);
    EXPECT_EQ(sharded.hit, sharded.pushed);
    EXPECT_EQ(sharded.wasted, 0u);
}

// --- Pushes racing a destination kill fail cleanly ---------------------------

// A writer dirties 8 pages at the origin, migrates to k2 with workset push
// enabled, and k2 is killed at a sweep of virtual times spanning the
// migration, the pull round, and the in-flight pushes. Every timing must
// quiesce cleanly (leaked directory busy bits would hang the reader's
// faults forever) and the origin's copies — downgraded to Shared by the
// capture — must survive with their data intact.
TEST(WorksetMigration, PushToKilledDestinationFailsCleanly) {
    constexpr int kPages = 8;
    // The migration is delayed past lease warm-up: an idle kernel's balancer
    // parks at boot without ever gossiping, and a peer never heard from has
    // no lease to expire — so k2 runs a short task first to announce itself,
    // and the kill sweep brackets the migrate + pull window around t=220us.
    for (const Nanos kill_at : {210_us, 222_us, 228_us, 240_us, 300_us}) {
        MachineConfig config = smp::popcorn_config(8, 4);
        config.workset_push = 32;
        config.frames_per_kernel = 4096;
        config.balance.policy = balance::Policy::kIdleSteal;
        config.balance.period = 20_us;
        config.balance.min_residency = 50_us;
        config.balance.migration_budget = 4;
        config.elastic.enabled = true;
        config.elastic.lease_misses = 4;
        config.check = true; // audit directory invariants at quiesce
        Machine machine(config);
        auto& process = machine.create_process(0);
        Vaddr buf = 0;
        process.spawn(
            [&](Guest& g) {
                buf = g.mmap(kPages * kPageSize);
                for (int p = 0; p < kPages; ++p) {
                    g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                           0x2000u + static_cast<std::uint64_t>(p));
                }
                g.compute(200_us); // let the lease/gossip machinery warm up
                g.migrate(2);
                g.compute(500_us);
            },
            0);
        // The doomed destination announces itself: its balancer gossips only
        // while active, and the lease table ignores peers it never heard from.
        process.spawn([](Guest& g) { g.compute(150_us); }, 2);
        // Companion keeps the survivors' balance ticks (and the failure
        // detector) running well past the lease expiry.
        process.spawn([](Guest& g) { g.compute(2_ms); }, 0);
        machine.run_until(kill_at);
        machine.kill_kernel(2);
        machine.run();
        process.check_all_joined();
        EXPECT_TRUE(machine.is_killed(2)) << "kill_at=" << kill_at;

        // The origin kernel survived with every byte (the capture left it a
        // Shared holder): a reader re-faulting the whole buffer completing
        // at all proves no directory busy bit leaked from a dead-lettered
        // push, and the values prove no data was lost with the corpse.
        std::uint64_t sum = 0;
        process.spawn(
            [&](Guest& g) {
                for (int p = 0; p < kPages; ++p) {
                    sum += g.read<std::uint64_t>(buf +
                                                 static_cast<Vaddr>(p) * kPageSize);
                }
            },
            0);
        machine.run();
        process.check_all_joined();
        std::uint64_t want = 0;
        for (int p = 0; p < kPages; ++p) {
            want += 0x2000u + static_cast<std::uint64_t>(p);
        }
        EXPECT_EQ(sum, want) << "kill_at=" << kill_at;
    }
}

} // namespace
} // namespace rko::api
