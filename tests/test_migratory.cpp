// Migratory pages (DESIGN.md §17): a page kernels take turns to read and
// then write is handed over in one directory transaction. The home marks
// it when a kernel upgrades a page its own read just took from the last
// writer, serves later guest read faults on it as ownership transfers, and
// reverts it when a grant finds the owner never stored to the page. A grant
// whose owner is a third kernel goes one hop: the owner hands the page to
// the requester itself, and a kill of any of the three kernels mid-grant
// leaves the directory consistent. Kernel peeks (the futex path reading a
// user word) take no part. A thread at the home that takes a page by an
// atomic keeps it until it next enters the kernel, for at most one message
// round trip (tenure): a remote writer waits that out.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "rko/api/machine.hpp"
#include "rko/balance/balance.hpp"
#include "rko/check/invariants.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/smp/smp.hpp"

namespace rko {
namespace {

using namespace rko::time_literals;
using api::Guest;
using api::Machine;
using api::Thread;
using mem::kPageSize;
using mem::Vaddr;

struct PageCounters {
    std::uint64_t home_msgs = 0;
    std::uint64_t grants = 0;
    std::uint64_t reverts = 0;
    std::uint64_t forwarded = 0;
};

PageCounters page_counters(Machine& machine) {
    PageCounters c;
    for (topo::KernelId k = 0; k < machine.nkernels(); ++k) {
        const core::PageOwner& pages = machine.kernel(k).pages();
        c.home_msgs += pages.home_msgs();
        c.grants += pages.migratory_grants();
        c.reverts += pages.migratory_reverts();
        c.forwarded += pages.migratory_forwarded();
    }
    return c;
}

api::MachineConfig kernels(int n) {
    auto config = smp::popcorn_config(2 * n, n);
    config.home_shards = 1; // one home: every transaction counted once
    return config;
}

/// The kernels in `writers` take turns, kRounds times each, to read and
/// then write their own slot of one page homed at k0: `count += 1` on a
/// false-shared page. The turns are spaced far enough apart that each one
/// is a handoff. Returns the directory transactions the handoffs cost.
PageCounters run_turns(int rounds, const std::array<topo::KernelId, 4>& writers,
                       std::array<std::uint64_t, 4>* slots) {
    Machine machine(kernels(1 + *std::max_element(writers.begin(), writers.end())));
    auto& process = machine.create_process(0);
    Vaddr page = 0;
    auto& init = process.spawn([&](Guest& g) { page = g.mmap(kPageSize); }, 0);
    PageCounters before;
    auto& start = process.spawn(
        [&](Guest& g) {
            g.join(init);
            before = page_counters(machine);
        },
        0);
    for (int k = 0; k < 4; ++k) {
        process.spawn(
            [&, k, rounds](Guest& g) {
                g.join(start);
                g.compute(static_cast<Nanos>(k) * 25_us);
                for (int r = 0; r < rounds; ++r) {
                    const Vaddr slot = page + static_cast<Vaddr>(k) * 64;
                    g.write<std::uint64_t>(slot, g.read<std::uint64_t>(slot) + 1);
                    g.compute(100_us);
                }
            },
            writers[static_cast<std::size_t>(k)]);
    }
    machine.run();
    process.check_all_joined();
    process.spawn(
        [&](Guest& g) {
            for (int k = 0; k < 4; ++k) {
                (*slots)[static_cast<std::size_t>(k)] =
                    g.read<std::uint64_t>(page + static_cast<Vaddr>(k) * 64);
            }
        },
        writers[0]);
    machine.run();
    process.check_all_joined();
    EXPECT_TRUE(check::run_all(machine).ok());
    const PageCounters after = page_counters(machine);
    return {after.home_msgs - before.home_msgs, after.grants - before.grants,
            after.reverts - before.reverts, after.forwarded - before.forwarded};
}

TEST(Pages, MigratoryHandoffIsOneTransaction) {
    constexpr int kRounds = 12;
    std::array<std::uint64_t, 4> slots{};
    const PageCounters c = run_turns(kRounds, {0, 1, 2, 3}, &slots);
    for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(slots[static_cast<std::size_t>(k)], static_cast<std::uint64_t>(kRounds))
            << "slot " << k;
    }
    // Every turn but the first takes the page from another kernel. The
    // first two turns pay a read fault and an upgrade each while the home
    // learns the pattern; every later turn is one ownership transfer. The
    // transaction count also holds about a dozen for thread start and
    // exit. With replication alone it is about two per handoff.
    const std::uint64_t handoffs = 4 * kRounds - 1;
    EXPECT_GE(c.grants, handoffs - 2);
    EXPECT_EQ(c.reverts, 0u);
    EXPECT_LE(static_cast<double>(c.home_msgs), 1.5 * static_cast<double>(handoffs))
        << c.home_msgs << " home transactions for " << handoffs << " handoffs";
    // A grant goes one hop only between two kernels that are not the home:
    // half the handoffs here have k0 at one end.
    EXPECT_GT(c.forwarded, 0u);
    EXPECT_LT(c.forwarded, c.grants);
}

// The same turns with a home that never writes: every grant is between two
// other kernels, so the owner hands the page straight to the next writer
// and answers its fault on its ticket (DESIGN §17, "One hop").
TEST(Pages, ThirdPartyHandoffGoesOneHop) {
    constexpr int kRounds = 12;
    std::array<std::uint64_t, 4> slots{};
    const PageCounters c = run_turns(kRounds, {1, 2, 3, 4}, &slots);
    for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(slots[static_cast<std::size_t>(k)], static_cast<std::uint64_t>(kRounds))
            << "slot " << k;
    }
    const std::uint64_t handoffs = 4 * kRounds - 1;
    EXPECT_GE(c.grants, handoffs - 2);
    EXPECT_EQ(c.forwarded, c.grants);
    EXPECT_EQ(c.reverts, 0u);
    EXPECT_LE(static_cast<double>(c.home_msgs), 1.5 * static_cast<double>(handoffs));
}

// Once a migratory page's owner stops storing, readers must get their
// replicas back: the first grant that finds a clean owner reverts the
// page, and from then on readers share it. Threads on `writer_kernels`
// take turns to read then write, then threads on `spinner_kernels` only
// read; the page is homed at k0. Returns the counters the spin phase added.
PageCounters spinning_readers_revert(int nkernels,
                                     const std::array<topo::KernelId, 2>& writer_kernels,
                                     const std::array<topo::KernelId, 2>& spinner_kernels) {
    constexpr int kSpins = 60;
    Machine machine(kernels(nkernels));
    auto& process = machine.create_process(0);
    Vaddr page = 0;
    auto& init = process.spawn([&](Guest& g) { page = g.mmap(kPageSize); }, 0);
    // The writers take turns to read then write: migratory.
    std::vector<Thread*> writers;
    for (int w = 0; w < 2; ++w) {
        writers.push_back(&process.spawn(
            [&, w](Guest& g) {
                g.join(init);
                g.compute(static_cast<Nanos>(w) * 25_us);
                for (int r = 0; r < 4; ++r) {
                    const Vaddr slot = page + static_cast<Vaddr>(w) * 64;
                    g.write<std::uint64_t>(slot, g.read<std::uint64_t>(slot) + 1);
                    g.compute(50_us);
                }
            },
            writer_kernels[static_cast<std::size_t>(w)]));
    }
    PageCounters at_spin;
    auto& gate = process.spawn(
        [&](Guest& g) {
            for (Thread* w : writers) g.join(*w);
            at_spin = page_counters(machine);
        },
        0);
    // Then the spinners only read it, over and over.
    std::array<std::uint64_t, 2> spinner_faults{};
    for (int i = 0; i < 2; ++i) {
        const topo::KernelId k = spinner_kernels[static_cast<std::size_t>(i)];
        process.spawn(
            [&, i, k](Guest& g) {
                g.join(gate);
                g.compute(static_cast<Nanos>(i) * 5_us);
                const std::uint64_t f0 = machine.kernel(k).pages().remote_faults();
                for (int n = 0; n < kSpins; ++n) {
                    EXPECT_EQ(g.read<std::uint64_t>(page), 4u);
                    g.compute(2_us);
                }
                spinner_faults[static_cast<std::size_t>(i)] =
                    machine.kernel(k).pages().remote_faults() - f0;
            },
            k);
    }
    machine.run();
    process.check_all_joined();
    EXPECT_TRUE(check::run_all(machine).ok());

    const PageCounters end = page_counters(machine);
    EXPECT_GT(at_spin.grants, 0u) << "the writers never made the page migratory";
    EXPECT_EQ(at_spin.reverts, 0u);
    // The first spinner's grant came from a writer; the second one found
    // that spinner clean and reverted the page. No grant after that.
    EXPECT_EQ(end.reverts, 1u);
    EXPECT_LE(end.grants - at_spin.grants, 2u);
    for (int i = 0; i < 2; ++i) {
        EXPECT_LE(spinner_faults[static_cast<std::size_t>(i)], 2u) << "spinner " << i;
    }
    // Both spinners end with a replica.
    const std::uint64_t vpn = mem::vpn_of(page);
    const core::PageDirEntry& entry =
        machine.kernel(0).site(process.pid()).dir_shard(vpn).entries.at(vpn);
    EXPECT_EQ(entry.state, core::PageDirEntry::State::kShared);
    for (const topo::KernelId k : spinner_kernels) EXPECT_TRUE(entry.holds(k));
    EXPECT_FALSE(entry.migratory);
    return {end.home_msgs - at_spin.home_msgs, end.grants - at_spin.grants,
            end.reverts - at_spin.reverts, end.forwarded - at_spin.forwarded};
}

TEST(Pages, SpinningReadersRevertMigratory) {
    spinning_readers_revert(4, {0, 1}, {2, 3});
}

// The same with a home that neither writes nor spins: both spin-phase
// grants go one hop, so the second spinner's grant learns that the first
// spinner was clean from the owner's answer, and only its confirm can
// carry that to the home.
TEST(Pages, SpinningReadersRevertForwardedMigratory) {
    const PageCounters spin = spinning_readers_revert(5, {1, 2}, {3, 4});
    EXPECT_GT(spin.grants, 0u);
    EXPECT_EQ(spin.forwarded, spin.grants);
}

/// The kernels of a forwarded grant: `reader` read-faults on a migratory
/// page Exclusive at `owner`, homed at `home`.
struct GrantRoles {
    topo::KernelId home;
    topo::KernelId owner;
    topo::KernelId reader;
};

/// One run of a forwarded grant, with `victim` (-1: none) killed at `kill_at`.
struct ForwardRun {
    Nanos read_start = -1; ///< when the reader's probe read began
    Nanos read_end = -1;   ///< ...and when it returned
    std::uint64_t seen = ~std::uint64_t{0}; ///< what the probe read
    int reader_exit = -1;
    bool hung = false; ///< the probe read had not returned 2 ms after the kill
    /// Survivors mapping the page once the run settles, before `final`.
    int mappers = 0;
    /// The owner took the home's kPageForward off its fabric.
    bool forward_dispatched = false;
    std::uint64_t forwarded = 0;
    std::uint64_t final = ~std::uint64_t{0}; ///< a read at k0 afterwards
    std::string audit;                       ///< empty when the audits pass
};

/// The value the turns leave in the page before the probe read.
constexpr std::uint64_t kLastValue = 3;

/// The owner and the reader take turns to read then write one page until
/// it is migratory and Exclusive, and dirty, at the owner (value
/// kLastValue); then the reader reads it, a grant the home forwards to the
/// owner. k0 is the origin and, unsharded, the home; with home_shards > 1
/// the page is the first of its region homed at `roles.home`.
ForwardRun forwarded_grant(int home_shards, const GrantRoles& roles,
                           topo::KernelId victim, Nanos kill_at) {
    auto config = smp::popcorn_config(8, 4, 4 * 1024);
    config.home_shards = home_shards;
    config.balance.policy = balance::Policy::kIdleSteal;
    config.balance.period = 20_us;
    config.elastic.enabled = true;
    config.elastic.lease_misses = 4;
    config.check = false; // audited below, so a finding fails, not aborts
    Machine machine(config);
    auto& process = machine.create_process(0);
    ForwardRun run;
    Vaddr page = 0;
    auto& init = process.spawn(
        [&](Guest& g) {
            const Vaddr buf = g.mmap(64 * kPageSize);
            core::ProcessSite& site = machine.kernel(0).site(process.pid());
            for (page = buf; machine.kernel(0).pages().home_of(site, page) != roles.home;
                 page += kPageSize) {
            }
        },
        0);
    const auto turn = [&](Thread& after, topo::KernelId k) -> Thread& {
        return process.spawn(
            [&page, &after](Guest& g) {
                g.join(after);
                g.write<std::uint64_t>(page, g.read<std::uint64_t>(page) + 1);
            },
            k);
    };
    // First touch by the owner, then a read-then-write turn each: the
    // reader's upgrade marks the page, and the owner's read is a grant.
    Thread& last = turn(turn(turn(init, roles.owner), roles.reader), roles.owner);
    Thread& reader = process.spawn(
        [&](Guest& g) {
            g.join(last);
            g.compute(20_us);
            g.flush_timing();
            run.read_start = g.now();
            run.seen = g.read<std::uint64_t>(page);
            g.flush_timing();
            run.read_end = g.now();
        },
        roles.reader);
    if (victim >= 0) {
        machine.run_until(kill_at);
        machine.kill_kernel(victim);
    }
    // Bounded: a fault nobody answers must fail the test, not hang it. A
    // stuck reader is unwound by killing its kernel too.
    machine.run_until(machine.now() + 2_ms);
    run.hung = !reader.finished();
    if (run.hung) machine.kill_kernel(roles.reader);
    machine.run();
    process.check_all_joined();
    run.reader_exit = reader.exit_status();
    run.forward_dispatched =
        machine.kernel(roles.owner).node().dispatched(msg::MsgType::kPageForward) > 0;
    for (topo::KernelId k = 0; k < machine.nkernels(); ++k) {
        run.forwarded += machine.kernel(k).pages().migratory_forwarded();
        if (k == victim || !machine.kernel(k).has_site(process.pid())) continue;
        const mem::Pte* pte =
            machine.kernel(k).site(process.pid()).space().page_table().find(page);
        if (pte != nullptr && pte->present) ++run.mappers;
    }
    process.spawn([&](Guest& g) { run.final = g.read<std::uint64_t>(page); }, 0);
    machine.run();
    process.check_all_joined();
    const check::Report report = check::run_all(machine);
    if (!report.ok()) run.audit = report.to_string();
    return run;
}

/// Kill times 100 ns apart across the reader's probe read of `base`, from
/// 1 us before it to 1 us after it.
std::vector<Nanos> kill_times(const ForwardRun& base) {
    std::vector<Nanos> times;
    for (Nanos at = base.read_start - 1_us; at <= base.read_end + 1_us; at += 100) {
        times.push_back(at);
    }
    return times;
}

constexpr GrantRoles kOriginHome{0, 1, 2};

TEST(Pages, ForwardedGrantNeedsNoKill) {
    const ForwardRun run = forwarded_grant(1, kOriginHome, -1, 0);
    EXPECT_FALSE(run.hung);
    EXPECT_EQ(run.seen, kLastValue);
    EXPECT_EQ(run.final, kLastValue);
    EXPECT_TRUE(run.forward_dispatched);
    EXPECT_EQ(run.forwarded, 2u); // the owner's turn and the probe read
    EXPECT_EQ(run.audit, "");
}

// The owner dies at each point of the grant. Before it hands the page over,
// its copy dies with it: the home answers the reader's ticket with a cancel
// once it declares the owner dead, the reader confirms that it installed
// nothing, and refaults a zero page. From the moment the owner's answer is
// on the wire, the reader installs the page's last value. Either way the
// fault never hangs and the directory ends consistent.
TEST(Pages, ForwardedGrantSurvivesOwnerDeath) {
    const ForwardRun base = forwarded_grant(1, kOriginHome, -1, 0);
    int cancelled = 0;
    int granted = 0;
    for (const Nanos at : kill_times(base)) {
        const ForwardRun run = forwarded_grant(1, kOriginHome, kOriginHome.owner, at);
        SCOPED_TRACE(testing::Message() << "owner killed at " << at);
        EXPECT_FALSE(run.hung);
        EXPECT_EQ(run.reader_exit, 0);
        EXPECT_EQ(run.audit, "");
        if (run.seen == kLastValue) {
            ++granted;
        } else {
            EXPECT_EQ(run.seen, 0u); // the only copy died with the owner
            EXPECT_EQ(granted, 0) << "a later kill lost a grant an earlier one kept";
            ++cancelled;
        }
        EXPECT_EQ(run.final, run.seen);
    }
    EXPECT_GT(cancelled, 0);
    EXPECT_GT(granted, 0);
}

// The reader dies at each point of the grant. Its parked install is rolled
// back as for any fault. Once its fault reached the home, the owner hands
// its copy to the corpse and the page is lost, as a relayed grant loses
// it; before, the owner keeps it.
TEST(Pages, ForwardedGrantSurvivesReaderDeath) {
    const ForwardRun base = forwarded_grant(1, kOriginHome, -1, 0);
    int kept = 0;
    int lost = 0;
    for (const Nanos at : kill_times(base)) {
        const ForwardRun run = forwarded_grant(1, kOriginHome, kOriginHome.reader, at);
        SCOPED_TRACE(testing::Message() << "reader killed at " << at);
        EXPECT_EQ(run.audit, "");
        if (run.final == kLastValue) {
            EXPECT_EQ(lost, 0) << "a later kill kept a page an earlier one lost";
            ++kept;
        } else {
            EXPECT_EQ(run.final, 0u);
            ++lost;
        }
    }
    EXPECT_GT(kept, 0);
    EXPECT_GT(lost, 0);
}

// A sharded home dies at each point of the grant. The reader's ticket fails
// with it, and the survivor that inherits the shard rebuilds the entry from
// a census that waits out grants in flight. The census names the page once:
// at the reader if the owner's answer was on the wire, else at the owner,
// and the reader's retry then shares it. The last value survives every kill.
TEST(Pages, ForwardedGrantSurvivesShardedHomeDeath) {
    constexpr GrantRoles kRoles{3, 1, 2};
    const ForwardRun base = forwarded_grant(4, kRoles, -1, 0);
    ASSERT_TRUE(base.forward_dispatched);
    int before = 0;
    int after = 0;
    for (const Nanos at : kill_times(base)) {
        const ForwardRun run = forwarded_grant(4, kRoles, kRoles.home, at);
        SCOPED_TRACE(testing::Message() << "home killed at " << at);
        EXPECT_FALSE(run.hung);
        EXPECT_EQ(run.reader_exit, 0);
        EXPECT_EQ(run.seen, kLastValue);
        EXPECT_EQ(run.final, kLastValue);
        EXPECT_EQ(run.audit, "");
        EXPECT_EQ(run.mappers, run.forward_dispatched ? 1 : 2);
        ++(run.forward_dispatched ? after : before);
    }
    EXPECT_GT(before, 0);
    EXPECT_GT(after, 0);
}

// A guest read of a migratory page stays an ownership grant when it is a
// streaking read fault at the home, whose window folds its faulting page
// into a read share everywhere else (DESIGN §10).
TEST(Pages, MigratoryPageInHomeStreakIsGranted) {
    constexpr int kPages = 32;
    // With a window of 8 the stream's faults from the third on land at
    // pages 2, 10, 18 and 26, each opening a window.
    constexpr int kHot = 10;
    auto config = kernels(4);
    config.prefetch_window = 8;
    Machine machine(config);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    const auto at = [&buf](int i) { return buf + static_cast<Vaddr>(i) * kPageSize; };
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPages * kPageSize); }, 0);
    // Kernel 1 writes every page, so each is Exclusive there.
    auto& fill = process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int i = 0; i < kPages; ++i) {
                g.write<std::uint64_t>(at(i), 0x100U + static_cast<std::uint64_t>(i));
            }
        },
        1);
    // Kernels 0 and 1 take turns to read then write the hot page: it turns
    // migratory and ends Exclusive, and dirty, at kernel 1.
    auto& turn0 = process.spawn(
        [&](Guest& g) {
            g.join(fill);
            g.write<std::uint64_t>(at(kHot), g.read<std::uint64_t>(at(kHot)) + 1);
        },
        0);
    auto& turn1 = process.spawn(
        [&](Guest& g) {
            g.join(turn0);
            g.write<std::uint64_t>(at(kHot), g.read<std::uint64_t>(at(kHot)) + 1);
        },
        1);
    PageCounters before;
    process.spawn(
        [&](Guest& g) {
            g.join(turn1);
            before = page_counters(machine);
            for (int i = 0; i < kPages; ++i) {
                const std::uint64_t want =
                    0x100U + static_cast<std::uint64_t>(i) + (i == kHot ? 2 : 0);
                EXPECT_EQ(g.read<std::uint64_t>(at(i)), want) << "page " << i;
            }
        },
        0);
    machine.run();
    process.check_all_joined();
    EXPECT_TRUE(check::run_all(machine).ok());

    const PageCounters after = page_counters(machine);
    EXPECT_GT(before.grants, 0u) << "the turns never made the page migratory";
    EXPECT_EQ(after.grants - before.grants, 1u)
        << "the streak read the migratory page as a replica";
    // The home took the page over and maps it writable.
    core::ProcessSite& home = machine.kernel(0).site(process.pid());
    const std::uint64_t vpn = mem::vpn_of(at(kHot));
    const core::PageDirEntry& entry = home.dir_shard(vpn).entries.at(vpn);
    EXPECT_EQ(entry.state, core::PageDirEntry::State::kExclusive);
    EXPECT_EQ(entry.owner, 0);
    EXPECT_TRUE(entry.migratory);
    const mem::Pte* pte = home.space().page_table().find(at(kHot));
    ASSERT_NE(pte, nullptr);
    EXPECT_TRUE(pte->present);
    EXPECT_NE(pte->prot & mem::kProtWrite, 0u);
}

// A streaking home read folds its faulting page into the window's fetch.
// Like the demand transaction it replaces, it records the home as the
// page's reader when it downgrades the last writer, so the home's next
// store makes the page migratory. A window page granted ahead of its fault
// records nothing.
TEST(Pages, FoldedHomeReadFeedsMigratoryDetector) {
    constexpr int kPages = 16;
    // The stream's third fault opens its first window (see above); the
    // pages after that window land by read-ahead, not by a streak fault.
    constexpr int kFolded = 2;
    constexpr int kWindowPage = 3;
    auto config = kernels(4);
    config.prefetch_window = 8;
    Machine machine(config);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    const auto at = [&buf](int i) { return buf + static_cast<Vaddr>(i) * kPageSize; };
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPages * kPageSize); }, 0);
    auto& fill = process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int i = 0; i < kPages; ++i) g.write<std::uint64_t>(at(i), 1);
        },
        1);
    process.spawn(
        [&](Guest& g) {
            g.join(fill);
            for (int i = 0; i < kPages; ++i) EXPECT_EQ(g.read<std::uint64_t>(at(i)), 1u);
            g.write<std::uint64_t>(at(kFolded), 2);
            g.write<std::uint64_t>(at(kWindowPage), 2);
        },
        0);
    machine.run();
    process.check_all_joined();
    EXPECT_TRUE(check::run_all(machine).ok());
    core::ProcessSite& home = machine.kernel(0).site(process.pid());
    const auto entry = [&](int i) {
        const std::uint64_t vpn = mem::vpn_of(at(i));
        return home.dir_shard(vpn).entries.at(vpn);
    };
    EXPECT_TRUE(entry(kFolded).migratory);
    EXPECT_FALSE(entry(kWindowPage).migratory);
}

// The futex path peeks at lock words from the origin (ensure_readable).
// A peek that fed the detector would turn every contended lock word
// migratory; the peek is a plain read share, so a cross-kernel mutex
// (bench_futex (b)'s shape) never sees a migratory grant.
TEST(Pages, FutexPeekNeverMarksMigratory) {
    for (const int threads : {2, 4, 8}) {
        auto config = smp::popcorn_config(16, 4);
        config.balance.policy = balance::Policy::kAffinity;
        Machine machine(config);
        auto& process = machine.create_process(0);
        Vaddr lock_word = 0;
        auto& init = process.spawn([&](Guest& g) { lock_word = g.mmap(kPageSize); }, 0);
        for (int t = 0; t < threads; ++t) {
            process.spawn(
                [&](Guest& g) {
                    g.join(init);
                    for (int n = 0; n < 30; ++n) {
                        g.mutex_lock(lock_word);
                        g.compute(2_us);
                        g.mutex_unlock(lock_word);
                    }
                },
                static_cast<topo::KernelId>(t % 4));
        }
        machine.run();
        process.check_all_joined();
        const PageCounters c = page_counters(machine);
        EXPECT_EQ(c.grants, 0u) << threads << " threads";
        EXPECT_EQ(c.reverts, 0u) << threads << " threads";
    }
}


// --- Tenure (DESIGN §17) ---

/// Computes until `at` (no-op once past it): a start time that does not
/// depend on how the thread got here.
void wait_until(Guest& g, Nanos at) {
    g.flush_timing();
    if (g.now() < at) g.compute(at - g.now());
}

std::uint64_t tenure_deferred(Machine& machine) {
    std::uint64_t n = 0;
    for (topo::KernelId k = 0; k < machine.nkernels(); ++k) {
        n += machine.kernel(k).pages().tenure_deferred();
    }
    return n;
}

/// When both threads of a tenure run start.
constexpr Nanos kTenureStart = 100_us;

/// One critical section at the home, raced by a remote one.
struct CriticalRun {
    Nanos lock_start = -1; ///< the k0 thread began its locking CAS...
    Nanos unlocked = -1;   ///< ...and had unlocked
    /// Faults at k0 after the k0 thread's CAS took the lock, through its
    /// unlock.
    std::uint64_t faults_held = ~std::uint64_t{0};
    std::uint32_t counter = 0;
    std::uint64_t deferred = 0;
    bool audit_ok = false;
};

/// A k0 thread CAS-locks a word on a k0-homed page that k1 wrote last,
/// does about a microsecond of user-mode work on the page, increments a
/// counter on it and unlocks. With `contended`, a k1 thread starts `offset`
/// after it and does the same. A thread that finds the lock taken computes
/// for 500 ns and tries again.
CriticalRun critical_section(bool contended, Nanos offset) {
    Machine machine(kernels(2));
    auto& process = machine.create_process(0);
    CriticalRun run;
    Vaddr page = 0;
    auto& init = process.spawn([&](Guest& g) { page = g.mmap(kPageSize); }, 0);
    auto& prime = process.spawn(
        [&](Guest& g) {
            g.join(init);
            g.write<std::uint32_t>(page + 64, 0);
        },
        1);
    const auto section = [&](Guest& g, std::uint64_t* faults_held) {
        const Vaddr lock = page;
        const Vaddr counter = page + 64;
        while (g.cas_u32(lock, 0, 1) != 0) g.compute(500);
        const std::uint64_t held_from = machine.kernel(0).pages().local_faults();
        for (int i = 0; i < 500; ++i) g.read<std::uint32_t>(counter);
        g.flush_timing();
        g.write<std::uint32_t>(counter, g.read<std::uint32_t>(counter) + 1);
        g.rmw_u32(lock, [](std::uint32_t) { return 0U; });
        if (faults_held != nullptr) {
            *faults_held = machine.kernel(0).pages().local_faults() - held_from;
        }
    };
    process.spawn(
        [&](Guest& g) {
            g.join(prime);
            wait_until(g, kTenureStart);
            run.lock_start = g.now();
            section(g, &run.faults_held);
            g.flush_timing();
            run.unlocked = g.now();
        },
        0);
    if (contended) {
        process.spawn(
            [&](Guest& g) {
                g.join(prime);
                wait_until(g, kTenureStart + offset);
                section(g, nullptr);
            },
            1);
    }
    machine.run();
    process.check_all_joined();
    process.spawn([&](Guest& g) { run.counter = g.read<std::uint32_t>(page + 64); }, 0);
    machine.run();
    process.check_all_joined();
    run.deferred = tenure_deferred(machine);
    run.audit_ok = check::run_all(machine).ok();
    return run;
}

// The k1 thread's CAS lands at every point of the k0 thread's locking
// fault and critical section. Whichever thread wins, the k0 thread keeps
// the page from the CAS that took the lock through its unlock, and no
// increment is lost.
TEST(Tenure, HomeCriticalSectionKeepsItsPage) {
    const CriticalRun base = critical_section(false, 0);
    ASSERT_EQ(base.faults_held, 0u);
    ASSERT_EQ(base.counter, 1u);
    int deferred = 0;
    for (Nanos offset = -1_us; offset <= base.unlocked - base.lock_start + 1_us;
         offset += 100) {
        const CriticalRun run = critical_section(true, offset);
        SCOPED_TRACE(testing::Message() << "k1 starts " << offset << " ns after k0");
        EXPECT_EQ(run.faults_held, 0u);
        EXPECT_EQ(run.counter, 2u);
        EXPECT_TRUE(run.audit_ok);
        if (run.deferred > 0) ++deferred;
    }
    EXPECT_GT(deferred, 0);
}

/// A tenure that runs out: a thread at the page's home takes it at
/// kTenureStart and then reads it in user mode for 40 us, never entering the
/// kernel; a k1 thread stores to the page at `store_at`: 100 ns after the
/// grant in the runs below, so its transaction waits out the rest of the
/// tenure, or kLateStore, after the holder is done. Unsharded k0 is the home; with
/// `home_shards` > 1 the page is the first of its region homed at `home`.
/// `victim` (-1: none) is killed at `kill_at`.
struct TenureRun {
    Nanos granted = -1;     ///< the home's thread had its atomic's page
    Nanos store_start = -1; ///< the k1 store began...
    Nanos store_end = -1;   ///< ...and returned
    std::uint64_t deferred = 0;
    int holder_exit = -1;
    int writer_exit = -1;
    bool hung = false; ///< a thread had not finished 2 ms after the kill
    std::uint64_t final = ~std::uint64_t{0}; ///< the k1 store's word, read afterwards
    std::string audit;                       ///< empty when the audits pass
};

constexpr Nanos kLateStore = kTenureStart + 200_us;

TenureRun spinning_tenure(bool atomic, Nanos store_at, int home_shards = 1,
                          topo::KernelId home = 0, topo::KernelId victim = -1,
                          Nanos kill_at = 0) {
    auto config = smp::popcorn_config(8, 4, 4 * 1024);
    config.home_shards = home_shards;
    config.balance.policy = balance::Policy::kIdleSteal;
    config.balance.period = 20_us;
    config.elastic.enabled = true;
    config.elastic.lease_misses = 4;
    config.check = false; // audited below, so a finding fails, not aborts
    Machine machine(config);
    auto& process = machine.create_process(0);
    TenureRun run;
    Vaddr page = 0;
    auto& init = process.spawn(
        [&](Guest& g) {
            const Vaddr buf = g.mmap(64 * kPageSize);
            core::ProcessSite& site = machine.kernel(0).site(process.pid());
            for (page = buf; machine.kernel(0).pages().home_of(site, page) != home;
                 page += kPageSize) {
            }
        },
        0);
    auto& prime = process.spawn(
        [&](Guest& g) {
            g.join(init);
            g.write<std::uint64_t>(page + 256, 1);
        },
        1);
    Thread& holder = process.spawn(
        [&](Guest& g) {
            g.join(prime);
            wait_until(g, kTenureStart);
            if (atomic) {
                g.rmw_u32(page, [](std::uint32_t v) { return v + 1; });
            } else {
                g.write<std::uint32_t>(page, 1);
            }
            run.granted = g.now();
            for (int i = 0; i < 20'000; ++i) g.read<std::uint32_t>(page + 128);
        },
        home);
    Thread& writer = process.spawn(
        [&](Guest& g) {
            g.join(prime);
            wait_until(g, store_at);
            run.store_start = g.now();
            g.write<std::uint64_t>(page + 256, 7);
            g.flush_timing();
            run.store_end = g.now();
        },
        1);
    if (victim >= 0) {
        machine.run_until(kill_at);
        machine.kill_kernel(victim);
    }
    // Bounded: a transaction nobody finishes must fail the test, not hang
    // it. A stuck writer is unwound by killing its kernel too.
    machine.run_until(machine.now() + 2_ms);
    run.hung = !holder.finished() || !writer.finished();
    if (!writer.finished() && !machine.kernel(1).node().dead()) machine.kill_kernel(1);
    machine.run();
    process.check_all_joined();
    run.holder_exit = holder.exit_status();
    run.writer_exit = writer.exit_status();
    run.deferred = tenure_deferred(machine);
    process.spawn([&](Guest& g) { run.final = g.read<std::uint64_t>(page + 256); }, 0);
    machine.run();
    process.check_all_joined();
    const check::Report report = check::run_all(machine);
    if (!report.ok()) run.audit = report.to_string();
    return run;
}

// A home thread that never enters the kernel after its atomic keeps the
// page for one message round trip, no longer: the remote store then costs
// at most that much on top of the same store after a plain one.
TEST(Tenure, SpinningHolderYieldsThePageAtTheCap) {
    const TenureRun base = spinning_tenure(true, kLateStore);
    ASSERT_FALSE(base.hung);
    ASSERT_EQ(base.deferred, 0u);
    const Nanos store_at = base.granted + 100;
    const TenureRun plain = spinning_tenure(false, store_at);
    const TenureRun held = spinning_tenure(true, store_at);
    ASSERT_FALSE(plain.hung);
    ASSERT_FALSE(held.hung);
    EXPECT_EQ(plain.deferred, 0u);
    EXPECT_EQ(held.deferred, 1u);
    const Nanos cap = Machine(kernels(1)).kernel(0).pages().tenure_cap();
    EXPECT_EQ(cap, 3'700);
    const Nanos plain_ns = plain.store_end - plain.store_start;
    const Nanos held_ns = held.store_end - held.store_start;
    EXPECT_GT(held_ns, plain_ns);
    EXPECT_LE(held_ns, plain_ns + cap);
    EXPECT_EQ(held.final, 7u);
    EXPECT_EQ(held.audit, "");
}

/// Kill times 100 ns apart across `base`'s deferred store, from 1 us before
/// it to 1 us after it.
std::vector<Nanos> store_kill_times(const TenureRun& base) {
    std::vector<Nanos> times;
    for (Nanos at = base.store_start - 1_us; at <= base.store_end + 1_us; at += 100) {
        times.push_back(at);
    }
    return times;
}

// The waiting writer's kernel dies at each point of the deferral. The
// home's transaction finishes its wait and rolls the dead requester's
// install back, as for any fault whose requester dies.
TEST(Tenure, DeferralSurvivesWriterDeath) {
    const TenureRun first = spinning_tenure(true, kLateStore);
    const TenureRun base = spinning_tenure(true, first.granted + 100);
    ASSERT_EQ(base.deferred, 1u);
    int killed = 0;
    int stored = 0;
    for (const Nanos at : store_kill_times(base)) {
        const TenureRun run = spinning_tenure(true, base.store_start, 1, 0, 1, at);
        SCOPED_TRACE(testing::Message() << "writer's kernel killed at " << at);
        EXPECT_FALSE(run.hung);
        EXPECT_EQ(run.holder_exit, 0);
        EXPECT_EQ(run.audit, "");
        ++(run.writer_exit == 0 ? stored : killed);
    }
    EXPECT_GT(killed, 0);
    EXPECT_GT(stored, 0);
}

// A sharded home dies at each point of the deferral, with the tenure's
// holder on it. The waiting transaction unwinds with its kernel; the
// writer's fault moves to the shard's new home and its store lands.
TEST(Tenure, DeferralSurvivesShardedHomeDeath) {
    constexpr topo::KernelId kHome = 3;
    const TenureRun first = spinning_tenure(true, kLateStore, 4, kHome);
    const TenureRun base = spinning_tenure(true, first.granted + 100, 4, kHome);
    ASSERT_EQ(base.deferred, 1u);
    for (const Nanos at : store_kill_times(base)) {
        const TenureRun run = spinning_tenure(true, base.store_start, 4, kHome, kHome, at);
        SCOPED_TRACE(testing::Message() << "home killed at " << at);
        EXPECT_FALSE(run.hung);
        EXPECT_EQ(run.writer_exit, 0);
        EXPECT_EQ(run.final, 7u);
        EXPECT_EQ(run.audit, "");
    }
}

} // namespace
} // namespace rko
