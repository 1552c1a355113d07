// Migratory pages (DESIGN.md §17): a page kernels take turns to read and
// then write is handed over in one directory transaction. The home marks
// it when a kernel upgrades a page its own read just took from the last
// writer, serves later guest read faults on it as ownership transfers, and
// reverts it when a grant finds the owner never stored to the page. Kernel
// peeks (the futex path reading a user word) take no part.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
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
};

PageCounters page_counters(Machine& machine) {
    PageCounters c;
    for (topo::KernelId k = 0; k < machine.nkernels(); ++k) {
        const core::PageOwner& pages = machine.kernel(k).pages();
        c.home_msgs += pages.home_msgs();
        c.grants += pages.migratory_grants();
        c.reverts += pages.migratory_reverts();
    }
    return c;
}

api::MachineConfig four_kernels() {
    auto config = smp::popcorn_config(8, 4);
    config.home_shards = 1; // one home: every transaction counted once
    return config;
}

/// Four kernels take turns, kRounds times each, to read and then write
/// their own slot of one page: `count += 1` on a false-shared page. The
/// turns are spaced far enough apart that each one is a handoff. Returns
/// the directory transactions the handoffs cost.
PageCounters run_turns(int rounds, std::array<std::uint64_t, 4>* slots) {
    Machine machine(four_kernels());
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
            static_cast<topo::KernelId>(k));
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
        0);
    machine.run();
    process.check_all_joined();
    EXPECT_TRUE(check::run_all(machine).ok());
    const PageCounters after = page_counters(machine);
    return {after.home_msgs - before.home_msgs, after.grants - before.grants,
            after.reverts - before.reverts};
}

TEST(Pages, MigratoryHandoffIsOneTransaction) {
    constexpr int kRounds = 12;
    std::array<std::uint64_t, 4> slots{};
    const PageCounters c = run_turns(kRounds, &slots);
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
}

// Once a migratory page's owner stops storing, readers must get their
// replicas back: the first grant that finds a clean owner reverts the
// page, and from then on readers share it.
TEST(Pages, SpinningReadersRevertMigratory) {
    constexpr int kSpins = 60;
    Machine machine(four_kernels());
    auto& process = machine.create_process(0);
    Vaddr page = 0;
    auto& init = process.spawn([&](Guest& g) { page = g.mmap(kPageSize); }, 0);
    // Kernels 0 and 1 take turns to read then write: migratory.
    std::vector<Thread*> writers;
    for (int k = 0; k < 2; ++k) {
        writers.push_back(&process.spawn(
            [&, k](Guest& g) {
                g.join(init);
                g.compute(static_cast<Nanos>(k) * 25_us);
                for (int r = 0; r < 4; ++r) {
                    const Vaddr slot = page + static_cast<Vaddr>(k) * 64;
                    g.write<std::uint64_t>(slot, g.read<std::uint64_t>(slot) + 1);
                    g.compute(50_us);
                }
            },
            static_cast<topo::KernelId>(k)));
    }
    PageCounters at_spin;
    auto& gate = process.spawn(
        [&](Guest& g) {
            for (Thread* w : writers) g.join(*w);
            at_spin = page_counters(machine);
        },
        0);
    // Then kernels 2 and 3 only read it, over and over.
    std::array<std::uint64_t, 4> spinner_faults{};
    for (int k = 2; k < 4; ++k) {
        process.spawn(
            [&, k](Guest& g) {
                g.join(gate);
                g.compute(static_cast<Nanos>(k - 2) * 5_us);
                const std::uint64_t f0 = machine.kernel(k).pages().remote_faults();
                for (int i = 0; i < kSpins; ++i) {
                    EXPECT_EQ(g.read<std::uint64_t>(page), 4u);
                    g.compute(2_us);
                }
                spinner_faults[static_cast<std::size_t>(k)] =
                    machine.kernel(k).pages().remote_faults() - f0;
            },
            static_cast<topo::KernelId>(k));
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
    for (int k = 2; k < 4; ++k) {
        EXPECT_LE(spinner_faults[static_cast<std::size_t>(k)], 2u) << "kernel " << k;
    }
    // Both spinners end with a replica.
    const std::uint64_t vpn = mem::vpn_of(page);
    const core::PageDirEntry& entry =
        machine.kernel(0).site(process.pid()).dir_shard(vpn).entries.at(vpn);
    EXPECT_EQ(entry.state, core::PageDirEntry::State::kShared);
    EXPECT_TRUE(entry.holds(2));
    EXPECT_TRUE(entry.holds(3));
    EXPECT_FALSE(entry.migratory);
}

// A guest read of a migratory page stays an ownership grant when it is a
// streaking read fault at the home, whose window folds its faulting page
// into a read share everywhere else (DESIGN §10).
TEST(Pages, MigratoryPageInHomeStreakIsGranted) {
    constexpr int kPages = 32;
    // With a window of 8 the stream's faults from the third on land at
    // pages 2, 10, 18 and 26, each opening a window.
    constexpr int kHot = 10;
    auto config = four_kernels();
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
    constexpr int kFolded = 10; // a streak fault (see above)
    constexpr int kWindowPage = 11;
    auto config = four_kernels();
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

} // namespace
} // namespace rko
