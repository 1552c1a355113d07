// Batched coherence paths (DESIGN.md §10): dataless-reply wire sizes,
// parallel invalidation fan-out, ranged revocation, and fault-around
// prefetch. These are the PR's observational-equivalence tests: every
// batching optimization must produce the same guest-visible state as the
// per-page protocol it replaced, just with fewer/flatter round trips.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "rko/api/machine.hpp"
#include "rko/balance/balance.hpp"
#include "rko/check/invariants.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/core/wire.hpp"
#include "rko/home/home.hpp"
#include "rko/smp/smp.hpp"

namespace rko {
namespace {

/// Several tests below assert the exact *unsharded* wire shape (three-leg
/// commits at the origin, origin-clipped prefetch windows, flat fan-out
/// latency). Under RKO_HOME_SHARDS>1 those shapes legitimately change (an
/// extra requester->home hop, per-home prefetch clipping), so they skip;
/// sharded-mode behavior is covered by test_home.cpp and the home_storm
/// explore scenario.
#define RKO_SKIP_IF_SHARDED()                                               \
    if (home::shards_from_env() > 1)                                        \
    GTEST_SKIP() << "asserts the unsharded wire shape (RKO_HOME_SHARDS>1)"

using namespace rko::time_literals;
using api::Guest;
using api::Machine;
using api::Thread;
using mem::kPageSize;
using mem::Vaddr;

/// Measures one guest operation with exact timing (bench idiom).
template <typename Fn>
Nanos timed(Guest& g, Fn&& fn) {
    g.flush_timing();
    const Nanos t0 = g.now();
    fn();
    g.flush_timing();
    return g.now() - t0;
}

/// Messages each of the first four kernels dispatched: the two holder
/// requests, and every message.
struct HolderCounts {
    std::array<std::uint64_t, 4> fetches{}, ranged{}, dispatched{};
};

HolderCounts holder_counts(Machine& machine) {
    HolderCounts c;
    for (std::size_t k = 0; k < 4; ++k) {
        const msg::Node& node = machine.kernel(static_cast<topo::KernelId>(k)).node();
        c.fetches[k] = node.dispatched(msg::MsgType::kPageFetch);
        c.ranged[k] = node.dispatched(msg::MsgType::kPageInvalidateRange);
        c.dispatched[k] = node.total_dispatched();
    }
    return c;
}

/// The counts dispatched between two snapshots.
HolderCounts operator-(HolderCounts after, const HolderCounts& before) {
    for (std::size_t k = 0; k < 4; ++k) {
        after.fetches[k] -= before.fetches[k];
        after.ranged[k] -= before.ranged[k];
        after.dispatched[k] -= before.dispatched[k];
    }
    return after;
}

/// Asserts that no kernel holds a parked install and that the audits pass.
void expect_settled(Machine& machine, api::Process& process, const std::string& where) {
    for (topo::KernelId k = 0; k < machine.nkernels(); ++k) {
        if (!machine.kernel(k).has_site(process.pid())) continue;
        for (const auto& shard : machine.kernel(k).site(process.pid()).dir_shards()) {
            EXPECT_TRUE(shard.pending.empty()) << where;
        }
    }
    const check::Report report = check::run_all(machine);
    EXPECT_TRUE(report.ok()) << where << "\n" << report.to_string();
}

// ---------------------------------------------------------------------------
// Satellite: dataless replies must not be charged 4 KiB on the wire.
// ---------------------------------------------------------------------------

TEST(WireSize, DatalessRepliesTruncate) {
    core::PageFaultResp fault{};
    fault.data_included = false;
    EXPECT_EQ(core::wire_bytes(fault), 8u); // header fields only
    fault.data_included = true;
    EXPECT_EQ(core::wire_bytes(fault), 8u + kPageSize);

    core::PageFetchResp fetch{};
    fetch.had_page = 0;
    EXPECT_EQ(core::wire_bytes(fetch), 1u);
    // Any copy, dirty or clean, ships the page bytes.
    fetch.had_page = core::PageFetchResp::kHadPage;
    EXPECT_EQ(core::wire_bytes(fetch), 1u + kPageSize);
    fetch.had_page = core::PageFetchResp::kHadPage | core::PageFetchResp::kDirty;
    EXPECT_EQ(core::wire_bytes(fetch), 1u + kPageSize);

    // A truncated message's payload_size is the wire size, and the prefix
    // view still reads the leading fields.
    fetch.had_page = 0;
    msg::MessagePtr m = msg::make_message_prefix(
        msg::MsgType::kPageFetch, msg::MsgKind::kReply, fetch, core::wire_bytes(fetch));
    EXPECT_EQ(m->hdr.payload_size, 1u);
    EXPECT_EQ(m->wire_size(), sizeof(msg::MessageHeader) + 1u);
    EXPECT_EQ(m->payload_prefix_as<core::PageFetchResp>().had_page, 0u);
}

TEST(WireSize, RangedRequestScalesWithCount) {
    core::PageInvalidateRangeReq req{};
    req.count = 0;
    const std::size_t base = core::wire_bytes(req);
    req.count = 10;
    EXPECT_EQ(core::wire_bytes(req), base + 10 * sizeof(std::uint32_t));
    EXPECT_LT(core::wire_bytes(req), sizeof(req)); // never the full array
}

TEST(WireSize, PageFetchRequestScalesWithCount) {
    // A one-page fetch keeps the single-page request's 24 bytes; a list
    // adds one address per page, never the full array.
    core::PageFetchReq req{};
    req.count = 1;
    EXPECT_EQ(core::wire_bytes(req), 24u);
    req.drop = true; // a write's byte source hands its copy over
    EXPECT_EQ(core::wire_bytes(req), 24u);
    req.count = 8;
    EXPECT_EQ(core::wire_bytes(req), 24u + 7 * sizeof(mem::Vaddr));
    req.count = core::PageFetchReq::kMaxPages;
    EXPECT_EQ(core::wire_bytes(req), sizeof(req));
}

TEST(WireSize, DatalessUpgradeCostsHeadersNotPages) {
    // k1 is already a sharer, so its write upgrade moves no page bytes:
    // the invalidation to k0 and the fault reply are both dataless. The
    // whole exchange must cost well under a page on the wire.
    Machine machine(smp::popcorn_config(4, 2));
    auto& process = machine.create_process(0);
    std::uint64_t upgrade_bytes = 0;
    auto& writer = process.spawn(
        [&](Guest& g) {
            const Vaddr buf = g.mmap(kPageSize);
            g.write<int>(buf, 1);
        },
        0);
    process.spawn(
        [&](Guest& g) {
            g.join(writer);
            (void)g.read<int>(mem::kMmapBase); // Shared {k0, k1}
            const std::uint64_t before = machine.total_message_bytes();
            g.write<int>(mem::kMmapBase, 2); // upgrade: invalidate k0
            g.flush_timing();
            upgrade_bytes = machine.total_message_bytes() - before;
        },
        1);
    machine.run();
    process.check_all_joined();
    EXPECT_GT(upgrade_bytes, 0u);
    EXPECT_LT(upgrade_bytes, 1000u) << "dataless exchange shipped page bytes";
}

// ---------------------------------------------------------------------------
// Ranged revocation.
// ---------------------------------------------------------------------------

TEST(RangedRevoke, ObservationallyEquivalentToPerPage) {
    RKO_SKIP_IF_SHARDED();
    constexpr int kPages = 8;
    Machine machine(smp::popcorn_config(8, 4));
    auto& process = machine.create_process(0);
    const Pid pid = process.pid();
    Vaddr buf = 0;
    auto& init = process.spawn(
        [&](Guest& g) {
            buf = g.mmap(kPages * kPageSize);
            for (int p = 0; p < kPages; ++p) {
                g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                       static_cast<std::uint64_t>(p));
            }
        },
        0);
    std::vector<Thread*> readers;
    for (int k = 1; k < 4; ++k) {
        readers.push_back(&process.spawn(
            [&](Guest& g) {
                g.join(init);
                std::uint64_t sum = 0;
                for (int p = 0; p < kPages; ++p) {
                    sum += g.read<std::uint64_t>(buf +
                                                 static_cast<Vaddr>(p) * kPageSize);
                }
                EXPECT_EQ(sum, static_cast<std::uint64_t>(kPages * (kPages - 1) / 2));
            },
            static_cast<topo::KernelId>(k)));
    }
    // Snapshot the holder-side counts around the munmap so the revoke's
    // own traffic is isolated from unrelated exchanges (thread exit/join
    // futex writes also drop pages, one offset at a time).
    HolderCounts revoke;
    std::uint64_t range_rpcs = 0;
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (Thread* r : readers) g.join(*r);
            const HolderCounts before = holder_counts(machine);
            range_rpcs = machine.kernel(0).pages().range_rpcs();
            g.munmap(buf, kPages * kPageSize);
            revoke = holder_counts(machine) - before;
            range_rpcs = machine.kernel(0).pages().range_rpcs() - range_rpcs;
        },
        0);
    machine.run();
    process.check_all_joined();

    // One ranged RPC per remote holder; the revoke fetched no bytes (it
    // used to send kPages x holders per-page invalidates).
    for (std::size_t k = 1; k < 4; ++k) {
        EXPECT_EQ(revoke.ranged[k], 1u) << "kernel " << k;
        EXPECT_EQ(revoke.fetches[k], 0u) << "kernel " << k;
    }
    EXPECT_EQ(range_rpcs, 3u);

    // Directory entries erased and every holder's PTE gone.
    const std::uint64_t vpn_lo = mem::vpn_of(buf);
    for (auto& shard : machine.kernel(0).site(pid).dir_shards()) {
        for (const auto& [vpn, entry] : shard.entries) {
            EXPECT_TRUE(vpn < vpn_lo || vpn >= vpn_lo + kPages)
                << "directory entry survived munmap";
        }
    }
    for (int k = 0; k < 4; ++k) {
        auto kid = static_cast<topo::KernelId>(k);
        if (!machine.kernel(kid).has_site(pid)) continue;
        auto& pt = machine.kernel(kid).site(pid).space().page_table();
        for (int p = 0; p < kPages; ++p) {
            const mem::Pte* pte = pt.find(buf + static_cast<Vaddr>(p) * kPageSize);
            EXPECT_TRUE(pte == nullptr || !pte->present)
                << "kernel " << k << " kept a PTE for revoked page " << p;
        }
    }

    // The data really is dead: a later touch faults fresh (SEGV).
    process.spawn(
        [&](Guest& g) {
            (void)g.read<std::uint64_t>(buf);
            ADD_FAILURE() << "read of revoked page did not fault";
        },
        1);
    machine.run();
    process.check_all_joined();
    EXPECT_TRUE(process.threads().back()->segfaulted());
}

/// A 4-kernel machine whose one home (kernel 0) serves every page, with
/// the elastic failure detector on so kernels can be drained and killed.
api::MachineConfig sweep_config() {
    auto config = smp::popcorn_config(8, 4);
    config.home_shards = 1;
    config.balance.policy = balance::Policy::kIdleSteal;
    config.balance.period = 20_us;
    config.balance.min_residency = 50_us;
    config.elastic.enabled = true;
    config.elastic.lease_misses = 4;
    return config;
}

constexpr std::uint64_t kSweepValue = 0x5eed00;

/// Kernel 1 maps `pages` pages and writes page i with kSweepValue + i, so
/// kernel 1 holds each page Exclusive.
Thread& write_at_kernel1(api::Process& process, Vaddr* buf, int pages) {
    return process.spawn(
        [buf, pages](Guest& g) {
            *buf = g.mmap(static_cast<std::uint64_t>(pages) * kPageSize);
            for (int p = 0; p < pages; ++p) {
                g.write<std::uint64_t>(*buf + static_cast<Vaddr>(p) * kPageSize,
                                       kSweepValue + static_cast<std::uint64_t>(p));
            }
        },
        1);
}

TEST(RangedSweep, DrainPullsSoleCopiesOneFetchPer32Pages) {
    // Kernel 1 holds the only copy of 40 written pages when it drains. The
    // home's eviction sweep pulls them with one dropping kPageFetch per 32
    // pages, not one per page, and every value reads back at the home.
    constexpr int kPages = 40;
    Machine machine(sweep_config());
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    write_at_kernel1(process, &buf, kPages);
    machine.run();
    process.check_all_joined();
    std::uint64_t sole = 0;
    for (const auto& shard : machine.kernel(0).site(process.pid()).dir_shards()) {
        for (const auto& [vpn, entry] : shard.entries) {
            if (entry.holder_mask() == topo::kbit(1)) ++sole;
        }
    }
    ASSERT_GE(sole, static_cast<std::uint64_t>(kPages));

    const HolderCounts before = holder_counts(machine);
    machine.drain_kernel(1);
    machine.run();
    const HolderCounts drain = holder_counts(machine) - before;
    EXPECT_TRUE(machine.is_killed(1));
    EXPECT_GT(drain.fetches[1], 0u);
    EXPECT_LE(drain.fetches[1], (sole + 31) / 32) << sole << " sole pages";

    std::vector<std::uint64_t> got(kPages);
    process.spawn(
        [&](Guest& g) {
            for (int p = 0; p < kPages; ++p) {
                got[static_cast<std::size_t>(p)] =
                    g.read<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize);
            }
        },
        0);
    machine.run();
    process.check_all_joined();
    for (int p = 0; p < kPages; ++p) {
        EXPECT_EQ(got[static_cast<std::size_t>(p)],
                  kSweepValue + static_cast<std::uint64_t>(p))
            << "page " << p;
    }
}

TEST(RangedSweep, ProtNonePullsOneFetchPer32Pages) {
    // 40 pages Exclusive at kernel 1 go PROT_NONE and back: the sequester
    // sweep pulls them to the home with one dropping kPageFetch per 32
    // pages, and every value reads back at the home and at kernel 1.
    constexpr int kPages = 40;
    Machine machine(sweep_config());
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    Thread& writer = write_at_kernel1(process, &buf, kPages);
    HolderCounts sweep;
    const auto read_back = [&](Guest& g) {
        for (int p = 0; p < kPages; ++p) {
            EXPECT_EQ(g.read<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize),
                      kSweepValue + static_cast<std::uint64_t>(p))
                << "page " << p << " at kernel " << g.kernel();
        }
    };
    Thread& home = process.spawn(
        [&](Guest& g) {
            g.join(writer);
            const HolderCounts before = holder_counts(machine);
            EXPECT_EQ(g.mprotect(buf, kPages * kPageSize, mem::kProtNone), 0);
            EXPECT_EQ(g.mprotect(buf, kPages * kPageSize,
                                 mem::kProtRead | mem::kProtWrite),
                      0);
            sweep = holder_counts(machine) - before;
            read_back(g);
        },
        0);
    process.spawn(
        [&](Guest& g) {
            g.join(home);
            read_back(g);
        },
        1);
    machine.run();
    process.check_all_joined();
    EXPECT_GT(sweep.fetches[1], 0u);
    EXPECT_LE(sweep.fetches[1], (kPages + 31u) / 32u);
}

/// Which range sweep a kill lands in (RangedSweep.*SurvivesHolderDeath).
enum class SweptBy { kReadOnly, kProtNone, kProtNoneShared, kDrain };

/// Runs one range sweep with kernel 1, a holder, killed at `kill_at` (0:
/// never), after every kernel 1 thread has been joined, and returns the
/// sweep's [start, end) in virtual time. kReadOnly and kProtNone:
/// kernel 0 mprotects 16 pages Exclusive at kernel 1. kProtNoneShared:
/// kernel 2 reads them first, so kernel 1, the sweep's byte source, is
/// not their only holder. kDrain: kernel 2 writes 16 pages, kernel 1 reads
/// the first 8 (Shared by both), and kernel 2 drains at 200 us: kernel 1
/// is the second sharer, not the parting kernel. Whatever the instant,
/// the audits must stay clean, no pending install may survive, and each
/// page reads back intact or, with its only copy gone, as zero; a page
/// kernel 2 also held always reads back intact.
std::pair<Nanos, Nanos> sweep_with_kill(SweptBy by, Nanos kill_at) {
    constexpr int kPages = 16;
    constexpr Nanos kDrainAt = 200_us;
    Machine machine(sweep_config());
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    std::pair<Nanos, Nanos> window{kDrainAt, 0};
    Thread* holders = nullptr;
    if (by == SweptBy::kDrain) {
        Thread& writer = process.spawn(
            [&](Guest& g) {
                buf = g.mmap(kPages * kPageSize);
                for (int p = 0; p < kPages; ++p) {
                    g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                           kSweepValue + static_cast<std::uint64_t>(p));
                }
            },
            2);
        holders = &process.spawn(
            [&](Guest& g) {
                g.join(writer);
                for (int p = 0; p < kPages / 2; ++p) {
                    (void)g.read<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize);
                }
            },
            1);
    } else {
        holders = &write_at_kernel1(process, &buf, kPages);
    }
    if (by == SweptBy::kProtNoneShared) {
        Thread& writer = *holders;
        holders = &process.spawn(
            [&](Guest& g) {
                g.join(writer);
                for (int p = 0; p < kPages; ++p) {
                    (void)g.read<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize);
                }
            },
            2);
    }
    process.spawn(
        [&](Guest& g) {
            g.join(*holders);
            if (by == SweptBy::kDrain) return;
            g.flush_timing();
            window.first = g.now();
            const std::uint32_t prot =
                by == SweptBy::kReadOnly ? mem::kProtRead : mem::kProtNone;
            EXPECT_EQ(g.mprotect(buf, kPages * kPageSize, prot), 0);
            g.flush_timing();
            window.second = g.now();
        },
        0);
    // Keeps the survivor's failure detector ticking past the lease.
    process.spawn([](Guest& g) { g.compute(2_ms); }, 0);
    if (by == SweptBy::kDrain) {
        machine.run_until(kDrainAt);
        machine.drain_kernel(2);
    }
    if (kill_at != 0) {
        machine.run_until(kill_at);
        machine.kill_kernel(1);
    } else if (by == SweptBy::kDrain) {
        // The drain's sweep is over once kernel 2 has parted.
        for (window.second = kDrainAt; !machine.is_killed(2); window.second += 100) {
            machine.run_until(window.second);
        }
    }
    machine.run();
    process.check_all_joined();

    // Back to accessible, then every page reads its value, or zero where its
    // only copy died with kernel 1.
    process.spawn(
        [&](Guest& g) {
            if (by != SweptBy::kDrain) {
                EXPECT_EQ(g.mprotect(buf, kPages * kPageSize,
                                     mem::kProtRead | mem::kProtWrite),
                          0);
            }
            for (int p = 0; p < kPages; ++p) {
                const std::uint64_t v =
                    g.read<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize);
                EXPECT_TRUE(v == 0 || v == kSweepValue + static_cast<std::uint64_t>(p))
                    << "page " << p << " reads " << v << ", kill at " << kill_at;
                EXPECT_TRUE(v != 0 || (kill_at != 0 && by != SweptBy::kProtNoneShared))
                    << "page " << p << ", kill at " << kill_at;
            }
        },
        0);
    machine.run();
    process.check_all_joined();
    expect_settled(machine, process, "kill at " + std::to_string(kill_at) + " ns");
    return window;
}

/// Kills kernel 1 at 100 ns steps across the sweep `by` runs unharmed.
void kill_across_sweep(SweptBy by) {
    const auto [start, end] = sweep_with_kill(by, 0);
    ASSERT_GT(end, start);
    for (Nanos at = start; at <= end; at += 100) sweep_with_kill(by, at);
}

TEST(RangedSweep, ReadOnlySurvivesHolderDeath) { kill_across_sweep(SweptBy::kReadOnly); }

TEST(RangedSweep, ProtNoneSurvivesHolderDeath) { kill_across_sweep(SweptBy::kProtNone); }

TEST(RangedSweep, ProtNoneSurvivesByteSourceDeath) {
    kill_across_sweep(SweptBy::kProtNoneShared);
}

TEST(RangedSweep, DrainSurvivesSharerDeath) { kill_across_sweep(SweptBy::kDrain); }

/// Kernel 1 writes 16 pages and kernel 2 reads them, so both share each
/// page; then kernel 3 reads each one with demand faults (window 1), while
/// kernel 1, every transaction's first byte source, is killed at `kill_at`
/// (0: never). Whatever the instant, each page reads its value, since
/// kernel 2 holds a copy, the audits stay clean and no pending install is
/// left. Returns the span of kernel 3's reads and the kPageFetch the home
/// sent.
struct ShareReads {
    Nanos start = 0;
    Nanos end = 0;
    std::uint64_t fetches = 0;
};

ShareReads share_reads_with_kill(Nanos kill_at) {
    constexpr int kPages = 16;
    auto config = sweep_config();
    config.prefetch_window = 1;
    Machine machine(config);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    ShareReads reads;
    Thread& writer = write_at_kernel1(process, &buf, kPages);
    Thread& sharer = process.spawn(
        [&](Guest& g) {
            g.join(writer);
            for (int p = 0; p < kPages; ++p) {
                (void)g.read<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize);
            }
        },
        2);
    process.spawn(
        [&](Guest& g) {
            g.join(sharer);
            g.flush_timing();
            reads.start = g.now();
            for (int p = 0; p < kPages; ++p) {
                EXPECT_EQ(g.read<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize),
                          kSweepValue + static_cast<std::uint64_t>(p))
                    << "page " << p << ", kill at " << kill_at;
            }
            g.flush_timing();
            reads.end = g.now();
        },
        3);
    // Keeps the survivors' failure detectors ticking past the lease.
    process.spawn([](Guest& g) { g.compute(2_ms); }, 0);
    if (kill_at != 0) {
        machine.run_until(kill_at);
        machine.kill_kernel(1);
    }
    machine.run();
    process.check_all_joined();
    expect_settled(machine, process, "kill at " + std::to_string(kill_at) + " ns");
    reads.fetches = machine.kernel(0).pages().fetches();
    return reads;
}

TEST(ReadShare, FallsBackWhenTheByteSourceDies) {
    // Kills kernel 1 at 1 us steps across kernel 3's reads. A source that
    // dies before it answers leaves the holder set, and the transaction
    // plans again and fetches from kernel 2: one more kPageFetch than the
    // clean run.
    const ShareReads clean = share_reads_with_kill(0);
    ASSERT_GT(clean.end, clean.start);
    int refetched = 0;
    for (Nanos at = clean.start; at <= clean.end; at += 1_us) {
        if (share_reads_with_kill(at).fetches > clean.fetches) ++refetched;
    }
    EXPECT_GT(refetched, 0);
}

// ---------------------------------------------------------------------------
// Parallel invalidation fan-out.
// ---------------------------------------------------------------------------

TEST(ParallelFanout, PreservesMsiUnderDeliveryJitter) {
    // Concurrent victim invalidations complete in arbitrary order under
    // jitter; the guest-visible result must not depend on it.
    for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
        auto config = smp::popcorn_config(8, 4);
        config.seed = seed;
        config.shuffle_ties = true;
        config.fabric.delivery_jitter = 400;
        config.fabric.jitter_seed = seed;
        Machine machine(config);
        auto& process = machine.create_process(0);
        constexpr int kPages = 4;
        Vaddr buf = 0;
        auto& init = process.spawn(
            [&](Guest& g) {
                buf = g.mmap(kPages * kPageSize);
                for (int p = 0; p < kPages; ++p) {
                    g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize, 1);
                }
            },
            0);
        std::vector<Thread*> readers;
        for (int k = 1; k < 4; ++k) {
            readers.push_back(&process.spawn(
                [&](Guest& g) {
                    g.join(init);
                    for (int p = 0; p < kPages; ++p) {
                        (void)g.read<std::uint64_t>(buf +
                                                    static_cast<Vaddr>(p) * kPageSize);
                    }
                },
                static_cast<topo::KernelId>(k)));
        }
        auto& storm = process.spawn(
            [&](Guest& g) {
                g.join(init);
                for (Thread* r : readers) g.join(*r);
                // Each write fans out to 3 sharers concurrently.
                for (int p = 0; p < kPages; ++p) {
                    g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                           static_cast<std::uint64_t>(100 + p));
                }
            },
            0);
        process.spawn(
            [&](Guest& g) {
                g.join(storm);
                for (int p = 0; p < kPages; ++p) {
                    EXPECT_EQ(g.read<std::uint64_t>(buf +
                                                    static_cast<Vaddr>(p) * kPageSize),
                              static_cast<std::uint64_t>(100 + p))
                        << "seed " << seed << " page " << p;
                }
            },
            2);
        machine.run();
        process.check_all_joined();
    }
}

/// What a write to a page Shared by kernels {1, 2, 3} sends to each holder
/// (see write_to_shared_page).
struct SharedWrite {
    HolderCounts during;               ///< dispatched during the write
    std::uint64_t value = 0;           ///< read back afterwards
    std::array<bool, 4> mapped{};      ///< a PTE for the page survives
    bool exclusive_at_writer = false;  ///< the directory entry afterwards
};

/// Kernel 1 writes one page, kernels 2 and 3 read it (Shared {1, 2, 3}),
/// then `writer` writes it. Kernel 0 is the origin and home of the page
/// and holds no copy before the write.
SharedWrite write_to_shared_page(topo::KernelId writer) {
    auto config = smp::popcorn_config(8, 4);
    config.home_shards = 1;
    Machine machine(config);
    auto& process = machine.create_process(0);
    const Pid pid = process.pid();
    Vaddr page = 0;
    auto& mapper = process.spawn([&](Guest& g) { page = g.mmap(kPageSize); }, 0);
    auto& first = process.spawn(
        [&](Guest& g) {
            g.join(mapper);
            g.write<std::uint64_t>(page, 1);
        },
        1);
    std::vector<Thread*> readers;
    for (const topo::KernelId k : {2, 3}) {
        readers.push_back(&process.spawn(
            [&](Guest& g) {
                g.join(first);
                EXPECT_EQ(g.read<std::uint64_t>(page), 1u);
            },
            k));
    }
    SharedWrite out;
    auto& write = process.spawn(
        [&](Guest& g) {
            for (Thread* r : readers) g.join(*r);
            g.compute(20_us); // let the readers' exit traffic drain
            g.flush_timing();
            const HolderCounts before = holder_counts(machine);
            g.write<std::uint64_t>(page, 2);
            g.flush_timing();
            out.during = holder_counts(machine) - before;
        },
        writer);
    process.spawn(
        [&](Guest& g) {
            g.join(write);
            out.value = g.read<std::uint64_t>(page);
        },
        writer);
    machine.run();
    process.check_all_joined();
    for (std::size_t k = 0; k < 4; ++k) {
        const mem::Pte* pte = machine.kernel(static_cast<topo::KernelId>(k))
                                  .site(pid)
                                  .space()
                                  .page_table()
                                  .find(page);
        out.mapped[k] = pte != nullptr && pte->present;
    }
    const auto& shard = machine.kernel(0).site(pid).dir_shard(mem::vpn_of(page));
    const auto it = shard.entries.find(mem::vpn_of(page));
    out.exclusive_at_writer = it != shard.entries.end() && !it->second.busy &&
                              it->second.state == core::PageDirEntry::State::kExclusive &&
                              it->second.owner == writer;
    return out;
}

TEST(ParallelFanout, WriteFaultMovesBytesOnce) {
    // The home writes a page it does not hold. The lowest holder hands its
    // copy over in one dropping kPageFetch; the other two holders drop
    // theirs on a one-offset kPageInvalidateRange. Nothing else reaches a
    // holder.
    const SharedWrite home = write_to_shared_page(0);
    EXPECT_EQ(home.during.fetches[1], 1u);
    EXPECT_EQ(home.during.ranged[1], 0u);
    for (const std::size_t k : {2, 3}) {
        EXPECT_EQ(home.during.fetches[k], 0u) << "kernel " << k;
        EXPECT_EQ(home.during.ranged[k], 1u) << "kernel " << k;
    }
    for (const std::size_t k : {1, 2, 3}) {
        EXPECT_EQ(home.during.dispatched[k], 1u) << "kernel " << k;
        EXPECT_FALSE(home.mapped[k]) << "kernel " << k << " kept its copy";
    }
    EXPECT_TRUE(home.mapped[0]);
    EXPECT_TRUE(home.exclusive_at_writer);
    EXPECT_EQ(home.value, 2u);

    // A sharer's upgrade needs no bytes: both other holders drop theirs on
    // a ranged drop, and no kernel serves a fetch.
    const SharedWrite upgrade = write_to_shared_page(1);
    for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_EQ(upgrade.during.fetches[k], 0u) << "kernel " << k;
    }
    for (const std::size_t k : {2, 3}) {
        EXPECT_EQ(upgrade.during.ranged[k], 1u) << "kernel " << k;
        EXPECT_EQ(upgrade.during.dispatched[k], 1u) << "kernel " << k;
        EXPECT_FALSE(upgrade.mapped[k]) << "kernel " << k << " kept its copy";
    }
    EXPECT_TRUE(upgrade.mapped[1]);
    EXPECT_FALSE(upgrade.mapped[0]);
    EXPECT_TRUE(upgrade.exclusive_at_writer);
    EXPECT_EQ(upgrade.value, 2u);
}

TEST(ParallelFanout, WriteFaultLatencyNearFlatInSharers) {
    RKO_SKIP_IF_SHARDED();
    // The bench (b) acceptance shrunk to a test: invalidating 4 sharers
    // must cost at most 1.5x invalidating 1 (it was ~4x when the victim
    // loop was serial).
    auto fanout_latency = [](int sharers) {
        const int nk = sharers + 1;
        constexpr int kReps = 8;
        Machine machine(smp::popcorn_config(std::max(8, nk * 2), nk));
        auto& process = machine.create_process(0);
        Vaddr region = 0;
        Nanos total = 0;
        auto& init = process.spawn(
            [&](Guest& g) {
                region = g.mmap(kReps * kPageSize);
                for (int i = 0; i < kReps; ++i) {
                    g.write<int>(region + static_cast<Vaddr>(i) * kPageSize, i);
                }
            },
            0);
        std::vector<Thread*> readers;
        for (int s = 1; s < nk; ++s) {
            readers.push_back(&process.spawn(
                [&](Guest& g) {
                    g.join(init);
                    for (int i = 0; i < kReps; ++i) {
                        (void)g.read<int>(region + static_cast<Vaddr>(i) * kPageSize);
                    }
                },
                static_cast<topo::KernelId>(s)));
        }
        process.spawn(
            [&](Guest& g) {
                g.join(init);
                for (Thread* r : readers) g.join(*r);
                total = timed(g, [&] {
                    for (int i = 0; i < kReps; ++i) {
                        g.write<int>(region + static_cast<Vaddr>(i) * kPageSize, -i);
                    }
                });
            },
            0);
        machine.run();
        process.check_all_joined();
        return total;
    };
    const Nanos one = fanout_latency(1);
    const Nanos four = fanout_latency(4);
    EXPECT_LE(static_cast<double>(four), 1.5 * static_cast<double>(one))
        << "fan-out latency is not flat: 1 sharer " << one << " ns, 4 sharers "
        << four << " ns";
}

// ---------------------------------------------------------------------------
// Fault-around prefetch.
// ---------------------------------------------------------------------------

namespace {
/// Where a stream's pages are written and read back. The process's origin,
/// kernel 0, is the home of every page (unsharded) and maps the region in
/// every placement.
enum class Reader {
    kRemote, ///< written on kernel 0, read on kernel 1: the home pushes windows
    kHome,   ///< written on kernel 1, read on kernel 0: the home fetches its own
    kThird,  ///< written on kernel 2, read on kernel 1: the home pushes bytes
             ///< it must first fetch from kernel 2
};
constexpr std::array<Reader, 3> kReaders{Reader::kRemote, Reader::kHome, Reader::kThird};
const char* name(Reader r) {
    switch (r) {
    case Reader::kRemote: return "remote reader";
    case Reader::kHome: return "home reader";
    case Reader::kThird: return "third-party source";
    }
    return "?";
}
topo::KernelId writer_kernel(Reader r) {
    return r == Reader::kRemote ? 0 : r == Reader::kHome ? 1 : 2;
}
topo::KernelId reader_kernel(Reader r) { return r == Reader::kHome ? 0 : 1; }

/// The machine a placement runs on. The third-party placement needs a third
/// kernel and pins every page's home to kernel 0, so its sources stay
/// remote from the home under any RKO_HOME_SHARDS.
api::MachineConfig stream_config(Reader r) {
    if (r != Reader::kThird) return smp::popcorn_config(4, 2);
    auto config = smp::popcorn_config(6, 3);
    config.home_shards = 1;
    return config;
}

/// Maps `pages` pages at mem::kMmapBase on kernel 0 and stores value(i) in
/// page i from the placement's writer kernel. Returns the thread a reader
/// joins before streaming.
template <typename Value>
Thread& map_and_fill(api::Process& process, Reader reader, int pages, Value value) {
    const auto fill = [pages, value](Guest& g) {
        for (int i = 0; i < pages; ++i) {
            g.write<std::uint64_t>(mem::kMmapBase + static_cast<Vaddr>(i) * kPageSize,
                                   value(i));
        }
    };
    const bool home_writes = writer_kernel(reader) == 0;
    Thread& mapper = process.spawn(
        [pages, fill, home_writes](Guest& g) {
            g.mmap(static_cast<std::uint64_t>(pages) * kPageSize);
            if (home_writes) fill(g);
        },
        0);
    if (home_writes) return mapper;
    return process.spawn(
        [&mapper, fill](Guest& g) {
            g.join(mapper);
            fill(g);
        },
        writer_kernel(reader));
}

struct StreamRun {
    Nanos move_time = 0;
    Nanos vtime = 0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t pushes = 0;
    std::uint64_t issued = 0, hit = 0, wasted = 0;
    /// Page faults the reader's kernel took during the stream, and how many
    /// of them went to a home on another kernel.
    std::uint64_t demand_faults = 0;
    std::uint64_t remote_faults = 0;
    /// kPageFault requests the other kernels (the homes) served during the
    /// stream: one per remote fault, with or without a window.
    std::uint64_t fault_requests = 0;
    /// rpc_scatter rounds kernel 0 (the home) posted during the stream.
    std::uint64_t home_scatters = 0;
    /// kPageFetch requests the writer kernel served during the stream, and
    /// how often its TLB generation moved meanwhile (once per shootdown).
    std::uint64_t holder_fetches = 0;
    std::uint64_t holder_tlb_bumps = 0;
    /// Stream pages whose directory entry ended non-busy and held by
    /// exactly kernels 0 and 1.
    int shared_by_both = 0;
};

/// Streams `pages` written pages through one reader (see Reader); the
/// counters are machine-wide sums.
StreamRun stream_pages(int pages, int window, Reader reader = Reader::kRemote,
                       std::uint64_t seed = 1) {
    auto config = stream_config(reader);
    config.prefetch_window = window;
    config.seed = seed;
    Machine machine(config);
    auto& process = machine.create_process(0);
    StreamRun out;
    Thread& writer = map_and_fill(process, reader, pages,
                                  [](int i) { return static_cast<std::uint64_t>(i); });
    const auto reader_faults = [&machine, reader] {
        const core::PageOwner& owner = machine.kernel(reader_kernel(reader)).pages();
        return owner.local_faults() + owner.remote_faults();
    };
    const auto reader_remote_faults = [&machine, reader] {
        return machine.kernel(reader_kernel(reader)).pages().remote_faults();
    };
    const auto served_faults = [&machine, reader] {
        std::uint64_t served = 0;
        for (topo::KernelId k = 0; k < machine.nkernels(); ++k) {
            if (k == reader_kernel(reader)) continue;
            served += machine.kernel(k).node().dispatched(msg::MsgType::kPageFault);
        }
        return served;
    };
    kernel::Kernel& holder = machine.kernel(writer_kernel(reader));
    const auto holder_fetches = [&holder] {
        return holder.node().dispatched(msg::MsgType::kPageFetch);
    };
    const auto holder_tlb = [&holder, &process] {
        return holder.site(process.pid()).space().tlb_generation();
    };
    process.spawn(
        [&, pages](Guest& g) {
            g.join(writer);
            const Vaddr buf = mem::kMmapBase;
            const std::uint64_t faults0 = reader_faults();
            const std::uint64_t remote0 = reader_remote_faults();
            const std::uint64_t served0 = served_faults();
            const std::uint64_t scatters0 = machine.kernel(0).node().scatter_batches();
            const std::uint64_t fetches0 = holder_fetches();
            const std::uint64_t tlb0 = holder_tlb();
            out.move_time = timed(g, [&] {
                std::uint64_t sum = 0;
                for (int i = 0; i < pages; ++i) {
                    sum += g.read<std::uint64_t>(buf +
                                                 static_cast<Vaddr>(i) * kPageSize);
                }
                EXPECT_EQ(sum, static_cast<std::uint64_t>(pages) *
                                   static_cast<std::uint64_t>(pages - 1) / 2);
            });
            out.demand_faults = reader_faults() - faults0;
            out.remote_faults = reader_remote_faults() - remote0;
            out.fault_requests = served_faults() - served0;
            out.home_scatters = machine.kernel(0).node().scatter_batches() - scatters0;
            out.holder_fetches = holder_fetches() - fetches0;
            out.holder_tlb_bumps = holder_tlb() - tlb0;
        },
        reader_kernel(reader));
    out.vtime = machine.run();
    process.check_all_joined();
    out.messages = machine.total_messages();
    out.bytes = machine.total_message_bytes();
    const std::uint64_t vpn_lo = mem::vpn_of(mem::kMmapBase);
    const std::uint64_t vpn_hi = vpn_lo + static_cast<std::uint64_t>(pages);
    for (topo::KernelId k = 0; k < machine.nkernels(); ++k) {
        auto& kernel = machine.kernel(k);
        out.pushes += kernel.node().dispatched(msg::MsgType::kPagePush);
        out.issued += kernel.pages().prefetch_issued();
        out.hit += kernel.pages().prefetch_hit();
        out.wasted += kernel.pages().prefetch_wasted();
        if (!kernel.has_site(process.pid())) continue;
        for (const auto& shard : kernel.site(process.pid()).dir_shards()) {
            for (const auto& [vpn, entry] : shard.entries) {
                if (vpn >= vpn_lo && vpn < vpn_hi && !entry.busy &&
                    entry.holder_mask() == (topo::kbit(0) | topo::kbit(1))) {
                    ++out.shared_by_both;
                }
            }
        }
    }
    return out;
}
} // namespace

TEST(Prefetch, WindowOffIsPlainDemandProtocol) {
    for (const Reader reader : kReaders) {
        for (const int window : {0, 1}) {
            const StreamRun run = stream_pages(16, window, reader);
            EXPECT_EQ(run.fault_requests, run.remote_faults)
                << name(reader) << ", window " << window;
            EXPECT_EQ(run.pushes, 0u) << name(reader) << ", window " << window;
            EXPECT_EQ(run.issued, 0u) << name(reader) << ", window " << window;
        }
        // Both disabled settings are the same machine.
        const StreamRun off0 = stream_pages(16, 0, reader);
        const StreamRun off1 = stream_pages(16, 1, reader);
        EXPECT_EQ(off0.vtime, off1.vtime) << name(reader);
        EXPECT_EQ(off0.messages, off1.messages) << name(reader);
        EXPECT_EQ(off0.bytes, off1.bytes) << name(reader);
    }
}

TEST(Prefetch, BatchesAndBeatsDemandFaulting) {
    RKO_SKIP_IF_SHARDED();
    const StreamRun demand = stream_pages(32, 1);
    const StreamRun pf = stream_pages(32, 8);
    // Windowed or not, each remote fault is one kPageFault at the home.
    EXPECT_GT(demand.remote_faults, 0u);
    EXPECT_EQ(demand.fault_requests, demand.remote_faults);
    EXPECT_GT(pf.remote_faults, 0u);
    EXPECT_EQ(pf.fault_requests, pf.remote_faults);
    EXPECT_GT(pf.pushes, 0u);
    EXPECT_GT(pf.issued, 0u);
    EXPECT_EQ(pf.issued, pf.hit + pf.wasted);
    EXPECT_LT(pf.move_time, demand.move_time)
        << "prefetch did not speed up a sequential stream";
    // Page bytes move once either way; the extra dataless header exchanges
    // (a demand fault racing its own in-flight push) must stay small.
    EXPECT_LT(pf.bytes, demand.bytes + demand.bytes / 8);
}

TEST(Prefetch, StreamContinuesPastEachWindow) {
    RKO_SKIP_IF_SHARDED();
    // After a window granted at page P the stream's next fault lands at
    // P+8, past the window. That continues the run, so every window after
    // the first starts at once. The home reader installs each window before
    // its fault returns: 64 pages take about one fault per window (21 when
    // the run restarted after every window). The remote reader also faults
    // on pages whose push is still in flight behind the reply (41 before).
    const StreamRun home = stream_pages(64, 8, Reader::kHome);
    EXPECT_LE(home.demand_faults, 10u);
    const StreamRun remote = stream_pages(64, 8, Reader::kRemote);
    EXPECT_LE(remote.demand_faults, 30u);
}

TEST(Prefetch, StreamWindowRamps) {
    RKO_SKIP_IF_SHARDED(); // kernel 0 must home every page
    // Each window that continues a stream doubles the next, up to 32 pages
    // for a remote reader and 128 at the home. The home reads one window
    // ahead, and the reader catches up with each read-ahead in flight, so
    // every later fault waits for one window and posts the next: a 256-page
    // stream at window 8 faults at pages 0, 1 and 2 (window [2, 10), then
    // read-aheads of 8, 16, 32, 64 and 126 pages), 10, 18, 34, 66 and 130,
    // 8 in all, where fixed windows of 8 take 34 and windows of at most 32
    // without read-ahead 12. Every page but the first three faults' lands
    // ahead of its read. The remote reader also faults on pages whose push
    // is still in flight behind the reply: 30 faults, where fixed windows
    // take 66.
    const StreamRun home = stream_pages(256, 8, Reader::kHome);
    EXPECT_EQ(home.demand_faults, 8u);
    EXPECT_EQ(home.issued, 256u - 3u);
    EXPECT_EQ(home.issued, home.hit);
    const StreamRun remote = stream_pages(256, 8, Reader::kRemote);
    EXPECT_LE(remote.demand_faults, 32u);
    EXPECT_EQ(remote.fault_requests, remote.remote_faults);
    EXPECT_EQ(remote.issued, remote.hit);
}

/// Machine-wide first-touch run grants (pages.first_touch.grants).
std::uint64_t first_touch_grants(Machine& machine) {
    auto metrics = machine.collect_metrics();
    const trace::Counter* grants = metrics.find_counter("pages.first_touch.grants");
    return grants == nullptr ? 0 : grants->value;
}

TEST(Prefetch, FirstTouchWriteStreamIsBatched) {
    RKO_SKIP_IF_SHARDED(); // kernel 0 must home every page
    // A kernel-1 thread writes 32 fresh pages homed at kernel 0. Its write
    // streak carries windows of 8, 16 and 32 pages, and the home grants the
    // untouched pages after each fault as zero-fill in the same reply:
    // faults at pages 0, 1, 2, 10 and 26, where one fault per page is 32.
    constexpr int kPages = 32;
    auto config = smp::popcorn_config(4, 2);
    config.prefetch_window = 8;
    Machine machine(config);
    auto& process = machine.create_process(0);
    auto& mapper = process.spawn([](Guest& g) { g.mmap(kPages * kPageSize); }, 0);
    std::uint64_t requests = 0;
    process.spawn(
        [&](Guest& g) {
            g.join(mapper);
            const msg::Node& home = machine.kernel(0).node();
            const std::uint64_t served0 = home.dispatched(msg::MsgType::kPageFault);
            for (int i = 0; i < kPages; ++i) {
                g.write<std::uint64_t>(mem::kMmapBase + static_cast<Vaddr>(i) * kPageSize,
                                       0x500ULL + static_cast<std::uint64_t>(i));
            }
            requests = home.dispatched(msg::MsgType::kPageFault) - served0;
            for (int i = 0; i < kPages; ++i) {
                EXPECT_EQ(g.read<std::uint64_t>(mem::kMmapBase +
                                                static_cast<Vaddr>(i) * kPageSize),
                          0x500ULL + static_cast<std::uint64_t>(i))
                    << "page " << i;
            }
        },
        1);
    machine.run();
    process.check_all_joined();
    EXPECT_LE(requests, 5u);
    EXPECT_EQ(first_touch_grants(machine), kPages - requests);
    const std::uint64_t vpn0 = mem::vpn_of(mem::kMmapBase);
    int exclusive_at_1 = 0;
    for (const auto& shard : machine.kernel(0).site(process.pid()).dir_shards()) {
        for (const auto& [vpn, entry] : shard.entries) {
            if (vpn >= vpn0 && vpn < vpn0 + kPages && !entry.busy &&
                entry.state == core::PageDirEntry::State::kExclusive && entry.owner == 1) {
                ++exclusive_at_1;
            }
        }
    }
    EXPECT_EQ(exclusive_at_1, kPages);
    const check::Report report = check::run_all(machine);
    EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Prefetch, FirstTouchRunSurvivesMunmapRace) {
    // A kernel-1 writer first-touches a 32-page mapping as a write stream
    // while the origin unmaps its 8-page tail, at one instant per 1 us
    // across the stream, unsharded and with 32 shards. A run granted for
    // tail pages whose VMA vanishes before the writer maps them is
    // confirmed as abandoned, and the revoke waits on the run's busy bits:
    // no pending survives and the audits stay clean. The writer may
    // legally segfault on the unmapped tail.
    constexpr int kPages = 32;
    constexpr int kTail = 8;
    const auto run = [](int shards, Nanos unmap_after) {
        auto config = smp::popcorn_config(4, 2);
        config.prefetch_window = 8;
        config.home_shards = shards;
        Machine machine(config);
        auto& process = machine.create_process(0);
        auto& mapper = process.spawn([](Guest& g) { g.mmap(kPages * kPageSize); }, 0);
        process.spawn(
            [&mapper](Guest& g) {
                g.join(mapper);
                for (int i = 0; i < kPages; ++i) {
                    const Vaddr page = mem::kMmapBase + static_cast<Vaddr>(i) * kPageSize;
                    g.write<std::uint64_t>(page, 0x700ULL + static_cast<std::uint64_t>(i));
                    g.compute(200_ns);
                }
            },
            1);
        if (unmap_after != 0) {
            process.spawn(
                [&mapper, unmap_after](Guest& g) {
                    g.join(mapper);
                    g.compute(unmap_after);
                    g.munmap(mem::kMmapBase + (kPages - kTail) * kPageSize,
                             kTail * kPageSize);
                },
                0);
        }
        machine.run();
        process.check_all_joined();
        for (topo::KernelId k = 0; k < machine.nkernels(); ++k) {
            for (const auto& shard : machine.kernel(k).site(process.pid()).dir_shards()) {
                EXPECT_TRUE(shard.pending.empty())
                    << "shards " << shards << ", unmap after " << unmap_after << " ns";
            }
        }
        const check::Report report = check::run_all(machine);
        EXPECT_TRUE(report.ok()) << "shards " << shards << ", unmap after "
                                 << unmap_after << " ns\n" << report.to_string();
        return first_touch_grants(machine);
    };
    for (const int shards : {1, 32}) {
        EXPECT_GT(run(shards, 0), 0u) << "shards " << shards;
        for (Nanos after = 1_us; after <= 60_us; after += 1_us) run(shards, after);
    }
}

TEST(Prefetch, FirstTouchRunSurvivesRequesterDeath) {
    RKO_SKIP_IF_SHARDED(); // kernel 0 must home every page
    // A kernel-1 writer first-touches a 64-page mapping as a write stream
    // and dies with kernel 1 mid-stream, at one instant per 1 us. A run the
    // home granted but the corpse never confirmed rolls back — through the
    // home's own dead-requester check, or through the reaper's sweep — so
    // no pending survives and the audits stay clean.
    constexpr int kPages = 64;
    const auto run = [](Nanos kill_after, Nanos* stream_start) {
        auto config = smp::popcorn_config(4, 2);
        config.prefetch_window = 8;
        config.balance.policy = balance::Policy::kIdleSteal;
        config.balance.period = 20_us;
        config.balance.min_residency = 50_us;
        config.elastic.enabled = true;
        config.elastic.lease_misses = 4;
        Machine machine(config);
        auto& process = machine.create_process(0);
        auto& mapper = process.spawn([](Guest& g) { g.mmap(kPages * kPageSize); }, 0);
        process.spawn(
            [&](Guest& g) {
                g.join(mapper);
                if (stream_start != nullptr) *stream_start = g.now();
                for (int i = 0; i < kPages; ++i) {
                    const Vaddr page = mem::kMmapBase + static_cast<Vaddr>(i) * kPageSize;
                    g.write<std::uint64_t>(page, 0x900ULL + static_cast<std::uint64_t>(i));
                }
            },
            1);
        // Keeps the survivor's failure detector ticking past the lease.
        process.spawn([](Guest& g) { g.compute(2_ms); }, 0);
        if (kill_after != 0) {
            machine.run_until(kill_after);
            machine.kill_kernel(1);
        }
        machine.run();
        process.check_all_joined();
        for (const auto& shard : machine.kernel(0).site(process.pid()).dir_shards()) {
            EXPECT_TRUE(shard.pending.empty()) << "kill at " << kill_after << " ns";
        }
        const check::Report report = check::run_all(machine);
        EXPECT_TRUE(report.ok()) << "kill at " << kill_after << " ns\n"
                                 << report.to_string();
        return first_touch_grants(machine);
    };
    Nanos start = 0;
    EXPECT_GT(run(0, &start), 0u);
    ASSERT_GT(start, 0);
    for (Nanos at = start + 1_us; at <= start + 60_us; at += 1_us) run(at, nullptr);
}

TEST(Prefetch, HomeReaderBatchesRemoteOwnedPages) {
    RKO_SKIP_IF_SHARDED();
    // Kernel 1 owns every page Exclusive when the home starts reading:
    // without the window each home read fault fetches one page per round
    // trip; with it, one scatter fetches the rest of each window.
    const StreamRun demand = stream_pages(64, 1, Reader::kHome);
    const StreamRun pf = stream_pages(64, 8, Reader::kHome);
    EXPECT_EQ(demand.issued, 0u);
    EXPECT_GT(pf.issued, 0u);
    EXPECT_EQ(pf.issued, pf.hit + pf.wasted);
    EXPECT_LT(pf.move_time, demand.move_time)
        << "the home window did not speed up a sequential stream";
    // The same pages move either way, and the fetches carry no extra bytes.
    EXPECT_LE(pf.bytes, demand.bytes);
    EXPECT_EQ(pf.shared_by_both, 64);
    EXPECT_EQ(demand.shared_by_both, 64);
}

TEST(Prefetch, HomeWindowIsOneFetchPerHolder) {
    RKO_SKIP_IF_SHARDED(); // kernel 0 must home every page
    // Kernel 1 owns every page Exclusive while the home streams them with
    // a window of 8; windows and read-aheads ramp to 128 pages. Each
    // capture costs kernel 1 one kPageFetch per 32 pages, served under one
    // shootdown: a streaking fault folds its own page into its window's
    // request, so it sends no separate single-page fetch. The two demand
    // faults that start the stream fetch one page each. One fetch and one
    // shootdown per page would be one of each per page.
    for (const int pages : {64, 256}) {
        const StreamRun run = stream_pages(pages, 8, Reader::kHome);
        EXPECT_LE(run.demand_faults, 8u) << pages << " pages";
        // Captures: the first window, then one read-ahead per later fault.
        const std::uint64_t captures = run.demand_faults - 2;
        EXPECT_LE(run.holder_fetches,
                  2 + captures + static_cast<std::uint64_t>(pages) / 32)
            << pages << " pages";
        EXPECT_GE(run.holder_fetches, 2 + static_cast<std::uint64_t>(pages - 2 + 31) / 32)
            << pages << " pages";
        EXPECT_EQ(run.holder_tlb_bumps, run.holder_fetches) << pages << " pages";
        EXPECT_EQ(run.shared_by_both, pages);
        // Every page the first three faults did not bring was granted ahead
        // of its read.
        EXPECT_EQ(run.issued, run.hit) << pages << " pages";
        EXPECT_EQ(run.issued, static_cast<std::uint64_t>(pages) - 3u) << pages << " pages";
    }
}

TEST(Prefetch, PushFetchesRemoteSourcesInOneScatter) {
    // Kernel 2 owns every page Exclusive while kernel 1 streams them, so
    // the home holds none of the bytes it pushes: each window's pages are
    // fetched from kernel 2 in one scatter round, not one kPageFetch round
    // trip per page.
    const StreamRun demand = stream_pages(64, 1, Reader::kThird);
    const StreamRun pf = stream_pages(64, 8, Reader::kThird);
    EXPECT_EQ(demand.issued, 0u);
    EXPECT_GT(pf.issued, 0u);
    EXPECT_EQ(pf.issued, pf.hit + pf.wasted);
    EXPECT_GT(pf.home_scatters, 0u) << "the home fetched its pushes page by page";
    EXPECT_EQ(pf.fault_requests, pf.remote_faults);
    EXPECT_LT(pf.move_time, demand.move_time)
        << "prefetch did not speed up a stream from a third-party source";
}

TEST(Prefetch, HomeStreakOnSingleKernelProcessCostsNothing) {
    // With no other kernel holding the process's pages the home window has
    // nothing to fetch, so a sequential read streak must not pay for its
    // claims: SMP, and a Popcorn process that never leaves its origin.
    constexpr int kPages = 64;
    const auto end_time = [](api::MachineConfig config, int window) {
        config.prefetch_window = window;
        config.home_shards = 1; // every page homed at the origin
        Machine machine(config);
        auto& process = machine.create_process(0);
        process.spawn(
            [](Guest& g) {
                const Vaddr buf = g.mmap(kPages * kPageSize);
                for (int i = 0; i < kPages; ++i) {
                    const Vaddr page = buf + static_cast<Vaddr>(i) * kPageSize;
                    (void)g.read<std::uint64_t>(page);
                    g.write<std::uint64_t>(page, static_cast<std::uint64_t>(i));
                    EXPECT_EQ(g.read<std::uint64_t>(page), static_cast<std::uint64_t>(i));
                }
            },
            0);
        const Nanos end = machine.run();
        process.check_all_joined();
        return end;
    };
    EXPECT_EQ(end_time(smp::smp_config(4), 8), end_time(smp::smp_config(4), 1))
        << "SMP";
    EXPECT_EQ(end_time(smp::popcorn_config(4, 2), 8),
              end_time(smp::popcorn_config(4, 2), 1))
        << "Popcorn process on its origin";
}

TEST(Prefetch, HomeWindowSurvivesSourceDeath) {
    RKO_SKIP_IF_SHARDED(); // kernel 0 must home every page
    // Kernel 1 owns the stream and dies while the home reads it. A window
    // page kernel 1 never answered cancels its claim; one it answered
    // installs and commits as its reply part lands, even when the kill
    // comes between the parts of one reply. Both happen while the reaper's
    // sweep skips the busy entries, so the release and the commit must
    // strip the corpse themselves.
    constexpr int kPages = 64;
    const auto run = [](Nanos kill_at) {
        auto config = smp::popcorn_config(4, 2);
        config.prefetch_window = 8;
        config.balance.policy = balance::Policy::kIdleSteal;
        config.balance.period = 20_us;
        config.balance.min_residency = 50_us;
        config.elastic.enabled = true;
        config.elastic.lease_misses = 4;
        Machine machine(config);
        auto& process = machine.create_process(0);
        Thread& writer = map_and_fill(process, Reader::kHome, kPages,
                                      [](int i) { return 0x100ULL + i; });
        Nanos stream_start = 0;
        std::uint64_t fetches0 = 0;
        std::uint64_t kept = 0;
        process.spawn(
            [&](Guest& g) {
                g.join(writer);
                stream_start = g.now();
                fetches0 = machine.kernel(0).node().dispatched(msg::MsgType::kPageFetch);
                for (int i = 0; i < kPages; ++i) {
                    const std::uint64_t v =
                        g.read<std::uint64_t>(mem::kMmapBase + static_cast<Vaddr>(i) * kPageSize);
                    // A page whose only copy died with kernel 1 reads zero.
                    EXPECT_TRUE(v == 0 || v == 0x100ULL + i) << "page " << i;
                    if (v != 0) ++kept;
                }
            },
            0);
        // Keeps the survivor's failure detector ticking past the lease.
        process.spawn([](Guest& g) { g.compute(2_ms); }, 0);
        // Stream pages kernel 1 had sent the home when it died: each one
        // must be installed at the home and read back intact.
        std::uint64_t arrived = 0;
        if (kill_at != 0) {
            machine.run_until(kill_at);
            arrived = machine.kernel(0).node().dispatched(msg::MsgType::kPageFetch) -
                      fetches0;
            machine.kill_kernel(1);
        }
        machine.run();
        process.check_all_joined();
        EXPECT_GE(kept, arrived) << "kill at " << kill_at << " ns";
        const check::Report report = check::run_all(machine);
        EXPECT_TRUE(report.ok()) << "kill at " << kill_at << " ns\n" << report.to_string();
        return stream_start;
    };
    // Kill at 1 us steps through the first window, whose fetch kernel 1
    // answers in eight reply parts, so some kills land between the parts
    // of one reply; then at 5 us steps through the next windows.
    const Nanos start = run(0);
    ASSERT_GT(start, 0);
    for (Nanos offset = 1_us; offset <= 40_us; offset += 1_us) run(start + offset);
    for (Nanos offset = 45_us; offset <= 100_us; offset += 5_us) run(start + offset);
}

/// Home read-stream machines (DESIGN.md §10): kernel 0 homes every page,
/// and the elastic failure detector is on so a holder can be killed.
api::MachineConfig home_stream_config(int cores = 4, int kernels = 2) {
    auto config = smp::popcorn_config(cores, kernels);
    config.home_shards = 1;
    config.prefetch_window = 8;
    config.balance.policy = balance::Policy::kIdleSteal;
    config.balance.period = 20_us;
    config.balance.min_residency = 50_us;
    config.elastic.enabled = true;
    config.elastic.lease_misses = 4;
    return config;
}

Vaddr stream_page(int i) { return mem::kMmapBase + static_cast<Vaddr>(i) * kPageSize; }

constexpr std::uint64_t kStreamValue = 0x700;

TEST(Prefetch, HomeStreamSpansHolders) {
    // Kernels 1, 2 and 3 write 32-page blocks in turn, and the home streams
    // all 256 pages back. Its windows and read-aheads ramp past one holder's
    // 32 pages, up to 128: one capture posts one kPageFetch per holder for
    // each 32 of its pages, all in one scatter. Any 65 pages of this layout
    // span three holders, so a scatter of three or more fetches reaches
    // three holders; windows of at most 32 pages reach two.
    constexpr int kBlock = 32;
    constexpr int kPages = 8 * kBlock;
    Machine machine(home_stream_config(8, 4));
    auto& process = machine.create_process(0);
    const auto holder_of = [](int i) { return static_cast<topo::KernelId>(1 + (i / kBlock) % 3); };
    auto& mapper = process.spawn([](Guest& g) { g.mmap(kPages * kPageSize); }, 0);
    std::vector<Thread*> writers;
    for (topo::KernelId k = 1; k <= 3; ++k) {
        writers.push_back(&process.spawn(
            [&, k](Guest& g) {
                g.join(mapper);
                for (int i = 0; i < kPages; ++i) {
                    if (holder_of(i) == k) g.write<std::uint64_t>(stream_page(i), kStreamValue + i);
                }
            },
            k));
    }
    std::uint64_t faults = 0;
    Nanos fanout0 = 0;
    std::array<std::uint64_t, 4> fetches{};
    process.spawn(
        [&](Guest& g) {
            for (Thread* w : writers) g.join(*w);
            const HolderCounts before = holder_counts(machine);
            fanout0 = machine.kernel(0).node().scatter_fanout().max();
            const std::uint64_t faults0 = machine.kernel(0).pages().local_faults();
            for (int i = 0; i < kPages; ++i) {
                EXPECT_EQ(g.read<std::uint64_t>(stream_page(i)), kStreamValue + i)
                    << "page " << i;
            }
            faults = machine.kernel(0).pages().local_faults() - faults0;
            fetches = (holder_counts(machine) - before).fetches;
        },
        0);
    machine.run();
    process.check_all_joined();
    ASSERT_LT(fanout0, 3) << "a scatter before the stream already fanned out";
    EXPECT_GE(machine.kernel(0).node().scatter_fanout().max(), 3)
        << "no capture reached three holders";
    // Each request carries at most 32 pages (kPageFetch asserts it), so each
    // holder serves at least one per 32 of its pages.
    for (std::size_t k = 1; k <= 3; ++k) {
        std::uint64_t held = 0;
        for (int i = 0; i < kPages; ++i) held += holder_of(i) == static_cast<topo::KernelId>(k);
        EXPECT_GE(fetches[k], (held + 31) / 32) << "kernel " << k;
    }
    // Windows of at most 32 pages without read-ahead took 12 faults.
    EXPECT_LE(faults, 8u);
    expect_settled(machine, process, "after the stream");
}

TEST(Prefetch, StreamContinuesThroughHeldPages) {
    // The reader's kernel wrote every other 32-page block of a 256-page
    // region homed at kernel 0 and the other kernel the rest; then the
    // reader streams all of it. The blocks its kernel already maps never
    // fault, so the stream's next fault lands past them: the run continues
    // instead of restarting with three demand faults and a ramp after each
    // block. At the home (kernel 0) that took 20 faults and now takes 8,
    // partly because read-aheads span the held blocks too. A remote reader
    // (kernel 1), whose windows stop at 32 pages and never read ahead, took
    // 32 and now takes 23.
    constexpr int kBlock = 32;
    constexpr int kPages = 8 * kBlock;
    const auto faults_of = [](topo::KernelId reader) {
        Machine machine(home_stream_config());
        auto& process = machine.create_process(0);
        const topo::KernelId other = reader == 0 ? 1 : 0;
        const auto reader_holds = [](int i) { return (i / kBlock) % 2 == 0; };
        auto& mapper = process.spawn([](Guest& g) { g.mmap(kPages * kPageSize); }, 0);
        const auto fill = [&](bool mine) {
            return [&, mine](Guest& g) {
                g.join(mapper);
                for (int i = 0; i < kPages; ++i) {
                    if (reader_holds(i) == mine) {
                        g.write<std::uint64_t>(stream_page(i), kStreamValue + i);
                    }
                }
            };
        };
        auto& own = process.spawn(fill(true), reader);
        auto& theirs = process.spawn(fill(false), other);
        std::uint64_t faults = 0;
        process.spawn(
            [&](Guest& g) {
                g.join(own);
                g.join(theirs);
                const core::PageOwner& pages = machine.kernel(reader).pages();
                const std::uint64_t faults0 = pages.local_faults() + pages.remote_faults();
                for (int i = 0; i < kPages; ++i) {
                    EXPECT_EQ(g.read<std::uint64_t>(stream_page(i)), kStreamValue + i)
                        << "page " << i << ", reader on kernel " << reader;
                }
                faults = pages.local_faults() + pages.remote_faults() - faults0;
            },
            reader);
        machine.run();
        process.check_all_joined();
        expect_settled(machine, process, "reader on kernel " + std::to_string(reader));
        return faults;
    };
    EXPECT_LE(faults_of(0), 8u);
    EXPECT_LE(faults_of(1), 26u);
}

/// One home stream over kReadAheadPages pages kernel 1 wrote, read in order
/// by a kernel-0 thread, for the read-ahead lifetime tests below. The
/// stream's read-aheads are in flight for most of it: 7 faults in all,
/// where windows of at most 32 pages without read-ahead take 8.
constexpr int kReadAheadPages = 128;

struct ReadAheadRun {
    Nanos start = 0;    ///< when the reader began
    Nanos end = 0;      ///< when it finished
    std::uint64_t faults = 0;
};

TEST(Prefetch, HomeReadAheadSurvivesMunmap) {
    // Another kernel-0 thread unmaps the last 32 pages, at one instant per
    // 1 us across the stream, so the munmap lands inside read-aheads in
    // flight. Its sweep waits on their claims and drops the copies they
    // landed. No pending install survives, the audits stay clean, and the
    // first 96 pages read back. The reader may segfault on the tail.
    constexpr int kTail = 32;
    const auto run = [](Nanos unmap_after) {
        Machine machine(home_stream_config());
        auto& process = machine.create_process(0);
        Thread& writer = map_and_fill(process, Reader::kHome, kReadAheadPages,
                                      [](int i) { return kStreamValue + i; });
        ReadAheadRun out;
        process.spawn(
            [&](Guest& g) {
                g.join(writer);
                g.flush_timing();
                out.start = g.now();
                const std::uint64_t faults0 = machine.kernel(0).pages().local_faults();
                for (int i = 0; i < kReadAheadPages; ++i) {
                    const std::uint64_t v = g.read<std::uint64_t>(stream_page(i));
                    if (i < kReadAheadPages - kTail) {
                        EXPECT_EQ(v, kStreamValue + i) << "page " << i;
                    }
                }
                g.flush_timing();
                out.end = g.now();
                out.faults = machine.kernel(0).pages().local_faults() - faults0;
            },
            0);
        if (unmap_after != 0) {
            process.spawn(
                [&](Guest& g) {
                    g.join(writer);
                    g.compute(unmap_after);
                    g.munmap(stream_page(kReadAheadPages - kTail), kTail * kPageSize);
                },
                0);
        }
        machine.run();
        process.check_all_joined();
        const std::string where = "munmap after " + std::to_string(unmap_after) + " ns";
        process.spawn(
            [&](Guest& g) {
                for (int i = 0; i < kReadAheadPages - kTail; ++i) {
                    EXPECT_EQ(g.read<std::uint64_t>(stream_page(i)), kStreamValue + i)
                        << "page " << i << ", " << where;
                }
            },
            0);
        machine.run();
        process.check_all_joined();
        expect_settled(machine, process, where);
        return out;
    };
    const ReadAheadRun clean = run(0);
    EXPECT_LE(clean.faults, 7u);
    ASSERT_GT(clean.end, clean.start);
    for (Nanos after = 1_us; after <= clean.end - clean.start; after += 1_us) run(after);
}

TEST(Prefetch, HomeReadAheadSurvivesHolderDeath) {
    // Kernel 1, the only holder, dies at one instant per 1 us across the
    // stream. A read-ahead page kernel 1 never answered cancels its claim
    // and its fault takes the plain path, which zero-fills it; a page whose
    // reply part reached the home before the kill lands and reads back
    // intact. No pending install survives and the audits stay clean.
    const auto run = [](Nanos kill_at, ReadAheadRun* out) {
        Machine machine(home_stream_config());
        auto& process = machine.create_process(0);
        Thread& writer = map_and_fill(process, Reader::kHome, kReadAheadPages,
                                      [](int i) { return kStreamValue + i; });
        std::uint64_t fetches0 = 0;
        std::uint64_t kept = 0;
        process.spawn(
            [&](Guest& g) {
                g.join(writer);
                g.flush_timing();
                out->start = g.now();
                fetches0 = machine.kernel(0).node().dispatched(msg::MsgType::kPageFetch);
                const std::uint64_t faults0 = machine.kernel(0).pages().local_faults();
                for (int i = 0; i < kReadAheadPages; ++i) {
                    const std::uint64_t v = g.read<std::uint64_t>(stream_page(i));
                    // A page whose only copy died with kernel 1 reads zero.
                    EXPECT_TRUE(v == 0 || v == kStreamValue + i)
                        << "page " << i << ", kill at " << kill_at;
                    if (v != 0) ++kept;
                }
                g.flush_timing();
                out->end = g.now();
                out->faults = machine.kernel(0).pages().local_faults() - faults0;
            },
            0);
        // Keeps the survivor's failure detector ticking past the lease.
        process.spawn([](Guest& g) { g.compute(2_ms); }, 0);
        // Reply parts kernel 1 had sent the home when it died: each page's
        // bytes were in, so it must read back intact.
        std::uint64_t arrived = 0;
        if (kill_at != 0) {
            machine.run_until(kill_at);
            arrived = machine.kernel(0).node().dispatched(msg::MsgType::kPageFetch) - fetches0;
            machine.kill_kernel(1);
        }
        machine.run();
        process.check_all_joined();
        const std::string where = "kill at " + std::to_string(kill_at) + " ns";
        EXPECT_GE(kept, arrived) << where;
        expect_settled(machine, process, where);
    };
    ReadAheadRun clean;
    run(0, &clean);
    EXPECT_LE(clean.faults, 7u);
    ASSERT_GT(clean.end, clean.start);
    ReadAheadRun killed;
    for (Nanos at = clean.start + 1_us; at <= clean.end; at += 1_us) run(at, &killed);
}

TEST(Prefetch, HomeReadAheadSurvivesReaderExit) {
    // The reader reads the first 64 pages and exits while the read-ahead of
    // the next 64 is in flight; the host stops the machine `linger` after
    // the exit and destroys the process. The job lands its pages with the
    // reader gone, the teardown's munmap waits on its claims, and nothing
    // it touches afterwards belongs to the reader or the process
    // (scripts/check.sh runs this under ASan and UBSan).
    constexpr int kRead = 64;
    const auto run = [](Nanos linger) {
        Machine machine(home_stream_config());
        auto& process = machine.create_process(0);
        Thread& writer = map_and_fill(process, Reader::kHome, 4 * kRead,
                                      [](int i) { return kStreamValue + i; });
        Thread& reader = process.spawn(
            [&](Guest& g) {
                g.join(writer);
                for (int i = 0; i < kRead; ++i) {
                    EXPECT_EQ(g.read<std::uint64_t>(stream_page(i)), kStreamValue + i)
                        << "page " << i;
                }
            },
            0);
        Nanos at = 0;
        while (!reader.finished()) machine.run_until(at += 100);
        machine.run_until(at + linger);
        const std::uint64_t landed = machine.kernel(0).pages().prefetch_hit();
        process.destroy();
        const std::string where = "stop " + std::to_string(linger) + " ns after the exit";
        // The read-ahead past the reader's last page landed after it exited.
        EXPECT_GT(machine.kernel(0).pages().prefetch_hit(), landed) << where;
        for (const auto& shard : machine.kernel(0).site(process.pid()).dir_shards()) {
            EXPECT_TRUE(shard.entries.empty()) << where;
        }
        expect_settled(machine, process, where);
    };
    for (const Nanos linger : {0_us, 1_us, 2_us, 4_us, 8_us, 16_us}) run(linger);
}

TEST(Prefetch, HomeReadAheadSurvivesReaderMigration) {
    // The reader reads the first 64 pages at the home, migrates to kernel 1
    // while the read-ahead of the next 64 is in flight, and reads the rest
    // there. The job lands at the home with the reader gone; the reader's
    // remote faults meet its claims as busy entries and wait them out.
    constexpr int kPages = 256;
    constexpr int kHere = 64;
    Machine machine(home_stream_config());
    auto& process = machine.create_process(0);
    Thread& writer = map_and_fill(process, Reader::kHome, kPages,
                                  [](int i) { return kStreamValue + i; });
    // Pages the home installed for itself ahead of their reads.
    const auto landed_at_home = [&machine] { return machine.kernel(0).pages().prefetch_hit(); };
    std::uint64_t landed_at_move = 0;
    process.spawn(
        [&](Guest& g) {
            g.join(writer);
            for (int i = 0; i < kPages; ++i) {
                if (i == kHere) {
                    landed_at_move = landed_at_home();
                    g.migrate(1);
                    EXPECT_EQ(g.kernel(), 1);
                }
                EXPECT_EQ(g.read<std::uint64_t>(stream_page(i)), kStreamValue + i)
                    << "page " << i;
            }
        },
        0);
    machine.run();
    process.check_all_joined();
    // The home kept landing its read-ahead after the reader left.
    EXPECT_GT(landed_at_home(), landed_at_move);
    expect_settled(machine, process, "after the migration");
}

TEST(Prefetch, HomeReadAheadSurvivesHomeDeath) {
    // Four sharded homes: kernel 2 homes about a quarter of a 512-page
    // region kernel 1 wrote, and a kernel-2 thread streams it, taking home
    // windows and read-aheads for the pages it homes (three read-aheads,
    // of 6 to 24 pages). Kernel 2 dies at one instant per 5 us across the
    // stream. A read-ahead job then unwinds
    // (LocalNodeDead) or, not yet started, returns at once, and the faults
    // waiting on it unwind with the reader; its claims die with kernel 2's
    // directory slice, which a survivor rebuilds from the PTE census. No
    // survivor keeps a pending install and the audits stay clean.
    constexpr int kPages = 512;
    const auto run = [](Nanos kill_at, ReadAheadRun* out) {
        auto config = home_stream_config(8, 4);
        config.home_shards = 4;
        Machine machine(config);
        auto& process = machine.create_process(0);
        auto& mapper = process.spawn([](Guest& g) { g.mmap(kPages * kPageSize); }, 0);
        auto& writer = process.spawn(
            [&](Guest& g) {
                g.join(mapper);
                for (int i = 0; i < kPages; ++i) {
                    g.write<std::uint64_t>(stream_page(i), kStreamValue + i);
                }
            },
            1);
        process.spawn(
            [&](Guest& g) {
                g.join(writer);
                g.flush_timing();
                out->start = g.now();
                for (int i = 0; i < kPages; ++i) {
                    EXPECT_EQ(g.read<std::uint64_t>(stream_page(i)), kStreamValue + i)
                        << "page " << i << ", kill at " << kill_at;
                }
                g.flush_timing();
                out->end = g.now();
            },
            2);
        // Keeps the survivors' failure detectors ticking past the lease.
        process.spawn(
            [&](Guest& g) {
                g.join(writer);
                g.compute(2_ms);
            },
            0);
        if (kill_at != 0) {
            machine.run_until(kill_at);
            machine.kill_kernel(2);
        }
        machine.run();
        for (const topo::KernelId k : {0, 1, 3}) {
            for (const auto& shard : machine.kernel(k).site(process.pid()).dir_shards()) {
                EXPECT_TRUE(shard.pending.empty()) << "kernel " << k << ", kill at " << kill_at;
            }
        }
        const check::Report report = check::run_all(machine);
        EXPECT_TRUE(report.ok()) << "kill at " << kill_at << " ns\n" << report.to_string();
    };
    ReadAheadRun clean;
    run(0, &clean);
    ASSERT_GT(clean.end, clean.start);
    ReadAheadRun killed;
    for (Nanos at = clean.start + 1_us; at <= clean.end; at += 5_us) run(at, &killed);
}

TEST(Prefetch, SameSeedRunsAreBitIdentical) {
    for (const Reader reader : kReaders) {
        const StreamRun a = stream_pages(24, 8, reader, /*seed=*/5);
        const StreamRun b = stream_pages(24, 8, reader, /*seed=*/5);
        EXPECT_EQ(a.vtime, b.vtime) << name(reader);
        EXPECT_EQ(a.move_time, b.move_time) << name(reader);
        EXPECT_EQ(a.messages, b.messages) << name(reader);
        EXPECT_EQ(a.bytes, b.bytes) << name(reader);
        EXPECT_EQ(a.issued, b.issued) << name(reader);
        EXPECT_EQ(a.hit, b.hit) << name(reader);
    }
}

TEST(Prefetch, StopsAtVmaBoundary) {
    RKO_SKIP_IF_SHARDED();
    // Two back-to-back VMAs; the stream covers only the first. Fault-around
    // windows are clipped to the faulting VMA, so no page of the second may
    // appear at the reader — even though the VMAs are contiguous.
    constexpr int kPages = 8;
    Machine machine([] {
        auto config = smp::popcorn_config(4, 2);
        config.prefetch_window = 8;
        return config;
    }());
    auto& process = machine.create_process(0);
    const Pid pid = process.pid();
    Vaddr first = 0, second = 0;
    auto& owner = process.spawn(
        [&](Guest& g) {
            first = g.mmap(kPages * kPageSize);
            second = g.mmap(kPages * kPageSize);
            for (int i = 0; i < kPages; ++i) {
                g.write<std::uint64_t>(first + static_cast<Vaddr>(i) * kPageSize, 1);
                g.write<std::uint64_t>(second + static_cast<Vaddr>(i) * kPageSize, 2);
            }
        },
        0);
    process.spawn(
        [&](Guest& g) {
            g.join(owner);
            for (int i = 0; i < kPages; ++i) {
                (void)g.read<std::uint64_t>(first + static_cast<Vaddr>(i) * kPageSize);
            }
        },
        1);
    machine.run();
    process.check_all_joined();
    ASSERT_EQ(second, first + kPages * kPageSize) << "VMAs not contiguous";
    EXPECT_GT(machine.kernel(0).pages().prefetch_issued(), 0u);
    EXPECT_EQ(machine.kernel(1).pages().prefetch_wasted(), 0u);
    auto& pt = machine.kernel(1).site(pid).space().page_table();
    for (int i = 0; i < kPages; ++i) {
        const mem::Pte* pte = pt.find(second + static_cast<Vaddr>(i) * kPageSize);
        EXPECT_TRUE(pte == nullptr || !pte->present)
            << "prefetch crossed the VMA boundary at page " << i;
    }
}

TEST(Prefetch, SurvivesMunmapRace) {
    // The origin unmaps the tail of the stream while fault-around windows
    // for it may be in flight: pages whose VMA vanished must be dropped
    // (counted wasted), their busy bits released, and the machine must
    // quiesce. The home reader's own windows race the unmap the same way.
    for (const Reader reader : kReaders) {
        for (const std::uint64_t seed : {3ULL, 9ULL, 31ULL}) {
            auto config = stream_config(reader);
            config.prefetch_window = 8;
            config.seed = seed;
            config.shuffle_ties = true;
            config.fabric.delivery_jitter = 300;
            config.fabric.jitter_seed = seed;
            Machine machine(config);
            auto& process = machine.create_process(0);
            constexpr int kPages = 24;
            const Vaddr buf = mem::kMmapBase;
            Thread& writer =
                map_and_fill(process, reader, kPages, [](int) { return 7ULL; });
            process.spawn(
                [&](Guest& g) {
                    g.join(writer);
                    for (int i = 0; i < kPages; ++i) {
                        (void)g.read<std::uint64_t>(buf +
                                                    static_cast<Vaddr>(i) * kPageSize);
                        g.compute(200_ns);
                    }
                },
                reader_kernel(reader));
            process.spawn(
                [&](Guest& g) {
                    g.join(writer);
                    g.compute(5_us);
                    g.munmap(buf + (kPages - 8) * kPageSize, 8 * kPageSize);
                },
                0);
            machine.run(); // must drain without asserting
            // The reader either finished or segfaulted on the unmapped
            // tail — both are legal; what matters is that every busy bit
            // was released (a leak would deadlock later transactions on
            // those pages).
            process.check_all_joined();
            for (auto& shard : machine.kernel(0).site(process.pid()).dir_shards()) {
                for (const auto& [vpn, entry] : shard.entries) {
                    EXPECT_FALSE(entry.busy)
                        << "leaked busy bit, " << name(reader) << ", seed " << seed;
                }
            }
        }
    }
}

} // namespace
} // namespace rko
