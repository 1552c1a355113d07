#include "rko/check/explore.hpp"

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>

#include "rko/api/machine.hpp"
#include "rko/api/process.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/core/process.hpp"
#include "rko/kernel/kernel.hpp"
#include "rko/mem/pagetable.hpp"
#include "rko/mem/phys.hpp"

namespace rko::check {

namespace {

using api::Guest;
using api::Machine;
using api::MachineConfig;
using api::Thread;
using mem::kPageSize;
using mem::Vaddr;
using namespace rko::time_literals;

// ---------------------------------------------------------------------------
// Hashing. FNV-1a/64 over the guest-visible end state: one copy of every
// directory-backed page's bytes (replicas are byte-identical or the pages
// checker already failed) plus each thread's exit record.
// ---------------------------------------------------------------------------

struct Fnv {
    std::uint64_t h = 14695981039346656037ULL;
    void bytes(const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};

std::uint64_t content_hash(Machine& m) {
    Fnv h;
    // Pages, in (pid, vpn) order regardless of which kernel holds them.
    std::map<std::pair<Pid, std::uint64_t>, const std::byte*> pages;
    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        m.kernel(k).for_each_site([&](core::ProcessSite& site) {
            // Directory entries live at each vpn's home kernel (the origin
            // when home_shards == 1): walk every site's shards.
            for (auto& shard : site.dir_shards()) {
                for (const auto& [vpn, entry] : shard.entries) {
                    if (entry.busy) continue; // audited separately
                    for (topo::KernelMask mask = entry.holder_mask(); mask != 0;
                         mask &= mask - 1) {
                        const auto holder =
                            static_cast<topo::KernelId>(std::countr_zero(mask));
                        if (!m.kernel(holder).has_site(site.pid())) continue;
                        const Vaddr page = static_cast<Vaddr>(vpn)
                                           << mem::kPageShift;
                        const mem::Pte* pte = m.kernel(holder)
                                                  .site(site.pid())
                                                  .space()
                                                  .page_table()
                                                  .find(page);
                        if (pte == nullptr || !pte->present) continue;
                        pages[{site.pid(), vpn}] = m.phys().frame_ptr(pte->paddr);
                        break; // lowest live holder is the canonical copy
                    }
                }
            }
        });
    }
    for (const auto& [key, frame] : pages) {
        h.u64(static_cast<std::uint64_t>(key.first));
        h.u64(key.second);
        h.bytes(frame, kPageSize);
    }
    // Thread outcomes, in creation order (tids are allocated in order).
    for (const auto& process : m.processes()) {
        for (const auto& thread : process->threads()) {
            h.u64(static_cast<std::uint64_t>(thread->tid()));
            h.u64(static_cast<std::uint64_t>(
                static_cast<std::int64_t>(thread->exit_status())));
            h.u64(thread->segfaulted() ? 1 : 0);
        }
    }
    return h.h;
}

MachineConfig base_config(const ExploreConfig& cfg) {
    MachineConfig mc;
    mc.ncores = 8;
    mc.nkernels = 4;
    // Scenarios touch a handful of pages; a small guest RAM keeps a
    // 200-seed sweep (x2 replays, x6 scenarios) in seconds, not minutes.
    mc.frames_per_kernel = 1024;
    mc.seed = cfg.seed;
    mc.shuffle_ties = cfg.shuffle_ties;
    mc.fabric.delivery_jitter = cfg.delivery_jitter;
    mc.fabric.jitter_seed = cfg.seed;
    // Violations are data here, not aborts: the sweep collects the audit
    // via run_all and decides, so the fault-injection scenario can report
    // its expected findings instead of dying at teardown.
    mc.check = false;
    return mc;
}

/// Drains nothing — call after machine.run(). Audits and hashes.
ScenarioResult finish(Machine& m) {
    ScenarioResult res;
    res.vtime = m.now();
    res.messages = m.total_messages();
    res.report = run_all(m);
    res.content_hash = content_hash(m);
    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        res.migratory_grants += m.kernel(k).pages().migratory_grants();
        res.migratory_reverts += m.kernel(k).pages().migratory_reverts();
        res.first_touch_grants += m.kernel(k).pages().first_touch_grants();
    }
    Fnv h;
    h.u64(res.content_hash);
    h.u64(static_cast<std::uint64_t>(res.vtime));
    h.u64(res.messages);
    h.u64(m.total_message_bytes());
    res.replay_hash = h.h;
    return res;
}

// ---------------------------------------------------------------------------
// Scenarios.
// ---------------------------------------------------------------------------

/// Threads hop kernels every round while hammering one shared page, so
/// migration (group updates, shadow records) races page-ownership transfers
/// and the barrier's futex traffic. Final state is schedule-independent.
ScenarioResult run_migration_storm(const ExploreConfig& cfg) {
    constexpr int kThreads = 4;
    constexpr int kRounds = 5;
    Machine machine(base_config(cfg));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
    for (int i = 0; i < kThreads; ++i) {
        process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                const Vaddr slot = buf + static_cast<Vaddr>(i) * 4;
                const Vaddr barrier = buf + 512;
                for (int r = 0; r < kRounds; ++r) {
                    g.rmw_u32(slot, [](std::uint32_t v) { return v + 1; });
                    g.migrate(static_cast<topo::KernelId>((i + r + 1) % 4));
                    g.barrier_wait(barrier, kThreads);
                }
            },
            static_cast<topo::KernelId>(i % 4));
    }
    machine.run();
    return finish(machine);
}

/// The unmapper destroys and recreates a region while remote writers keep
/// faulting it in: in-flight ownership transactions race the munmap
/// broadcast and vma_epoch bump. Writers may legally segfault (their VMA
/// vanished), so final content is schedule-dependent; only the invariants
/// and per-seed reproducibility are asserted.
ScenarioResult run_fault_munmap_race(const ExploreConfig& cfg) {
    Machine machine(base_config(cfg));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    process.spawn(
        [&](Guest& g) {
            buf = g.mmap(2 * kPageSize);
            for (int r = 0; r < 4; ++r) {
                g.write<std::uint64_t>(buf, static_cast<std::uint64_t>(r));
                g.munmap(buf, 2 * kPageSize);
                g.compute(500_ns);
                g.mmap(2 * kPageSize); // usually lands back on the same gap
            }
        },
        0);
    for (int w = 0; w < 2; ++w) {
        process.spawn(
            [&, w](Guest& g) {
                while (buf == 0) g.yield();
                for (int i = 0; i < 6; ++i) {
                    g.write<std::uint32_t>(buf + kPageSize + 64 + static_cast<Vaddr>(w) * 8,
                                           static_cast<std::uint32_t>(i));
                    g.compute(300_ns);
                }
            },
            static_cast<topo::KernelId>(1 + w));
    }
    machine.run();
    return finish(machine);
}

/// Cross-kernel futex ping-pong plus a third thread doing short timed waits
/// on the same word: wake-side grants race timeout-side cancels, and the
/// word itself migrates between kernels under the waiters.
ScenarioResult run_futex_ping(const ExploreConfig& cfg) {
    constexpr std::uint32_t kRounds = 8;
    Machine machine(base_config(cfg));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    process.spawn(
        [&](Guest& g) {
            buf = g.mmap(kPageSize);
            const Vaddr wa = buf;
            const Vaddr wb = buf + 64;
            for (std::uint32_t i = 1; i <= kRounds; ++i) {
                g.write<std::uint32_t>(wa, i);
                g.futex_wake(wa, 4);
                std::uint32_t v;
                while ((v = g.read<std::uint32_t>(wb)) != i) g.futex_wait(wb, v);
            }
        },
        0);
    process.spawn(
        [&](Guest& g) {
            while (buf == 0) g.yield();
            const Vaddr wa = buf;
            const Vaddr wb = buf + 64;
            for (std::uint32_t i = 1; i <= kRounds; ++i) {
                std::uint32_t v;
                while ((v = g.read<std::uint32_t>(wa)) < i) g.futex_wait(wa, v);
                g.write<std::uint32_t>(wb, i);
                g.futex_wake(wb, 4);
            }
        },
        1);
    process.spawn(
        [&](Guest& g) {
            while (buf == 0) g.yield();
            for (std::uint32_t i = 0; i < kRounds; ++i) {
                // Value usually stale (EAGAIN) or the wait times out mid-
                // round: every return is legal, the queue must stay sane.
                (void)g.futex_wait_for(buf, i % 3, 3_us);
            }
        },
        2);
    machine.run();
    return finish(machine);
}

/// One thread cycles the lower half of a region read-only and back
/// (a kDowngrade sweep demotes write bits machine-wide) while remote threads
/// read those pages and write the upper half — demotion races fault-in
/// upgrades on the same directory shards.
ScenarioResult run_mprotect_demote(const ExploreConfig& cfg) {
    constexpr int kCycles = 4;
    Machine machine(base_config(cfg));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn(
        [&](Guest& g) {
            buf = g.mmap(4 * kPageSize);
            g.write<std::uint64_t>(buf, 0xa0);
            g.write<std::uint64_t>(buf + kPageSize, 0xa1);
        },
        0);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int c = 0; c < kCycles; ++c) {
                g.mprotect(buf, 2 * kPageSize, mem::kProtRead);
                g.compute(1_us);
                g.mprotect(buf, 2 * kPageSize, mem::kProtRead | mem::kProtWrite);
                g.compute(500_ns);
            }
            g.write<std::uint64_t>(buf, 0xb0);
            g.write<std::uint64_t>(buf + kPageSize, 0xb1);
        },
        0);
    for (int w = 0; w < 2; ++w) {
        process.spawn(
            [&, w](Guest& g) {
                g.join(init);
                const Vaddr mine = buf + (2 + static_cast<Vaddr>(w)) * kPageSize;
                std::uint64_t sum = 0;
                for (int i = 0; i < 8; ++i) {
                    sum += g.read<std::uint64_t>(buf);
                    sum += g.read<std::uint64_t>(buf + kPageSize);
                    g.write<std::uint64_t>(mine + 8, static_cast<std::uint64_t>(i));
                    g.compute(400_ns);
                }
                (void)sum; // reads only pull Shared copies
                g.write<std::uint64_t>(mine + 16, 0xc0 + static_cast<std::uint64_t>(w));
            },
            static_cast<topo::KernelId>(1 + w));
    }
    machine.run();
    return finish(machine);
}

/// mprotect_demote's PROT_NONE twin: kernel 0 cycles the first four pages
/// of a region PROT_NONE and back (each PROT_NONE sweep pulls the bytes
/// home and drops every other copy, grouped into one kPageFetch per holder)
/// while writers on kernels 1 and 2 fault on their neighbours. Each round
/// opens once the region is accessible again: a writer writes two of the
/// four pages and reads the other writer's two, so the next sweep finds
/// copies Exclusive and Shared on both kernels; then it bounces a
/// neighbouring page with the other writer while that sweep runs. A futex
/// handshake keeps every access out of the PROT_NONE windows, so the last
/// round's values must read back on kernels 0 and 2.
ScenarioResult run_sequester_race(const ExploreConfig& cfg) {
    constexpr int kCycles = 4;
    constexpr int kGuarded = 4;
    constexpr Vaddr kCtrl = kGuarded * kPageSize; // round opened, writers done
    const auto value = [](int round, int page) {
        return 0x5e00ULL + static_cast<std::uint64_t>(round) * 16 +
               static_cast<std::uint64_t>(page);
    };
    Machine machine(base_config(cfg));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(8 * kPageSize); }, 0);
    for (int w = 0; w < 2; ++w) {
        process.spawn(
            [&, w](Guest& g) {
                g.join(init);
                const Vaddr mine = buf + static_cast<Vaddr>(5 + w) * kPageSize;
                const Vaddr theirs = buf + static_cast<Vaddr>(6 - w) * kPageSize;
                for (int r = 0; r < kCycles; ++r) {
                    std::uint32_t open;
                    while ((open = g.read<std::uint32_t>(buf + kCtrl)) <=
                           static_cast<std::uint32_t>(r)) {
                        g.futex_wait(buf + kCtrl, open);
                    }
                    for (int p = 0; p < kGuarded; ++p) {
                        const Vaddr page = buf + static_cast<Vaddr>(p) * kPageSize;
                        if (p / 2 == w) {
                            g.write<std::uint64_t>(page, value(r, p));
                        } else {
                            (void)g.read<std::uint64_t>(page);
                        }
                    }
                    g.rmw_u32(buf + kCtrl + 64, [](std::uint32_t d) { return d + 1; });
                    g.futex_wake(buf + kCtrl + 64, 1);
                    for (int i = 0; i < 3; ++i) {
                        g.write<std::uint64_t>(mine, static_cast<std::uint64_t>(r * 4 + i));
                        (void)g.read<std::uint64_t>(theirs);
                        g.compute(300_ns);
                    }
                }
            },
            static_cast<topo::KernelId>(1 + w));
    }
    int lost = 0;
    const auto read_back = [&](Guest& g) {
        for (int p = 0; p < kGuarded; ++p) {
            if (g.read<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize) !=
                value(kCycles - 1, p)) {
                ++lost;
            }
        }
    };
    auto& cycler = process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int r = 0; r < kCycles; ++r) {
                g.write<std::uint32_t>(buf + kCtrl, static_cast<std::uint32_t>(r + 1));
                g.futex_wake(buf + kCtrl, 2);
                std::uint32_t done;
                while ((done = g.read<std::uint32_t>(buf + kCtrl + 64)) <
                       static_cast<std::uint32_t>(2 * (r + 1))) {
                    g.futex_wait(buf + kCtrl + 64, done);
                }
                g.mprotect(buf, kGuarded * kPageSize, mem::kProtNone);
                g.compute(1_us);
                g.mprotect(buf, kGuarded * kPageSize, mem::kProtRead | mem::kProtWrite);
            }
            read_back(g);
        },
        0);
    process.spawn(
        [&](Guest& g) {
            g.join(cycler);
            read_back(g);
        },
        2);
    machine.run();
    ScenarioResult res = finish(machine);
    if (lost != 0) {
        res.report.fail("sequester_race.value_lost",
                        std::to_string(lost) + " page reads after the last cycle");
    }
    return res;
}

/// Fault-injection demo: drop one victim invalidation during a write
/// upgrade, leaving a stale read-only PTE at a remote kernel. The audit
/// must catch it (pages.pte_not_in_holders) — a clean report fails the
/// sweep. Proves the checker detects real ownership bugs, with a seed to
/// replay.
ScenarioResult run_inject_lost_invalidate(const ExploreConfig& cfg) {
    Machine machine(base_config(cfg));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn(
        [&](Guest& g) {
            buf = g.mmap(2 * kPageSize);
            g.write<std::uint32_t>(buf, 0x41); // page Exclusive at k0
        },
        0);
    auto& reader = process.spawn(
        [&](Guest& g) {
            g.join(init);
            (void)g.read<std::uint32_t>(buf); // page now Shared {k0, k1}
            g.rmw_u32(buf + kPageSize, [](std::uint32_t) { return 1u; });
            g.futex_wake(buf + kPageSize, 4);
        },
        1);
    process.spawn(
        [&](Guest& g) {
            g.join(reader);
            std::uint32_t v;
            while ((v = g.read<std::uint32_t>(buf + kPageSize)) != 1) {
                g.futex_wait(buf + kPageSize, v);
            }
            // The upgrade's invalidate to k1 is dropped: its PTE goes stale.
            for (int ik = 0; ik < machine.nkernels(); ++ik) {
                machine.kernel(ik).pages().set_inject_lost_invalidate(true);
            }
            g.write<std::uint32_t>(buf, 0x43);
            for (int ik = 0; ik < machine.nkernels(); ++ik) {
                machine.kernel(ik).pages().set_inject_lost_invalidate(false);
            }
        },
        0);
    machine.run();
    return finish(machine);
}

/// Six threads pile onto kernel 0 under an aggressive affinity balancer
/// (20 us ticks, minimal hysteresis): balancer steals race explicit
/// migrations, hint-driven self-migrations, shared-page ownership
/// transfers, and thread exits. Every increment must still land and each
/// task end up owned by exactly one scheduler (the balance checker's
/// domain). Final memory is schedule-independent.
ScenarioResult run_balancer_storm(const ExploreConfig& cfg) {
    constexpr int kThreads = 6;
    constexpr int kRounds = 4;
    MachineConfig mc = base_config(cfg);
    mc.balance.policy = balance::Policy::kAffinity;
    mc.balance.period = 20_us;
    mc.balance.min_residency = 30_us;
    mc.balance.migration_budget = 8;
    mc.balance.affinity_min_faults = 2;
    Machine machine(mc);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
    for (int i = 0; i < kThreads; ++i) {
        process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                const Vaddr slot = buf + static_cast<Vaddr>(i) * 8;
                for (int r = 0; r < kRounds; ++r) {
                    g.rmw_u32(slot, [](std::uint32_t v) { return v + 1; });
                    g.compute(50_us);
                    if (i % 3 == 0) {
                        g.migrate(static_cast<topo::KernelId>((i + r) % 4));
                    }
                    g.yield();
                }
            },
            0);
    }
    machine.run();
    return finish(machine);
}

/// Every round three remote readers replicate an 8-page region and a
/// writer at the origin then storms through it — each write upgrade fans
/// its invalidations out to every sharer in one scatter batch. A fourth
/// thread munmaps and remaps the region's upper half mid-storm so ranged
/// revocation (kPageInvalidateRange) races the per-page fan-out on the
/// same directory shards. Readers may legally segfault once the upper
/// half vanishes, so final content is schedule-dependent; the audits and
/// per-seed reproducibility are the assertions.
ScenarioResult run_invalidate_storm(const ExploreConfig& cfg) {
    constexpr int kPages = 8;
    constexpr int kRounds = 3;
    Machine machine(base_config(cfg));
    auto& process = machine.create_process(0);
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
    for (int r = 0; r < 3; ++r) {
        process.spawn(
            [&](Guest& g) {
                g.join(init);
                for (int round = 0; round < kRounds; ++round) {
                    for (int p = 0; p < kPages; ++p) {
                        (void)g.read<std::uint64_t>(
                            buf + static_cast<Vaddr>(p) * kPageSize);
                    }
                    g.compute(400_ns);
                }
            },
            static_cast<topo::KernelId>(1 + r));
    }
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int round = 0; round < kRounds; ++round) {
                for (int p = 0; p < kPages; ++p) {
                    g.write<std::uint64_t>(
                        buf + static_cast<Vaddr>(p) * kPageSize,
                        static_cast<std::uint64_t>(round * kPages + p));
                }
                g.compute(600_ns);
            }
        },
        0);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int c = 0; c < kRounds; ++c) {
                g.compute(2_us);
                g.munmap(buf + (kPages / 2) * kPageSize,
                         (kPages / 2) * kPageSize);
                g.compute(1_us);
                g.mmap((kPages / 2) * kPageSize); // often reuses the gap
            }
        },
        0);
    machine.run();
    return finish(machine);
}

/// A streaming reader walks a 24-page region sequentially with
/// prefetch_window=8, so its read faults upgrade into batched
/// transactions whose kPagePush deliveries race (a) a writer storming the
/// middle of the region — write upgrades must invalidate pushed copies
/// that are still in flight or freshly installed — and (b) an unmapper
/// cycling the tail, so pushes can arrive for a VMA that just vanished
/// (the push must be dropped and its busy bit still released). The reader
/// may legally segfault; audits + reproducibility only.
ScenarioResult run_prefetch_race(const ExploreConfig& cfg) {
    constexpr int kPages = 24;
    MachineConfig mc = base_config(cfg);
    mc.prefetch_window = 8;
    Machine machine(mc);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn(
        [&](Guest& g) {
            buf = g.mmap(kPages * kPageSize);
            for (int p = 0; p < kPages; ++p) {
                g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                       static_cast<std::uint64_t>(0x100 + p));
            }
        },
        0);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int pass = 0; pass < 2; ++pass) {
                for (int p = 0; p < kPages; ++p) {
                    (void)g.read<std::uint64_t>(
                        buf + static_cast<Vaddr>(p) * kPageSize);
                    g.compute(200_ns);
                }
            }
        },
        1);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int i = 0; i < 12; ++i) {
                g.write<std::uint64_t>(
                    buf + static_cast<Vaddr>(8 + i % 8) * kPageSize,
                    static_cast<std::uint64_t>(0x200 + i));
                g.compute(500_ns);
            }
        },
        2);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int c = 0; c < 3; ++c) {
                g.compute(3_us);
                g.munmap(buf + (kPages - 6) * kPageSize, 6 * kPageSize);
                g.compute(1_us);
                g.mmap(6 * kPageSize);
            }
        },
        0);
    machine.run();
    return finish(machine);
}

/// Two writers on kernels 1 and 2 first-touch adjacent halves of one
/// 32-page region as write streams with prefetch_window=8, so the home
/// grants first-touch runs (DESIGN §10) that must stop at the first page
/// the other writer already touched, while an unmapper on kernel 3 cycles
/// the 8-page tail: a run can be granted for pages whose VMA vanishes
/// before the writer maps them (confirmed as abandoned), and each revoke
/// must wait on the run's busy bits. A reader on kernel 0 then reads the
/// head back. Writers may legally segfault; audits + reproducibility only.
ScenarioResult run_first_touch_race(const ExploreConfig& cfg) {
    constexpr int kPages = 32;
    constexpr int kTail = 8;
    MachineConfig mc = base_config(cfg);
    mc.prefetch_window = 8;
    Machine machine(mc);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPages * kPageSize); }, 0);
    std::vector<Thread*> writers;
    for (int w = 0; w < 2; ++w) {
        writers.push_back(&process.spawn(
            [&, w](Guest& g) {
                g.join(init);
                for (int p = 0; p < kPages / 2; ++p) {
                    const int page = w * (kPages / 2) + p;
                    g.write<std::uint64_t>(buf + static_cast<Vaddr>(page) * kPageSize,
                                           static_cast<std::uint64_t>(0x100 + page));
                    g.compute(100_ns);
                }
            },
            static_cast<topo::KernelId>(1 + w)));
    }
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int c = 0; c < 3; ++c) {
                g.compute(2_us);
                g.munmap(buf + (kPages - kTail) * kPageSize, kTail * kPageSize);
                g.compute(1_us);
                g.mmap(kTail * kPageSize); // usually lands back on the same gap
            }
        },
        3);
    process.spawn(
        [&](Guest& g) {
            for (Thread* w : writers) g.join(*w);
            for (int p = 0; p < kPages - kTail; ++p) {
                (void)g.read<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize);
            }
        },
        0);
    machine.run();
    return finish(machine);
}

/// prefetch_race with the windows taken at the home: kernel 1 writes a
/// 24-page region, so kernel 1 owns it Exclusive, and a reader on kernel 0
/// (the origin, home of every page unsharded) streams it twice with
/// prefetch_window=8. Each window's claimed pages are fetched in one
/// scatter and installed at the home, racing (a) a writer on kernel 2
/// storming the middle of the region — its write faults wait out the
/// claimed busy bits, then must invalidate the home's fresh copies — and
/// (b) an unmapper on kernel 3 cycling the 6-page tail. The unmapper starts
/// once the reader is half way through its first pass and refills each
/// fresh tail mapping, so the home's windows keep claiming tail pages that
/// kernel 3 owns while the next munmap runs: revoke must wait on the
/// claimed busy bits, then drop the copies the home installed after the
/// VMA vanished. The reader may legally segfault; audits + reproducibility
/// only.
ScenarioResult run_home_prefetch_race(const ExploreConfig& cfg) {
    constexpr int kPages = 24;
    constexpr int kTail = 6;
    MachineConfig mc = base_config(cfg);
    mc.prefetch_window = 8;
    Machine machine(mc);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    int reached = -1; // the reader's furthest page (host-side progress flag)
    auto& init = process.spawn(
        [&](Guest& g) {
            buf = g.mmap(kPages * kPageSize);
            for (int p = 0; p < kPages; ++p) {
                g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                       static_cast<std::uint64_t>(0x100 + p));
            }
        },
        1);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int pass = 0; pass < 2; ++pass) {
                for (int p = 0; p < kPages; ++p) {
                    reached = std::max(reached, p);
                    (void)g.read<std::uint64_t>(
                        buf + static_cast<Vaddr>(p) * kPageSize);
                    g.compute(200_ns);
                }
            }
        },
        0);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int i = 0; i < 12; ++i) {
                g.write<std::uint64_t>(
                    buf + static_cast<Vaddr>(8 + i % 8) * kPageSize,
                    static_cast<std::uint64_t>(0x200 + i));
                g.compute(500_ns);
            }
        },
        2);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int i = 0; i < 400 && reached < kPages / 2; ++i) g.compute(1_us);
            for (int c = 0; c < 4; ++c) {
                g.compute(3_us);
                g.munmap(buf + (kPages - kTail) * kPageSize, kTail * kPageSize);
                g.compute(1_us);
                const Vaddr tail = g.mmap(kTail * kPageSize);
                for (int p = 0; p < kTail; ++p) {
                    g.write<std::uint64_t>(tail + static_cast<Vaddr>(p) * kPageSize,
                                           static_cast<std::uint64_t>(0x300 + p));
                }
            }
        },
        3);
    machine.run();
    return finish(machine);
}

/// A home read stream at full ramp (DESIGN.md §10): kernels 1, 2 and 3
/// write 32-page blocks of a 256-page region in turn, and kernel 0 (the
/// home) streams it back with prefetch_window=8, so its windows and
/// read-aheads ramp to 128 pages and span holders. Kernel 2 rewrites pages
/// ahead of the reader, so write faults meet read-ahead claims, and once
/// the reader is half way through, kernel 3 cycles the 32-page tail
/// (munmap, then a fresh mapping it fills), so revokes land on read-aheads
/// in flight. Every read before the tail returns a page's first or
/// rewritten value, and a last pass reads each one's final value
/// (home_readahead_race.value_lost otherwise). The reader may legally
/// segfault on the tail.
ScenarioResult run_home_readahead_race(const ExploreConfig& cfg) {
    constexpr int kBlock = 32;
    constexpr int kPages = 8 * kBlock;
    constexpr int kTail = 32;
    constexpr int kKept = kPages - kTail;
    const auto first = [](int p) { return 0x1000ULL + static_cast<std::uint64_t>(p); };
    const auto rewritten = [](int p) { return 0x2000ULL + static_cast<std::uint64_t>(p); };
    const auto is_rewritten = [](int p) { return p >= 64 && p < kKept && p % 7 == 0; };
    MachineConfig mc = base_config(cfg);
    mc.prefetch_window = 8;
    Machine machine(mc);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    int reached = -1; // the reader's furthest page (host-side progress flag)
    int lost = 0;
    const auto at = [&buf](int p) { return buf + static_cast<Vaddr>(p) * kPageSize; };
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPages * kPageSize); }, 0);
    std::vector<Thread*> writers;
    for (int k = 1; k <= 3; ++k) {
        writers.push_back(&process.spawn(
            [&, k](Guest& g) {
                g.join(init);
                for (int p = 0; p < kPages; ++p) {
                    if (1 + (p / kBlock) % 3 == k) g.write<std::uint64_t>(at(p), first(p));
                }
            },
            static_cast<topo::KernelId>(k)));
    }
    const auto after_writers = [&](Guest& g) {
        for (Thread* w : writers) g.join(*w);
    };
    auto& reader = process.spawn(
        [&](Guest& g) {
            after_writers(g);
            for (int p = 0; p < kPages; ++p) {
                reached = std::max(reached, p);
                const std::uint64_t v = g.read<std::uint64_t>(at(p));
                if (p < kKept && v != first(p) && v != rewritten(p)) ++lost;
            }
        },
        0);
    auto& rewriter = process.spawn(
        [&](Guest& g) {
            after_writers(g);
            for (int p = 0; p < kKept; ++p) {
                if (!is_rewritten(p)) continue;
                g.write<std::uint64_t>(at(p), rewritten(p));
                g.compute(1_us);
            }
        },
        2);
    auto& cycler = process.spawn(
        [&](Guest& g) {
            after_writers(g);
            for (int i = 0; i < 400 && reached < kPages / 2; ++i) g.compute(1_us);
            for (int c = 0; c < 3; ++c) {
                g.munmap(at(kKept), kTail * kPageSize);
                g.compute(2_us);
                const Vaddr tail = g.mmap(kTail * kPageSize);
                for (int p = 0; p < kTail; ++p) {
                    g.write<std::uint64_t>(tail + static_cast<Vaddr>(p) * kPageSize,
                                           static_cast<std::uint64_t>(0x3000 + p));
                }
                g.compute(3_us);
            }
        },
        3);
    process.spawn(
        [&](Guest& g) {
            g.join(reader);
            g.join(rewriter);
            g.join(cycler);
            for (int p = 0; p < kKept; ++p) {
                if (g.read<std::uint64_t>(at(p)) != (is_rewritten(p) ? rewritten(p) : first(p))) {
                    ++lost;
                }
            }
        },
        1);
    machine.run();
    ScenarioResult res = finish(machine);
    if (lost != 0) {
        res.report.fail("home_readahead_race.value_lost",
                        std::to_string(lost) + " page reads returned a value never written");
    }
    return res;
}

/// The page-push pipeline (DESIGN.md §10, §15) under 4 sharded homes:
/// most pages are homed away from the origin, which wrote them all, so a
/// home's capture mixes local copies with one scatter of remote fetches.
/// A reader on kernel 1 streams a 24-page region with prefetch_window=8,
/// migrates to kernel 3 with workset_push=8, and streams it again: the
/// arrival's kWorksetPull rounds and the post-copy boosted batches push the
/// region back. A writer on kernel 2 re-dirties the middle of the region
/// during the first pass, so streaming pushes race write upgrades. Once the
/// second pass is under way an unmapper on the origin cycles the 6-page
/// tail and refills each fresh mapping, so boosted pushes of the tail race
/// revokes fanned out to every home (some land after the VMA vanished and
/// must be dropped, their busy bits still released). The reader may
/// legally segfault; audits + reproducibility only.
ScenarioResult run_push_race_sharded(const ExploreConfig& cfg) {
    constexpr int kPages = 24;
    constexpr int kTail = 6;
    MachineConfig mc = base_config(cfg);
    mc.home_shards = 4; // force sharding on regardless of RKO_HOME_SHARDS
    mc.prefetch_window = 8;
    mc.workset_push = 8; // force pre-copy on regardless of RKO_WORKSET_PUSH
    Machine machine(mc);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    int reached = -1; // the reader's furthest step over both passes
    auto& init = process.spawn(
        [&](Guest& g) {
            buf = g.mmap(kPages * kPageSize);
            for (int p = 0; p < kPages; ++p) {
                g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                       static_cast<std::uint64_t>(0x100 + p));
            }
        },
        0);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int pass = 0; pass < 2; ++pass) {
                if (pass == 1) g.migrate(3);
                for (int p = 0; p < kPages; ++p) {
                    reached = std::max(reached, pass * kPages + p);
                    (void)g.read<std::uint64_t>(
                        buf + static_cast<Vaddr>(p) * kPageSize);
                    g.compute(200_ns);
                }
            }
        },
        1);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int i = 0; i < 12; ++i) {
                g.write<std::uint64_t>(
                    buf + static_cast<Vaddr>(8 + i % 8) * kPageSize,
                    static_cast<std::uint64_t>(0x200 + i));
                g.compute(500_ns);
            }
        },
        2);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int i = 0; i < 1000 && reached < kPages + kPages / 4; ++i) {
                g.compute(1_us);
            }
            for (int c = 0; c < 3; ++c) {
                g.compute(3_us);
                g.munmap(buf + (kPages - kTail) * kPageSize, kTail * kPageSize);
                g.compute(1_us);
                const Vaddr tail = g.mmap(kTail * kPageSize);
                for (int p = 0; p < kTail; ++p) {
                    g.write<std::uint64_t>(tail + static_cast<Vaddr>(p) * kPageSize,
                                           static_cast<std::uint64_t>(0x300 + p));
                }
            }
        },
        0);
    machine.run();
    return finish(machine);
}

// ---------------------------------------------------------------------------
// Elastic-membership storms (§11): kernels fail-stop, hot-join, and drain
// mid-run while the load balancer is moving the very threads affected.
// ---------------------------------------------------------------------------

MachineConfig elastic_storm_config(const ExploreConfig& cfg) {
    MachineConfig mc = base_config(cfg);
    mc.balance.policy = balance::Policy::kIdleSteal;
    mc.balance.period = 20_us;
    mc.balance.min_residency = 50_us;
    mc.balance.migration_budget = 8;
    mc.elastic.enabled = true;
    mc.elastic.lease_misses = 4;
    return mc;
}

/// Two kernels fail-stop in sequence under a mixed compute/futex/shared-
/// page load. k0 and k1 each run two saturating 4 ms "anchor" computes:
/// their cores are never idle, so idle-steal cannot pull the doomed
/// threads to safety, and the failure detector keeps ticking long past
/// both deaths. The victims on k2/k3 hammer one shared page (homed at the
/// immortal origin) and take short timed futex waits, so each kill lands
/// on running, queued, blocked, and rpc-parked fibers alike — and steals
/// between k2 and k3 during the wait windows keep threads in flight when
/// the axe falls. k3 dies at 300 us and k2 at 700 us, so the second reap
/// runs against a membership that already lost a kernel. Which victim
/// dies where is schedule-dependent, so the assertions are the audits
/// (including the elastic family) and per-seed replay reproducibility.
ScenarioResult run_kill_storm(const ExploreConfig& cfg) {
    Machine machine(elastic_storm_config(cfg));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
    for (topo::KernelId k = 0; k < 2; ++k) {
        for (int c = 0; c < 2; ++c) {
            process.spawn([](Guest& g) { g.compute(4_ms); }, k);
        }
    }
    for (int i = 0; i < 6; ++i) {
        process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                const Vaddr slot = buf + static_cast<Vaddr>(i) * 8;
                for (int r = 0; r < 40; ++r) {
                    g.rmw_u32(slot, [](std::uint32_t v) { return v + 1; });
                    // Never signalled: a bounded blocking window per round.
                    g.futex_wait_for(buf + 512, 0, 3_us);
                    g.compute(30_us);
                }
            },
            static_cast<topo::KernelId>(2 + i % 2));
    }
    machine.run_until(300_us);
    machine.kill_kernel(3);
    machine.run_until(700_us);
    machine.kill_kernel(2);
    machine.run();
    return finish(machine);
}

/// Capacity churn without failures: half the machine boots parted (k2 and
/// k3 deferred) while a 10-thread burst lands on k0/k1. The missing
/// kernels hot-join mid-run — k2 at 100 us, k3 at 200 us — so the joins
/// race in-flight steals, gossip, and each other; then k1 drains at
/// 400 us, pushing its share of threads and page copies onto the freshly
/// joined capacity. Every thread finishes cleanly wherever it lands and
/// every slot ends at exactly its increment count, so the final content
/// is schedule-independent and hashed across seeds.
ScenarioResult run_join_storm(const ExploreConfig& cfg) {
    MachineConfig mc = elastic_storm_config(cfg);
    mc.elastic.deferred_mask = (1u << 2) | (1u << 3);
    Machine machine(mc);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
    for (int i = 0; i < 10; ++i) {
        process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                const Vaddr slot = buf + static_cast<Vaddr>(i) * 8;
                for (int r = 0; r < 10; ++r) {
                    g.rmw_u32(slot, [](std::uint32_t v) { return v + 1; });
                    g.compute(60_us);
                }
            },
            static_cast<topo::KernelId>(i % 2));
    }
    machine.run_until(100_us);
    machine.join_kernel(2);
    machine.run_until(200_us);
    machine.join_kernel(3);
    machine.run_until(400_us);
    machine.drain_kernel(1);
    machine.run();
    return finish(machine);
}

/// Hierarchical-futex torture (DESIGN.md §13): six contenders across three
/// kernels hammer one mutex word, so every kernel grows a local convoy,
/// the origin's wakes fan out as kFutexGrantBatch, and wake(1) handoffs
/// rotate the lock through each convoy. A third of the contenders also
/// take short stale-value timed waits on the hot word, racing grant
/// deliveries against local timeout cancels. Kernel 3 — anchored busy so
/// idle-steal never parks a lock holder there — hosts timed waiters on a
/// never-signalled word and then fail-stops, so the origin must reap its
/// aggregate entries; later kernel 2 drains mid-contention, evacuating
/// parked convoy waiters through the local cancel path. Kill victims make
/// final content schedule-dependent; audits + replay are the assertions.
ScenarioResult run_futex_convoy(const ExploreConfig& cfg) {
    constexpr int kContenders = 6;
    Machine machine(elastic_storm_config(cfg));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
    // Saturate k3's cores so the balancer never steals a contender (and
    // possibly the lock holder) onto the kernel about to die.
    for (int c = 0; c < 2; ++c) {
        process.spawn([](Guest& g) { g.compute(4_ms); }, 3);
    }
    // Doomed waiters: bounded timed waits on a never-signalled word, so the
    // kill lands on locally-parked convoy members whose origin-side
    // aggregates must be reaped.
    for (int v = 0; v < 2; ++v) {
        process.spawn(
            [&](Guest& g) {
                g.join(init);
                for (int r = 0; r < 30; ++r) {
                    g.futex_wait_for(buf + 512, 0, 4_us);
                    g.compute(10_us);
                }
            },
            3);
    }
    for (int i = 0; i < kContenders; ++i) {
        process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                for (int r = 0; r < 25; ++r) {
                    g.mutex_lock(buf);
                    g.rmw_u32(buf + 64, [](std::uint32_t v) { return v + 1; });
                    g.compute(300_ns);
                    g.mutex_unlock(buf);
                    if (i % 3 == 0) {
                        // Stale-value timed waits on the hot word race
                        // kFutexGrantBatch against local timeout cancels.
                        (void)g.futex_wait_for(buf, 2, 2_us);
                    }
                    g.compute(2_us);
                }
            },
            static_cast<topo::KernelId>(i % 3));
    }
    machine.run_until(150_us);
    machine.kill_kernel(3);
    machine.run_until(400_us);
    machine.drain_kernel(2);
    machine.run();
    return finish(machine);
}

/// Sharded-home torture (DESIGN.md §14): 8 directory shards rendezvous-
/// hashed over the 4 kernels, so roughly 3/4 of all fault transactions run
/// at a non-origin home. Writers on every kernel hammer a 16-page region
/// (distinct VPNs land on distinct homes), an mmap/munmap cycler keeps the
/// replicated VMA caches churning through epoch invalidations, and a
/// mid-run mprotect exercises the home-fanout ranged sweeps. Kernel 3 —
/// kept from exporting its threads by two saturating anchors — fail-stops
/// at 250 us, so every shard it owned fails over: survivors shrink the
/// map, flag inherited shards rebuilding, and census-rebuild the entries
/// while stalled faults retry. Kernel 2 then *drains* at 600 us, taking
/// the voluntary-part path through the same failover machinery. Which
/// writes the dead kernel lost is schedule-dependent, so the assertions
/// are the audits (all nine families, home included) plus replay
/// reproducibility.
ScenarioResult run_home_storm(const ExploreConfig& cfg) {
    constexpr int kPages = 16;
    MachineConfig mc = elastic_storm_config(cfg);
    mc.home_shards = 8; // force sharding on regardless of RKO_HOME_SHARDS
    Machine machine(mc);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn(
        [&](Guest& g) { buf = g.mmap(kPages * kPageSize); }, 0);
    // Anchors: k3's cores stay busy so idle-steal cannot pull its doomed
    // writers to safety before the kill.
    for (int c = 0; c < 2; ++c) {
        process.spawn([](Guest& g) { g.compute(4_ms); }, 3);
    }
    for (int i = 0; i < 8; ++i) {
        process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                for (int r = 0; r < 30; ++r) {
                    // Stride the page index so consecutive faults from one
                    // thread resolve at different homes.
                    const int p = (i + 5 * r) % kPages;
                    const Vaddr page = buf + static_cast<Vaddr>(p) * kPageSize;
                    g.rmw_u32(page + static_cast<Vaddr>(i) * 8,
                              [](std::uint32_t v) { return v + 1; });
                    (void)g.read<std::uint64_t>(
                        buf + static_cast<Vaddr>((p + 7) % kPages) * kPageSize);
                    g.compute(15_us);
                }
            },
            static_cast<topo::KernelId>(i % 4));
    }
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int c = 0; c < 4; ++c) {
                g.compute(80_us);
                // Epoch-bump churn against the VMA replicas: the tail pages
                // vanish (fan-out revoke at every home), then come back.
                g.munmap(buf + (kPages - 4) * kPageSize, 4 * kPageSize);
                g.compute(20_us);
                g.mmap(4 * kPageSize);
                g.mprotect(buf, 4 * kPageSize, mem::kProtRead);
                g.compute(20_us);
                g.mprotect(buf, 4 * kPageSize,
                           mem::kProtRead | mem::kProtWrite);
            }
        },
        0);
    machine.run_until(250_us);
    machine.kill_kernel(3);
    machine.run_until(600_us);
    machine.drain_kernel(2);
    machine.run();
    return finish(machine);
}

/// Working-set migration under write sharing (DESIGN.md §15): two resident
/// writers on k0 and k1 keep a small region's ownership ping-ponging while
/// a third writer re-dirties every page and migrates between k2 and k3
/// each round with pre-copy armed. Every arrival's pull round races the
/// sharers' write upgrades: the home-side try-claims skip busy entries, a
/// pushed Shared copy can be invalidated while the install is still in
/// flight, and the post-copy boost widens fault batches over pages the
/// sharers are concurrently stealing back. All three write disjoint words,
/// so the final content is schedule-independent and hashed across seeds.
ScenarioResult run_migrate_under_write_sharing(const ExploreConfig& cfg) {
    constexpr int kPages = 8;
    constexpr int kRounds = 6;
    MachineConfig mc = base_config(cfg);
    mc.workset_push = 8; // force pre-copy on regardless of RKO_WORKSET_PUSH
    Machine machine(mc);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn(
        [&](Guest& g) { buf = g.mmap(kPages * kPageSize); }, 0);
    // Resident sharers: each sweeps the region from its own kernel, writing
    // its own word of every page, so pages stay write-shared the whole run.
    for (int w = 0; w < 2; ++w) {
        process.spawn(
            [&, w](Guest& g) {
                g.join(init);
                for (int r = 0; r < 3 * kRounds; ++r) {
                    const Vaddr page =
                        buf + static_cast<Vaddr>((w + r) % kPages) * kPageSize;
                    g.rmw_u32(page + static_cast<Vaddr>(w) * 8,
                              [](std::uint32_t v) { return v + 1; });
                    g.compute(2_us);
                }
            },
            static_cast<topo::KernelId>(w));
    }
    // The migrating writer: re-dirties the whole region (keeping all eight
    // pages hot in its tracker), then hops kernels; the checkpoint ships
    // the hot set and the arrival pull round races the sharers' traffic.
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int r = 0; r < kRounds; ++r) {
                for (int p = 0; p < kPages; ++p) {
                    g.rmw_u32(buf + static_cast<Vaddr>(p) * kPageSize + 128,
                              [](std::uint32_t v) { return v + 1; });
                }
                g.migrate(static_cast<topo::KernelId>(2 + r % 2));
            }
        },
        2);
    machine.run();
    return finish(machine);
}

/// Migratory pages (DESIGN.md §17) under every pattern that meets them on
/// one page: incrementers on all four kernels read then write their own
/// slot (false sharing, so the page turns migratory and is handed over by
/// ownership grants); the one on k3 migrates every few rounds, so grants
/// race the arriving thread's refaults; a spinner on k2 keeps reading a
/// progress word, so grants meet a clean owner and revert the page; and
/// threads on k0 and k1 bump a mutex-protected counter on the same page,
/// so the futex path's origin peeks race the grants. Every final word is
/// schedule-independent, so content is hashed across seeds.
ScenarioResult run_migratory_race(const ExploreConfig& cfg) {
    constexpr int kRounds = 12;
    constexpr int kLocked = 6;
    Machine machine(base_config(cfg));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
    const auto slot = [&](int i) { return buf + static_cast<Vaddr>(i) * 64; };
    const auto done = [&] { return buf + 1024; };
    for (int i = 0; i < 4; ++i) {
        process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                for (int r = 0; r < kRounds; ++r) {
                    g.write<std::uint64_t>(slot(i), g.read<std::uint64_t>(slot(i)) + 1);
                    g.compute(static_cast<Nanos>(2 + i) * 1_us);
                    if (i == 3 && r % 4 == 3) {
                        g.migrate(static_cast<topo::KernelId>((r / 4) % 4));
                    }
                }
                g.rmw_u32(done(), [](std::uint32_t v) { return v + 1; });
            },
            static_cast<topo::KernelId>(i));
    }
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            // Bounded: a protocol bug that loses an increment must fail the
            // audits, not hang the sweep.
            for (int i = 0; i < 1000 && g.read<std::uint32_t>(done()) < 4; ++i) {
                g.compute(1_us);
            }
        },
        2);
    for (int i = 0; i < 2; ++i) {
        process.spawn(
            [&](Guest& g) {
                g.join(init);
                for (int n = 0; n < kLocked; ++n) {
                    g.mutex_lock(buf + 2048);
                    g.write<std::uint64_t>(buf + 2056,
                                           g.read<std::uint64_t>(buf + 2056) + 1);
                    g.compute(1_us);
                    g.mutex_unlock(buf + 2048);
                }
            },
            static_cast<topo::KernelId>(i));
    }
    machine.run();
    return finish(machine);
}

// ---------------------------------------------------------------------------
// Sweep driver.
// ---------------------------------------------------------------------------

// Gated inline checks (RKO_ASSERT in the protocol paths) abort rather than
// report; this hook makes the abort name the seed being explored so the
// failure is replayable. Written before each run, emitted async-signal-
// safely from the handler.
char g_abort_context[256];
std::size_t g_abort_context_len = 0;

extern "C" void explore_abort_handler(int) {
    if (g_abort_context_len > 0) {
        const ssize_t n = ::write(2, g_abort_context, g_abort_context_len);
        (void)n;
    }
    std::signal(SIGABRT, SIG_DFL);
}

void set_abort_context(const char* scenario, std::uint64_t seed,
                       const SweepOptions& opt) {
    const int n = std::snprintf(
        g_abort_context, sizeof g_abort_context,
        "\nrko_explore: aborted at scenario=%s seed=%llu\n"
        "  repro: rko_explore --scenario %s --seeds 1 --first-seed %llu "
        "--jitter %lld%s\n",
        scenario, static_cast<unsigned long long>(seed), scenario,
        static_cast<unsigned long long>(seed),
        static_cast<long long>(opt.delivery_jitter),
        opt.shuffle_ties ? "" : " --no-shuffle");
    g_abort_context_len =
        n > 0 ? std::min(static_cast<std::size_t>(n), sizeof g_abort_context - 1)
              : 0;
}

void install_abort_handler() {
    static bool installed = false;
    if (!installed) {
        std::signal(SIGABRT, explore_abort_handler);
        installed = true;
    }
}

void print_repro(const Scenario& s, std::uint64_t seed, const SweepOptions& opt,
                 const char* why) {
    std::fprintf(stderr,
                 "rko_explore: FAIL scenario=%s seed=%llu (%s)\n"
                 "  repro: rko_explore --scenario %s --seeds 1 --first-seed %llu "
                 "--jitter %lld%s\n",
                 s.name, static_cast<unsigned long long>(seed), why, s.name,
                 static_cast<unsigned long long>(seed),
                 static_cast<long long>(opt.delivery_jitter),
                 opt.shuffle_ties ? "" : " --no-shuffle");
}

} // namespace

const std::vector<Scenario>& scenarios() {
    static const std::vector<Scenario> list = {
        {"migration_storm",
         "4 threads hop kernels every round while hammering one shared page",
         /*content_deterministic=*/true, /*expect_violation=*/false,
         &run_migration_storm},
        {"fault_munmap_race",
         "munmap/remap loop races remote writers faulting the region in",
         /*content_deterministic=*/false, /*expect_violation=*/false,
         &run_fault_munmap_race},
        {"futex_ping",
         "cross-kernel futex ping-pong with a third thread's timed waits",
         /*content_deterministic=*/true, /*expect_violation=*/false,
         &run_futex_ping},
        {"mprotect_demote",
         "mprotect write-bit demotion cycles race readers and writers",
         /*content_deterministic=*/true, /*expect_violation=*/false,
         &run_mprotect_demote},
        {"sequester_race",
         "PROT_NONE cycles pull copies home from two kernels while they fault "
         "on neighbouring pages",
         /*content_deterministic=*/true, /*expect_violation=*/false,
         &run_sequester_race},
        {"inject_lost_invalidate",
         "drops one invalidation; the audit MUST flag the stale PTE",
         /*content_deterministic=*/true, /*expect_violation=*/true,
         &run_inject_lost_invalidate},
        {"balancer_storm",
         "aggressive affinity balancer races migrations, faults, and exits",
         /*content_deterministic=*/true, /*expect_violation=*/false,
         &run_balancer_storm},
        {"invalidate_storm",
         "write storm fans invalidations out to 3 sharers while munmap "
         "revokes half the region",
         /*content_deterministic=*/false, /*expect_violation=*/false,
         &run_invalidate_storm},
        {"prefetch_race",
         "fault-around pushes race write upgrades and munmap of the tail",
         /*content_deterministic=*/false, /*expect_violation=*/false,
         &run_prefetch_race},
        {"first_touch_race",
         "two write streams first-touch adjacent halves of a region as "
         "zero-fill runs while munmap cycles its tail",
         /*content_deterministic=*/false, /*expect_violation=*/false,
         &run_first_touch_race},
        {"home_prefetch_race",
         "the home's own fault-around fetches race write upgrades and "
         "munmap of the tail",
         /*content_deterministic=*/false, /*expect_violation=*/false,
         &run_home_prefetch_race},
        {"home_readahead_race",
         "the home's read stream ramps to 128-page windows and read-aheads "
         "over three holders while a writer rewrites pages ahead of it and "
         "munmap cycles the tail",
         /*content_deterministic=*/false, /*expect_violation=*/false,
         &run_home_readahead_race},
        {"push_race_sharded",
         "pushed windows, boosted batches and pull rounds race write "
         "upgrades and munmap of the tail under 4 sharded homes",
         /*content_deterministic=*/false, /*expect_violation=*/false,
         &run_push_race_sharded},
        {"kill_storm",
         "two kernels fail-stop mid-run; leases expire and the survivors "
         "re-home their state",
         /*content_deterministic=*/false, /*expect_violation=*/false,
         &run_kill_storm},
        {"join_storm",
         "half the machine boots parted, hot-joins under load, then one "
         "kernel drains onto the new capacity",
         /*content_deterministic=*/true, /*expect_violation=*/false,
         &run_join_storm},
        {"futex_convoy",
         "convoys on one mutex word race batched grants, handoffs, "
         "timeouts, a kernel kill, and a drain",
         /*content_deterministic=*/false, /*expect_violation=*/false,
         &run_futex_convoy},
        {"home_storm",
         "8-way sharded homes under a cross-kernel fault storm; a "
         "shard-owning kernel dies and another drains mid-run",
         /*content_deterministic=*/false, /*expect_violation=*/false,
         &run_home_storm},
        {"migrate_under_write_sharing",
         "a writer migrates every round with workset pre-copy armed while "
         "two kernels keep the region write-shared",
         /*content_deterministic=*/true, /*expect_violation=*/false,
         &run_migrate_under_write_sharing},
        {"migratory_race",
         "false-shared increments on four kernels hand a migratory page over "
         "while a thread migrates, a reader spins, and a mutex guards a "
         "counter on the same page",
         /*content_deterministic=*/true, /*expect_violation=*/false,
         &run_migratory_race},
    };
    return list;
}

const Scenario* find_scenario(const std::string& name) {
    for (const Scenario& s : scenarios()) {
        if (name == s.name) return &s;
    }
    return nullptr;
}

SweepStats sweep(const Scenario& scenario, const SweepOptions& options) {
    install_abort_handler();
    SweepStats stats;
    bool have_reference = false;
    std::uint64_t reference_content = 0;
    std::uint64_t reference_seed = 0;
    for (int i = 0; i < options.seeds; ++i) {
        const std::uint64_t seed = options.first_seed + static_cast<std::uint64_t>(i);
        const ExploreConfig cfg{seed, options.delivery_jitter, options.shuffle_ties};
        set_abort_context(scenario.name, seed, options);
        const ScenarioResult first = scenario.run(cfg);
        const ScenarioResult again = scenario.run(cfg);
        ++stats.runs;
        stats.sim_time += first.vtime;
        stats.migratory_grants += first.migratory_grants;
        stats.migratory_reverts += first.migratory_reverts;
        stats.first_touch_grants += first.first_touch_grants;

        if (first.replay_hash != again.replay_hash) {
            ++stats.replay_mismatches;
            print_repro(scenario, seed, options,
                        "same seed produced different replay hashes");
        }
        const bool clean = first.report.ok();
        if (clean == scenario.expect_violation) {
            ++stats.violations;
            print_repro(scenario, seed, options,
                        scenario.expect_violation
                            ? "injected fault went undetected"
                            : "invariant violations");
            if (!clean) {
                std::fprintf(stderr, "%s", first.report.to_string().c_str());
            }
        }
        if (scenario.content_deterministic && !scenario.expect_violation) {
            if (!have_reference) {
                have_reference = true;
                reference_content = first.content_hash;
                reference_seed = seed;
            } else if (first.content_hash != reference_content) {
                ++stats.content_mismatches;
                std::fprintf(stderr,
                             "rko_explore: content hash differs from seed %llu's\n",
                             static_cast<unsigned long long>(reference_seed));
                print_repro(scenario, seed, options, "schedule leaked into results");
            }
        }
        if (options.verbose) {
            std::printf("  %s seed=%llu content=%016llx replay=%016llx "
                        "vtime=%lld msgs=%llu violations=%zu\n",
                        scenario.name, static_cast<unsigned long long>(seed),
                        static_cast<unsigned long long>(first.content_hash),
                        static_cast<unsigned long long>(first.replay_hash),
                        static_cast<long long>(first.vtime),
                        static_cast<unsigned long long>(first.messages),
                        first.report.violations().size());
        }
    }
    g_abort_context_len = 0;
    return stats;
}

} // namespace rko::check
