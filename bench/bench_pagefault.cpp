// E4 — Address-space consistency microbenchmarks.
//
// The cost of each page-ownership protocol action, the heart of the
// paper's address-space consistency mechanism:
//   (a) fault-type latencies: local demand-zero, remote read (replicate),
//       remote write (invalidate + ownership move), write upgrade,
//   (b) invalidation fan-out: write fault vs. number of sharing kernels,
//   (c) false-sharing ping-pong: two kernels alternately writing one page,
//   (d) protocol ablation: MSI-with-replication vs. migrate-on-any-fault
//       (no Shared state) on a read-mostly workload,
//   (e) page-migration throughput vs. working-set size (streaming a
//       region's ownership from one kernel to another).
#include <vector>

#include "harness.hpp"
#include "report.hpp"
#include "rko/api/machine.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/smp/smp.hpp"

namespace {

using namespace rko;
using namespace rko::time_literals;
using api::Guest;
using api::Machine;
using api::Thread;
using bench::fmt;
using bench::fmt_ns;
using bench::Table;
using mem::kPageSize;
using mem::Vaddr;

/// Measures one guest operation with exact timing.
template <typename Fn>
Nanos timed(Guest& g, Fn&& fn) {
    g.flush_timing();
    const Nanos t0 = g.now();
    fn();
    g.flush_timing();
    return g.now() - t0;
}

} // namespace

int main(int argc, char** argv) {
    const bench::Args args(argc, argv);
    bench::Reporter report(args, "bench_pagefault");
    const int reps = args.quick() ? 16 : 128;

    std::printf("E4: page-fault / consistency-protocol microbenchmarks\n");

    bench::section("(a) fault-type latency (4 kernels, origin = k0)");
    {
        Machine machine(smp::popcorn_config(8, 4));
        auto& process = machine.create_process(0);
        base::Summary zero_local, zero_remote, read_remote, write_steal, upgrade;
        Vaddr region = 0;
        auto& origin_thread = process.spawn(
            [&](Guest& g) {
                region = g.mmap(static_cast<std::uint64_t>(reps) * 8 * kPageSize);
                // (1) local demand-zero faults at the origin.
                for (int i = 0; i < reps; ++i) {
                    const Vaddr page = region + static_cast<Vaddr>(i) * kPageSize;
                    zero_local.add(static_cast<double>(
                        timed(g, [&] { g.write<int>(page, i); })));
                }
            },
            0);
        process.spawn(
            [&](Guest& g) {
                g.join(origin_thread);
                const Vaddr base1 = region + static_cast<Vaddr>(reps) * kPageSize;
                // (2) remote demand-zero (first touch from a replica kernel).
                for (int i = 0; i < reps; ++i) {
                    const Vaddr page = base1 + static_cast<Vaddr>(i) * kPageSize;
                    zero_remote.add(static_cast<double>(
                        timed(g, [&] { g.write<int>(page, i); })));
                }
                // (3) remote read fault: replicate pages the origin owns.
                for (int i = 0; i < reps; ++i) {
                    const Vaddr page = region + static_cast<Vaddr>(i) * kPageSize;
                    read_remote.add(static_cast<double>(
                        timed(g, [&] { (void)g.read<int>(page); })));
                }
                // (4) write upgrade: we are a sharer, take exclusivity
                //     (invalidates the origin's copy).
                for (int i = 0; i < reps; ++i) {
                    const Vaddr page = region + static_cast<Vaddr>(i) * kPageSize;
                    upgrade.add(static_cast<double>(
                        timed(g, [&] { g.write<int>(page, i + 1); })));
                }
            },
            1);
        machine.run();
        process.check_all_joined();

        // (5) write-steal measured on a fresh machine: k1 owns, k2 writes.
        Machine machine2(smp::popcorn_config(8, 4));
        auto& p2 = machine2.create_process(0);
        Vaddr region2 = 0;
        auto& owner = p2.spawn(
            [&](Guest& g) {
                region2 = g.mmap(static_cast<std::uint64_t>(reps) * kPageSize);
                for (int i = 0; i < reps; ++i) {
                    g.write<int>(region2 + static_cast<Vaddr>(i) * kPageSize, i);
                }
            },
            1);
        p2.spawn(
            [&](Guest& g) {
                g.join(owner);
                for (int i = 0; i < reps; ++i) {
                    const Vaddr page = region2 + static_cast<Vaddr>(i) * kPageSize;
                    write_steal.add(static_cast<double>(
                        timed(g, [&] { g.write<int>(page, i + 7); })));
                }
            },
            2);
        machine2.run();
        p2.check_all_joined();

        Table table({"fault type", "mean", "max"});
        const auto row = [&](const char* name, const char* key,
                             const base::Summary& s) {
            table.add_row({name, fmt_ns((Nanos)s.mean()), fmt_ns((Nanos)s.max())});
            report.add_summary(std::string("fault.") + key, s);
        };
        row("local demand-zero (origin)", "zero_local_ns", zero_local);
        row("remote demand-zero (1 RPC)", "zero_remote_ns", zero_remote);
        row("remote read, origin owns (replicate)", "read_remote_ns", read_remote);
        row("remote write, remote owner (steal via origin)", "write_steal_ns",
            write_steal);
        row("write upgrade, was sharer (invalidate peers)", "upgrade_ns", upgrade);
        table.print();
        report.merge(machine.collect_metrics());
    }

    bench::section("(b) write-fault latency vs invalidation fan-out");
    {
        Table table({"sharers", "write-fault latency"});
        for (const int sharers : {1, 2, 3, 4, 5, 7}) {
            const int nk = sharers + 1;
            if (nk > 8) break;
            Machine machine(smp::popcorn_config(std::max(8, nk * 2), nk));
            auto& process = machine.create_process(0);
            Vaddr page_region = 0;
            base::Summary latency;
            auto& init = process.spawn(
                [&](Guest& g) {
                    page_region = g.mmap(static_cast<std::uint64_t>(reps) * kPageSize);
                    for (int i = 0; i < reps; ++i) {
                        g.write<int>(page_region + static_cast<Vaddr>(i) * kPageSize, i);
                    }
                },
                0);
            // `sharers` kernels replicate every page (read faults).
            std::vector<Thread*> readers;
            Vaddr gate = 0;
            auto& gatekeeper = process.spawn([&](Guest& g) { gate = g.mmap(kPageSize); }, 0);
            for (int s = 1; s < nk; ++s) {
                readers.push_back(&process.spawn(
                    [&](Guest& g) {
                        g.join(init);
                        g.join(gatekeeper);
                        std::uint64_t sum = 0;
                        for (int i = 0; i < reps; ++i) {
                            sum += static_cast<std::uint64_t>(g.read<int>(
                                page_region + static_cast<Vaddr>(i) * kPageSize));
                        }
                        g.rmw_u32(gate, [](std::uint32_t v) { return v + 1; });
                        g.futex_wake(gate, 64);
                    },
                    static_cast<topo::KernelId>(s)));
            }
            // Writer at the origin invalidates all sharers per page.
            process.spawn(
                [&, sharers](Guest& g) {
                    g.join(init);
                    g.join(gatekeeper);
                    while (g.read<std::uint32_t>(gate) !=
                           static_cast<std::uint32_t>(sharers)) {
                        g.futex_wait(gate, g.read<std::uint32_t>(gate));
                    }
                    for (int i = 0; i < reps; ++i) {
                        const Vaddr page =
                            page_region + static_cast<Vaddr>(i) * kPageSize;
                        latency.add(static_cast<double>(
                            timed(g, [&] { g.write<int>(page, -i); })));
                    }
                },
                0);
            machine.run();
            process.check_all_joined();
            table.add_row({fmt("%d", sharers), fmt_ns((Nanos)latency.mean())});
            report.add_gauge(fmt("fanout.%d.write_fault_ns", sharers), latency.mean());
        }
        table.print();
        std::printf("\nEvery victim's invalidation is posted in one scatter "
                    "batch and the fabric works them concurrently, so the "
                    "fan-out bill is one round trip to the slowest victim — "
                    "near-flat in the sharer count.\n");
    }

    bench::section("(c) false-sharing ping-pong (2 kernels, one page)");
    {
        Machine machine(smp::popcorn_config(4, 2));
        auto& process = machine.create_process(0);
        Vaddr page = 0;
        const int rounds = reps * 4;
        Nanos elapsed = 0;
        auto& a = process.spawn(
            [&](Guest& g) {
                page = g.mmap(kPageSize);
                const Nanos t0 = g.now();
                for (int i = 0; i < rounds; ++i) {
                    // Wait for my turn (even), then write.
                    while ((g.read<std::uint32_t>(page) & 1) != 0) g.yield();
                    g.rmw_u32(page, [](std::uint32_t v) { return v + 1; });
                }
                g.flush_timing();
                elapsed = g.now() - t0;
            },
            0);
        process.spawn(
            [&](Guest& g) {
                while (page == 0) g.yield();
                for (int i = 0; i < rounds; ++i) {
                    while ((g.read<std::uint32_t>(page) & 1) == 0) g.yield();
                    g.rmw_u32(page, [](std::uint32_t v) { return v + 1; });
                }
                g.join(a);
            },
            1);
        machine.run();
        process.check_all_joined();
        std::printf("rounds=%d total=%s per-handoff=%s\n", rounds,
                    fmt_ns(elapsed).c_str(), fmt_ns(elapsed / (2 * rounds)).c_str());
        report.add_gauge("falseshare.handoff_ns",
                         static_cast<double>(elapsed / (2 * rounds)));
        std::printf("(the worst case the paper tells programmers to avoid: once "
                    "the page turns migratory each handoff is one ownership "
                    "transfer, not read-replicate + write-invalidate)\n");
    }

    bench::section("(d) protocol ablation: reader replication vs migrate-on-fault");
    {
        // Read-mostly sharing is where the Shared state earns its keep: N
        // kernels repeatedly read pages one kernel wrote. With replication
        // each kernel faults once per page; without it (no Shared state)
        // every read steals exclusive ownership and the pages thrash.
        auto read_mostly = [&](bool replicate) {
            auto config = smp::popcorn_config(8, 4);
            config.read_replication = replicate;
            Machine machine(config);
            auto& process = machine.create_process(0);
            Vaddr data = 0;
            constexpr int kPages = 16;
            constexpr int kSweeps = 8;
            auto& writer = process.spawn(
                [&](Guest& g) {
                    data = g.mmap(kPages * kPageSize);
                    for (int p = 0; p < kPages; ++p) {
                        g.write<std::uint64_t>(data + static_cast<Vaddr>(p) * kPageSize,
                                               static_cast<std::uint64_t>(p));
                    }
                },
                0);
            Nanos slowest = 0;
            for (int r = 1; r < 4; ++r) {
                process.spawn(
                    [&](Guest& g) {
                        g.join(writer);
                        const Nanos t0 = g.now();
                        std::uint64_t sum = 0;
                        for (int sweep = 0; sweep < kSweeps; ++sweep) {
                            for (int p = 0; p < kPages; ++p) {
                                sum += g.read<std::uint64_t>(
                                    data + static_cast<Vaddr>(p) * kPageSize);
                            }
                        }
                        g.flush_timing();
                        slowest = std::max(slowest, g.now() - t0);
                        RKO_ASSERT(sum == kSweeps * (kPages * (kPages - 1) / 2));
                    },
                    static_cast<topo::KernelId>(r));
            }
            machine.run();
            process.check_all_joined();
            return slowest;
        };
        Table table({"workload", "MSI + replication", "migrate-on-fault", "ratio"});
        const Nanos msi = read_mostly(true);
        const Nanos mof = read_mostly(false);
        table.add_row({"read-mostly, 3 reader kernels", fmt_ns(msi), fmt_ns(mof),
                       fmt("%.1fx", static_cast<double>(mof) / static_cast<double>(msi))});
        report.add_gauge("ablation.msi_ns", static_cast<double>(msi));
        report.add_gauge("ablation.migrate_on_fault_ns", static_cast<double>(mof));
        table.print();
        std::printf("\nWithout a Shared state every read steals ownership, so "
                    "concurrent readers thrash pages that replication would "
                    "let them all hold.\n");
    }

    bench::section("(e) ownership-streaming throughput vs working set");
    {
        // Each working-set size runs twice: plain demand faulting, then with
        // fault-around prefetch (window 8). The streaming reader's +1-page
        // stride is detected after 3 faults; from then on every round trip
        // moves up to 8 pages. Two placements around the home (kernel 0,
        // the origin, which maps the region):
        //   remote — written on kernel 0, read on kernel 1: one windowed
        //            kPageFault reply + up to 7 pushes per window;
        //   home   — written on kernel 1, read on kernel 0: the home fetches
        //            up to 7 pages per window in one kPageFetch scatter.
        struct StreamStats {
            Nanos move_time = 0;
            std::uint64_t issued = 0, hit = 0, wasted = 0;
        };
        auto stream_once = [&](int pages, int window, bool home_reader) {
            auto config = smp::popcorn_config(4, 2);
            config.prefetch_window = window;
            Machine machine(config);
            auto& process = machine.create_process(0);
            StreamStats stats;
            const topo::KernelId writer = home_reader ? 1 : 0;
            // Simplification: every thread recomputes the deterministic
            // mmap base instead of passing it through guest memory.
            const Vaddr buf = mem::kMmapBase;
            auto fill = [buf, pages](Guest& g) {
                for (int i = 0; i < pages; ++i) {
                    g.write<std::uint64_t>(buf + static_cast<Vaddr>(i) * kPageSize,
                                           static_cast<std::uint64_t>(i));
                }
                g.write<Vaddr>(buf, buf); // self-reference marks readiness
            };
            Thread& mapper = process.spawn(
                [&, pages](Guest& g) {
                    g.mmap(static_cast<std::uint64_t>(pages) * kPageSize);
                    if (writer == 0) fill(g);
                },
                0);
            Thread& filled = writer == 0 ? mapper
                                         : process.spawn(
                                               [&](Guest& g) {
                                                   g.join(mapper);
                                                   fill(g);
                                               },
                                               writer);
            process.spawn(
                [&, pages](Guest& g) {
                    g.join(filled);
                    stats.move_time = timed(g, [&] {
                        std::uint64_t sum = 0;
                        for (int i = 0; i < pages; ++i) {
                            sum += g.read<std::uint64_t>(
                                buf + static_cast<Vaddr>(i) * kPageSize);
                        }
                        (void)sum;
                    });
                },
                home_reader ? 0 : 1);
            machine.run();
            process.check_all_joined();
            for (topo::KernelId k = 0; k < machine.nkernels(); ++k) {
                stats.issued += machine.kernel(k).pages().prefetch_issued();
                stats.hit += machine.kernel(k).pages().prefetch_hit();
                stats.wasted += machine.kernel(k).pages().prefetch_wasted();
            }
            return stats;
        };
        Table table({"reader", "working set", "demand move", "prefetch move", "speedup",
                     "MB/s (pf)"});
        for (const bool home_reader : {false, true}) {
            const char* prefix = home_reader ? "stream.home" : "stream";
            for (const int pages : {16, 64, 256, 1024}) {
                const StreamStats demand = stream_once(pages, 1, home_reader);
                const StreamStats pf = stream_once(pages, 8, home_reader);
                const double mb = static_cast<double>(pages) * kPageSize / 1e6;
                table.add_row(
                    {home_reader ? "home" : "remote", fmt("%d pages", pages),
                     fmt_ns(demand.move_time), fmt_ns(pf.move_time),
                     fmt("%.2fx", static_cast<double>(demand.move_time) /
                                      static_cast<double>(pf.move_time)),
                     fmt("%.1f", mb / (static_cast<double>(pf.move_time) / 1e9))});
                report.add_gauge(fmt("%s.%d.move_ns", prefix, pages),
                                 static_cast<double>(demand.move_time));
                report.add_gauge(fmt("%s.%d.prefetch_move_ns", prefix, pages),
                                 static_cast<double>(pf.move_time));
                report.add_gauge(fmt("%s.%d.prefetch_issued", prefix, pages),
                                 static_cast<double>(pf.issued));
                report.add_gauge(fmt("%s.%d.prefetch_hit", prefix, pages),
                                 static_cast<double>(pf.hit));
                if (!home_reader) {
                    report.add_gauge(fmt("%s.%d.prefetch_wasted", prefix, pages),
                                     static_cast<double>(pf.wasted));
                }
            }
        }
        table.print();
        std::printf("\nWith the window off the reader pays one home round "
                    "trip per page; with fault-around on, batched replies, "
                    "pushed pages or the home's scattered fetches amortize "
                    "that trip across the window.\n");

        // home_spread: kernels 1, 2 and 3 write 32-page blocks in turn and
        // the home (kernel 0) streams them back, so its windows and
        // read-aheads past 32 pages fetch from several holders at once.
        auto spread_once = [&](int pages) {
            auto config = smp::popcorn_config(8, 4);
            config.prefetch_window = 8;
            Machine machine(config);
            auto& process = machine.create_process(0);
            const Vaddr buf = mem::kMmapBase;
            Thread& mapper = process.spawn(
                [pages](Guest& g) { g.mmap(static_cast<std::uint64_t>(pages) * kPageSize); },
                0);
            std::vector<Thread*> writers;
            for (topo::KernelId k = 1; k <= 3; ++k) {
                writers.push_back(&process.spawn(
                    [&, k, pages](Guest& g) {
                        g.join(mapper);
                        for (int i = 0; i < pages; ++i) {
                            if (1 + (i / 32) % 3 != k) continue;
                            g.write<std::uint64_t>(buf + static_cast<Vaddr>(i) * kPageSize,
                                                   static_cast<std::uint64_t>(i));
                        }
                    },
                    k));
            }
            Nanos move = 0;
            process.spawn(
                [&, pages](Guest& g) {
                    for (Thread* w : writers) g.join(*w);
                    move = timed(g, [&] {
                        for (int i = 0; i < pages; ++i) {
                            (void)g.read<std::uint64_t>(buf +
                                                        static_cast<Vaddr>(i) * kPageSize);
                        }
                    });
                },
                0);
            machine.run();
            process.check_all_joined();
            return move;
        };
        Table spread({"working set", "prefetch move", "MB/s"});
        for (const int pages : {64, 256, 1024}) {
            const Nanos move = spread_once(pages);
            const double mb = static_cast<double>(pages) * kPageSize / 1e6;
            spread.add_row({fmt("%d pages", pages), fmt_ns(move),
                            fmt("%.1f", mb / (static_cast<double>(move) / 1e9))});
            report.add_gauge(fmt("stream.home_spread.%d.prefetch_move_ns", pages),
                             static_cast<double>(move));
        }
        std::printf("\nHome reader, 32-page blocks written by kernels 1-3 in turn "
                    "(window 8):\n");
        spread.print();
    }

    bench::section("(f) sharded homes: fault throughput vs kernel count");
    {
        // The origin-bottleneck curve (DESIGN.md §14). One thread per
        // kernel write-faults its own stride of a shared region, so every
        // fault is a directory transaction: with home_shards == 1 they ALL
        // serialize at the origin's dispatcher; with per-page homes
        // (4 shards per kernel) they resolve in parallel across the
        // machine. Same total fault count either way — the delta is pure
        // directory-serialization time.
        //
        // Setup (the mmap) completes in a first run() and the writers do
        // NOT join an init thread: a join would make every thread bounce
        // the one page holding the join word through its home, and that
        // serial handoff convoy — startup synchronization, not fault
        // throughput — would dominate the measured window.
        const int pages_per_kernel = args.quick() ? 12 : 32;
        struct HomesRun {
            Nanos elapsed = 0;
            double origin_share = 0; // of home.msgs_per_kernel.*
            std::uint64_t messages = 0;
        };
        auto storm = [&](int nk, int shards) {
            auto config = smp::popcorn_config(nk, nk);
            config.home_shards = shards;
            Machine machine(config);
            auto& process = machine.create_process(0);
            Vaddr region = 0;
            process.spawn(
                [&](Guest& g) {
                    region = g.mmap(static_cast<std::uint64_t>(nk) *
                                    pages_per_kernel * kPageSize);
                },
                0);
            machine.run();
            const Nanos storm_start = machine.now();
            for (int k = 0; k < nk; ++k) {
                process.spawn(
                    [&, k](Guest& g) {
                        const Vaddr mine =
                            region + static_cast<Vaddr>(k) *
                                         pages_per_kernel * kPageSize;
                        for (int p = 0; p < pages_per_kernel; ++p) {
                            g.write<std::uint64_t>(
                                mine + static_cast<Vaddr>(p) * kPageSize,
                                static_cast<std::uint64_t>(p));
                        }
                    },
                    static_cast<topo::KernelId>(k));
            }
            machine.run();
            HomesRun run;
            run.elapsed = machine.now() - storm_start;
            process.check_all_joined();
            run.messages = machine.total_messages();
            auto metrics = machine.collect_metrics();
            double total = 0, origin = 0;
            for (int k = 0; k < nk; ++k) {
                const trace::Gauge* g = metrics.find_gauge(
                    "home.msgs_per_kernel.k" + std::to_string(k));
                const double v = g == nullptr ? 0 : g->value;
                total += v;
                if (k == 0) origin = v;
            }
            run.origin_share = total > 0 ? origin / total : 0;
            return run;
        };
        Table table({"kernels", "shards=1", "sharded", "speedup",
                     "origin share", "msgs"});
        for (const int nk : {4, 8, 16, 32, 64}) {
            if (args.quick() && nk > 16) continue;
            const HomesRun one = storm(nk, 1);
            const HomesRun many = storm(nk, 4 * nk);
            table.add_row(
                {fmt("%d", nk), fmt_ns(one.elapsed), fmt_ns(many.elapsed),
                 fmt("%.2fx", static_cast<double>(one.elapsed) /
                                  static_cast<double>(many.elapsed)),
                 fmt("%.0f%% -> %.0f%%", 100 * one.origin_share,
                     100 * many.origin_share),
                 fmt("%llu -> %llu",
                     static_cast<unsigned long long>(one.messages),
                     static_cast<unsigned long long>(many.messages))});
            report.add_gauge(fmt("homes.%d.unsharded_ns", nk),
                             static_cast<double>(one.elapsed));
            report.add_gauge(fmt("homes.%d.sharded_ns", nk),
                             static_cast<double>(many.elapsed));
            report.add_gauge(fmt("homes.%d.origin_share_sharded", nk),
                             many.origin_share);
        }
        table.print();
        std::printf("\nExpected: unsharded fault time grows with kernel count "
                    "(every transaction queues at the origin) while sharded "
                    "homes hold it near-flat, with the origin's share of "
                    "directory messages dropping to ~1/kernels.\n");
    }
    return 0;
}
