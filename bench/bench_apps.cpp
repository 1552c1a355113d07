// E7 — Application benchmarks: Popcorn vs. SMP vs. multikernel.
//
// The abstract's bottom line: "Popcorn is shown to be competitive to SMP
// Linux, and up to 40% faster." Three workloads against the same cost
// model and core counts:
//   IS      — communication-heavy bucket sort (shared scatter phase),
//   CG      — read-mostly stencil with boundary exchange,
//   churn   — kernel-intensive consolidated service (the case where shared
//             kernel data structures hurt SMP and Popcorn wins big).
// The multikernel column runs only the churn service (shared-nothing by
// construction); IS/CG need a shared address space, which a pure
// multikernel does not offer — that programmability gap is the paper's
// motivation.
#include "apps.hpp"
#include "harness.hpp"
#include "report.hpp"
#include "rko/mk/multikernel.hpp"

namespace {

using namespace rko;
using namespace rko::time_literals;
using api::Machine;
using bench::fmt;
using bench::fmt_ns;
using bench::Table;

/// Churn on a shared-nothing multikernel: one single-threaded domain
/// (process pinned to its kernel) per worker — Barrelfish-style dispatch.
/// Mechanically this coincides with Popcorn's behaviour for this workload,
/// which is the abstract's point: "a replicated-kernel OS scales as well
/// as a multikernel OS". The difference is what else each can run: the
/// multikernel cannot host IS/CG's shared address space at all.
Nanos churn_multikernel(int ncores, int nkernels, const apps::ChurnConfig& config) {
    auto machine_config = smp::popcorn_config(ncores, nkernels);
    // A multikernel domain's state lives on its own kernel: pinned, so the
    // baseline never follows RKO_HOME_SHARDS into Popcorn's sharded homes.
    machine_config.home_shards = 1;
    Machine machine(machine_config);
    std::vector<api::Process*> domains;
    for (int w = 0; w < config.nworkers; ++w) {
        const auto kid = apps::place(w, nkernels);
        auto& domain = machine.create_process(kid);
        domains.push_back(&domain);
        domain.spawn(
            [config](api::Guest& g) {
                const mem::Vaddr word = g.mmap(mem::kPageSize);
                for (int n = 0; n < config.iterations; ++n) {
                    const mem::Vaddr buf =
                        g.mmap(static_cast<std::uint64_t>(config.pages_per_op) *
                               mem::kPageSize);
                    RKO_ASSERT(buf != 0);
                    for (int p = 0; p < config.pages_per_op; ++p) {
                        g.write<std::uint64_t>(buf + static_cast<mem::Vaddr>(p) *
                                                         mem::kPageSize,
                                               static_cast<std::uint64_t>(n));
                    }
                    RKO_ASSERT(g.munmap(buf, static_cast<std::uint64_t>(
                                                 config.pages_per_op) *
                                                 mem::kPageSize) == 0);
                    g.futex_wake(word, 1);
                    g.compute(5000);
                }
            },
            kid);
    }
    const Nanos makespan = machine.run();
    for (auto* domain : domains) domain->check_all_joined();
    return makespan;
}

int kernels_for(int cores) { return std::max(1, cores / 4); }

} // namespace

int main(int argc, char** argv) {
    const bench::Args args(argc, argv);
    bench::Reporter report(args, "bench_apps");
    const bool quick = args.quick();
    // --seed (default 1) draws IS's keys and seeds each IS machine.
    const std::uint64_t seed = args.seed();
    const auto seeded = [seed](api::MachineConfig config) {
        config.seed = seed;
        return config;
    };

    std::printf("E7: application benchmarks (virtual time; lower is better)\n");

    bench::section("IS — integer sort (one process, threads spread)");
    {
        Table table({"cores", "SMP", "Popcorn", "Popcorn/SMP"});
        for (const int cores : {4, 8, 16, 32}) {
            apps::IsConfig config;
            config.nthreads = cores;
            config.nkeys = quick ? 1u << 14 : 1u << 16;
            config.seed = seed;
            Machine smp_machine(seeded(smp::smp_config(cores)));
            const Nanos smp_time = apps::is_sort(smp_machine, config);
            Machine pop_machine(seeded(smp::popcorn_config(cores, kernels_for(cores))));
            const Nanos pop_time = apps::is_sort(pop_machine, config);
            table.add_row({fmt("%d", cores), fmt_ns(smp_time), fmt_ns(pop_time),
                           fmt("%.2f", static_cast<double>(pop_time) /
                                           static_cast<double>(smp_time))});
            report.add_gauge(fmt("is.%d.smp_ns", cores),
                             static_cast<double>(smp_time));
            report.add_gauge(fmt("is.%d.popcorn_ns", cores),
                             static_cast<double>(pop_time));
        }
        table.print();
    }

    bench::section("CG — stencil sweep (read-mostly sharing)");
    {
        Table table({"cores", "SMP", "Popcorn", "Popcorn/SMP"});
        for (const int cores : {4, 8, 16, 32}) {
            apps::CgConfig config;
            config.nthreads = cores;
            config.n = quick ? 1u << 13 : 1u << 15;
            config.iterations = quick ? 4 : 8;
            Machine smp_machine(smp::smp_config(cores));
            const Nanos smp_time = apps::cg_sweep(smp_machine, config);
            Machine pop_machine(smp::popcorn_config(cores, kernels_for(cores)));
            const Nanos pop_time = apps::cg_sweep(pop_machine, config);
            table.add_row({fmt("%d", cores), fmt_ns(smp_time), fmt_ns(pop_time),
                           fmt("%.2f", static_cast<double>(pop_time) /
                                           static_cast<double>(smp_time))});
            report.add_gauge(fmt("cg.%d.smp_ns", cores),
                             static_cast<double>(smp_time));
            report.add_gauge(fmt("cg.%d.popcorn_ns", cores),
                             static_cast<double>(pop_time));
        }
        table.print();
    }

    bench::section("churn — kernel-intensive consolidated service");
    {
        Table table({"cores", "SMP", "Popcorn", "multikernel", "SMP/Popcorn"});
        for (const int cores : {4, 8, 16, 32}) {
            apps::ChurnConfig config;
            config.nworkers = cores;
            config.iterations = quick ? 15 : 40;
            Machine smp_machine(smp::smp_config(cores));
            const Nanos smp_time = apps::churn(smp_machine, config);
            Machine pop_machine(smp::popcorn_config(cores, kernels_for(cores)));
            const Nanos pop_time = apps::churn(pop_machine, config);
            const Nanos mk_time = churn_multikernel(cores, kernels_for(cores), config);
            table.add_row({fmt("%d", cores), fmt_ns(smp_time), fmt_ns(pop_time),
                           fmt_ns(mk_time),
                           fmt("%.2fx", static_cast<double>(smp_time) /
                                            static_cast<double>(pop_time))});
            report.add_gauge(fmt("churn.%d.smp_ns", cores),
                             static_cast<double>(smp_time));
            report.add_gauge(fmt("churn.%d.popcorn_ns", cores),
                             static_cast<double>(pop_time));
            report.add_gauge(fmt("churn.%d.multikernel_ns", cores),
                             static_cast<double>(mk_time));
        }
        table.print();
        std::printf("\nExpected: compute/memory-bound apps within ~10%% of SMP "
                    "(competitive); the kernel-intensive service 1.4x+ faster "
                    "on Popcorn at high core counts (the abstract's 'up to "
                    "40%%'); the multikernel matches Popcorn (both shared-"
                    "nothing here) but cannot run IS/CG at all.\n");
    }
    return 0;
}
