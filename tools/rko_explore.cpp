// rko_explore: seeded schedule-exploration race detector.
//
// Replays the rko/check scenario library across many seeds. Each seed
// permutes same-timestamp event dispatch and jitters fabric delivery, runs
// twice (bit-reproducibility), audits the drained machine with every
// cross-kernel invariant, and compares final-state hashes. Any failure
// prints the seed and an exact repro command; exit status 1.
//
//   rko_explore                          # all scenarios, 200 seeds each
//   rko_explore --scenario futex_ping --seeds 500
//   rko_explore --scenario migration_storm --seeds 1 --first-seed 137 -v
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "rko/check/explore.hpp"
#include "rko/check/gate.hpp"
#include "rko/race/race.hpp"

namespace {

void usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--scenario NAME|all] [--seeds N] [--first-seed S]\n"
        "          [--jitter NS] [--no-shuffle] [--race] [--verbose|-v]\n"
        "          [--list]\n"
        "  --race  arm the rko/race dynamic detector (lockset, lock order,\n"
        "          await atomicity); findings surface through the sweep's\n"
        "          invariant reports\n",
        argv0);
}

void list_scenarios() {
    std::printf("scenarios:\n");
    for (const auto& s : rko::check::scenarios()) {
        std::printf("  %-24s %s%s\n", s.name, s.description,
                    s.expect_violation ? " [fault injection]" : "");
    }
}

} // namespace

int main(int argc, char** argv) {
    std::string scenario_name = "all";
    rko::check::SweepOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--scenario" && has_value) {
            scenario_name = argv[++i];
        } else if (arg == "--seeds" && has_value) {
            options.seeds = std::atoi(argv[++i]);
        } else if (arg == "--first-seed" && has_value) {
            options.first_seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--jitter" && has_value) {
            options.delivery_jitter = std::strtoll(argv[++i], nullptr, 10);
        } else if (arg == "--no-shuffle") {
            options.shuffle_ties = false;
        } else if (arg == "--race") {
            rko::race::set_enabled(true);
        } else if (arg == "--verbose" || arg == "-v") {
            options.verbose = true;
        } else if (arg == "--list") {
            list_scenarios();
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            list_scenarios();
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (options.seeds <= 0) {
        std::fprintf(stderr, "--seeds must be positive\n");
        return 2;
    }

    // Exploration wants every gated inline protocol check armed, whatever
    // the environment says (RKO_CHECK only sets the default elsewhere).
    rko::check::set_enabled(true);

    bool all_ok = true;
    int total_runs = 0;
    long long total_sim_ns = 0;
    for (const auto& s : rko::check::scenarios()) {
        if (scenario_name != "all" && scenario_name != s.name) continue;
        total_runs += options.seeds;
        const rko::check::SweepStats stats = rko::check::sweep(s, options);
        total_sim_ns += static_cast<long long>(stats.sim_time);
        std::printf("%-24s seeds=%d sim_time=%.3fms violations=%d "
                    "replay_mismatches=%d content_mismatches=%d %s\n",
                    s.name, stats.runs,
                    static_cast<double>(stats.sim_time) / 1e6, stats.violations,
                    stats.replay_mismatches, stats.content_mismatches,
                    stats.ok() ? "OK" : "FAIL");
        if (stats.migratory_grants != 0 || stats.migratory_reverts != 0) {
            std::printf("%-24s migratory grants/run=%.2f reverts/run=%.2f "
                        "forwarded/run=%.2f\n",
                        "", static_cast<double>(stats.migratory_grants) / stats.runs,
                        static_cast<double>(stats.migratory_reverts) / stats.runs,
                        static_cast<double>(stats.migratory_forwarded) / stats.runs);
        }
        if (stats.first_touch_grants != 0) {
            std::printf("%-24s first-touch grants/run=%.2f\n", "",
                        static_cast<double>(stats.first_touch_grants) / stats.runs);
        }
        if (stats.tenure_deferred != 0) {
            std::printf("%-24s tenure deferrals/run=%.2f\n", "",
                        static_cast<double>(stats.tenure_deferred) / stats.runs);
        }
        std::fflush(stdout);
        all_ok = all_ok && stats.ok();
    }
    if (total_runs == 0) {
        std::fprintf(stderr, "no scenario named '%s'\n", scenario_name.c_str());
        list_scenarios();
        return 2;
    }
    std::printf("rko_explore: %s (%d seed-runs x2 replays, %.3fms simulated)\n",
                all_ok ? "all clear" : "FAILURES ABOVE", total_runs,
                static_cast<double>(total_sim_ns) / 1e6);
    return all_ok ? 0 : 1;
}
