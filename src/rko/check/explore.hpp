// Schedule-exploration race detector (rko_explore).
//
// Each Scenario is a small distributed workload chosen to stress one
// protocol's race surface: thread migration vs. page faults, munmap vs.
// remote faults, futex wake vs. timeout cancellation, mprotect write-bit
// demotion vs. concurrent writers. A sweep replays a scenario across many
// seeds; each seed permutes same-timestamp event dispatch (sim::Engine tie
// shuffle) and adds seeded fabric delivery jitter, then audits the final
// state with the cross-kernel invariant registry and compares state hashes.
// Any failure prints the offending seed and an exact repro command — the
// run is bit-reproducible for a given seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rko/base/units.hpp"
#include "rko/check/invariants.hpp"

namespace rko::check {

/// Knobs for one scenario execution. Everything that can perturb the
/// schedule is derived from `seed`, so (seed, jitter, shuffle) identifies a
/// run exactly.
struct ExploreConfig {
    std::uint64_t seed = 1;
    Nanos delivery_jitter = 2'000; ///< max extra ns per fabric message
    bool shuffle_ties = true;      ///< permute same-timestamp dispatch
};

struct ScenarioResult {
    /// Guest-visible final state: every directory-backed page's bytes
    /// (an all-zero page counts as absent) plus each thread's exit status.
    /// Equal across seeds for scenarios marked content_deterministic.
    std::uint64_t content_hash = 0;
    /// content_hash folded with virtual time and message totals. Equal
    /// across two runs of the *same* seed (bit-reproducibility), not
    /// across seeds.
    std::uint64_t replay_hash = 0;
    Nanos vtime = 0;
    std::uint64_t messages = 0;
    /// Machine-wide pages.migratory.{grants,reverts,forwarded}: how often
    /// the migratory-page paths (DESIGN.md §17) ran.
    std::uint64_t migratory_grants = 0;
    std::uint64_t migratory_reverts = 0;
    std::uint64_t migratory_forwarded = 0;
    /// Machine-wide pages.first_touch.grants: pages granted as zero-fill
    /// in first-touch runs (DESIGN.md §10).
    std::uint64_t first_touch_grants = 0;
    /// Machine-wide pages.tenure.deferred: remote write transactions that
    /// waited out a home thread's tenure (DESIGN.md §17).
    std::uint64_t tenure_deferred = 0;
    Report report; ///< invariant audit of the drained machine
};

struct Scenario {
    const char* name;
    const char* description;
    /// True when the workload's final memory/exit state is independent of
    /// scheduling, so content_hash must match across every seed.
    bool content_deterministic;
    /// Fault-injection demo: the invariant audit is *expected* to find
    /// violations; a clean report is the failure.
    bool expect_violation;
    ScenarioResult (*run)(const ExploreConfig&);
};

/// All registered scenarios (stable order).
const std::vector<Scenario>& scenarios();
const Scenario* find_scenario(const std::string& name);

struct SweepOptions {
    int seeds = 200;
    std::uint64_t first_seed = 1;
    Nanos delivery_jitter = 2'000;
    bool shuffle_ties = true;
    bool verbose = false;
};

struct SweepStats {
    int runs = 0;               ///< seeds executed (each seed runs twice)
    int violations = 0;         ///< seeds whose invariant verdict was wrong
    int replay_mismatches = 0;  ///< same seed, different replay hash
    int content_mismatches = 0; ///< deterministic scenario, hash varies by seed
    Nanos sim_time = 0;         ///< summed virtual end time (first run per seed)
    std::uint64_t migratory_grants = 0;  ///< summed over first runs
    std::uint64_t migratory_reverts = 0; ///< summed over first runs
    std::uint64_t migratory_forwarded = 0; ///< summed over first runs
    std::uint64_t first_touch_grants = 0; ///< summed over first runs
    std::uint64_t tenure_deferred = 0; ///< summed over first runs
    bool ok() const {
        return violations == 0 && replay_mismatches == 0 && content_mismatches == 0;
    }
};

/// Runs `scenario` for seeds [first_seed, first_seed + seeds). Every seed
/// executes twice to prove bit-reproducibility. Failures (and aborts from
/// gated inline checks, via a SIGABRT hook) print the seed and a repro
/// command on stderr.
SweepStats sweep(const Scenario& scenario, const SweepOptions& options);

} // namespace rko::check
