// Machine-readable bench output.
//
// Every bench binary accepts --json=<path> and, when given, writes one JSON
// document describing its results in the rko-metrics-v1 schema:
//
//   {
//     "bench": "bench_migration",
//     "schema": "rko-metrics-v1",
//     "machines": [{"nkernels": 4, "home_shards": 1, "workset_push": 32,
//                   "prefetch_window": 8, "balance": "none", "elastic": false,
//                   "read_replication": true, "futex_hierarchy": true}, ...],
//     "metrics": {
//       "phase.checkpoint_ns": {"type": "histogram", "count": ..., "mean": ...,
//                               "min": ..., "max": ..., "p50": ..., "p90": ...,
//                               "p99": ...},
//       "msg.sent": {"type": "counter", "value": ...},
//       ...
//     }
//   }
//
// All durations are virtual-time nanoseconds (names end in _ns), except the
// two host.* gauges: what the run cost the host, in process CPU ms and peak
// resident MB. The sim.events counter measures the same host cost
// deterministically: the events every engine in the process dispatched.
// run_benches.sh collects the per-bench files into BENCH_results.json.
#pragma once

#include <sys/resource.h>

#include <cstdio>
#include <string>
#include <utility>

#include "harness.hpp"
#include "rko/api/machine.hpp"
#include "rko/sim/engine.hpp"
#include "rko/trace/json.hpp"
#include "rko/trace/metrics.hpp"

namespace rko::bench {

class Reporter {
public:
    Reporter(const Args& args, std::string bench_name)
        : bench_(std::move(bench_name)), path_(args.get_str("json", "")) {}
    Reporter(const Reporter&) = delete;
    Reporter& operator=(const Reporter&) = delete;
    ~Reporter() { write(); }

    /// False when --json was not given; adds still accumulate (cheap), the
    /// file is just never written.
    bool enabled() const { return !path_.empty(); }

    trace::MetricsRegistry& metrics() { return metrics_; }

    /// Folds a whole registry in — e.g. Machine::collect_metrics().
    void merge(const trace::MetricsRegistry& other) { metrics_.merge_from(other); }

    void add_histogram(std::string_view name, const base::Histogram& h) {
        metrics_.histogram(name).merge(h);
    }
    void add_summary(std::string_view name, const base::Summary& s) {
        metrics_.counter(std::string(name) + ".count").inc(s.count());
        metrics_.gauge(std::string(name) + ".mean").set(s.mean());
        metrics_.gauge(std::string(name) + ".min").set(s.min());
        metrics_.gauge(std::string(name) + ".max").set(s.max());
    }
    void add_counter(std::string_view name, std::uint64_t value) {
        metrics_.counter(name).inc(value);
    }
    void add_gauge(std::string_view name, double value) {
        metrics_.gauge(name).set(value);
    }

    /// Writes the JSON file (idempotent; also runs at destruction).
    void write() {
        if (written_ || path_.empty()) return;
        written_ = true;
        // Host cost of the whole process so far. Unlike every other key it
        // varies run to run; bench_compare.py's default keys skip host.*,
        // and ci.sh gates host.cpu_ms loosely (2x) on its own.
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        const auto ms = [](const timeval& tv) {
            return static_cast<double>(tv.tv_sec) * 1e3 +
                   static_cast<double>(tv.tv_usec) / 1e3;
        };
        add_gauge("host.cpu_ms", ms(usage.ru_utime) + ms(usage.ru_stime));
        add_gauge("host.peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
        // Repeats exactly for a given build and seed, so ci.sh gates it at
        // the default 10% where host.cpu_ms needs 2x.
        add_counter("sim.events", sim::Engine::process_dispatch_count());
        std::string out;
        trace::JsonWriter w(&out);
        w.begin_object();
        w.kv("bench", bench_);
        w.kv("schema", "rko-metrics-v1");
        // Run metadata: every distinct machine the bench built, with the
        // config fields that make two runs different machines. Sections
        // set some per machine (bench_pagefault (e) a prefetch window, (f)
        // a shard count), so the environment alone does not say.
        w.key("machines");
        w.begin_array();
        for (const api::ConfigStamp& c : api::Machine::process_configs()) {
            w.begin_object();
            w.kv("nkernels", c.nkernels);
            w.kv("home_shards", c.home_shards);
            w.kv("workset_push", c.workset_push);
            w.kv("prefetch_window", c.prefetch_window);
            w.kv("balance", balance::policy_name(c.balance));
            w.kv("elastic", c.elastic);
            w.kv("read_replication", c.read_replication);
            w.kv("futex_hierarchy", c.futex_hierarchy);
            w.end_object();
        }
        w.end_array();
        w.key("metrics");
        metrics_.write_json(w);
        w.end_object();
        out += '\n';
        std::FILE* f = std::fopen(path_.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "%s: cannot open --json output %s\n", bench_.c_str(),
                         path_.c_str());
            return;
        }
        std::fwrite(out.data(), 1, out.size(), f);
        std::fclose(f);
        std::printf("\n[%s] metrics JSON written to %s\n", bench_.c_str(),
                    path_.c_str());
    }

private:
    std::string bench_;
    std::string path_;
    trace::MetricsRegistry metrics_;
    bool written_ = false;
};

} // namespace rko::bench
