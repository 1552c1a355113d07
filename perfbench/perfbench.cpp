// perfbench: the repository benchmark. One workload per invocation, run on
// a replicated-kernel ("Popcorn") machine and on the SMP machine (one
// kernel, same cores, same total RAM), measured from outside the library:
// host CPU time around calls into the public API, virtual time from
// Guest::now(), layer counters from Machine::collect_metrics(),
// Engine::dispatch_count() and smp::contention_report().
//
//   perfbench --workload is_sort|churn_service|burst_rebalance --seed N
//             --seconds S --trace 0|1 [--size full|tiny] [--spans-out PATH]
//
// --trace 0 repeats (Popcorn, SMP) pairs for S host seconds and prints the
// end-to-end metrics. --trace 1 alternates untraced and traced pairs (span
// recording and rko/check audits on) and prints the per-layer metrics.
// Every repetition must reproduce the first one's virtual results exactly.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. README.md documents the workloads and the metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench/apps.hpp"
#include "rko/check/gate.hpp"
#include "rko/smp/smp.hpp"
#include "rko/trace/json.hpp"

namespace {

using namespace rko;
using api::Guest;
using api::Machine;
using api::MachineConfig;
using mem::kPageSize;
using mem::Vaddr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds the calling thread has used. Every guest core is a fiber on
/// this one thread, so this is what simulating costs the host; unlike wall
/// time it leaves out time the host gives to other processes.
double cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// ---------------------------------------------------------------------------
// Workload shapes.
// ---------------------------------------------------------------------------

enum class Workload { kIsSort, kChurnService, kBurstRebalance };

struct Shape {
    int ncores = 0;
    int nkernels = 0;
    int threads = 0;  ///< sort threads, churn clients, or burst workers
    int ops = 0;      ///< churn requests or burst rounds per thread
    int pages = 0;    ///< pages per churn request, or burst working set
    std::uint32_t keys = 0; ///< is_sort only
    int bursts = 1;   ///< burst_rebalance: arrivals run one after another
};

Shape shape_of(Workload w, bool tiny) {
    switch (w) {
    case Workload::kIsSort:
        return tiny ? Shape{8, 2, 8, 0, 0, 1u << 14} : Shape{32, 8, 32, 0, 0, 1u << 20};
    case Workload::kChurnService:
        return tiny ? Shape{8, 2, 8, 20, 8, 0} : Shape{32, 8, 32, 1000, 8, 0};
    case Workload::kBurstRebalance:
        return tiny ? Shape{8, 2, 8, 16, 32, 0, 2} : Shape{16, 4, 64, 200, 32, 0, 12};
    }
    return {};
}

constexpr Nanos kChurnComputeNs = 5000;   ///< mean per request
constexpr Nanos kBurstComputeNs = 20'000; ///< mean per round
constexpr int kBurstLockEvery = 32;       ///< rounds between counter bumps

/// One op's compute: the mean, spread uniformly by ±1% from the seed. With
/// the mean alone, churn_service's virtual results are the same for every
/// seed (each request takes the same time), so the seed would change no
/// input of that workload.
Nanos seeded_compute(base::Rng& rng, Nanos mean) {
    return rng.range(mean * 99 / 100, mean * 101 / 100);
}

/// Every field set in code, including the ones whose library default reads
/// an RKO_* variable, so only this function decides what is measured.
MachineConfig machine_config(Workload w, const Shape& s, int nkernels,
                             std::uint64_t seed) {
    MachineConfig c = nkernels == 1 ? smp::smp_config(s.ncores)
                                    : smp::popcorn_config(s.ncores, nkernels);
    c.seed = seed;
    c.prefetch_window = 8;
    c.workset_push = 32;
    c.home_shards = 1;
    c.trace = trace::TraceConfig{};
    c.check = false;
    c.shuffle_ties = false;
    if (w == Workload::kBurstRebalance && nkernels > 1) {
        c.balance.policy = balance::Policy::kAffinity;
        c.balance.period = 20'000;
        c.balance.min_residency = 50'000;
    }
    return c;
}

std::string describe(const MachineConfig& c) {
    std::string out;
    trace::JsonWriter w(&out);
    w.begin_object();
    w.kv("ncores", c.ncores);
    w.kv("nkernels", c.nkernels);
    w.kv("frames_per_kernel", static_cast<std::uint64_t>(c.frames_per_kernel));
    w.kv("seed", c.seed);
    w.kv("read_replication", c.read_replication);
    w.kv("prefetch_window", c.prefetch_window);
    w.kv("futex_hierarchy", c.futex_hierarchy);
    w.kv("futex_handoff_cap", static_cast<std::uint64_t>(c.futex_handoff_cap));
    w.kv("home_shards", c.home_shards);
    w.kv("workset_push", c.workset_push);
    w.kv("trace", c.trace.enabled);
    w.kv("check", c.check);
    w.kv("shuffle_ties", c.shuffle_ties);
    w.kv("balance", balance::policy_name(c.balance.policy));
    w.kv("balance_period_ns", static_cast<std::int64_t>(c.balance.period));
    w.kv("balance_min_residency_ns", static_cast<std::int64_t>(c.balance.min_residency));
    w.kv("elastic", c.elastic.enabled);
    w.end_object();
    return out;
}

// ---------------------------------------------------------------------------
// Spans: the benchmark's own virtual-time intervals around public calls.
// ---------------------------------------------------------------------------

struct Span {
    const char* name = "";
    Nanos start = 0;
    Nanos end = 0;
    std::uint32_t parent = 0; ///< 1-based span id; 0 = root
    std::uint64_t op = 0;     ///< shared by the spans of one request/round
};

/// Spans stay in memory; ids are 1-based indices. When off, open() returns
/// 0 and close() ignores it, so the workload code is identical either way.
/// All guest threads run as fibers on one host thread, so no locking.
class SpanLog {
public:
    explicit SpanLog(bool on) : on_(on) {}

    std::uint32_t open(const char* name, Nanos start, std::uint32_t parent,
                       std::uint64_t op) {
        if (!on_) return 0;
        spans_.push_back({name, start, start, parent, op});
        return static_cast<std::uint32_t>(spans_.size());
    }
    void close(std::uint32_t id, Nanos end) {
        if (id != 0) spans_[id - 1].end = end;
    }
    const std::vector<Span>& spans() const { return spans_; }

private:
    bool on_;
    std::vector<Span> spans_;
};

/// Settles batched MMU charges so now() is exact. Called at the same points
/// whether or not spans are recorded, so virtual results cannot differ.
Nanos mark(Guest& g) {
    g.flush_timing();
    return g.now();
}

/// Marks the end of span `id` and returns that time.
Nanos close_at_mark(Guest& g, SpanLog& spans, std::uint32_t id) {
    const Nanos t = mark(g);
    spans.close(id, t);
    return t;
}

// ---------------------------------------------------------------------------
// One machine run.
// ---------------------------------------------------------------------------

struct MachineRun {
    explicit MachineRun(bool traced) : spans(traced) {}

    Nanos virt = 0;
    std::vector<Nanos> op_ns;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    double boot_s = 0;
    double process_s = 0;
    double host_s = 0;
    std::uint64_t events = 0;
    std::uint64_t msgs = 0;
    smp::ContentionReport contention;
    std::optional<trace::MetricsRegistry> metrics; ///< traced runs only
    SpanLog spans;
    std::uint64_t next_op = 1;
};

/// Times Machine::run() on the host and counts the events it dispatched.
void timed_run(Machine& m, MachineRun& r) {
    const std::uint64_t before = m.engine().dispatch_count();
    const double start = cpu_seconds();
    m.run();
    r.host_s += cpu_seconds() - start;
    r.events += m.engine().dispatch_count() - before;
}

/// Threads of `p` that did not finish, exited non-zero or segfaulted.
std::uint64_t thread_failures(const api::Process& p) {
    std::uint64_t bad = 0;
    for (const auto& t : p.threads()) {
        bad += !t->finished() || t->exit_status() != 0 || t->segfaulted();
    }
    return bad;
}

/// NPB-IS gather sort, apps::is_sort unchanged. It creates its process and
/// threads inside the call, so the whole call counts as host_s. It asserts
/// its own sortedness spot-check and that every thread finished, so those
/// two failures abort the run instead of being counted. It has no per-op
/// unit: the one sort is the one op, so op_p50_us and op_p99_us read the
/// makespan rather than 0, which would leave no median to regress against.
void run_is_sort(Machine& m, const Shape& s, std::uint64_t seed, MachineRun& r) {
    apps::IsConfig config;
    config.nthreads = s.threads;
    config.nkeys = s.keys;
    config.seed = seed;
    const std::uint64_t before = m.engine().dispatch_count();
    const double start = cpu_seconds();
    r.virt = apps::is_sort(m, config);
    r.host_s = cpu_seconds() - start;
    r.events = m.engine().dispatch_count() - before;
    r.ops = 1;
    r.op_ns.push_back(r.virt);
}

/// Closed-loop clients, one single-threaded process each: a request is
/// mmap, touch + read back, munmap, futex_wake, then fixed compute.
void churn_client(Guest& g, const Shape& s, base::Rng rng, MachineRun& r,
                  std::vector<Nanos>& ends) {
    SpanLog& spans = r.spans;
    const std::uint64_t length = static_cast<std::uint64_t>(s.pages) * kPageSize;
    Nanos t = mark(g);
    const std::uint32_t client = spans.open("client", t, 0, 0);
    std::uint32_t id = spans.open("mmap", t, client, 0);
    const Vaddr word = g.mmap(kPageSize);
    t = close_at_mark(g, spans, id);
    r.failed += word == 0;
    for (int n = 0; n < s.ops && word != 0; ++n) {
        const std::uint64_t op = r.next_op++;
        const Nanos begin = t;
        const std::uint32_t req = spans.open("request", begin, client, op);
        bool ok = true;

        id = spans.open("mmap", t, req, op);
        const Vaddr buf = g.mmap(length);
        t = close_at_mark(g, spans, id);
        if (buf == 0) {
            ok = false;
        } else {
            id = spans.open("touch", t, req, op);
            const std::uint64_t value = rng.next();
            for (int p = 0; p < s.pages; ++p) {
                g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                       value + static_cast<std::uint64_t>(p));
            }
            for (int p = 0; p < s.pages; ++p) {
                ok &= g.read<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize) ==
                      value + static_cast<std::uint64_t>(p);
            }
            t = close_at_mark(g, spans, id);

            id = spans.open("munmap", t, req, op);
            ok &= g.munmap(buf, length) == 0;
            t = close_at_mark(g, spans, id);
        }

        id = spans.open("futex_wake", t, req, op);
        g.futex_wake(word, 1);
        t = close_at_mark(g, spans, id);

        id = spans.open("compute", t, req, op);
        g.compute(seeded_compute(rng, kChurnComputeNs));
        t = close_at_mark(g, spans, id);

        spans.close(req, t);
        r.op_ns.push_back(t - begin);
        ++r.ops;
        r.failed += !ok;
    }
    spans.close(client, t);
    ends.push_back(t);
}

void run_churn_service(Machine& m, const Shape& s, std::uint64_t seed, MachineRun& r) {
    std::vector<Nanos> ends;
    const double start = cpu_seconds();
    for (int c = 0; c < s.threads; ++c) {
        const auto kid = apps::place(c, m.nkernels());
        const base::Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(c));
        m.create_process(kid).spawn(
            [&s, rng, &r, &ends](Guest& g) { churn_client(g, s, rng, r, ends); }, kid);
    }
    r.process_s = cpu_seconds() - start;
    timed_run(m, r);
    r.virt = ends.empty() ? 0 : *std::max_element(ends.begin(), ends.end());
}

/// Every thread of one process starts on kernel 0; each owns a working set
/// it touches every round, and every kBurstLockEvery-th round bumps a
/// shared counter under a futex mutex on a write-shared page.
void burst_worker(Guest& g, const Shape& s, base::Rng rng, Vaddr shared,
                  std::uint32_t parent, MachineRun& r) {
    SpanLog& spans = r.spans;
    const std::uint64_t length = static_cast<std::uint64_t>(s.pages) * kPageSize;
    Nanos t = mark(g);
    const std::uint32_t worker = spans.open("worker", t, parent, 0);
    std::uint32_t id = spans.open("mmap", t, worker, 0);
    const Vaddr ws = g.mmap(length);
    t = close_at_mark(g, spans, id);
    if (ws == 0) {
        ++r.failed;
        spans.close(worker, t);
        return;
    }
    for (int round = 0; round < s.ops; ++round) {
        const std::uint64_t op = r.next_op++;
        const Nanos begin = t;
        const std::uint32_t rnd = spans.open("round", begin, worker, op);

        id = spans.open("touch", t, rnd, op);
        for (int p = 0; p < s.pages; ++p) {
            g.write<std::uint64_t>(ws + static_cast<Vaddr>(p) * kPageSize,
                                   static_cast<std::uint64_t>(round + 1));
        }
        t = close_at_mark(g, spans, id);

        if (round % kBurstLockEvery == 0) {
            id = spans.open("futex_lock", t, rnd, op);
            g.mutex_lock(shared);
            t = close_at_mark(g, spans, id);
            const Vaddr counter = shared + 64;
            g.write<std::uint32_t>(counter, g.read<std::uint32_t>(counter) + 1);
            t = mark(g);
            id = spans.open("futex_wake", t, rnd, op);
            g.mutex_unlock(shared);
            t = close_at_mark(g, spans, id);
        }

        id = spans.open("compute", t, rnd, op);
        g.compute(seeded_compute(rng, kBurstComputeNs));
        t = close_at_mark(g, spans, id);

        spans.close(rnd, t);
        r.op_ns.push_back(t - begin);
        ++r.ops;
    }
    for (int p = 0; p < s.pages; ++p) {
        r.failed += g.read<std::uint64_t>(ws + static_cast<Vaddr>(p) * kPageSize) !=
                    static_cast<std::uint64_t>(s.ops);
    }
    spans.close(worker, mark(g));
}

/// A lock on a page every kernel writes makes one burst's makespan depend
/// chaotically on small timing differences (which thread holds the lock
/// when the balancer ticks), so one machine runs s.bursts arrivals back to
/// back, each a fresh process torn down before the next, and the metrics
/// pool them: virt is their summed makespan and op percentiles cover every
/// round.
void run_burst_rebalance(Machine& m, const Shape& s, std::uint64_t seed, MachineRun& r) {
    for (int b = 0; b < s.bursts; ++b) {
        const std::uint64_t burst_seed =
            (seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(b)) * 0xbf58476d1ce4e5b9ULL;
        const double start = cpu_seconds();
        api::Process& process = m.create_process(0);
        process.spawn(
            [&s, burst_seed, &r](Guest& g) {
                SpanLog& spans = r.spans;
                const Nanos t0 = mark(g);
                const std::uint32_t main_span = spans.open("main", t0, 0, 0);
                std::uint32_t id = spans.open("mmap", t0, main_span, 0);
                const Vaddr shared = g.mmap(kPageSize);
                Nanos t = close_at_mark(g, spans, id);
                if (shared == 0) {
                    ++r.failed;
                    spans.close(main_span, t);
                    return;
                }
                std::vector<api::Thread*> workers;
                for (int w = 0; w < s.threads; ++w) {
                    const base::Rng rng(burst_seed + static_cast<std::uint64_t>(w));
                    id = spans.open("spawn", t, main_span, 0);
                    workers.push_back(&g.spawn(
                        [&s, rng, shared, main_span, &r](Guest& wg) {
                            burst_worker(wg, s, rng, shared, main_span, r);
                        },
                        0));
                    t = close_at_mark(g, spans, id);
                }
                for (api::Thread* w : workers) {
                    id = spans.open("join", t, main_span, 0);
                    g.join(*w);
                    t = close_at_mark(g, spans, id);
                }
                const auto rounds_locked = static_cast<std::uint32_t>(
                    (s.ops + kBurstLockEvery - 1) / kBurstLockEvery);
                r.failed += g.read<std::uint32_t>(shared + 64) !=
                            static_cast<std::uint32_t>(s.threads) * rounds_locked;
                t = mark(g);
                spans.close(main_span, t);
                r.virt += t - t0;
            },
            0);
        r.process_s += cpu_seconds() - start;
        timed_run(m, r);
        // destroy() asserts that every thread finished. A burst with a
        // failed thread stays alive, and run_machine() counts it.
        if (thread_failures(process) != 0) break;
        process.destroy();
    }
}

MachineRun run_machine(Workload w, const Shape& s, const MachineConfig& config,
                       bool traced) {
    MachineRun r(traced);
    const double start = cpu_seconds();
    Machine m(config);
    r.boot_s = cpu_seconds() - start;
    switch (w) {
    case Workload::kIsSort: run_is_sort(m, s, config.seed, r); break;
    case Workload::kChurnService: run_churn_service(m, s, config.seed, r); break;
    case Workload::kBurstRebalance: run_burst_rebalance(m, s, config.seed, r); break;
    }
    for (const auto& p : m.processes()) {
        if (!p->destroyed()) r.failed += thread_failures(*p);
    }
    r.msgs = m.total_messages();
    r.contention = smp::contention_report(m);
    if (traced) r.metrics = m.collect_metrics();
    return r;
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (q in (0, 100]); 0 for an empty sample.
Nanos percentile(std::vector<Nanos> v, double q) {
    if (v.empty()) return 0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(v.size())));
    const std::size_t i = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i), v.end());
    return v[i];
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double us(Nanos ns) { return static_cast<double>(ns) / 1e3; }
double ms(Nanos ns) { return static_cast<double>(ns) / 1e6; }

/// The virtual results that must repeat exactly for a given seed.
struct Fingerprint {
    Nanos virt = 0;
    Nanos op_p50 = 0;
    Nanos op_p99 = 0;
    std::uint64_t op_hash = 0;
    std::uint64_t events = 0;
    std::uint64_t msgs = 0;

    bool operator==(const Fingerprint&) const = default;
};

bool same_virtual(const Fingerprint& got, const Fingerprint& want, const char* machine,
                  bool traced) {
    if (got == want) return true;
    std::fprintf(stderr,
                 "perfbench: %s %s run diverged from the first run: virt %lld/%lld "
                 "op_p50 %lld/%lld op_p99 %lld/%lld op_hash %llx/%llx events %llu/%llu "
                 "msgs %llu/%llu\n",
                 traced ? "traced" : "untraced", machine, static_cast<long long>(got.virt),
                 static_cast<long long>(want.virt), static_cast<long long>(got.op_p50),
                 static_cast<long long>(want.op_p50), static_cast<long long>(got.op_p99),
                 static_cast<long long>(want.op_p99),
                 static_cast<unsigned long long>(got.op_hash),
                 static_cast<unsigned long long>(want.op_hash),
                 static_cast<unsigned long long>(got.events),
                 static_cast<unsigned long long>(want.events),
                 static_cast<unsigned long long>(got.msgs),
                 static_cast<unsigned long long>(want.msgs));
    return false;
}

Fingerprint fingerprint(const MachineRun& r) {
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a over op latencies
    for (const Nanos ns : r.op_ns) {
        h = (h ^ static_cast<std::uint64_t>(ns)) * 0x100000001b3ULL;
    }
    return {r.virt, percentile(r.op_ns, 50), percentile(r.op_ns, 99), h, r.events, r.msgs};
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
    std::string out;
    trace::JsonWriter w(&out);
    w.begin_object();
    w.kv("correct", correct);
    w.kv("attempted", attempted);
    w.kv("failed", failed);
    w.key("metrics");
    w.begin_object();
    for (const Metric& m : metrics) {
        w.key(m.name);
        w.begin_object();
        w.kv("value", m.value);
        w.kv("unit", m.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    std::printf("%s\n", out.c_str());
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// Span durations by span name, in virtual ns.
std::map<std::string, std::vector<Nanos>> span_durations(const SpanLog& log) {
    std::map<std::string, std::vector<Nanos>> out;
    for (const Span& s : log.spans()) out[s.name].push_back(s.end - s.start);
    return out;
}

/// Self time = duration minus the part of it that child spans cover. The
/// children of a guest thread's span are sequential, but a spawned
/// worker's span overlaps its siblings, so covered time is the union of
/// the children's intervals clipped to the parent's.
std::vector<Nanos> self_times(const SpanLog& log) {
    const auto& spans = log.spans();
    std::vector<std::vector<std::pair<Nanos, Nanos>>> children(spans.size());
    for (const Span& s : spans) {
        if (s.parent != 0) children[s.parent - 1].emplace_back(s.start, s.end);
    }
    std::vector<Nanos> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        Nanos covered = 0;
        Nanos reach = spans[i].start;
        for (const auto& [start, end] : kids) {
            const Nanos lo = std::max(start, reach);
            const Nanos hi = std::min(end, spans[i].end);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[i] = spans[i].end - spans[i].start - covered;
    }
    return self;
}

void write_spans(const std::string& path, const SpanLog& log, std::string_view workload,
                 std::uint64_t seed) {
    const auto self = self_times(log);
    std::string out;
    trace::JsonWriter w(&out);
    w.begin_object();
    w.kv("workload", workload);
    w.kv("seed", seed);
    w.kv("columns", "id name start_ns end_ns parent op self_ns");
    w.key("spans");
    w.begin_array();
    const auto& spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        w.begin_array();
        w.value(static_cast<std::uint64_t>(i + 1));
        w.value(s.name);
        w.value(static_cast<std::int64_t>(s.start));
        w.value(static_cast<std::int64_t>(s.end));
        w.value(static_cast<std::uint64_t>(s.parent));
        w.value(s.op);
        w.value(static_cast<std::int64_t>(self[i]));
        w.end_array();
    }
    w.end_array();
    w.end_object();
    out += '\n';
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
        return;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
}

/// Per span name: count, total and self time, on stdout before the result.
void print_span_table(const SpanLog& log) {
    struct Row {
        std::uint64_t count = 0;
        Nanos total = 0;
        Nanos self = 0;
    };
    std::map<std::string, Row> rows;
    const auto self = self_times(log);
    const auto& spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        Row& row = rows[spans[i].name];
        ++row.count;
        row.total += spans[i].end - spans[i].start;
        row.self += self[i];
    }
    for (const auto& [name, row] : rows) {
        std::printf("span %-12s count=%-8llu total_us=%-14.3f self_us=%.3f\n", name.c_str(),
                    static_cast<unsigned long long>(row.count), us(row.total), us(row.self));
    }
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

struct Options {
    Workload workload = Workload::kIsSort;
    std::string workload_name;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    std::string spans_out;
};

bool parse(int argc, char** argv, Options& o) {
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string_view flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            have_workload = true;
            o.workload_name = value;
            if (value == "is_sort") {
                o.workload = Workload::kIsSort;
            } else if (value == "churn_service") {
                o.workload = Workload::kChurnService;
            } else if (value == "burst_rebalance") {
                o.workload = Workload::kBurstRebalance;
            } else {
                return false;
            }
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") return false;
            o.trace = value == "1";
        } else if (flag == "--size") {
            if (value != "full" && value != "tiny") return false;
            o.tiny = value == "tiny";
        } else if (flag == "--spans-out") {
            o.spans_out = value;
        } else {
            return false;
        }
    }
    return have_workload && argc % 2 == 1;
}

/// Every library knob that reads the environment is pinned in
/// machine_config(); an RKO_* variable in the environment means someone
/// expects it to matter, so refuse rather than measure something else.
bool environment_clean() {
    bool clean = true;
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "RKO_", 4) == 0) {
            std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
            clean = false;
        }
    }
    return clean;
}

int run(const Options& o) {
    const Shape s = shape_of(o.workload, o.tiny);
    const MachineConfig pop_cfg = machine_config(o.workload, s, s.nkernels, o.seed);
    const MachineConfig smp_cfg = machine_config(o.workload, s, 1, o.seed);
    MachineConfig pop_traced = pop_cfg;
    MachineConfig smp_traced = smp_cfg;
    pop_traced.check = smp_traced.check = true;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool deterministic = true;
    std::optional<Fingerprint> pop_ref, smp_ref;
    std::vector<double> setup, boot, process, host, traced_host;
    std::optional<MachineRun> pop_traced_run, smp_traced_run;

    // One (Popcorn, SMP) pair; checks its virtual results against the first.
    auto pair = [&](bool traced) {
        MachineRun pop = run_machine(o.workload, s, traced ? pop_traced : pop_cfg, traced);
        MachineRun smp = run_machine(o.workload, s, traced ? smp_traced : smp_cfg, traced);
        attempted += pop.ops + smp.ops;
        failed += pop.failed + smp.failed;
        const Fingerprint pf = fingerprint(pop), sf = fingerprint(smp);
        if (!pop_ref) {
            pop_ref = pf;
            smp_ref = sf;
        }
        deterministic &= same_virtual(pf, *pop_ref, "popcorn", traced);
        deterministic &= same_virtual(sf, *smp_ref, "smp", traced);
        if (traced) {
            traced_host.push_back(pop.host_s);
            pop_traced_run.emplace(std::move(pop));
            smp_traced_run.emplace(std::move(smp));
            return;
        }
        setup.push_back(pop.boot_s + pop.process_s + smp.boot_s + smp.process_s);
        boot.push_back(pop.boot_s + smp.boot_s);
        process.push_back(pop.process_s + smp.process_s);
        host.push_back(pop.host_s);
    };

    std::printf("config popcorn %s\n", describe(pop_cfg).c_str());
    std::printf("config smp %s\n", describe(smp_cfg).c_str());
    if (o.trace) {
        std::printf("config traced: span recording and check=true on both machines\n");
    }
    const auto start = Clock::now();
    // At least two pairs: the second proves the seed reproduces the first.
    do {
        pair(false);
        if (o.trace) pair(true);
    } while (seconds_since(start) < o.seconds || host.size() < 2);

    const bool correct = deterministic && failed == 0;
    // Every pair simulates the identical event sequence, so pair-to-pair
    // differences in host time come only from other load on the host, which
    // only ever slows a pair: the fastest pair is the program's cost.
    // Measured on a shared 4-core host, a run's median drifted about twice
    // as much between runs as its minimum.
    const double host_s = *std::min_element(host.begin(), host.end());
    std::vector<Metric> m;
    if (!o.trace) {
        const double virt_ms = ms(pop_ref->virt);
        const double smp_virt_ms = ms(smp_ref->virt);
        m.push_back({"virt_ms", virt_ms, "ms"});
        m.push_back({"smp_virt_ms", smp_virt_ms, "ms"});
        m.push_back({"vs_smp", smp_virt_ms > 0 ? virt_ms / smp_virt_ms : 0, "ratio"});
        m.push_back({"op_p50_us", us(pop_ref->op_p50), "us"});
        m.push_back({"op_p99_us", us(pop_ref->op_p99), "us"});
        m.push_back({"setup_s", median(setup), "s"});
        m.push_back({"host_s", host_s, "s"});
        m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
        print_result(correct, attempted, failed, m);
        return 0;
    }

    const MachineRun& pop = *pop_traced_run;
    const MachineRun& smp = *smp_traced_run;
    const trace::MetricsRegistry& reg = *pop.metrics;
    auto counter = [&](const char* name) -> double {
        const auto* c = reg.find_counter(name);
        return c != nullptr ? static_cast<double>(c->value) : 0.0;
    };
    auto hist_us = [&](const char* name, double q) -> double {
        const auto* h = reg.find_histogram(name);
        return h != nullptr && h->count() > 0 ? us(h->percentile(q)) : 0.0;
    };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const auto durations = span_durations(pop.spans);
    auto span_us = [&](const char* name, double q) -> double {
        const auto it = durations.find(name);
        return it == durations.end() ? 0.0 : us(percentile(it->second, q));
    };
    auto span_count = [&](const char* name) -> double {
        const auto it = durations.find(name);
        return it == durations.end() ? 0.0 : static_cast<double>(it->second.size());
    };
    m.push_back({"sim.events", static_cast<double>(pop.events), "count"});
    m.push_back({"sim.ns_per_event",
                 ratio(host_s * 1e9, static_cast<double>(pop_ref->events)), "ns"});
    m.push_back({"setup.machine_boot_s", median(boot), "s"});
    m.push_back({"setup.process_s", median(process), "s"});
    m.push_back({"msg.sent", counter("msg.sent"), "count"});
    m.push_back({"msg.bytes", counter("msg.bytes"), "B"});
    m.push_back({"msg.delivery_us_p50", hist_us("msg.delivery_ns", 50), "us"});
    m.push_back({"msg.delivery_us_p99", hist_us("msg.delivery_ns", 99), "us"});
    m.push_back({"msg.per_op", ratio(counter("msg.sent"), static_cast<double>(pop.ops)),
                 "count"});
    m.push_back({"msg.rpc_failures", counter("msg.rpc_failures"), "count"});
    m.push_back({"pages.remote_faults", counter("pages.remote_faults"), "count"});
    m.push_back({"pages.remote_fault_us_p50", hist_us("pages.remote_fault_ns", 50), "us"});
    m.push_back({"pages.remote_fault_us_p99", hist_us("pages.remote_fault_ns", 99), "us"});
    m.push_back({"pages.invalidations", counter("pages.invalidations"), "count"});
    m.push_back({"pages.fetches", counter("pages.fetches"), "count"});
    m.push_back({"pages.prefetch_issued", counter("pages.prefetch.issued"), "count"});
    m.push_back({"pages.prefetch_hit_ratio",
                 ratio(counter("pages.prefetch.hit"), counter("pages.prefetch.issued")),
                 "ratio"});
    m.push_back({"pages.local_faults", counter("pages.local_faults"), "count"});
    m.push_back({"vma.mmap_us_p50", span_us("mmap", 50), "us"});
    m.push_back({"vma.mmap_us_p99", span_us("mmap", 99), "us"});
    m.push_back({"vma.mmap_count", span_count("mmap"), "count"});
    m.push_back({"vma.munmap_us_p50", span_us("munmap", 50), "us"});
    m.push_back({"vma.munmap_us_p99", span_us("munmap", 99), "us"});
    m.push_back({"vma.munmap_count", span_count("munmap"), "count"});
    m.push_back({"vma.remote_ops", counter("vma.remote_ops"), "count"});
    m.push_back({"mem.frame_lock_wait_us", us(pop.contention.frame_allocator), "us"});
    m.push_back({"mem.mmap_lock_wait_us", us(pop.contention.mmap_locks), "us"});
    m.push_back({"smp.mem.frame_lock_wait_us", us(smp.contention.frame_allocator), "us"});
    m.push_back({"smp.mem.mmap_lock_wait_us", us(smp.contention.mmap_locks), "us"});
    m.push_back({"futex.lock_us_p50", span_us("futex_lock", 50), "us"});
    m.push_back({"futex.lock_us_p99", span_us("futex_lock", 99), "us"});
    m.push_back({"futex.wake_us_p50", span_us("futex_wake", 50), "us"});
    m.push_back({"futex.wake_us_p99", span_us("futex_wake", 99), "us"});
    m.push_back({"futex.remote_grants", counter("futex.remote_grants"), "count"});
    m.push_back({"futex.local_handoffs", counter("futex.local_handoffs"), "count"});
    m.push_back({"migration.count", counter("migration.out"), "count"});
    m.push_back({"migration.total_us_p50", hist_us("migration.total_ns", 50), "us"});
    m.push_back({"migration.total_us_p99", hist_us("migration.total_ns", 99), "us"});
    m.push_back({"migration.workset_hit_ratio",
                 ratio(counter("migration.workset.hit"), counter("migration.workset.pushed")),
                 "ratio"});
    m.push_back({"balance.steals", counter("balance.steals"), "count"});
    m.push_back({"balance.hint_migrations", counter("balance.hint_migrations"), "count"});
    m.push_back({"balance.return_ratio",
                 ratio(counter("balance.hint_migrations"), counter("balance.steals")),
                 "ratio"});
    m.push_back({"sched.runq_wait_us_p50", hist_us("sched.acquire_wait_ns", 50), "us"});
    m.push_back({"sched.runq_wait_us_p99", hist_us("sched.acquire_wait_ns", 99), "us"});
    m.push_back({"sched.context_switches", counter("sched.context_switches"), "count"});
    m.push_back({"thread.spawn_us_p50", span_us("spawn", 50), "us"});
    m.push_back({"thread.spawn_us_p99", span_us("spawn", 99), "us"});
    m.push_back({"thread.join_us_p50", span_us("join", 50), "us"});
    m.push_back({"thread.join_us_p99", span_us("join", 99), "us"});
    m.push_back({"touch.us_p50", span_us("touch", 50), "us"});
    m.push_back({"touch.us_p99", span_us("touch", 99), "us"});
    m.push_back({"trace.spans", static_cast<double>(pop.spans.spans().size()), "count"});
    m.push_back({"trace.overhead_s",
                 *std::min_element(traced_host.begin(), traced_host.end()) - host_s, "s"});

    print_span_table(pop.spans);
    if (!o.spans_out.empty()) {
        write_spans(o.spans_out, pop.spans, o.workload_name, o.seed);
        std::printf("spans written to %s\n", o.spans_out.c_str());
    }
    print_result(correct, attempted, failed, m);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    Options options;
    if (!parse(argc, argv, options)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload is_sort|churn_service|burst_rebalance "
                     "--seed N --seconds S --trace 0|1 [--size full|tiny] "
                     "[--spans-out PATH]\n");
        return 2;
    }
    if (!environment_clean()) return 2;
    // MachineConfig::check runs the host-side invariant audits at quiesce
    // points. The process-wide gate also arms inline self-checks that take
    // simulated locks (the munmap post-condition sweeps), which moves
    // virtual time, so it stays off in every run.
    check::set_enabled(false);
    return run(options);
}
