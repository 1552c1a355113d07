// Public facade: a simulated multicore machine running the replicated-
// kernel OS (or its SMP / multikernel configurations).
//
//   rko::api::MachineConfig cfg{.ncores = 16, .nkernels = 4};
//   rko::api::Machine machine(cfg);
//   auto& process = machine.create_process(0);
//   process.spawn([](rko::api::Guest& g) { ... }, /*kernel=*/2);
//   machine.run();
//
// nkernels == 1 is the SMP baseline: same code, but every core shares one
// kernel's structures. See rko/mk for the Barrelfish-style shared-nothing
// baseline built on top of this facade.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "rko/api/process.hpp"
#include "rko/balance/balance.hpp"
#include "rko/check/gate.hpp"
#include "rko/core/workset.hpp"
#include "rko/elastic/elastic.hpp"
#include "rko/home/home.hpp"
#include "rko/kernel/kernel.hpp"
#include "rko/mem/phys.hpp"
#include "rko/msg/fabric.hpp"
#include "rko/sim/engine.hpp"
#include "rko/topo/topology.hpp"
#include "rko/trace/trace.hpp"

namespace rko::api {

struct MachineConfig {
    int ncores = 8;
    int nkernels = 2;                      ///< 1 = SMP baseline
    std::size_t frames_per_kernel = 16384; ///< 64 MiB of guest RAM per kernel
    topo::CostModel costs;
    msg::FabricConfig fabric;
    std::uint64_t seed = 1;
    /// Page-consistency ablation: true = MSI with reader replication
    /// (the paper's protocol), false = migrate-on-any-fault (no Shared
    /// state; see DESIGN.md §5).
    bool read_replication = true;
    /// Fault-around prefetch window in pages (DESIGN.md §10): the first
    /// window of a stream. A fault from a thread with a detected sequential
    /// stride carries a window, which the home grants in one transaction
    /// round — read shares pushed behind a read, and the untouched pages
    /// after a first touch as zero-fill. Each window that continues the
    /// stream doubles the next, up to 32 pages. <= 1 is the measured
    /// demand-fault ablation (bench_pagefault): it disables the detector
    /// entirely, so no fault carries a window and each page costs one
    /// round trip.
    int prefetch_window = 8;
    /// Hierarchical futex (DESIGN.md §13): remote waiters on the same
    /// (pid, uaddr) aggregate into a per-kernel convoy, the origin fans
    /// wakes out as batched kFutexGrantBatch RPCs, and granted kernels
    /// hand the lock around locally. false restores the flat per-waiter
    /// protocol exactly (no kFutexGrantBatch/kFutexDeregister on the wire).
    bool futex_hierarchy = true;
    /// Consecutive wake(1)s a granted kernel may serve from its own convoy
    /// before the next wake returns to the origin (fairness budget for the
    /// local-handoff fast path). 64 follows the lock-cohorting literature:
    /// wide enough that a kernel's whole runnable cohort cycles through the
    /// lock between cross-kernel rotations, small enough that remote
    /// convoys are served on a bounded cadence.
    std::uint32_t futex_handoff_cap = 64;
    /// Sharded directory homes (rko/home, DESIGN.md §14): page-ownership
    /// directory entries spread over this many shards, rendezvous-hashed
    /// across the live kernels, with the VMA tree replicated (epoch-
    /// invalidated) so non-origin homes can validate faults locally. The
    /// default 1 keeps every entry at the origin — wire protocol and
    /// timings bit-identical to the pre-home system. Defaults to the
    /// RKO_HOME_SHARDS environment variable when set.
    int home_shards = home::shards_from_env();
    /// Working-set migration (DESIGN.md §15): a migrating thread's
    /// checkpoint piggybacks up to this many of its hottest page numbers;
    /// the destination pulls them from their homes in one scatter round
    /// before resuming, and the thread's read streak arrives primed, so
    /// fault-around streams the tail from the first read fault. 0 is the
    /// measured demand-only ablation (bench_migration (b), (c)): the
    /// tracker never ships and no kWorksetPull rounds or workset pushes
    /// exist on the wire. Defaults to the RKO_WORKSET_PUSH environment
    /// variable when set, else 32.
    int workset_push = core::workset_push_from_env();
    /// Tracing & metrics; defaults follow the RKO_TRACE environment
    /// variable (see trace::TraceConfig::from_env). Metrics are collected
    /// regardless; `trace.enabled` only gates event recording.
    trace::TraceConfig trace = trace::TraceConfig::from_env();
    /// Cross-kernel invariant audits (rko/check) at quiesce points: after
    /// every drained run() and at teardown. Defaults to the RKO_CHECK
    /// environment variable; audits are host-side and never touch virtual
    /// time, so enabling them cannot change simulated results.
    bool check = check::enabled();
    /// Schedule exploration: dispatch same-timestamp events in a seeded
    /// random order instead of insertion order (see Engine). The run stays
    /// deterministic for a given `seed`; rko_explore sweeps many.
    bool shuffle_ties = false;
    /// Autonomous load balancing (rko/balance). With the default policy
    /// kNone no balancer actors or handlers exist and runs are
    /// bit-identical to the pre-balancer machine.
    balance::BalanceConfig balance;
    /// Kernel elasticity (rko/elastic): lease-based failure detection,
    /// drain, and hot add/remove. Disabled by default — no elastic actors
    /// or handlers exist and runs are bit-identical to the static machine.
    elastic::ElasticConfig elastic;
};

/// The MachineConfig fields that tell benchmark machines apart. Every
/// Machine records its own (Machine::process_configs), so bench JSON states
/// the machines a run actually built, not the environment defaults.
struct ConfigStamp {
    int nkernels = 0;
    int home_shards = 0;
    int workset_push = 0;
    int prefetch_window = 0;
    balance::Policy balance = balance::Policy::kNone;
    bool elastic = false;
    bool read_replication = true;
    bool futex_hierarchy = true;
    bool operator==(const ConfigStamp&) const = default;
};

class Machine {
public:
    explicit Machine(MachineConfig config);
    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;
    ~Machine();

    const MachineConfig& config() const { return config_; }
    /// The distinct ConfigStamps of every Machine this process has built,
    /// destroyed ones included, in the order first seen.
    static const std::vector<ConfigStamp>& process_configs();
    sim::Engine& engine() { return engine_; }
    const topo::Topology& topology() const { return topo_; }
    const topo::CostModel& costs() const { return config_.costs; }
    mem::PhysMem& phys() { return phys_; }
    msg::Fabric& fabric() { return *fabric_; }
    kernel::Kernel& kernel(topo::KernelId id);
    int nkernels() const { return config_.nkernels; }
    int ncores() const { return config_.ncores; }

    /// Creates a process homed on `origin`. Host-side (boot) operation.
    Process& create_process(topo::KernelId origin);

    /// Every process created on this machine (invariant checkers, tests).
    const std::vector<std::unique_ptr<Process>>& processes() const {
        return processes_;
    }

    /// Runs the simulation until the event queue drains (all guest threads
    /// finished and every service idle). Returns final virtual time.
    Nanos run();
    Nanos run_until(Nanos deadline);

    // --- Elasticity (requires config().elastic.enabled) ---
    /// Fail-stops `id` at the current virtual time: its node goes dead, its
    /// guest threads are unwound with status 137, and peers detect the
    /// silence via expired leases. The kernel must not home any process.
    void kill_kernel(topo::KernelId id);
    /// Gracefully evacuates `id`: threads re-place onto peers, owned page
    /// copies are handed back to their origins, then the kernel parts.
    void drain_kernel(topo::KernelId id);
    /// Hot add: a parted (or deferred-boot) kernel rejoins and its balancer
    /// starts, so idle-steal pulls work within one balance period.
    void join_kernel(topo::KernelId id);
    /// True when `id` is out of the membership (killed, drained, or booted
    /// deferred and not yet joined). Invariant checkers exempt such kernels.
    bool is_killed(topo::KernelId id);

    /// Virtual time now.
    Nanos now() const { return engine_.now(); }

    // --- Aggregates for benches ---
    std::uint64_t total_messages() const { return fabric_->total_messages(); }
    std::uint64_t total_message_bytes() const { return fabric_->total_bytes(); }

    // --- Observability ---
    /// The machine's tracer (always present; recording obeys config().trace).
    trace::Tracer& tracer() { return *tracer_; }
    /// Machine-wide metrics: every kernel's registry merged, plus messaging
    /// (per-channel and aggregate) and lock-wait statistics snapshotted at
    /// call time. Call after run() for a consistent end-of-run view.
    trace::MetricsRegistry collect_metrics();

    // --- Internal (used by Process/Thread) ---
    void register_thread(Tid tid, Thread* thread);
    void unregister_thread(Tid tid);
    Thread* thread_of(Tid tid);

private:
    /// Installs the kill/reap callbacks the elastic subsystem needs from
    /// the layer that owns the Thread objects.
    void install_elastic_hooks(kernel::Kernel& k);

    MachineConfig config_;
    sim::Engine engine_;
    topo::Topology topo_;
    mem::PhysMem phys_;
    std::unique_ptr<trace::Tracer> tracer_; ///< attached to engine_ at boot
    std::unique_ptr<msg::Fabric> fabric_;
    std::vector<std::unique_ptr<kernel::Kernel>> kernels_;
    // threads_ is declared before processes_ deliberately: ~Thread (owned
    // by a Process) unregisters itself here, so the registry must outlive
    // the processes.
    std::map<Tid, Thread*> threads_;
    std::vector<std::unique_ptr<Process>> processes_;
    bool stopped_ = false;
};

} // namespace rko::api
