// One kernel instance of the replicated-kernel OS.
//
// A Kernel owns the per-kernel resources (scheduler for its core group,
// frame allocator over its physical partition, messaging endpoint, futex
// table shard, task table, process sites) and exposes the syscall facade
// guest threads call. The cross-kernel behaviour lives in the core/
// services, one instance per kernel, installed at boot.
//
// The SMP baseline is the nkernels == 1 configuration: the same structures
// then serve all cores — one frame-allocator lock, one futex table, one
// runqueue, one mmap lock per process — which is precisely the shared-
// data-structure contention the paper measures against.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "rko/base/stats.hpp"
#include "rko/core/process.hpp"
#include "rko/home/home.hpp"
#include "rko/mem/mmu.hpp"
#include "rko/mem/frame_alloc.hpp"
#include "rko/mem/phys.hpp"
#include "rko/msg/fabric.hpp"
#include "rko/task/sched.hpp"
#include "rko/task/task.hpp"
#include "rko/topo/topology.hpp"
#include "rko/trace/metrics.hpp"

namespace rko::core {
class VmaServer;
class PageOwner;
class DFutex;
class ThreadGroups;
class Migration;
class Ssi;
} // namespace rko::core

namespace rko::balance {
class Balancer;
struct BalanceConfig;
} // namespace rko::balance

namespace rko::elastic {
class Elastic;
struct ElasticConfig;
} // namespace rko::elastic

namespace rko::kernel {

class Kernel {
public:
    /// Resolves a tid to its execution actor — the documented "backdoor"
    /// through which a migrated thread's fiber is adopted by the
    /// destination kernel (the protocol messages carry the architectural
    /// context; the fiber object itself cannot travel on a wire).
    using ActorResolver = std::function<sim::Actor*(Tid)>;

    Kernel(sim::Engine& engine, const topo::Topology& topo,
           const topo::CostModel& costs, mem::PhysMem& phys, msg::Fabric& fabric,
           topo::KernelId id);
    Kernel(const Kernel&) = delete;
    Kernel& operator=(const Kernel&) = delete;
    ~Kernel();

    /// Registers all message handlers. Must run before Fabric::start_all().
    void install_services(ActorResolver resolver);

    /// Creates and installs this kernel's load balancer (registers kSteal).
    /// Must run after install_services and before Fabric::start_all(); the
    /// tick actor itself is booted separately with Balancer::start(). Only
    /// called when the machine's balance policy is not kNone, so none-policy
    /// runs carry zero balancer state.
    void install_balancer(const balance::BalanceConfig& config);
    balance::Balancer* balancer() { return balancer_.get(); }

    /// Creates and installs this kernel's elasticity service (registers
    /// kPing / kMembershipUpdate / kElasticEvict). Same boot window as
    /// install_balancer; the reaper actor boots with Elastic::start().
    /// Only called when ElasticConfig::enabled, so static-membership runs
    /// carry zero elastic state.
    void install_elastic(const elastic::ElasticConfig& config);
    elastic::Elastic* elastic() { return elastic_.get(); }

    // --- Accessors ---
    topo::KernelId id() const { return id_; }
    sim::Engine& engine() { return engine_; }
    const topo::Topology& topology() const { return topo_; }
    const topo::CostModel& costs() const { return costs_; }
    mem::PhysMem& phys() { return phys_; }
    mem::FrameAllocator& frames() { return frames_; }
    msg::Node& node() { return node_; }
    msg::Fabric& fabric() { return fabric_; }
    task::Scheduler& sched() { return sched_; }
    base::Counters& counters() { return counters_; }
    /// This kernel's metrics registry. Services register named counters /
    /// histograms at construction; Machine::collect_metrics merges all
    /// kernels' registries into the machine-wide view.
    trace::MetricsRegistry& metrics() { return metrics_; }
    const trace::MetricsRegistry& metrics() const { return metrics_; }

    /// This kernel's view of the sharded home map (rko/home). Initialized
    /// at boot by the Machine; shrunk by elastic membership events. All
    /// live kernels see identical state (DESIGN.md §14).
    home::Map& home_map() { return home_map_; }
    const home::Map& home_map() const { return home_map_; }

    core::VmaServer& vma() { return *vma_; }
    core::PageOwner& pages() { return *pages_; }
    core::DFutex& futex() { return *futex_; }
    core::ThreadGroups& groups() { return *groups_; }
    core::Migration& migration() { return *migration_; }
    core::Ssi& ssi() { return *ssi_; }
    sim::Actor* resolve_actor(Tid tid) { return resolver_(tid); }

    // --- Process sites & tasks ---
    bool has_site(Pid pid) const { return sites_.contains(pid); }
    core::ProcessSite& site(Pid pid);
    core::ProcessSite& ensure_site(Pid pid, topo::KernelId origin);
    /// Drops a replica site of a dead process, defensively freeing any
    /// leftover frames its page table still references.
    void drop_site(Pid pid);
    task::Task* find_task(Tid tid);
    task::Task& add_task(std::unique_ptr<task::Task> task);
    /// Puts a dormant record a migration just reactivated back in the live
    /// index (Migration::on_migrate's revival branch).
    void revive_task(task::Task& t);
    /// Every record this kernel ever held, dormant ones included.
    std::size_t task_count() const { return tasks_.size(); }
    /// Records that can run: neither kExited nor kShadow.
    std::size_t live_task_count();

    /// Total queueing time on this kernel's per-process mmap locks.
    Nanos mmap_lock_wait_time() const;

    /// Visits every task record on this kernel (SSI listings).
    void for_each_task(const std::function<void(const task::Task&)>& fn) const {
        for (const auto& [tid, t] : tasks_) fn(*t);
    }

    /// Mutable visit of every task record (elastic sweeps). Same
    /// deterministic tid order as for_each_task.
    void for_each_task_mut(const std::function<void(task::Task&)>& fn) {
        for (auto& [tid, t] : tasks_) fn(*t);
    }

    /// Visits the records that can run, in the same tid order (the
    /// balancer's per-tick scans). `fn` may yield.
    void for_each_live_task(const std::function<void(task::Task&)>& fn);

    /// Visits every process site on this kernel (invariant checkers).
    void for_each_site(const std::function<void(core::ProcessSite&)>& fn) {
        for (auto& [pid, site] : sites_) fn(*site);
    }

    /// Global ids from this kernel's static range (Popcorn-style
    /// per-kernel PID ranges keep allocation message-free).
    Pid alloc_pid() { return id_range_base() + (next_id_ += 2); }
    static constexpr Pid kIdRangeSpan = 1'000'000;
    Pid id_range_base() const { return (static_cast<Pid>(id_) + 1) * kIdRangeSpan; }

    // --- Syscall facade (called on the current task's actor) ---
    mem::Vaddr sys_mmap(task::Task& t, std::uint64_t length, std::uint32_t prot);
    int sys_munmap(task::Task& t, mem::Vaddr addr, std::uint64_t length);
    int sys_mprotect(task::Task& t, mem::Vaddr addr, std::uint64_t length,
                     std::uint32_t prot);
    int sys_futex_wait(task::Task& t, mem::Vaddr uaddr, std::uint32_t val,
                       Nanos timeout = -1);
    mem::Vaddr sys_brk(task::Task& t, mem::Vaddr new_brk);
    int sys_futex_wake(task::Task& t, mem::Vaddr uaddr, std::uint32_t max_wake);
    void sys_yield(task::Task& t);
    void sys_exit(task::Task& t, int status);
    /// Exit on a killed kernel: local bookkeeping only (no group messages —
    /// the node is dead and the origin's reaper owns the group record).
    void sys_exit_local(task::Task& t, int status);

    /// The page-fault entry (installed as the task MMU's handler). A trap
    /// is a kernel entry (Task::enter_kernel).
    mem::Mmu::FaultResult handle_fault(task::Task& t, mem::Vaddr va,
                                       std::uint32_t access);

    /// Counts `t`'s kernel entry and charges the syscall entry cost; every
    /// sys_* calls it first.
    void syscall_entry(task::Task& t);

private:
    sim::Engine& engine_;
    const topo::Topology& topo_;
    const topo::CostModel& costs_;
    mem::PhysMem& phys_;
    msg::Fabric& fabric_;
    msg::Node& node_;
    topo::KernelId id_;
    mem::FrameAllocator frames_;
    trace::MetricsRegistry metrics_; ///< before sched_ and the services, which keep refs
    task::Scheduler sched_;
    base::Counters counters_;

    home::Map home_map_;
    std::map<Pid, std::unique_ptr<core::ProcessSite>> sites_;
    /// Owns every record, forever: exited threads, shadows, and retired
    /// intermediate records stay for find_task and the audits.
    std::map<Tid, std::unique_ptr<task::Task>> tasks_;
    /// The records of tasks_ that may still run, so per-tick scans cost the
    /// live threads rather than every record ever held. add_task and
    /// revive_task insert; a record that turned kExited or kShadow is
    /// dropped by the next walk that meets it (only revival makes a
    /// dormant record live again).
    std::map<Tid, task::Task*> live_;
    Pid next_id_ = 0;
    ActorResolver resolver_;

    std::unique_ptr<core::VmaServer> vma_;
    std::unique_ptr<core::PageOwner> pages_;
    std::unique_ptr<core::DFutex> futex_;
    std::unique_ptr<core::ThreadGroups> groups_;
    std::unique_ptr<core::Migration> migration_;
    std::unique_ptr<core::Ssi> ssi_;
    std::unique_ptr<balance::Balancer> balancer_; ///< null when policy kNone
    std::unique_ptr<elastic::Elastic> elastic_;   ///< null when not enabled
};

} // namespace rko::kernel
