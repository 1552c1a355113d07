// Single-system-image glue (paper §III): the distributed OS presents one
// task namespace and one load picture to software that asks.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "rko/core/wire.hpp"
#include "rko/msg/node.hpp"
#include "rko/race/race.hpp"
#include "rko/topo/topology.hpp"

namespace rko::kernel {
class Kernel;
}

namespace rko::core {

struct KernelLoad {
    topo::KernelId kernel;
    std::uint32_t ntasks;
    std::uint32_t nrunnable;
    std::uint32_t idle_cores;
};

/// One row of the age-stamped, eventually consistent load table fed by
/// kLoadGossip broadcasts (and refreshed as a side effect of census RPCs).
struct LoadEntry {
    std::uint32_t ntasks = 0;
    std::uint32_t nrunnable = 0;
    std::uint32_t idle_cores = 0;
    Nanos stamp = -1; ///< sender's virtual time at emission; -1 = never heard
};

class Ssi {
public:
    explicit Ssi(kernel::Kernel& k) : k_(k) {}

    /// Registers kTaskCensus / kLoadReport / kLoadGossip (all inline).
    void install();

    /// Machine-wide task count for `pid` (0 = everything), gathered with a
    /// census broadcast; runs on the calling task's actor.
    std::uint32_t global_task_count(Pid pid);

    /// Per-kernel load snapshot (census broadcast + local numbers).
    std::vector<KernelLoad> load_snapshot();

    /// The kernel with the most idle cores (rotating tie-break); the simple
    /// migration policy bench_rebalance exercises. Asks with a census
    /// broadcast, which also re-stamps the load table.
    topo::KernelId least_loaded_kernel();

    /// Folds one gossip row (or self-report) into the load table, keeping
    /// the newest stamp per kernel. No lock: the table is only mutated in
    /// non-awaiting sections of the cooperative simulation.
    void note_load(topo::KernelId kernel, std::uint32_t ntasks,
                   std::uint32_t nrunnable, std::uint32_t idle_cores, Nanos stamp);

    /// Sets the balance period, which bounds the age of the rows
    /// hot_word_owner() accepts; called by the balancer when it boots.
    /// 0 (default) accepts rows of any age.
    void set_balance_period(Nanos period) { balance_period_ = period; }

    const LoadEntry& table_entry(topo::KernelId kernel) const {
        return table_[static_cast<std::size_t>(kernel)];
    }

    /// Invoked (on the dispatcher) after each kLoadGossip lands; the
    /// balancer uses it as a doorbell to re-arm its parked tick loop.
    void set_gossip_hook(std::function<void()> hook) { gossip_hook_ = std::move(hook); }

    /// Age of the stalest peer row at `now`; -1 if some peer was never
    /// heard from. Feeds the balancer's census-staleness histogram.
    Nanos table_age(Nanos now) const;

    /// Folds a gossiped hot-word row (DESIGN.md §13) into the owner-affinity
    /// census: each origin publishes its hottest contended futex word and
    /// the kernel last granted it. Same stamped, eventually consistent
    /// discipline as note_load.
    void note_hot_word(topo::KernelId sender, Pid pid, mem::Vaddr uaddr,
                       topo::KernelId owner, std::uint32_t heat, Nanos stamp);
    /// The gossiped grant-holder kernel for (pid, uaddr); -1 when no row
    /// matches or the matching row is older than one balance period.
    topo::KernelId hot_word_owner(Pid pid, mem::Vaddr uaddr, Nanos now) const;

    /// Machine-wide task listing ("ps"): live tasks of `pid` (0 = all),
    /// gathered from every kernel. Shadows and exited records are skipped —
    /// each thread appears exactly once, wherever it currently runs.
    std::vector<TaskInfo> ps(Pid pid = 0);

private:
    void on_census(msg::Node& node, msg::MessagePtr m);
    void on_task_list(msg::Node& node, msg::MessagePtr m);
    void on_load_gossip(msg::Node& node, msg::MessagePtr m);
    CensusResp local_census(Pid pid) const;
    TaskListResp local_task_list(Pid pid) const;

    kernel::Kernel& k_;
    std::size_t rotor_ = 0; ///< tie-break rotation for least_loaded_kernel
    Nanos balance_period_ = 0;
    std::function<void()> gossip_hook_;
    std::array<LoadEntry, static_cast<std::size_t>(topo::kMaxKernels)> table_{};
    /// One gossiped hot word per origin kernel (owner-affinity census).
    struct HotWordEntry {
        Pid pid = 0;
        mem::Vaddr uaddr = 0;
        topo::KernelId owner = -1;
        std::uint32_t heat = 0;
        Nanos stamp = -1;
    };
    std::array<HotWordEntry, static_cast<std::size_t>(topo::kMaxKernels)>
        hot_words_{};
    /// The load table is *intentionally* eventually consistent (stamped
    /// rows, newest wins, no lock): kRacyOk documents that for the race
    /// detector and exempts its readers from staleness findings.
    race::ShadowCell table_shadow_{"ssi.load_table", race::ShadowCell::Policy::kRacyOk};
};

} // namespace rko::core
