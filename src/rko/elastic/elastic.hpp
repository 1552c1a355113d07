// Kernel elasticity: failure, drain, and hot add/remove (DESIGN.md §11).
//
// Popcorn's companion work on fault tolerance treats each kernel's page
// ownership and futex registrations as *leases* that must be renewed over
// the messaging layer; a kernel that stops renewing is declared dead and
// its resources are re-homed by the survivors. This subsystem reproduces
// that shape on the simulated fabric:
//
//   - Leases ride the balance-gossip tick: every kLoadGossip arrival
//     re-stamps the sender's lease. A kernel silent for `lease_misses`
//     balance periods is probed with a timed kPing; a probe that times out
//     declares the peer dead (fail-stop — the sim kills a kernel by marking
//     its msg::Node dead, so a probe can never falsely fail).
//   - Death is broadcast (kMembershipUpdate) and each survivor's reaper
//     actor re-homes the dead kernel's footprint: directory entries are
//     stripped of the dead holder (origin or surviving sharers reclaim the
//     page; sole-copy pages are lost), its futex waiters are dequeued, its
//     group members are marked exited (joiners unblock through the normal
//     CLEARTID path), and its in-flight RPCs fail with kPeerDead.
//   - drain() evacuates a kernel instead: queued threads are re-queued on
//     peers, running threads get migration hints, blocked threads are
//     spuriously woken so they migrate at the post-wait checkpoint, and the
//     emptied kernel hands every page copy back to each origin
//     (kElasticEvict) before parting. A parted kernel keeps its node alive
//     and may later rejoin.
//   - join() (hot add) announces the kernel and boots its balancer, so
//     idle-steal starts pulling work within one balance period. Kernels in
//     ElasticConfig::deferred_mask boot parted for staggered hot-join runs.
//
// Only non-origin kernels may be killed or drained: the origin kernel of a
// process is immortal (Popcorn's home-kernel assumption) — it holds the
// master directory, group record, and futex table for its processes.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "rko/core/wire.hpp"
#include "rko/msg/message.hpp"
#include "rko/race/race.hpp"
#include "rko/sim/actor.hpp"
#include "rko/topo/topology.hpp"
#include "rko/trace/metrics.hpp"

namespace rko::kernel {
class Kernel;
}
namespace rko::msg {
class Node;
}

namespace rko::elastic {

/// One kernel's view of a peer's membership state.
enum class PeerState : std::uint8_t {
    kAlive = 0, ///< participating (default)
    kParted,    ///< left voluntarily (drained / deferred boot); node alive
    kDead,      ///< declared dead by the failure detector; node unreachable
};

const char* peer_state_name(PeerState state);

struct ElasticConfig {
    bool enabled = false;
    /// Balance periods a peer may stay silent before it is probed; a probe
    /// timing out (one more period) declares it dead.
    int lease_misses = 4;
    /// Kernels that boot parted (hot-join targets): their balancers are not
    /// started and every kernel excludes them from placement until
    /// Machine::join_kernel. Bit per kernel id.
    topo::KernelMask deferred_mask = 0;
};

/// Per-kernel membership-and-recovery service. Owns the reaper actor that
/// executes kill/drain/join requests and re-homes dead peers' resources.
class Elastic {
public:
    Elastic(kernel::Kernel& k, const ElasticConfig& config);
    Elastic(const Elastic&) = delete;
    Elastic& operator=(const Elastic&) = delete;
    ~Elastic();

    /// Registers kPing / kMembershipUpdate (inline) and kElasticEvict
    /// (blocking). Must precede Fabric::start_all.
    void install();

    /// Boots the reaper actor.
    void start();

    /// Asks the reaper to finish; it completes on a later engine run.
    void request_stop();
    bool stopped() const;

    // --- Membership views (balancer/SSI placement filters, checkers) ---
    PeerState peer_state(topo::KernelId kernel) const {
        return state_[static_cast<std::size_t>(kernel)];
    }
    bool alive(topo::KernelId kernel) const {
        return peer_state(kernel) == PeerState::kAlive;
    }
    bool draining() const { return draining_; }

    // --- Lease plumbing ---
    /// Gossip arrival (Ssi, on the dispatcher): renews `peer`'s lease.
    void note_peer_seen(topo::KernelId peer);
    /// Probes peers whose lease expired; declares non-responders dead.
    /// Runs on the balancer's tick actor (it may park in the probe rpc).
    void check_leases();
    Nanos lease_duration() const;
    /// A kernel was killed (host side, api::Machine::kill_kernel). Idle
    /// kernels park instead of renewing leases that every one of them
    /// would renew, so the kill wakes this kernel's lease checker: its
    /// balancer ticks until every peer it holds a lease on has renewed it
    /// since now or been declared dead (watching_leases).
    void watch_leases();
    bool watching_leases() const;

    // --- Host-side requests (api::Machine); executed by the reaper ---
    void request_kill();
    void request_drain();
    void request_join();

    // --- Hooks installed by the api layer (it owns the thread objects) ---
    /// Kill: unwind every live guest fiber hosted on this kernel.
    void set_thread_killer(std::function<void()> fn) {
        thread_killer_ = std::move(fn);
    }
    /// Reap, at the origin: a group member died with its kernel — publish
    /// its CLEARTID word so joiners unblock.
    void set_thread_lost(std::function<void(Pid, Tid)> fn) {
        thread_lost_ = std::move(fn);
    }

private:
    void reaper_body(sim::Actor& self);
    void ring_reaper();
    void do_kill(sim::Actor& self);
    void do_drain(sim::Actor& self);
    void do_join();
    /// Survivor-side re-homing of one dead peer's footprint.
    void reap_dead(topo::KernelId dead);
    void declare_dead(topo::KernelId subject, bool broadcast);
    /// Sharded homes (rko/home): removes `subject` from the local home map
    /// and flags every shard this kernel inherits as rebuilding, queueing
    /// the census rebuilds for the reaper. Inline-safe (pure state).
    void note_home_removed(topo::KernelId subject);
    /// Reaper-side: drains home_rebuild_queue_ (kHomeRebuild censuses).
    void process_home_rebuilds();
    void broadcast_membership(core::MembershipEvent event, topo::KernelId subject);
    /// One drain sweep: detach queued threads, hint running ones, spuriously
    /// wake blocked ones. Returns threads nudged.
    std::uint32_t evacuate_once();
    /// Best alive peer to evacuate onto (most idle cores per the gossip
    /// table; first alive peer when the table is cold). -1 = none alive.
    topo::KernelId pick_target() const;
    void drop_all_sites();
    Nanos balance_period() const;

    void on_ping(msg::Node& node, msg::MessagePtr m);
    void on_membership(msg::Node& node, msg::MessagePtr m);
    void on_evict(msg::Node& node, msg::MessagePtr m);

    kernel::Kernel& k_;
    ElasticConfig config_;
    std::unique_ptr<sim::Actor> reaper_;
    bool stop_ = false;
    bool kill_req_ = false;
    bool drain_req_ = false;
    bool join_req_ = false;
    bool draining_ = false;
    std::array<PeerState, static_cast<std::size_t>(topo::kMaxKernels)> state_{};
    /// Membership views are *intentionally* lease-eventual (a placement
    /// decision may race a death declaration and every consumer tolerates
    /// that): kRacyOk documents it for the race detector.
    race::ShadowCell membership_shadow_{"elastic.membership",
                                        race::ShadowCell::Policy::kRacyOk};
    /// Virtual time each peer was last heard from; -1 = never (no lease yet).
    std::array<Nanos, static_cast<std::size_t>(topo::kMaxKernels)> last_seen_{};
    /// The last kill's time (watch_leases); -1 = none.
    Nanos watch_since_ = -1;
    std::deque<topo::KernelId> dead_queue_;
    /// One inherited home shard awaiting its census rebuild.
    struct HomeRebuild {
        Pid pid;
        int shard;
        topo::KernelId from; ///< the removed previous owner
    };
    std::deque<HomeRebuild> home_rebuild_queue_;

    std::function<void()> thread_killer_;
    std::function<void(Pid, Tid)> thread_lost_;

    // Registry-backed ("elastic.*" in the kernel's MetricsRegistry).
    trace::Counter& probes_;          ///< lease probes sent
    trace::Counter& deaths_declared_; ///< deaths this kernel detected first
    trace::Counter& peer_deaths_;     ///< peers marked dead (any source)
    trace::Counter& pages_rehomed_;   ///< directory entries stripped of a dead holder
    trace::Counter& pages_lost_;      ///< sole-copy pages gone with their holder
    trace::Counter& futex_orphans_;   ///< dead kernels' waiters dequeued
    trace::Counter& threads_lost_;    ///< group members reaped with their kernel
    trace::Counter& drain_evacuated_; ///< threads nudged off a draining kernel
    trace::Counter& drain_pages_evicted_; ///< page copies handed home by drains
    trace::Counter& joins_;           ///< hot-joins performed by this kernel
    trace::Counter& home_rebuilds_;   ///< home shards inherited and rebuilt
    trace::Counter& home_entries_rebuilt_; ///< directory entries reconstructed
};

} // namespace rko::elastic
