#include "rko/balance/balance.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "rko/base/assert.hpp"
#include "rko/core/dfutex.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/core/ssi.hpp"
#include "rko/core/wire.hpp"
#include "rko/kernel/kernel.hpp"
#include "rko/msg/node.hpp"
#include "rko/elastic/elastic.hpp"
#include "rko/task/sched.hpp"
#include "rko/trace/trace.hpp"

namespace rko::balance {

const char* policy_name(Policy policy) {
    switch (policy) {
    case Policy::kNone: return "none";
    case Policy::kThresholdPush: return "threshold-push";
    case Policy::kIdleSteal: return "idle-steal";
    case Policy::kAffinity: return "affinity";
    }
    return "?";
}

Balancer::Balancer(kernel::Kernel& k, const BalanceConfig& config)
    : k_(k),
      config_(config),
      ticks_(k.metrics().counter("balance.ticks")),
      gossip_sent_(k.metrics().counter("balance.gossip_sent")),
      pushes_(k.metrics().counter("balance.pushes")),
      steals_(k.metrics().counter("balance.steals")),
      stolen_(k.metrics().counter("balance.stolen")),
      steal_denied_(k.metrics().counter("balance.steal_denied")),
      hints_(k.metrics().counter("balance.hints")),
      staleness_(k.metrics().histogram("balance.census_age_ns")) {
    RKO_ASSERT(config_.period > 0);
}

Balancer::~Balancer() = default;

void Balancer::install() {
    k_.node().register_handler(
        msg::MsgType::kSteal, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) { on_steal(node, std::move(m)); });
}

void Balancer::start() {
    // Restartable (elastic hot-join): a finished tick actor from a previous
    // life is simply replaced.
    RKO_ASSERT(actor_ == nullptr || actor_->finished());
    stop_ = false;
    idle_parked_ = false;
    was_active_ = false;
    k_.ssi().set_balance_period(config_.period);
    k_.ssi().set_gossip_hook([this] { doorbell(); });
    k_.sched().set_enqueue_hook([this] { doorbell(); });
    actor_ = std::make_unique<sim::Actor>(
        k_.engine(), "balancer.k" + std::to_string(k_.id()),
        [this](sim::Actor& self) { tick_body(self); });
    actor_->start();
}

void Balancer::request_stop() {
    stop_ = true;
    if (actor_ != nullptr && !actor_->finished()) actor_->unpark();
}

bool Balancer::stopped() const { return actor_ == nullptr || actor_->finished(); }

void Balancer::doorbell() {
    if (idle_parked_ && actor_ != nullptr && !actor_->finished()) actor_->unpark();
}

bool Balancer::may_move(const task::Task& t) const {
    const auto it = moves_.find(t.tid);
    if (it != moves_.end() && it->second >= config_.migration_budget) return false;
    return k_.engine().now() - t.arrived >= config_.min_residency;
}

void Balancer::note_moved(const task::Task& t) { ++moves_[t.tid]; }

bool Balancer::has_work() const {
    if (k_.live_task_count() > 0) return true;
    // In-flight RPCs keep the tick alive so the lease checker can notice a
    // peer that died while we were waiting on it, and so does a kill until
    // each peer has renewed its lease since or been declared dead.
    if (k_.node().pending_replies() > 0) return true;
    if (k_.elastic() != nullptr && k_.elastic()->watching_leases()) return true;
    // An otherwise idle kernel keeps ticking only while the gossip table
    // shows a peer with queued threads: thieves need to steal from it, and
    // under threshold-push the periodic gossip is what advertises this
    // kernel's idle cores to the overloaded side. Once every peer drains
    // (their going-idle gossip zeroes the rows) the balancer parks, so a
    // drained machine still quiesces.
    for (topo::KernelId peer = 0; peer < k_.fabric().nkernels(); ++peer) {
        if (peer == k_.id()) continue;
        if (k_.elastic() != nullptr && !k_.elastic()->alive(peer)) continue;
        const core::LoadEntry& e = k_.ssi().table_entry(peer);
        if (e.stamp >= 0 && e.nrunnable > 0) return true;
    }
    return false;
}

void Balancer::tick_body(sim::Actor& self) {
    while (!stop_) {
        if (!has_work()) {
            if (was_active_) {
                // Going-idle edge: one final gossip so peers' tables stop
                // showing this kernel's old load (and stop ticking at it).
                gossip();
                was_active_ = false;
            }
            idle_parked_ = true;
            self.park();
            idle_parked_ = false;
            continue;
        }
        was_active_ = true;
        ticks_.inc();
        const Nanos age = k_.ssi().table_age(k_.engine().now());
        if (age >= 0) staleness_.add(age);
        try {
            gossip();
            // The lease check rides the gossip tick: peers whose renewals
            // went missing get probed (and possibly declared dead) here.
            if (k_.elastic() != nullptr) k_.elastic()->check_leases();
            decide();
        } catch (const msg::LocalNodeDead&) {
            // This kernel was killed mid-tick; the actor winds down.
            break;
        }
        if (stop_) break;
        // park_for (not sleep_for) so a doorbell raised mid-tick — or the
        // stop request — shortens the wait instead of tripping on a banked
        // permit.
        self.park_for(config_.period);
    }
}

void Balancer::gossip() {
    const auto ntasks = static_cast<std::uint32_t>(k_.live_task_count());
    const auto nrunnable = static_cast<std::uint32_t>(k_.sched().runnable());
    const auto idle = static_cast<std::uint32_t>(k_.sched().idle_cores());
    const Nanos now = k_.engine().now();
    k_.ssi().note_load(k_.id(), ntasks, nrunnable, idle, now);
    core::LoadGossipMsg row{k_.id(), ntasks, nrunnable, idle, now};
    // Piggyback the owner-affinity census (DESIGN.md §13): the hottest
    // contended futex word this kernel's origin table served and who holds
    // it. Remote balancers use it to converge contenders onto the holder.
    const core::DFutex::HotWord hot = k_.futex().hottest_word();
    // Publication floor: one-shot futexes (join/exit words) leave a credit
    // or two in the census before their waiters disperse, and a hint built
    // on that noise migrates threads for nothing — demand sustained
    // contention (a real convoy's worth of heat) before naming an owner.
    constexpr std::uint32_t kMinHotHeat = 5;
    if (hot.owner >= 0 && hot.heat >= kMinHotHeat) {
        row.hot_pid = hot.pid;
        row.hot_uaddr = hot.uaddr;
        row.hot_owner = hot.owner;
        row.hot_heat = hot.heat;
        k_.ssi().note_hot_word(k_.id(), hot.pid, hot.uaddr, hot.owner, hot.heat,
                               now);
    }
    for (const topo::KernelId peer : k_.fabric().peers_of(k_.id())) {
        if (k_.elastic() != nullptr && !k_.elastic()->alive(peer)) continue;
        k_.node().send(peer, msg::make_message(msg::MsgType::kLoadGossip,
                                               msg::MsgKind::kOneway, row));
        gossip_sent_.inc();
    }
}

void Balancer::decide() {
    switch (config_.policy) {
    case Policy::kNone:
        break;
    case Policy::kThresholdPush:
        decide_push();
        break;
    case Policy::kIdleSteal:
        decide_steal();
        break;
    case Policy::kAffinity:
        // Affinity is a placement refinement on top of load convergence:
        // steal for utilization, then bias running threads toward the
        // kernel serving their faults.
        decide_steal();
        decide_affinity_hints();
        break;
    }
    if (config_.policy == Policy::kAffinity) decay_fault_counters();
    // Working-set tracker aging (DESIGN.md §15): every policy — including
    // kNone — rides the balancer period as its decay tick, halving each
    // tracked page's heat so phase shifts age out of the pre-copy set.
    k_.for_each_live_task([](task::Task& t) { t.workset_decay(); });
}

void Balancer::decide_push() {
    // Cache each candidate destination's spare capacity from the gossip
    // table and debit it per push, so one tick doesn't dogpile a peer.
    std::array<std::int64_t, static_cast<std::size_t>(topo::kMaxKernels)> spare{};
    for (topo::KernelId peer = 0; peer < k_.fabric().nkernels(); ++peer) {
        if (peer == k_.id()) continue;
        if (k_.elastic() != nullptr && !k_.elastic()->alive(peer)) continue;
        const core::LoadEntry& e = k_.ssi().table_entry(peer);
        spare[static_cast<std::size_t>(peer)] =
            e.stamp >= 0 ? static_cast<std::int64_t>(e.idle_cores) : 0;
    }
    const auto filter = [this](const task::Task& t) { return may_move(t); };
    while (k_.sched().runnable() > config_.push_threshold) {
        // Most spare capacity wins; lowest id breaks ties (deterministic).
        topo::KernelId dest = -1;
        std::int64_t best = 0;
        for (topo::KernelId peer = 0; peer < k_.fabric().nkernels(); ++peer) {
            if (peer == k_.id()) continue;
            if (spare[static_cast<std::size_t>(peer)] > best) {
                best = spare[static_cast<std::size_t>(peer)];
                dest = peer;
            }
        }
        if (dest < 0) return;
        task::Task* t = k_.sched().steal_queued(0, dest, filter);
        if (t == nullptr) return; // nothing movable (hysteresis) this tick
        note_moved(*t);
        pushes_.inc();
        --spare[static_cast<std::size_t>(dest)];
        if (trace::Tracer* tr = trace::active(k_.engine())) {
            tr->instant(k_.engine(), k_.id(), "balance.push",
                        static_cast<std::uint64_t>(t->tid));
        }
    }
}

void Balancer::decide_steal() {
    int capacity = k_.sched().idle_cores();
    if (capacity <= 0) return;
    // Local working copy of the table's queue depths, debited per grant.
    std::array<std::int64_t, static_cast<std::size_t>(topo::kMaxKernels)> depth{};
    for (topo::KernelId peer = 0; peer < k_.fabric().nkernels(); ++peer) {
        if (peer == k_.id()) continue;
        if (k_.elastic() != nullptr && !k_.elastic()->alive(peer)) continue;
        const core::LoadEntry& e = k_.ssi().table_entry(peer);
        depth[static_cast<std::size_t>(peer)] =
            e.stamp >= 0 ? static_cast<std::int64_t>(e.nrunnable) : 0;
    }
    while (capacity > 0) {
        topo::KernelId victim = -1;
        std::int64_t deepest = 0;
        for (topo::KernelId peer = 0; peer < k_.fabric().nkernels(); ++peer) {
            if (peer == k_.id()) continue;
            if (depth[static_cast<std::size_t>(peer)] > deepest) {
                deepest = depth[static_cast<std::size_t>(peer)];
                victim = peer;
            }
        }
        if (victim < 0) return;
        // Timed: a victim that dies mid-request must not hang the balancer
        // (and with it the whole kernel's lease checking) forever.
        msg::RpcStatus st = msg::RpcStatus::kOk;
        auto reply = k_.node().rpc_timed(
            victim, msg::make_message(msg::MsgType::kSteal, msg::MsgKind::kRequest,
                                      core::StealReq{k_.id(), 0}),
            2 * config_.period, &st);
        if (reply == nullptr) {
            steal_denied_.inc();
            depth[static_cast<std::size_t>(victim)] = 0;
            continue;
        }
        const auto& resp = reply->payload_as<core::StealResp>();
        if (!resp.granted) {
            steal_denied_.inc();
            depth[static_cast<std::size_t>(victim)] = 0; // stop asking this tick
            continue;
        }
        steals_.inc();
        --capacity;
        --depth[static_cast<std::size_t>(victim)];
        if (trace::Tracer* tr = trace::active(k_.engine())) {
            tr->instant(k_.engine(), k_.id(), "balance.steal",
                        static_cast<std::uint64_t>(resp.tid));
        }
    }
}

void Balancer::decide_affinity_hints() {
    k_.for_each_live_task([this](task::Task& t) {
        if (t.actor == nullptr || t.shadow) return;
        const bool awake = t.state == task::TaskState::kRunning ||
                           t.state == task::TaskState::kRunnable;
        // Futex sleepers stay eligible for the owner-affinity hint: a
        // contended workload keeps most contenders parked, so a
        // running-only filter would never see them. The hint is just a
        // flag consumed at the thread's own next syscall-return
        // checkpoint — set on a sleeper it means "re-home the moment a
        // grant or handoff wakes you".
        const bool futex_sleeper =
            t.state == task::TaskState::kBlocked && t.last_futex_word != 0;
        if (!awake && !futex_sleeper) return;
        if (t.balance_target >= 0) return; // hint already pending
        if (!may_move(t)) return;
        // Owner-affinity first (DESIGN.md §13): a thread that recently
        // slept on a gossiped hot word chases the grant-holder kernel, so
        // cross-kernel lock handoffs become local ones.
        if (t.last_futex_word != 0) {
            const topo::KernelId owner = k_.ssi().hot_word_owner(
                t.pid, t.last_futex_word, k_.engine().now());
            if (owner >= 0 && owner != k_.id() &&
                (k_.elastic() == nullptr || k_.elastic()->alive(owner))) {
                t.balance_target = owner;
                note_moved(t);
                hints_.inc();
                // Re-home a parked contender immediately instead of waiting
                // for an organic grant to reach it (which, under a healthy
                // handoff chain, only happens on budget-expiry rotations):
                // withdraw its convoy entry and wake it spuriously — legal
                // under the futex contract — so the post-wait checkpoint
                // migrates it and it re-parks on the owner's convoy. Same
                // dance as elastic drain. If the entry is already gone a
                // grant selected it and the wake is on its way.
                if (futex_sleeper &&
                    k_.futex().cancel_local(t.pid, t.tid, t.origin)) {
                    k_.sched().wake(t);
                }
                if (trace::Tracer* tr = trace::active(k_.engine())) {
                    tr->instant(k_.engine(), k_.id(), "balance.futex_affinity",
                                static_cast<std::uint64_t>(t.tid));
                }
                return;
            }
        }
        if (!awake) return; // fault affinity is for threads actively faulting
        std::uint64_t total = 0;
        std::uint32_t best_count = 0;
        topo::KernelId best = -1;
        for (topo::KernelId kid = 0; kid < k_.fabric().nkernels(); ++kid) {
            const std::uint32_t c = t.fault_from[static_cast<std::size_t>(kid)];
            total += c;
            if (c > best_count) { // ties resolve to the lowest kernel id
                best_count = c;
                best = kid;
            }
        }
        if (total < config_.affinity_min_faults) return;
        // Strict majority of recent faults served by one remote kernel:
        // the thread's working set lives there — chase it.
        if (best < 0 || best == k_.id() || best_count * 2 <= total) return;
        t.balance_target = best;
        note_moved(t);
        hints_.inc();
        if (trace::Tracer* tr = trace::active(k_.engine())) {
            tr->instant(k_.engine(), k_.id(), "balance.hint",
                        static_cast<std::uint64_t>(t.tid));
        }
    });
}

void Balancer::decay_fault_counters() {
    // Halve every counter each tick so the affinity signal tracks the
    // *recent* fault mix instead of accumulating forever.
    k_.for_each_live_task([](task::Task& t) {
        for (auto& c : t.fault_from) c /= 2;
    });
}

void Balancer::on_steal(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<core::StealReq>();
    const auto filter = [this](const task::Task& t) { return may_move(t); };
    task::Task* t = k_.sched().steal_queued(req.pid, req.thief, filter);
    if (t != nullptr) {
        stolen_.inc();
        note_moved(*t);
    }
    node.reply(*m, msg::make_message(
                       msg::MsgType::kSteal, msg::MsgKind::kReply,
                       core::StealResp{t != nullptr, t != nullptr ? t->pid : 0,
                                       t != nullptr ? t->tid : 0}));
}

} // namespace rko::balance
