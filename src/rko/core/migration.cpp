#include "rko/core/migration.hpp"

#include <algorithm>
#include <cstddef>

#include "rko/check/gate.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/core/thread_group.hpp"
#include "rko/kernel/kernel.hpp"
#include "rko/trace/trace.hpp"

namespace rko::core {

Migration::Migration(kernel::Kernel& k)
    : k_(k),
      out_(k.metrics().counter("migration.out")),
      in_(k.metrics().counter("migration.in")),
      back_(k.metrics().counter("migration.back")),
      latency_(k.metrics().histogram("migration.total_ns")),
      checkpoint_ns_(k.metrics().histogram("migration.checkpoint_ns")),
      transfer_ns_(k.metrics().histogram("migration.transfer_ns")) {}

void Migration::install() {
    const auto handler = [this](msg::Node& node, msg::MessagePtr m) {
        on_migrate(node, std::move(m));
    };
    k_.node().register_handler(msg::MsgType::kMigrate, msg::HandlerClass::kLeaf, handler);
    k_.node().register_handler(msg::MsgType::kMigrateBack, msg::HandlerClass::kLeaf,
                               handler);
}

bool Migration::migrate_out(task::Task& t, topo::KernelId dest,
                            MigrationBreakdown* breakdown) {
    RKO_ASSERT(t.actor == &k_.engine().current());
    if (dest == k_.id()) return false;
    // Pre-flight (elastic): a destination already declared dead cannot
    // accept; fail fast so the caller re-places the thread.
    if (k_.node().peer_dead(dest)) return false;
    out_.inc();
    trace::Tracer* tr = trace::active(k_.engine());
    ProcessSite& site = k_.site(t.pid);
    const Nanos t0 = k_.engine().now();

    // --- Phase 1: checkpoint. Pack the architectural context and leave the
    // scheduler. The context bytes are synthesized here (the guest state
    // lives on the fiber); packing cost = one pass over the save area.
    task::ThreadContext ctx{};
    ctx.rip = 0x401000 + static_cast<std::uint64_t>(t.tid);
    ctx.fs_base = 0x7f0000000000ULL + static_cast<std::uint64_t>(t.tid) * 0x1000;
    for (std::size_t i = 0; i < ctx.gpr.size(); ++i) {
        ctx.gpr[i] = static_cast<std::uint64_t>(t.tid) * 31 + i;
    }
    sim::current_actor().sleep_for(k_.costs().copy_cost(sizeof ctx));
    if (t.on_core()) {
        k_.sched().depart(t);
    } else {
        // Stolen while queued: steal_queued() already detached the task from
        // the runqueue and marked it kMigrating; there is no core to free.
        RKO_ASSERT(t.state == task::TaskState::kMigrating);
    }
    const Nanos t1 = k_.engine().now();
    checkpoint_ns_.add(t1 - t0);
    if (tr != nullptr) {
        tr->span(k_.engine(), k_.id(), "migrate.checkpoint", t0,
                 static_cast<std::uint64_t>(t.tid));
    }

    // --- Phase 2: transfer + remote instantiation. With working-set push
    // enabled the checkpoint piggybacks the task's top-K hot VPNs (§15);
    // the wire is truncated to what actually ships, so a disabled or empty
    // tracker costs exactly the old message.
    const bool back = dest == t.origin;
    MigrateReq req{};
    req.pid = t.pid;
    req.tid = t.tid;
    req.origin = t.origin;
    req.from = k_.id();
    req.ctx = ctx;
    req.workset_count = 0;
    if (k_.pages().workset_push() > 0) {
        std::array<task::WorksetEntry, task::kMaxWorkset> hot{};
        std::uint32_t n = 0;
        for (std::uint32_t i = 0; i < t.workset_size; ++i) {
            if (t.workset[i].heat > 0) hot[n++] = t.workset[i];
        }
        // Hottest first to pick the K that matter, then VPN order on the
        // wire — deterministic and contiguous for the pull round.
        std::sort(hot.begin(), hot.begin() + n, [](const auto& a, const auto& b) {
            return a.heat != b.heat ? a.heat > b.heat : a.vpn < b.vpn;
        });
        const auto keep = std::min<std::uint32_t>(
            {n, static_cast<std::uint32_t>(k_.pages().workset_push()),
             task::kMaxWorkset});
        std::sort(hot.begin(), hot.begin() + keep,
                  [](const auto& a, const auto& b) { return a.vpn < b.vpn; });
        for (std::uint32_t i = 0; i < keep; ++i) req.workset_vpn[i] = hot[i].vpn;
        req.workset_count = keep;
    }
    msg::RpcStatus st = msg::RpcStatus::kOk;
    auto reply = k_.node().rpc(
        dest,
        msg::make_message_prefix(back ? msg::MsgType::kMigrateBack
                                      : msg::MsgType::kMigrate,
                                 msg::MsgKind::kRequest, req, wire_bytes(req)),
        &st);
    if (reply == nullptr || !reply->payload_as<MigrateResp>().ok) {
        // Destination died mid-transfer or refused (finished entity): the
        // thread never left — put the record back in limbo for the caller
        // to re-place (it still runs on this kernel's actor).
        t.state = task::TaskState::kMigrating;
        t.balance_target = -1;
        return false;
    }
    const Nanos t2 = k_.engine().now();
    transfer_ns_.add(t2 - t1);
    if (tr != nullptr) {
        tr->span(k_.engine(), k_.id(), "migrate.transfer", t1,
                 static_cast<std::uint64_t>(t.tid));
    }
    if (back) back_.inc();

    // --- Source-side cleanup: the origin keeps a shadow for the group;
    // intermediate kernels drop the record entirely.
    ProcessSite& src_site = site;
    t.balance_target = -1;
    if (k_.id() == t.origin) {
        t.state = task::TaskState::kShadow;
        t.actor = nullptr;
        t.core = -1;
    } else {
        src_site.local_tasks().erase(t.tid);
        t.state = task::TaskState::kExited; // record retired; entity lives on
        t.actor = nullptr;
    }

    if (check::enabled()) {
        // Post-conditions: the record left behind is dormant (no actor, no
        // core) — the execution entity now lives at the destination.
        RKO_ASSERT_MSG(t.actor == nullptr && t.core < 0,
                       "migrated-out task still owns an actor or core");
        RKO_ASSERT_MSG(
            k_.id() != t.origin || t.state == task::TaskState::kShadow,
            "origin must keep a shadow record for a migrated-out thread");
    }

    latency_.add(t2 - t0);
    if (breakdown != nullptr) {
        breakdown->checkpoint = t1 - t0;
        breakdown->transfer = t2 - t1;
        breakdown->total = t2 - t0;
        // resume is filled by the api layer once a core is re-acquired.
    }
    return true;
}

void Migration::on_migrate(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_prefix_as<MigrateReq>();
    // The workset tail travels only when the source shipped one (see
    // migrate_out); bytes past payload_size are unspecified, so gate every
    // tail read on the wire actually carrying the count.
    const std::uint32_t shipped =
        m->hdr.payload_size > offsetof(MigrateReq, workset_count)
            ? std::min(req.workset_count, task::kMaxWorkset)
            : 0;
    in_.inc();
    trace::Span span(k_.engine(), k_.id(), "migrate.instantiate",
                     static_cast<std::uint64_t>(req.tid));

    // Elastic: a thread whose fiber already finished (killed mid-flight, or
    // this kernel is itself going down) cannot be re-instantiated here.
    if (k_.node().dead()) {
        node.reply(*m, msg::make_message(m->hdr.type, msg::MsgKind::kReply,
                                         MigrateResp{false}));
        return;
    }
    if (sim::Actor* a = k_.resolve_actor(req.tid); a == nullptr || a->finished()) {
        node.reply(*m, msg::make_message(m->hdr.type, msg::MsgKind::kReply,
                                         MigrateResp{false}));
        return;
    }

    task::Task* t = k_.find_task(req.tid);
    if (t != nullptr) {
        // Back-migration (or revisit): reactivate the dormant record.
        RKO_ASSERT(t->state == task::TaskState::kShadow ||
                   t->state == task::TaskState::kExited);
        t->shadow = false;
        t->state = task::TaskState::kNew;
        t->core = -1;
        t->wake_pending = false;
        t->stealable = false;
        t->balance_target = -1;
        t->arrived = k_.engine().now();
        t->fault_from.fill(0);
        t->actor = k_.resolve_actor(req.tid);
        k_.site(req.pid).local_tasks()[req.tid] = t;
        k_.revive_task(*t);
    } else {
        task::Task& fresh =
            k_.groups().instantiate_local(req.pid, req.tid, req.origin, "migrated");
        t = &fresh;
    }
    // The stride detector must restart on arrival — a revisit reactivates
    // the task's OLD record here, and a stale streak would send a bogus
    // multi-page window on the first unrelated fault. The fault stream
    // crosses a different fabric edge now; fresh records get the same
    // treatment for uniformity.
    t->read_streak = {};
    t->write_streak = {};
    // Working-set migration (§15): restart the tracker seeded with the
    // shipped hot set and queue it for the post-resume pull round.
    t->workset_size = 0;
    for (std::uint32_t i = 0; i < shipped; ++i) {
        t->workset[t->workset_size++] = task::WorksetEntry{req.workset_vpn[i], 1};
        t->pending_workset[i] = req.workset_vpn[i];
    }
    t->pending_workset_count = shipped;
    // Post-copy: the pull round counts as the read stream's first window.
    // Every page above 0 lies inside it, so the thread's first read fault
    // continues the stream and opens its second window, and the tail
    // outside the top-K streams in from the first touch.
    if (k_.pages().workset_push() > 0) {
        t->read_streak = {0, PageOwner::kPrefetchMinRun, ~mem::Vaddr{0}};
    }
    // Unpacking the context costs one pass over the save area.
    sim::current_actor().sleep_for(k_.costs().copy_cost(sizeof req.ctx));

    // Instantiation slept twice (clone cost, context unpack) and a kill can
    // interleave with either yield: the entry guard above saw a live node,
    // but by now this kernel may be a corpse. Retire the half-born record —
    // no fiber will ever arrive (the source's rpc ticket dies with the node
    // and the thread re-places there), and a live kNew record on an out
    // kernel both trips the membership audit and wedges do_kill's drain.
    if (k_.node().dead()) {
        k_.site(req.pid).local_tasks().erase(req.tid);
        t->actor = nullptr;
        t->state = task::TaskState::kExited;
        return;
    }

    // Tell the origin where the thread lives now (one-way; ordering with
    // the thread's own exit is per-channel FIFO from this kernel).
    if (k_.id() != req.origin) {
        k_.node().send(req.origin,
                       msg::make_message(msg::MsgType::kGroupUpdate, msg::MsgKind::kOneway,
                                         GroupUpdateMsg{req.pid, req.tid,
                                                        GroupUpdateKind::kLocation,
                                                        k_.id()}));
    } else {
        k_.site(req.pid).group().location[req.tid] = k_.id();
    }

    node.reply(*m, msg::make_message(m->hdr.type, msg::MsgKind::kReply, MigrateResp{true}));
}

} // namespace rko::core
