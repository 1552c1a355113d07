#include "rko/core/thread_group.hpp"

#include "rko/check/gate.hpp"
#include "rko/core/vma_server.hpp"
#include "rko/kernel/kernel.hpp"

namespace rko::core {

void ThreadGroups::install() {
    k_.node().register_handler(
        msg::MsgType::kRemoteClone, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) { on_remote_clone(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kTaskExit, msg::HandlerClass::kInline,
        [this](msg::Node& node, msg::MessagePtr m) { on_task_exit(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kGroupUpdate, msg::HandlerClass::kInline,
        [this](msg::Node& node, msg::MessagePtr m) { on_group_update(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kGroupExit, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) { on_group_exit(node, std::move(m)); });
}

task::Task& ThreadGroups::instantiate_local(Pid pid, Tid tid, topo::KernelId origin,
                                            const char* name) {
    // The clone path's bookkeeping cost (task_struct, kernel stack, tid
    // wiring). Boot-time instantiation runs outside the simulation and is
    // free, like threads created by the boot loader.
    if (sim::current_engine() != nullptr) {
        sim::current_actor().sleep_for(k_.costs().thread_clone);
    }
    ProcessSite& site = k_.ensure_site(pid, origin);
    auto t = std::make_unique<task::Task>();
    t->tid = tid;
    t->pid = pid;
    t->origin = origin;
    t->kernel = k_.id();
    t->state = task::TaskState::kNew;
    t->actor = k_.resolve_actor(tid);
    t->name = name;
    t->arrived = sim::current_engine() != nullptr ? k_.engine().now() : 0;
    task::Task& ref = k_.add_task(std::move(t));
    site.local_tasks()[tid] = &ref;
    return ref;
}

void ThreadGroups::origin_join(Pid pid, Tid tid, topo::KernelId where) {
    ProcessSite& site = k_.ensure_site(pid, k_.id());
    RKO_ASSERT(site.is_origin());
    ThreadGroup& group = site.group();
    if (check::enabled()) {
        // Tid-space uniqueness: a join for an already-located member means
        // a duplicate spawn or a lost exit.
        RKO_ASSERT_MSG(!group.location.contains(tid),
                       "group join for a tid the origin already locates");
    }
    ++group.alive;
    ++group.spawned;
    group.location[tid] = where;
    group.replica_mask |= topo::kbit(where);
    group.replica_mask |= topo::kbit(k_.id());
}

bool ThreadGroups::spawn(task::Task& parent, ProcessSite& site, Tid tid,
                         topo::KernelId dest) {
    // 1. Register membership with the origin before the thread can run, so
    //    its exit notification can never precede its join.
    if (site.is_origin()) {
        origin_join(site.pid(), tid, dest);
    } else {
        k_.node().rpc(site.origin(),
                      msg::make_message(msg::MsgType::kGroupUpdate, msg::MsgKind::kRequest,
                                        GroupUpdateMsg{site.pid(), tid,
                                                       GroupUpdateKind::kJoin, dest}));
    }
    (void)parent;

    // 2. Instantiate the task where it will run.
    if (dest == k_.id()) {
        ++local_clones_;
        task::Task& t = instantiate_local(site.pid(), tid, site.origin(), "thread");
        RKO_ASSERT(t.actor != nullptr);
        t.actor->start();
        return true;
    }
    ++remote_clones_;
    auto reply = k_.node().rpc(
        dest, msg::make_message(msg::MsgType::kRemoteClone, msg::MsgKind::kRequest,
                                CloneReq{site.pid(), tid, site.origin()}));
    return reply->payload_as<CloneResp>().ok;
}

void ThreadGroups::task_exited(task::Task& t, int status) {
    t.exit_status = status;
    ProcessSite& site = k_.site(t.pid);
    site.local_tasks().erase(t.tid);
    if (site.is_origin()) {
        origin_exit(t.pid, t.tid, status);
    } else {
        k_.node().send(site.origin(),
                       msg::make_message(msg::MsgType::kTaskExit, msg::MsgKind::kOneway,
                                         TaskExitMsg{t.pid, t.tid, status}));
    }
}

void ThreadGroups::origin_exit(Pid pid, Tid tid, int status) {
    (void)status;
    ProcessSite& site = k_.site(pid);
    RKO_ASSERT(site.is_origin());
    ThreadGroup& group = site.group();
    // Idempotent: an elastic reap and a straggling kTaskExit (or a
    // mid-migration death reported from both ends) may both announce the
    // same tid; whichever lands first does the bookkeeping.
    if (group.location.erase(tid) == 0) return;
    RKO_ASSERT(group.alive > 0);
    --group.alive;
    // The origin-side shadow record (if any) is now dead.
    if (task::Task* shadow = k_.find_task(tid);
        shadow != nullptr && shadow->state == task::TaskState::kShadow) {
        shadow->state = task::TaskState::kExited;
    }
}

std::vector<Tid> ThreadGroups::reap_kernel(ProcessSite& site, topo::KernelId dead) {
    RKO_ASSERT(site.is_origin());
    ThreadGroup& group = site.group();
    std::vector<Tid> reaped;
    for (const auto& [tid, where] : group.location) {
        if (where == dead) reaped.push_back(tid);
    }
    for (const Tid tid : reaped) origin_exit(site.pid(), tid, 137);
    group.replica_mask &= ~topo::kbit(dead);
    return reaped;
}

void ThreadGroups::teardown(ProcessSite& site) {
    RKO_ASSERT(site.is_origin());
    RKO_ASSERT_MSG(site.group().alive == 0, "teardown of a live group");
    // Unmap everything the process could have mapped: heap, ctid block,
    // and the mmap arena. This runs the full destructive protocol (revoke
    // every copy machine-wide, acked replica broadcasts), so every frame
    // goes back to the allocator that owns it.
    k_.vma().munmap(site, mem::kHeapBase, mem::kMmapTop - mem::kHeapBase);
    // Replica sites are now empty shells; tell their kernels to drop them.
    const topo::KernelMask mask = site.group().replica_mask;
    for (topo::KernelId peer = 0; peer < k_.fabric().nkernels(); ++peer) {
        if (peer == k_.id() || (mask & topo::kbit(peer)) == 0) continue;
        k_.node().send(peer,
                       msg::make_message(msg::MsgType::kGroupExit, msg::MsgKind::kOneway,
                                         TaskExitMsg{site.pid(), 0, 0}));
    }
}

void ThreadGroups::on_group_exit(msg::Node& node, msg::MessagePtr m) {
    (void)node;
    const auto& req = m->payload_as<TaskExitMsg>();
    k_.drop_site(req.pid);
}

void ThreadGroups::on_remote_clone(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<CloneReq>();
    task::Task& t = instantiate_local(req.pid, req.tid, req.origin, "thread");
    CloneResp resp{t.actor != nullptr};
    if (t.actor != nullptr) t.actor->start();
    node.reply(*m, msg::make_message(msg::MsgType::kRemoteClone, msg::MsgKind::kReply,
                                     resp));
}

void ThreadGroups::on_task_exit(msg::Node& node, msg::MessagePtr m) {
    (void)node;
    const auto& exit = m->payload_as<TaskExitMsg>();
    if (k_.has_site(exit.pid)) origin_exit(exit.pid, exit.tid, exit.status);
}

void ThreadGroups::on_group_update(msg::Node& node, msg::MessagePtr m) {
    const auto& update = m->payload_as<GroupUpdateMsg>();
    switch (update.kind) {
    case GroupUpdateKind::kJoin:
        origin_join(update.pid, update.tid, update.where);
        break;
    case GroupUpdateKind::kLocation: {
        ProcessSite& site = k_.ensure_site(update.pid, k_.id());
        site.group().location[update.tid] = update.where;
        site.group().replica_mask |= topo::kbit(update.where);
        break;
    }
    }
    if (m->hdr.kind == msg::MsgKind::kRequest) {
        node.reply(*m, msg::make_message(msg::MsgType::kGroupUpdate, msg::MsgKind::kReply,
                                         update));
    }
}

} // namespace rko::core
