#include "rko/core/ssi.hpp"

#include <algorithm>

#include "rko/elastic/elastic.hpp"
#include "rko/kernel/kernel.hpp"

namespace rko::core {

namespace {

/// Elastic membership filter: without the subsystem every peer counts.
bool peer_alive(kernel::Kernel& k, topo::KernelId peer) {
    return k.elastic() == nullptr || k.elastic()->alive(peer);
}

std::vector<topo::KernelId> alive_peers(kernel::Kernel& k) {
    auto peers = k.fabric().peers_of(k.id());
    std::erase_if(peers,
                  [&k](topo::KernelId p) { return !peer_alive(k, p); });
    return peers;
}

} // namespace

void Ssi::install() {
    k_.node().register_handler(
        msg::MsgType::kTaskCensus, msg::HandlerClass::kInline,
        [this](msg::Node& node, msg::MessagePtr m) { on_census(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kLoadReport, msg::HandlerClass::kInline,
        [this](msg::Node& node, msg::MessagePtr m) { on_task_list(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kLoadGossip, msg::HandlerClass::kInline,
        [this](msg::Node& node, msg::MessagePtr m) { on_load_gossip(node, std::move(m)); });
}

void Ssi::note_load(topo::KernelId kernel, std::uint32_t ntasks,
                    std::uint32_t nrunnable, std::uint32_t idle_cores, Nanos stamp) {
    RKO_ASSERT(kernel >= 0 && kernel < topo::kMaxKernels);
    LoadEntry& e = table_[static_cast<std::size_t>(kernel)];
    if (stamp < e.stamp) return; // stale row racing a newer one: drop it
    e.ntasks = ntasks;
    e.nrunnable = nrunnable;
    e.idle_cores = idle_cores;
    e.stamp = stamp;
    table_shadow_.on_write();
}

void Ssi::note_hot_word(topo::KernelId sender, Pid pid, mem::Vaddr uaddr,
                        topo::KernelId owner, std::uint32_t heat, Nanos stamp) {
    RKO_ASSERT(sender >= 0 && sender < topo::kMaxKernels);
    HotWordEntry& e = hot_words_[static_cast<std::size_t>(sender)];
    if (stamp < e.stamp) return; // stale row racing a newer one: drop it
    e.pid = pid;
    e.uaddr = uaddr;
    e.owner = owner;
    e.heat = heat;
    e.stamp = stamp;
    table_shadow_.on_write();
}

topo::KernelId Ssi::hot_word_owner(Pid pid, mem::Vaddr uaddr, Nanos now) const {
    topo::KernelId owner = -1;
    std::uint32_t best_heat = 0;
    for (const HotWordEntry& e : hot_words_) {
        if (e.owner < 0 || e.pid != pid || e.uaddr != uaddr) continue;
        // Two periods, not one: a row's age at this kernel's own tick is
        // one full period plus transit when the two kernels' tick phases
        // align badly, so a one-period window rejects every row from some
        // peers no matter how regularly they gossip.
        if (balance_period_ > 0 && now - e.stamp > 2 * balance_period_) continue;
        if (e.heat > best_heat) {
            best_heat = e.heat;
            owner = e.owner;
        }
    }
    return owner;
}

void Ssi::on_load_gossip(msg::Node& node, msg::MessagePtr m) {
    (void)node;
    const auto& g = m->payload_as<LoadGossipMsg>();
    note_load(g.sender, g.ntasks, g.nrunnable, g.idle_cores, g.stamp);
    if (g.hot_owner >= 0) {
        note_hot_word(g.sender, g.hot_pid, g.hot_uaddr, g.hot_owner, g.hot_heat,
                      g.stamp);
    }
    // Gossip doubles as the elastic lease renewal (the cheap common case;
    // the failure detector only probes when renewals stop).
    if (k_.elastic() != nullptr) k_.elastic()->note_peer_seen(g.sender);
    if (gossip_hook_) gossip_hook_();
}

Nanos Ssi::table_age(Nanos now) const {
    Nanos oldest = 0;
    for (topo::KernelId peer = 0; peer < k_.fabric().nkernels(); ++peer) {
        if (peer == k_.id()) continue;
        if (!peer_alive(k_, peer)) continue;
        const LoadEntry& e = table_[static_cast<std::size_t>(peer)];
        if (e.stamp < 0) return -1;
        oldest = std::max(oldest, now - e.stamp);
    }
    return oldest;
}

CensusResp Ssi::local_census(Pid pid) const {
    CensusResp resp{0, 0, 0};
    // Count live (non-shadow) tasks hosted here; optionally scoped to pid.
    // Shadows are placeholders for threads running elsewhere — counting
    // them would double-count the single-system image.
    kernel::Kernel& k = k_;
    resp.nrunnable = static_cast<std::uint32_t>(k.sched().runnable());
    resp.idle_cores = static_cast<std::uint32_t>(k.sched().idle_cores());
    std::uint32_t count = 0;
    if (pid == 0) {
        count = static_cast<std::uint32_t>(k.live_task_count());
    } else if (k.has_site(pid)) {
        for (const auto& [tid, t] : k.site(pid).local_tasks()) {
            if (t->state != task::TaskState::kExited &&
                t->state != task::TaskState::kShadow) {
                ++count;
            }
        }
    }
    resp.ntasks = count;
    return resp;
}

std::uint32_t Ssi::global_task_count(Pid pid) {
    std::uint32_t total = local_census(pid).ntasks;
    msg::Message request;
    request.hdr.type = msg::MsgType::kTaskCensus;
    request.set_payload(CensusReq{pid});
    auto replies = k_.node().rpc_all(alive_peers(k_), request);
    for (const auto& reply : replies) {
        if (reply == nullptr) continue; // peer died mid-census
        total += reply->payload_as<CensusResp>().ntasks;
    }
    return total;
}

std::vector<KernelLoad> Ssi::load_snapshot() {
    std::vector<KernelLoad> loads;
    const CensusResp mine = local_census(0);
    loads.push_back(KernelLoad{k_.id(), mine.ntasks, mine.nrunnable, mine.idle_cores});

    msg::Message request;
    request.hdr.type = msg::MsgType::kTaskCensus;
    request.set_payload(CensusReq{0});
    const auto peers = alive_peers(k_);
    auto replies = k_.node().rpc_all(peers, request);
    const Nanos now = k_.engine().now();
    for (std::size_t i = 0; i < peers.size(); ++i) {
        if (replies[i] == nullptr) continue; // peer died mid-census
        const auto& resp = replies[i]->payload_as<CensusResp>();
        loads.push_back(KernelLoad{peers[i], resp.ntasks, resp.nrunnable,
                                   resp.idle_cores});
        // A census reply is at least as fresh as any gossip row; re-stamp
        // the table the balancer's push decisions read.
        note_load(peers[i], resp.ntasks, resp.nrunnable, resp.idle_cores, now);
    }
    return loads;
}

topo::KernelId Ssi::least_loaded_kernel() {
    const auto loads = load_snapshot();
    // Rotate the scan start so simultaneous queries spread over equally
    // idle kernels instead of herding onto the lowest id.
    const std::size_t start = rotor_++ % loads.size();
    topo::KernelId best = k_.id();
    std::uint32_t best_idle = 0;
    std::uint32_t best_runnable = ~0u;
    for (std::size_t i = 0; i < loads.size(); ++i) {
        const KernelLoad& load = loads[(start + i) % loads.size()];
        const bool better = load.idle_cores > best_idle ||
                            (load.idle_cores == best_idle &&
                             load.nrunnable < best_runnable);
        if (better) {
            best = load.kernel;
            best_idle = load.idle_cores;
            best_runnable = load.nrunnable;
        }
    }
    return best;
}

TaskListResp Ssi::local_task_list(Pid pid) const {
    TaskListResp resp{};
    kernel::Kernel& k = k_;
    k.for_each_task([&](const task::Task& t) {
        if (pid != 0 && t.pid != pid) return;
        if (t.state == task::TaskState::kExited ||
            t.state == task::TaskState::kShadow) {
            return;
        }
        if (resp.count >= TaskListResp::kMaxEntries) {
            ++resp.truncated;
            return;
        }
        resp.entries[resp.count++] =
            TaskInfo{t.tid, t.pid, k.id(), static_cast<std::uint32_t>(t.state)};
    });
    return resp;
}

std::vector<TaskInfo> Ssi::ps(Pid pid) {
    std::vector<TaskInfo> all;
    const TaskListResp mine = local_task_list(pid);
    for (std::uint32_t i = 0; i < mine.count; ++i) all.push_back(mine.entries[i]);

    msg::Message request;
    request.hdr.type = msg::MsgType::kLoadReport; // task-list request channel
    request.set_payload(CensusReq{pid});
    auto replies = k_.node().rpc_all(alive_peers(k_), request);
    for (const auto& reply : replies) {
        if (reply == nullptr) continue; // peer died mid-listing
        const auto& list = reply->payload_as<TaskListResp>();
        for (std::uint32_t i = 0; i < list.count; ++i) all.push_back(list.entries[i]);
    }
    return all;
}

void Ssi::on_census(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<CensusReq>();
    node.reply(*m, msg::make_message(msg::MsgType::kTaskCensus, msg::MsgKind::kReply,
                                     local_census(req.pid)));
}

void Ssi::on_task_list(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<CensusReq>();
    node.reply(*m, msg::make_message(msg::MsgType::kLoadReport, msg::MsgKind::kReply,
                                     local_task_list(req.pid)));
}

} // namespace rko::core
