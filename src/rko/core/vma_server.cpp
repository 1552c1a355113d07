#include "rko/core/vma_server.hpp"

#include <optional>

#include "rko/check/gate.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/kernel/kernel.hpp"
#include "rko/trace/trace.hpp"

namespace rko::core {

namespace {

constexpr int kEinval = 22;
constexpr int kEnomem = 12;

/// RAII shared/exclusive guards over the simulated RwLock.
struct ReadGuard {
    explicit ReadGuard(sim::RwLock& l) : lock(l) { lock.lock_shared(); }
    ~ReadGuard() { lock.unlock_shared(); }
    sim::RwLock& lock;
};
struct WriteGuard {
    explicit WriteGuard(sim::RwLock& l) : lock(l) { lock.lock(); }
    ~WriteGuard() { lock.unlock(); }
    sim::RwLock& lock;
};

} // namespace

VmaServer::VmaServer(kernel::Kernel& k)
    : k_(k),
      remote_ops_(k.metrics().counter("vma.remote_ops")),
      local_ops_(k.metrics().counter("vma.local_ops")),
      fetches_(k.metrics().counter("vma.fetches")),
      update_broadcasts_(k.metrics().counter("vma.update_broadcasts")),
      replica_hit_(k.metrics().counter("vma.replica_hit")) {}

void VmaServer::install() {
    k_.node().register_handler(
        msg::MsgType::kVmaOp, msg::HandlerClass::kBlocking,
        [this](msg::Node& node, msg::MessagePtr m) { on_vma_op(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kVmaFetch, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) { on_vma_fetch(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kVmaUpdate, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) { on_vma_update(node, std::move(m)); });
}

mem::Vaddr VmaServer::mmap(ProcessSite& site, std::uint64_t length, std::uint32_t prot) {
    length = mem::page_ceil(length);
    if (length == 0) return 0;
    if (site.is_origin()) {
        local_ops_.inc();
        mem::Vaddr addr = 0;
        return origin_mmap(site, length, prot, &addr) == 0 ? addr : 0;
    }
    remote_ops_.inc();
    auto reply = k_.node().rpc(
        site.origin(), msg::make_message(msg::MsgType::kVmaOp, msg::MsgKind::kRequest,
                                         VmaOpReq{site.pid(), VmaOp::kMmap, 0, length,
                                                  prot}));
    const auto& resp = reply->payload_as<VmaOpResp>();
    return resp.result == 0 ? resp.addr : 0;
}

int VmaServer::munmap(ProcessSite& site, mem::Vaddr addr, std::uint64_t length) {
    length = mem::page_ceil(length);
    if (length == 0 || (addr & mem::kPageMask) != 0) return -kEinval;
    if (site.is_origin()) {
        local_ops_.inc();
        return static_cast<int>(
            origin_destructive(site, VmaOp::kMunmap, addr, length, 0));
    }
    remote_ops_.inc();
    auto reply = k_.node().rpc(
        site.origin(), msg::make_message(msg::MsgType::kVmaOp, msg::MsgKind::kRequest,
                                         VmaOpReq{site.pid(), VmaOp::kMunmap, addr,
                                                  length, 0}));
    return static_cast<int>(reply->payload_as<VmaOpResp>().result);
}

int VmaServer::mprotect(ProcessSite& site, mem::Vaddr addr, std::uint64_t length,
                        std::uint32_t prot) {
    length = mem::page_ceil(length);
    if (length == 0 || (addr & mem::kPageMask) != 0) return -kEinval;
    if (site.is_origin()) {
        local_ops_.inc();
        return static_cast<int>(
            origin_destructive(site, VmaOp::kMprotect, addr, length, prot));
    }
    remote_ops_.inc();
    auto reply = k_.node().rpc(
        site.origin(), msg::make_message(msg::MsgType::kVmaOp, msg::MsgKind::kRequest,
                                         VmaOpReq{site.pid(), VmaOp::kMprotect, addr,
                                                  length, prot}));
    return static_cast<int>(reply->payload_as<VmaOpResp>().result);
}

mem::Vaddr VmaServer::brk(ProcessSite& site, mem::Vaddr new_brk) {
    if (site.is_origin()) {
        local_ops_.inc();
        return origin_brk(site, new_brk);
    }
    remote_ops_.inc();
    auto reply = k_.node().rpc(
        site.origin(), msg::make_message(msg::MsgType::kVmaOp, msg::MsgKind::kRequest,
                                         VmaOpReq{site.pid(), VmaOp::kBrk, new_brk,
                                                  0, 0}));
    return reply->payload_as<VmaOpResp>().addr;
}

// The break moves in page-granular VMA pieces under the usual origin
// serialization; shrinking is destructive (revoke + acked broadcast), like
// munmap of the released tail.
mem::Vaddr VmaServer::origin_brk(ProcessSite& site, mem::Vaddr new_brk) {
    RKO_ASSERT(site.is_origin());
    const mem::Vaddr old_brk = site.space().brk();
    if (new_brk == 0) return old_brk;
    if (new_brk < mem::kHeapBase) return old_brk; // below the heap: reject

    const mem::Vaddr old_end = mem::page_ceil(old_brk);
    const mem::Vaddr new_end = mem::page_ceil(new_brk);
    if (new_end > old_end) {
        // Shared hold on the vma_op_lock: a concurrent destructive op
        // (munmap/mprotect) must not observe the new tail appearing inside
        // the range it is revoking.
        ReadGuard op_guard(site.vma_op_lock());
        WriteGuard guard(site.space().mmap_lock());
        // Growing: map the new tail read-write. Failure (overlap with an
        // mmap'd region) leaves the break unchanged, like Linux.
        if (!site.space().vmas().insert(
                {old_end, new_end, mem::kProtRead | mem::kProtWrite})) {
            return old_brk;
        }
        site.space().set_brk(new_brk);
        return new_brk;
    }
    if (new_end < old_end) {
        const std::int64_t rc =
            origin_destructive(site, VmaOp::kMunmap, new_end, old_end - new_end, 0);
        if (rc != 0) return old_brk;
    }
    site.space().set_brk(new_brk);
    return new_brk;
}

std::int64_t VmaServer::origin_mmap(ProcessSite& site, std::uint64_t length,
                                    std::uint32_t prot, mem::Vaddr* out_addr) {
    RKO_ASSERT(site.is_origin());
    // New mappings propagate lazily (replicas fetch on fault), so no
    // broadcast: just the master-tree insert under the mmap lock. The
    // shared vma_op_lock hold keeps find_gap from reusing a range that a
    // concurrent destructive op is still revoking — faults on the new
    // mapping would otherwise race the revoke's directory sweep.
    ReadGuard op_guard(site.vma_op_lock());
    WriteGuard guard(site.space().mmap_lock());
    const mem::Vaddr addr =
        site.space().vmas().find_gap(length, mem::kMmapBase, mem::kMmapTop);
    if (addr == 0) return -kEnomem;
    RKO_ASSERT(site.space().vmas().insert({addr, addr + length, prot}));
    *out_addr = addr;
    return 0;
}

std::int64_t VmaServer::origin_destructive(ProcessSite& site, VmaOp op,
                                           mem::Vaddr addr, std::uint64_t length,
                                           std::uint32_t prot) {
    RKO_ASSERT(site.is_origin());
    const mem::Vaddr end = addr + length;

    // Serialize whole destructive operations, including their broadcasts.
    site.vma_op_lock().lock();

    {
        WriteGuard guard(site.space().mmap_lock());
        if (op == VmaOp::kMunmap) {
            site.space().vmas().erase_range(addr, end);
        } else {
            site.space().vmas().protect_range(addr, end, prot);
        }
        // In-flight page transactions re-validate against this epoch.
        ++site.vma_epoch;
    }

    // Propagate to the page layer with one range sweep. munmap kills the
    // data (kRevoke); mprotect must preserve it: removing write strips the
    // write bit everywhere (kDowngrade: Exclusive demotes to Shared),
    // PROT_NONE pulls the bytes home to inaccessible frames (kSequester),
    // and *adding* permissions needs no page action at all (wider access
    // simply faults in under the new VMA).
    //
    // Ordering differs by home configuration. Unsharded (the pre-home
    // protocol, kept verbatim): sweep the origin-resident directory, then
    // broadcast. Sharded: broadcast FIRST — once every replica has erased
    // the range (and bumped its epoch), no kernel can validate a new fault
    // in it, so the per-home kHomeRangeOp sweeps that follow converge
    // without chasing freshly-born entries.
    std::optional<HomeRangeKind> kind;
    if (op == VmaOp::kMunmap) {
        kind = HomeRangeKind::kRevoke;
    } else if ((prot & mem::kProtRead) == 0) {
        kind = HomeRangeKind::kSequester;
    } else if ((prot & mem::kProtWrite) == 0) {
        kind = HomeRangeKind::kDowngrade;
    }
    if (!k_.home_map().sharded()) {
        if (kind) k_.pages().sweep(site, *kind, addr, end);
        broadcast_update(site, op, addr, end, prot);
    } else {
        broadcast_update(site, op, addr, end, prot);
        if (kind) k_.pages().home_range_fanout(site, *kind, addr, end);
    }

    if (op == VmaOp::kMunmap && check::enabled()) {
        // Post-condition while still serialized: no origin PTE survives in
        // the dead range (the revoke dropped every holder's copy).
        site.space().page_table().for_each_present(
            addr, end, [](mem::Vaddr va, mem::Pte&) {
                (void)va;
                RKO_UNREACHABLE("origin PTE survived munmap");
            });
    }

    site.vma_op_lock().unlock();
    return 0;
}

void VmaServer::broadcast_update(ProcessSite& site, VmaOp op, mem::Vaddr start,
                                 mem::Vaddr end, std::uint32_t prot) {
    std::vector<topo::KernelId> targets;
    const topo::KernelMask mask = site.group().replica_mask;
    for (topo::KernelId k = 0; k < k_.fabric().nkernels(); ++k) {
        if (k != k_.id() && (mask & topo::kbit(k)) != 0) targets.push_back(k);
    }
    if (targets.empty()) return;
    update_broadcasts_.inc();
    trace::Span span(k_.engine(), k_.id(), "vma.broadcast_update",
                     static_cast<std::uint64_t>(targets.size()));
    msg::Message request;
    request.hdr.type = msg::MsgType::kVmaUpdate;
    request.set_payload(VmaUpdateReq{site.pid(), op,
                                     static_cast<std::uint32_t>(site.vma_epoch),
                                     start, end, prot});
    // Acked broadcast: munmap must not return before every replica dropped
    // the range (POSIX visibility).
    k_.node().rpc_all(targets, request);
}

bool VmaServer::ensure_vma(ProcessSite& site, mem::Vaddr va, mem::Vma* out) {
    {
        ReadGuard guard(site.space().mmap_lock());
        if (const mem::Vma* vma = site.space().vmas().find(va)) {
            if (!site.is_origin()) replica_hit_.inc();
            *out = *vma;
            return true;
        }
    }
    if (site.is_origin()) return false;

    // Replica miss: fetch the covering VMA from the origin's master tree.
    fetches_.inc();
    trace::Span span(k_.engine(), k_.id(), "vma.fetch", va);
    auto reply = k_.node().rpc(
        site.origin(), msg::make_message(msg::MsgType::kVmaFetch, msg::MsgKind::kRequest,
                                         VmaFetchReq{site.pid(), va}));
    const auto& resp = reply->payload_as<VmaFetchResp>();
    if (!resp.found) return false;

    WriteGuard guard(site.space().mmap_lock());
    // A concurrent fault may have inserted it (or a racing munmap update
    // removed neighbours); insert failure just means someone beat us.
    if (site.space().vmas().find(va) == nullptr) {
        site.space().vmas().insert(resp.vma);
    }
    if (const mem::Vma* vma = site.space().vmas().find(va)) {
        *out = *vma;
        return true;
    }
    return false;
}

void VmaServer::on_vma_op(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<VmaOpReq>();
    RKO_ASSERT_MSG(k_.has_site(req.pid), "vma op for unknown process");
    ProcessSite& site = k_.site(req.pid);
    RKO_ASSERT(site.is_origin());

    VmaOpResp resp{0, 0};
    switch (req.op) {
    case VmaOp::kBrk:
        resp.addr = origin_brk(site, req.addr);
        break;
    case VmaOp::kMmap:
        resp.result = origin_mmap(site, req.length, req.prot, &resp.addr);
        break;
    case VmaOp::kMunmap:
        resp.result = origin_destructive(site, VmaOp::kMunmap, req.addr, req.length, 0);
        break;
    case VmaOp::kMprotect:
        resp.result =
            origin_destructive(site, VmaOp::kMprotect, req.addr, req.length, req.prot);
        break;
    }
    node.reply(*m, msg::make_message(msg::MsgType::kVmaOp, msg::MsgKind::kReply, resp));
}

void VmaServer::on_vma_fetch(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<VmaFetchReq>();
    VmaFetchResp resp{false, {}};
    if (k_.has_site(req.pid)) {
        ProcessSite& site = k_.site(req.pid);
        ReadGuard guard(site.space().mmap_lock());
        if (const mem::Vma* vma = site.space().vmas().find(req.addr)) {
            resp.found = true;
            resp.vma = *vma;
        }
    }
    node.reply(*m,
               msg::make_message(msg::MsgType::kVmaFetch, msg::MsgKind::kReply, resp));
}

void VmaServer::on_vma_update(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<VmaUpdateReq>();
    VmaUpdateResp resp{0};
    if (k_.has_site(req.pid)) {
        ProcessSite& site = k_.site(req.pid);
        WriteGuard guard(site.space().mmap_lock());
        // Advance the replica epoch BEFORE (atomically with, under the mmap
        // lock) the tree change: a sharded home's in-flight transaction
        // that validated against the old tree re-reads this under its shard
        // lock and retries (see PageOwner::origin_transaction). Monotonic —
        // acked broadcasts can arrive out of order across ops.
        site.vma_epoch = std::max(site.vma_epoch,
                                  static_cast<std::uint64_t>(req.epoch));
        if (req.op == VmaOp::kMunmap) {
            site.space().vmas().erase_range(req.start, req.end);
            // Defence in depth: the revoke pass already dropped our PTEs
            // (the directory knows every holder), but clear any stragglers
            // so a stale mapping can never outlive its VMA. mprotect must
            // NOT clear here — its page-level effect is handled through the
            // directory (downgrade/sequester), which keeps holder sets and
            // PTEs in sync.
            std::vector<mem::Vaddr> stale;
            site.space().page_table().for_each_present(
                req.start, req.end,
                [&](mem::Vaddr va, mem::Pte&) { stale.push_back(va); });
            // Clear + bump first (no yields), then pay for the frees and
            // the shootdown: a sleep between a clear and the bump would
            // expose stale soft-TLB entries (see PageOwner::serve_fetch).
            std::vector<mem::Paddr> freed;
            for (const mem::Vaddr va : stale) {
                const mem::Pte old = site.space().page_table().clear(va);
                if (old.present) freed.push_back(old.paddr);
                ++resp.cleared_pages;
            }
            if (!stale.empty()) site.space().bump_tlb_generation();
            for (const mem::Paddr paddr : freed) k_.frames().free(paddr);
            if (!stale.empty()) {
                sim::current_actor().sleep_for(k_.costs().tlb_shootdown);
            }
        } else {
            site.space().vmas().protect_range(req.start, req.end, req.prot);
        }
    }
    node.reply(*m,
               msg::make_message(msg::MsgType::kVmaUpdate, msg::MsgKind::kReply, resp));
}

} // namespace rko::core
