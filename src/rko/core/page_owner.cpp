#include "rko/core/page_owner.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "rko/base/log.hpp"
#include "rko/check/gate.hpp"
#include "rko/core/vma_server.hpp"
#include "rko/home/home.hpp"
#include "rko/kernel/kernel.hpp"
#include "rko/trace/trace.hpp"

namespace rko::core {

namespace {

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

/// How long a fault answered kRetry waits before it re-routes
/// (PageOwner::settle_fault).
constexpr Nanos kRetryBeatNs = 1'000;

std::uint32_t effective_prot(std::uint32_t vma_prot, bool writable) {
    return writable ? vma_prot : (vma_prot & ~mem::kProtWrite);
}

/// Drops the holders `node` knows to be dead, as the reaper's sweep
/// (rehome_dead) does for every entry that is not busy. Returns false when
/// no holder is left: the only copy died.
bool strip_dead_holders(PageDirEntry& entry, const msg::Node& node) {
    if (entry.state == PageDirEntry::State::kExclusive) {
        return !node.peer_dead(entry.owner);
    }
    for (topo::KernelMask mask = entry.sharers; mask != 0; mask &= mask - 1) {
        const auto holder = static_cast<topo::KernelId>(std::countr_zero(mask));
        if (node.peer_dead(holder)) entry.sharers &= ~topo::kbit(holder);
    }
    return entry.sharers != 0;
}

/// A kPageFetch for `req`'s page list, truncated to the pages it carries.
msg::MessagePtr fetch_request(const PageFetchReq& req) {
    return msg::make_message_prefix(msg::MsgType::kPageFetch, msg::MsgKind::kRequest,
                                    req, wire_bytes(req));
}

/// A one-page kPageFetch. With `drop` the holder hands its copy over: it
/// unmaps and frees the page after the copy.
msg::MessagePtr fetch_request(Pid pid, mem::Vaddr page, bool downgrade,
                              bool drop = false) {
    PageFetchReq req{};
    req.pid = pid;
    req.count = 1;
    req.drop = drop;
    req.downgrade = downgrade ? 1u : 0u;
    req.va[0] = page;
    return fetch_request(req);
}

/// A one-offset kPageInvalidateRange dropping `vpn`, built in its message
/// slot: the request struct is 2 KiB, of which 28 bytes travel.
msg::MessagePtr drop_request(Pid pid, std::uint64_t vpn) {
    auto m = msg::make_message(msg::MsgType::kPageInvalidateRange,
                               msg::MsgKind::kRequest);
    auto& req = m->emplace_payload<PageInvalidateRangeReq>();
    req.pid = pid;
    req.op = InvalidateRangeOp::kDrop;
    req.count = 1;
    req.base_vpn = vpn;
    req.vpn_offset[0] = 0;
    m->truncate_payload(wire_bytes(req));
    return m;
}

mem::Mmu::FaultResult fault_result(FaultStatus status) {
    return status == FaultStatus::kSegv ? mem::Mmu::FaultResult::kSegv
                                        : mem::Mmu::FaultResult::kFixed;
}

/// Attributes an installed guest fault to the kernel that supplied its
/// bytes (Task::fault_from, the balancer's affinity input). The same signal
/// marks the page hot for a later pre-copy migration (§15).
void attribute_fault(task::Task* t, mem::Vaddr page, std::uint8_t source) {
    if (t == nullptr) return;
    const auto src = static_cast<std::size_t>(source);
    if (src < t->fault_from.size()) ++t->fault_from[src];
    t->workset_touch(mem::vpn_of(page));
}

/// Counts a page grant from `home` in flight at this kernel for its scope
/// (ProcessSite::grants_in_flight).
class GrantInFlight {
public:
    GrantInFlight(ProcessSite& site, topo::KernelId home)
        : count_(site.grants_in_flight(home)) {
        ++count_;
    }
    ~GrantInFlight() { --count_; }
    GrantInFlight(const GrantInFlight&) = delete;
    GrantInFlight& operator=(const GrantInFlight&) = delete;

private:
    std::uint16_t& count_;
};

/// Shared tail of commit_install/abandon_pending: applies `updated` (ok) or
/// removes the requester from the holder set (!ok). Shard lock held.
void apply_commit_locked(ProcessSite::DirShard& shard, std::uint64_t vpn,
                         PageDirEntry updated, topo::KernelId requester, bool ok,
                         const msg::Node& node) {
    auto it = shard.entries.find(vpn);
    RKO_ASSERT(it != shard.entries.end() && it->second.busy);
    // The reaper skips entries busy under a transaction, so a holder that
    // died after this transaction snapshotted it is stripped here.
    if (!strip_dead_holders(updated, node)) {
        shard.entries.erase(it);
        return;
    }
    if (ok) {
        it->second = updated; // updated.busy is already false
        return;
    }
    // The requester abandoned the install (racing munmap, or it died):
    // remove it from the holder set; an empty holder set retires the entry.
    if (updated.reader == requester) updated.reader = -1;
    if (updated.state == PageDirEntry::State::kExclusive) {
        if (updated.owner == requester) {
            shard.entries.erase(it);
        } else {
            it->second = updated;
        }
    } else {
        updated.sharers &= ~topo::kbit(requester);
        if (updated.sharers == 0) {
            shard.entries.erase(it);
        } else {
            it->second = updated;
        }
    }
}

/// Creates `vpn`'s entry for a first touch by `requester`: born busy, with
/// the post-state (Exclusive at the requester, or Shared {requester}) parked
/// until its install commits. Shard lock held.
void park_first_touch(ProcessSite::DirShard& shard, std::uint64_t vpn,
                      topo::KernelId requester, bool exclusive) {
    PageDirEntry entry;
    if (exclusive) {
        entry.state = PageDirEntry::State::kExclusive;
        entry.owner = requester;
    } else {
        entry.state = PageDirEntry::State::kShared;
        entry.sharers = topo::kbit(requester);
    }
    PageDirEntry busy_marker = entry;
    busy_marker.busy = true;
    shard.entries.emplace(vpn, busy_marker);
    shard.pending[vpn] = entry;
    shard.pending_from[vpn] = requester;
    shard.shadow.on_write();
}

} // namespace

PageOwner::PageOwner(kernel::Kernel& k)
    : k_(k),
      local_faults_(k.metrics().counter("pages.local_faults")),
      remote_faults_(k.metrics().counter("pages.remote_faults")),
      invalidations_(k.metrics().counter("pages.invalidations")),
      fetches_(k.metrics().counter("pages.fetches")),
      prefetch_issued_(k.metrics().counter("pages.prefetch.issued")),
      prefetch_hit_(k.metrics().counter("pages.prefetch.hit")),
      prefetch_wasted_(k.metrics().counter("pages.prefetch.wasted")),
      range_rpcs_(k.metrics().counter("pages.range_rpcs")),
      home_msgs_(k.metrics().counter("home.msgs")),
      workset_pushed_(k.metrics().counter("migration.workset.pushed")),
      workset_hit_(k.metrics().counter("migration.workset.hit")),
      workset_wasted_(k.metrics().counter("migration.workset.wasted")),
      migratory_grants_(k.metrics().counter("pages.migratory.grants")),
      migratory_reverts_(k.metrics().counter("pages.migratory.reverts")),
      first_touch_grants_(k.metrics().counter("pages.first_touch.grants")),
      remote_latency_(k.metrics().histogram("pages.remote_fault_ns")) {}

topo::KernelId PageOwner::home_of(ProcessSite& site, mem::Vaddr page) const {
    return home::home_of(k_.home_map(), site.pid(), site.origin(),
                         mem::vpn_of(page));
}

void PageOwner::install() {
    k_.node().register_handler(
        msg::MsgType::kPageFault, msg::HandlerClass::kBlocking,
        [this](msg::Node& node, msg::MessagePtr m) { on_page_fault(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kPageFetch, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) { on_page_fetch(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kPageInvalidateRange, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) {
            on_page_invalidate_range(node, std::move(m));
        });
    k_.node().register_handler(
        msg::MsgType::kPageInstalled, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) {
            on_page_installed(node, std::move(m));
        });
    k_.node().register_handler(
        msg::MsgType::kPagePush, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) { on_page_push(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kHomeRangeOp, msg::HandlerClass::kBlocking,
        [this](msg::Node& node, msg::MessagePtr m) {
            on_home_range_op(node, std::move(m));
        });
    k_.node().register_handler(
        msg::MsgType::kHomeRebuild, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) {
            on_home_rebuild(node, std::move(m));
        });
    k_.node().register_handler(
        msg::MsgType::kWorksetPull, msg::HandlerClass::kBlocking,
        [this](msg::Node& node, msg::MessagePtr m) {
            on_workset_pull(node, std::move(m));
        });
}

// ---------------------------------------------------------------------------
// Local holder operations (this kernel gives up or shares its copy).
// ---------------------------------------------------------------------------

void PageOwner::serve_fetch(ProcessSite& site, std::span<FetchPart> parts) {
    WriteGuard guard(site.space().mmap_lock());
    // Each page is narrowed (dropped, or its write bit stripped) BEFORE its
    // bytes are captured, so no local store can race past the copy.
    // INVARIANT: the PTE changes and the TLB-generation bump must land in
    // the same no-yield window — any sleep in between (the copies, a frame
    // free's allocator time) would let a local task's soft-TLB serve a
    // stale writable pointer into a frame being narrowed or reclaimed. So
    // the sleeps and the frees all come after the bump.
    bool narrowed = false;
    Nanos copy_cost = 0;
    std::vector<mem::Paddr> dropped;
    for (FetchPart& part : parts) {
        const mem::Pte* pte = site.space().page_table().find(part.va);
        part.had_page = 0;
        if (pte == nullptr || !pte->present) continue;
        const mem::Pte old = *pte;
        part.had_page = old.dirty ? PageFetchResp::kHadPage | PageFetchResp::kDirty
                                  : PageFetchResp::kHadPage;
        if (part.drop) {
            site.space().page_table().clear(part.va);
            dropped.push_back(old.paddr);
            narrowed = true;
        } else if (part.downgrade && (old.prot & mem::kProtWrite) != 0) {
            site.space().page_table().protect(part.va, old.prot & ~mem::kProtWrite);
            narrowed = true;
        }
        std::memcpy(part.out, k_.phys().frame_ptr(old.paddr), mem::kPageSize);
        copy_cost += k_.costs().page_copy;
    }
    if (narrowed) site.space().bump_tlb_generation();
    if (copy_cost != 0) sim::current_actor().sleep_for(copy_cost);
    for (const mem::Paddr frame : dropped) k_.frames().free(frame);
    if (narrowed) sim::current_actor().sleep_for(k_.costs().tlb_shootdown);
}

// ---------------------------------------------------------------------------
// The origin-side transaction.
// ---------------------------------------------------------------------------

FaultStatus PageOwner::origin_transaction(ProcessSite& site, mem::Vaddr page,
                                          std::uint32_t access,
                                          topo::KernelId requester,
                                          PageFaultResp& out) {
    // With sharded homes the transaction runs at the page's home kernel,
    // which is the origin only for the shards it happens to own.
    RKO_ASSERT(site.is_origin() || k_.home_map().sharded());
    home_msgs_.inc();
    const std::uint64_t vpn = mem::vpn_of(page);
    const bool peek = (access & kAccessKernelPeek) != 0;
    access &= ~kAccessKernelPeek;
    const bool want_write = (access & mem::kProtWrite) != 0;
    // Ablation switch: without read replication every fault transfers
    // exclusive ownership (the PTE itself is still mapped per `access`).
    const bool take_exclusive = want_write || !read_replication_;

    for (int attempt = 0; attempt < 64; ++attempt) {
        if (k_.home_map().sharded() &&
            site.home_rebuilding(k_.home_map().shard_of(vpn))) {
            // This shard just failed over to us and its census is still
            // being pulled; the requester backs off and refaults.
            out.status = FaultStatus::kRetry;
            return out.status;
        }
        const std::uint64_t epoch0 = site.vma_epoch;

        // Validate against the local VMA tree — the master at the origin, a
        // replica at a non-origin home (kept destructively coherent by the
        // acked kVmaUpdate broadcast, which also advances our vma_epoch).
        bool replica_miss = false;
        {
            ReadGuard guard(site.space().mmap_lock());
            const mem::Vma* vma = site.space().vmas().find(page);
            if (vma == nullptr && !site.is_origin()) {
                // The replica may simply not have fetched this (lazily
                // propagated) mapping yet; pull it before deciding SEGV.
                replica_miss = true;
            } else if (vma == nullptr || (vma->prot & access) != access) {
                out.status = FaultStatus::kSegv;
                return out.status;
            }
        }
        if (replica_miss) {
            mem::Vma fetched;
            if (!k_.vma().ensure_vma(site, page, &fetched)) {
                out.status = FaultStatus::kSegv;
                return out.status;
            }
            continue; // re-validate against the now-filled replica
        }

        auto& shard = site.dir_shard(vpn);
        shard.lock.lock();
        if (site.vma_epoch != epoch0) {
            // A destructive VMA op completed since validation; re-validate.
            shard.lock.unlock();
            continue;
        }
        shard.shadow.on_read(); // the routing decision below reads the entry
        auto it = shard.entries.find(vpn);
        if (it == shard.entries.end()) {
            // First touch machine-wide: the requester allocates a zero page.
            // The entry is born busy; it commits when the install confirms.
            park_first_touch(shard, vpn, requester, take_exclusive);
            shard.lock.unlock();
            out.status = FaultStatus::kOk;
            out.zero_fill = true;
            out.data_included = false;
            out.upgrade = false;
            out.source = static_cast<std::uint8_t>(requester);
            return out.status;
        }

        PageDirEntry& entry = it->second;
        RKO_TRACE("%lld txn page=%llx access=%u req=%d state=%d owner=%d sharers=%llx busy=%d",
                  static_cast<long long>(k_.engine().now()),
                  static_cast<unsigned long long>(page), access, requester,
                  static_cast<int>(entry.state), entry.owner,
                  static_cast<unsigned long long>(entry.sharers),
                  static_cast<int>(entry.busy));
        if (entry.busy) {
            // Another transaction owns the entry; wait for any release and
            // re-look-up (the entry may have been erased meanwhile).
            shard.lock.unlock();
            // A killed kernel's busy bits never release: the kill notifies
            // these lists so parked kworkers unwind instead of leaking. The
            // pre-wait check covers late arrivals — a fiber that reaches a
            // leaked busy bit after the kill's one-shot notify would park
            // with nobody left to wake it.
            if (k_.node().dead()) throw msg::LocalNodeDead{};
            shard.busy_wait.wait(k_.engine());
            if (k_.node().dead()) throw msg::LocalNodeDead{};
            continue;
        }
        entry.busy = true;
        shard.shadow.on_write();
        const PageDirEntry snapshot = entry;
        shard.lock.unlock();

        // --- Protocol work: no shard lock held across awaits. ---
        out.zero_fill = false;
        out.upgrade = false;
        out.data_included = false;
        out.writable = false;
        // Affinity attribution default: the requester itself (upgrade /
        // zero-fill outcomes); the fetch/invalidate branches overwrite it
        // with whichever kernel actually supplied the bytes.
        out.source = static_cast<std::uint8_t>(requester);
        PageDirEntry updated = snapshot;
        // Migratory page (DESIGN §17): a guest read of a page Exclusive at
        // another kernel takes ownership, so the requester's store that
        // follows needs no second transaction. Kernel peeks never do.
        const bool migratory_grant =
            !take_exclusive && !peek && snapshot.migratory &&
            snapshot.state == PageDirEntry::State::kExclusive &&
            snapshot.owner != requester;

        if (!take_exclusive && !migratory_grant) {
            if (snapshot.holds(requester)) {
                // The requester lost its mapping without the directory
                // noticing an ownership change (racing install); tell it to
                // refault if it cannot recover locally.
                out.upgrade = true;
            } else if (snapshot.state == PageDirEntry::State::kShared) {
                // Copy from the most convenient live sharer. A sharer that
                // died mid-transaction (elastic) returns a null reply; its
                // copy died with it, so try the next one. With every sharer
                // dead the data is lost and the requester zero-fills.
                bool have_data = false;
                topo::KernelMask live = snapshot.sharers;
                // Our own copy can be gone despite the directory listing us:
                // a munmap's replica sweep drops PTEs without waiting on the
                // busy bit. Fall through to the remote sharers if so.
                FetchPart own{page, false, out.data.data()};
                if (snapshot.holds(k_.id())) serve_fetch(site, std::span(&own, 1));
                if (own.had_page != 0) {
                    out.source = static_cast<std::uint8_t>(k_.id());
                    have_data = true;
                } else {
                    for (topo::KernelMask mask = snapshot.sharers; mask != 0;
                         mask &= mask - 1) {
                        const auto source =
                            static_cast<topo::KernelId>(std::countr_zero(mask));
                        if (source == k_.id()) {
                            live &= ~topo::kbit(source); // local copy gone
                            continue;
                        }
                        if (k_.node().peer_dead(source)) {
                            live &= ~topo::kbit(source);
                            continue;
                        }
                        fetches_.inc();
                        msg::RpcStatus st = msg::RpcStatus::kOk;
                        auto reply = k_.node().rpc( // rko-lint: allow(serial-fanout): one sharer supplies the bytes; the next is asked only if it failed
                            source, fetch_request(site.pid(), page, false), &st);
                        if (reply == nullptr) {
                            live &= ~topo::kbit(source);
                            continue;
                        }
                        const auto& fetched = reply->payload_prefix_as<PageFetchResp>();
                        if (fetched.had_page == 0) {
                            // The sharer dropped its copy between our
                            // snapshot and the fetch (a munmap's replica
                            // sweep is not gated on our busy bit) — same
                            // transient the write path tolerates from its
                            // byte source. Try the next sharer.
                            live &= ~topo::kbit(source);
                            continue;
                        }
                        out.data = fetched.data;
                        out.source = static_cast<std::uint8_t>(source);
                        have_data = true;
                        break;
                    }
                }
                if (have_data) {
                    out.data_included = true;
                    updated.sharers = live | topo::kbit(requester);
                } else {
                    out.zero_fill = true;
                    out.source = static_cast<std::uint8_t>(requester);
                    updated.sharers = topo::kbit(requester);
                }
            } else {
                // Exclusive elsewhere: downgrade the owner, go Shared. A
                // dead owner took the only copy with it — zero-fill.
                bool have_data = false;
                if (snapshot.owner == k_.id()) {
                    // Our exclusive copy can be gone despite the directory:
                    // munmap's replica sweep is not gated on the busy bit.
                    // Zero-fill like a dead owner if so.
                    FetchPart own{page, true, out.data.data()};
                    serve_fetch(site, std::span(&own, 1));
                    have_data = own.had_page != 0;
                } else if (!k_.node().peer_dead(snapshot.owner)) {
                    fetches_.inc();
                    msg::RpcStatus st = msg::RpcStatus::kOk;
                    auto reply = k_.node().rpc( // rko-lint: allow(serial-fanout): the one owner fetch of this attempt
                        snapshot.owner, fetch_request(site.pid(), page, true), &st);
                    if (reply != nullptr) {
                        const auto& fetched = reply->payload_prefix_as<PageFetchResp>();
                        // No copy: the owner dropped the page between our
                        // snapshot and the fetch (munmap replica sweep) —
                        // transient, fall through to zero-fill like a dead
                        // owner.
                        if (fetched.had_page != 0) {
                            out.data = fetched.data;
                            have_data = true;
                        }
                    }
                }
                if (have_data) {
                    out.data_included = true;
                    out.source = static_cast<std::uint8_t>(snapshot.owner);
                    updated.state = PageDirEntry::State::kShared;
                    updated.sharers = topo::kbit(snapshot.owner) | topo::kbit(requester);
                    updated.owner = -1;
                    // Detector input: if this reader upgrades next, kernels
                    // are taking turns to read then write the page.
                    if (!peek) updated.reader = static_cast<std::int8_t>(requester);
                } else {
                    out.zero_fill = true;
                    out.source = static_cast<std::uint8_t>(requester);
                    updated.state = PageDirEntry::State::kShared;
                    updated.sharers = topo::kbit(requester);
                    updated.owner = -1;
                }
            }
        } else {
            // WRITE (or a migratory grant, which transfers ownership the
            // same way): invalidate every other copy CONCURRENTLY. Exactly one
            // victim, the byte source, hands its copy over in a dropping
            // kPageFetch (all copies agree in Shared state, and Exclusive
            // has a single holder); the rest get a one-offset ranged drop
            // with a dataless reply. All the round trips overlap in one
            // rpc_scatter, so K sharers cost about one RTT instead of K.
            const bool requester_holds = snapshot.holds(requester);
            topo::KernelMask victims = snapshot.holder_mask() & ~topo::kbit(requester);
            // Dead holders (elastic) cannot answer an invalidate and their
            // copies died with them — drop them from the victim set so the
            // data source is always a live kernel.
            for (topo::KernelMask mask = victims; mask != 0; mask &= mask - 1) {
                const auto holder =
                    static_cast<topo::KernelId>(std::countr_zero(mask));
                if (holder != k_.id() && k_.node().peer_dead(holder)) {
                    victims &= ~topo::kbit(holder);
                }
            }
            if (inject_lost_invalidate_ && victims != 0) {
                // Fault injection (see set_inject_lost_invalidate): one
                // victim keeps its stale copy. Trimmed BEFORE the data
                // source is designated, as the serial loop skipped it too.
                victims &= victims - 1;
            }
            const bool need_data = !requester_holds;
            bool have_data = false;
            // An Exclusive owner that answers without its dirty bit never
            // stored to the page since its grant (reversion, DESIGN §17).
            // It is the page's only holder, so it is always the byte source.
            const topo::KernelId owner =
                snapshot.state == PageDirEntry::State::kExclusive ? snapshot.owner : -1;
            bool owner_clean = false;
            // The home's own copy drops inline (no message) and is the
            // cheapest byte source when one is needed.
            if ((victims & topo::kbit(k_.id())) != 0) {
                invalidations_.inc();
                if (need_data) {
                    FetchPart own{page, false, out.data.data(), /*drop=*/true};
                    serve_fetch(site, std::span(&own, 1));
                    if (own.had_page != 0) {
                        out.source = static_cast<std::uint8_t>(k_.id());
                        have_data = true;
                    }
                    if (owner == k_.id()) {
                        owner_clean = own.had_page == PageFetchResp::kHadPage;
                    }
                } else {
                    local_range(site, {vpn}, InvalidateRangeOp::kDrop);
                }
                victims &= ~topo::kbit(k_.id());
            }
            const topo::KernelId data_source =
                (need_data && !have_data && victims != 0)
                    ? static_cast<topo::KernelId>(std::countr_zero(victims))
                    : -1;
            std::vector<msg::Node::ScatterItem> posts;
            std::size_t source_post = 0;
            for (topo::KernelMask mask = victims; mask != 0; mask &= mask - 1) {
                const auto holder = static_cast<topo::KernelId>(std::countr_zero(mask));
                invalidations_.inc();
                if (holder == data_source) {
                    source_post = posts.size();
                    posts.push_back({holder, fetch_request(site.pid(), page,
                                                           /*downgrade=*/false,
                                                           /*drop=*/true)});
                } else {
                    range_rpcs_.inc();
                    posts.push_back({holder, drop_request(site.pid(), vpn)});
                }
            }
            if (!posts.empty()) {
                const auto replies = k_.node().rpc_scatter(std::move(posts));
                // A null reply: the byte source died mid-scatter.
                if (data_source >= 0 && replies[source_post] != nullptr) {
                    const auto& fetched =
                        replies[source_post]->payload_prefix_as<PageFetchResp>();
                    if (fetched.had_page != 0) {
                        out.data = fetched.data;
                        out.source = static_cast<std::uint8_t>(data_source);
                        have_data = true;
                    }
                    if (data_source == owner) {
                        owner_clean = fetched.had_page == PageFetchResp::kHadPage;
                    }
                }
            }
            if (requester_holds) {
                out.upgrade = true;
                out.source = static_cast<std::uint8_t>(requester);
            } else if (have_data) {
                out.data_included = true;
            } else {
                // Every listed holder had already dropped the page — only
                // possible transiently; hand out a fresh zero page.
                out.zero_fill = true;
            }
            updated.state = PageDirEntry::State::kExclusive;
            updated.owner = requester;
            updated.sharers = 0;
            updated.reader = -1;
            if (requester_holds && snapshot.state == PageDirEntry::State::kShared &&
                snapshot.reader == requester) {
                // The requester's own read downgraded the last writer and
                // it now writes too: kernels take turns on this page.
                updated.migratory = true;
            } else if (snapshot.migratory && owner_clean) {
                // The owner only read it since its grant (a spinning
                // reader): replicate this page again.
                updated.migratory = false;
                migratory_reverts_.inc();
            }
            if (migratory_grant) {
                out.writable = true;
                migratory_grants_.inc();
            }
        }

        // --- Park the post-transaction state; busy stays set until the
        // requester's install commits (commit_install).
        shard.lock.lock();
        RKO_ASSERT_MSG(shard.entries.contains(vpn),
                       "directory entry vanished while busy (revoke must queue)");
        updated.busy = false;
        shard.pending[vpn] = updated;
        shard.pending_from[vpn] = requester;
        shard.shadow.on_write();
        shard.lock.unlock();
        out.status = FaultStatus::kOk;
        return out.status;
    }
    out.status = FaultStatus::kRetry;
    return out.status;
}

void PageOwner::commit_install(ProcessSite& site, mem::Vaddr page,
                               topo::KernelId requester, bool ok) {
    const std::uint64_t vpn = mem::vpn_of(page);
    auto& shard = site.dir_shard(vpn);
    shard.lock.lock();
    auto pending_it = shard.pending.find(vpn);
    RKO_ASSERT_MSG(pending_it != shard.pending.end(), "commit without pending state");
    PageDirEntry updated = pending_it->second;
    shard.pending.erase(pending_it);
    shard.pending_from.erase(vpn);
    apply_commit_locked(shard, vpn, updated, requester, ok, k_.node());
    shard.shadow.on_write();
    shard.busy_wait.notify_all();
    shard.lock.unlock();
    RKO_TRACE("%lld commit page=%llx req=%d ok=%d",
              static_cast<long long>(k_.engine().now()),
              static_cast<unsigned long long>(page), requester, static_cast<int>(ok));
}

bool PageOwner::abandon_pending(ProcessSite& site, mem::Vaddr page,
                                topo::KernelId requester) {
    const std::uint64_t vpn = mem::vpn_of(page);
    auto& shard = site.dir_shard(vpn);
    shard.lock.lock();
    auto pending_it = shard.pending.find(vpn);
    auto from_it = shard.pending_from.find(vpn);
    if (pending_it == shard.pending.end() || from_it == shard.pending_from.end() ||
        from_it->second != requester) {
        shard.lock.unlock();
        return false;
    }
    const PageDirEntry updated = pending_it->second;
    shard.pending.erase(pending_it);
    shard.pending_from.erase(from_it);
    apply_commit_locked(shard, vpn, updated, requester, /*ok=*/false, k_.node());
    shard.shadow.on_write();
    shard.busy_wait.notify_all();
    shard.lock.unlock();
    return true;
}

// ---------------------------------------------------------------------------
// Requester side.
// ---------------------------------------------------------------------------

bool PageOwner::install_locally(ProcessSite& site, const mem::Vma& vma,
                                mem::Vaddr page, std::uint32_t access,
                                const PageFaultResp& resp, mem::Paddr frame) {
    const bool want_write = (access & mem::kProtWrite) != 0 || resp.writable;
    WriteGuard guard(site.space().mmap_lock());

    if (resp.upgrade) {
        // We already hold current bytes; WIDEN the PTE to what this access
        // needs. Never narrow here: another thread on this kernel may hold
        // a TLB entry with the wider rights, and narrowing without a
        // shootdown (generation bump) would let its cached translation
        // disagree with the page table — the directory would then treat a
        // still-written-to copy as read-only. (Narrowing is exclusively the
        // job of the invalidate/downgrade paths, which bump the generation
        // in the same no-yield window.)
        mem::Pte* pte = site.space().page_table().find(page);
        if (pte == nullptr || !pte->present) {
            // Invalidated between the origin's decision and our install —
            // refault and run the full transaction again.
            return false;
        }
        site.space().page_table().protect(
            page, pte->prot | effective_prot(vma.prot, want_write));
        return true;
    }

    if (frame == 0) {
        frame = resp.zero_fill ? k_.frames().alloc_page_zeroed() : k_.frames().alloc();
    }
    if (frame == 0) return false; // OOM: surface as a failed fix => SEGV path
    if (resp.data_included) {
        std::memcpy(k_.phys().frame_ptr(frame), resp.data.data(), mem::kPageSize);
        sim::current_actor().sleep_for(k_.costs().page_copy);
    }
    // Replace any stale mapping (should not exist; belt and braces). Clear
    // and bump before the free can yield (see serve_fetch).
    if (const mem::Pte* old = site.space().page_table().find(page);
        old != nullptr && old->present) {
        const mem::Pte cleared = site.space().page_table().clear(page);
        site.space().bump_tlb_generation();
        k_.frames().free(cleared.paddr);
    }
    site.space().page_table().map(page, frame, effective_prot(vma.prot, want_write));
    return true;
}

template <typename Leg>
FaultStatus PageOwner::settle_fault(ProcessSite& site, mem::Vaddr page, const Leg& leg) {
    for (;;) {
        // Route by the page's HOME — the origin when unsharded
        // (bit-identical to the pre-home protocol), else the home map's
        // owner of its shard, recomputed per try: the home moves if its
        // owner dies.
        const FaultStatus status = leg(home_of(site, page));
        if (status != FaultStatus::kRetry) return status;
        if (k_.node().dead()) throw msg::LocalNodeDead{};
        k_.engine().current().sleep_for(kRetryBeatNs);
    }
}

mem::Mmu::FaultResult PageOwner::acquire(ProcessSite& site, const mem::Vma& vma,
                                         mem::Vaddr page, std::uint32_t access,
                                         task::Task* t) {
    return fault_result(settle_fault(site, page, [&](topo::KernelId home) {
        return guest_fault(site, vma, home, page, access, t);
    }));
}

FaultStatus PageOwner::guest_fault(ProcessSite& site, const mem::Vma& vma,
                                   topo::KernelId home, mem::Vaddr page,
                                   std::uint32_t access, task::Task* t) {
    if (home == k_.id()) {
        local_faults_.inc();
        trace::Span span(k_.engine(), k_.id(), "page.fault.local", page);
        // Fault-around at the home pays off only if another kernel can
        // hold this process's pages. A process that never left its origin
        // (and every SMP process) skips the detector and its claim costs.
        // replica_mask is kept at the origin only; a non-origin home is
        // sharded, so the origin is always a second kernel.
        const bool peers = !site.is_origin() ||
                           (site.group().replica_mask & ~topo::kbit(k_.id())) != 0;
        if (!peers) return home_fault(site, vma, page, access, t);
        if ((access & mem::kProtWrite) == 0) return home_read(site, vma, page, access, t);
        // A write streak at the home takes no window: its first touches
        // send no message, so there is no round trip to save.
        stride_window(site, vma, page, access, kMaxFaultAround, t);
        return home_fault(site, vma, page, access, t);
    }

    remote_faults_.inc();
    trace::Span span(k_.engine(), k_.id(), "page.fault.remote", page);

    // Fault-around: a thread on a sequential streak sends its fault with a
    // window. For a read the home services the faulting page as usual and
    // pushes the window's remaining pages unsolicited (kPagePush), turning
    // one RTT per page into one RTT per window; a first touch, read or
    // write, also takes the untouched pages after it as a zero-fill run.
    // With the knob off (window <= 1) the fault carries no window and the
    // wire traffic is bit-identical to the plain protocol.
    std::uint32_t window = stride_window(site, vma, page, access, kMaxFaultAround, t);
    // Post-migration boost (§15): a freshly migrated thread's remote read
    // faults batch from the FIRST touch (no min-run — the whole address
    // space is cold here, so any pattern benefits) with a full window.
    // The home recognizes the flag, batches its downgrades under one
    // shootdown, and replies after the pushes, so the window lands
    // installed before the guest resumes.
    bool boosted = false;
    if (workset_push_ > 0 && t != nullptr && (access & mem::kProtWrite) == 0 &&
        t->workset_boost_until > k_.engine().now()) {
        const std::uint64_t avail = (vma.end - page) >> mem::kPageShift;
        const std::uint64_t cap = std::min<std::uint64_t>(kMaxFaultAround, avail);
        if (cap >= 2 && cap > window) {
            window = static_cast<std::uint32_t>(cap);
            boosted = true;
        }
    }
    return remote_fault(site, vma, home, page, access, window, boosted, t);
}

FaultStatus PageOwner::remote_fault(ProcessSite& site, const mem::Vma& vma,
                                    topo::KernelId home, mem::Vaddr page,
                                    std::uint32_t access, std::uint32_t window,
                                    bool workset, task::Task* t) {
    const Nanos t0 = k_.engine().now();
    const GrantInFlight in_flight(site, home);
    msg::RpcStatus rpc_status = msg::RpcStatus::kOk;
    const msg::MessagePtr reply = k_.node().rpc(
        home,
        msg::make_message(msg::MsgType::kPageFault, msg::MsgKind::kRequest,
                          PageFaultReq{site.pid(), page, access,
                                       static_cast<std::int16_t>(k_.id()),
                                       static_cast<std::uint8_t>(window), workset}),
        &rpc_status);
    remote_latency_.add(k_.engine().now() - t0);
    // The home died mid-fault (impossible unsharded: the origin is
    // immortal). Retry — by then the membership update has re-homed the
    // shard and the route recomputes.
    if (reply == nullptr) return FaultStatus::kRetry;
    const auto& resp = reply->payload_prefix_as<PageFaultResp>();
    if (resp.status != FaultStatus::kOk) return resp.status;
    const bool installed = install_locally(site, vma, page, access, resp);
    if (installed) attribute_fault(t, page, resp.source);
    // Third leg: let the directory commit (or roll back) and release busy.
    k_.node().send(home,
                   msg::make_message(msg::MsgType::kPageInstalled, msg::MsgKind::kOneway,
                                     PageInstalledMsg{site.pid(), page, k_.id(),
                                                      installed}));
    if (resp.run > 0) install_first_touch_run(site, home, page, access, resp, t);
    return FaultStatus::kOk;
}

void PageOwner::install_first_touch_run(ProcessSite& site, topo::KernelId home,
                                        mem::Vaddr page, std::uint32_t access,
                                        const PageFaultResp& resp, task::Task* t) {
    // The home clipped the run to its own VMA tree; a racing munmap may
    // have removed part of it here since, so each page is checked against
    // a fresh lookup, and one that lost its VMA is confirmed as abandoned.
    mem::Vma vma{};
    {
        ReadGuard guard(site.space().mmap_lock());
        if (const mem::Vma* found = site.space().vmas().find(page + mem::kPageSize)) {
            vma = *found;
        }
    }
    // Each page installs from the demand's zero-fill answer, as `page` did.
    for (std::uint32_t i = 1; i <= resp.run; ++i) {
        const mem::Vaddr va = page + static_cast<mem::Vaddr>(i) * mem::kPageSize;
        const bool installed = vma.contains(va) && (vma.prot & access) == access &&
                               install_locally(site, vma, va, access, resp);
        if (installed) attribute_fault(t, va, resp.source);
        k_.node().send(home, msg::make_message(msg::MsgType::kPageInstalled,
                                               msg::MsgKind::kOneway,
                                               PageInstalledMsg{site.pid(), va, k_.id(),
                                                                installed}));
    }
}

std::uint32_t PageOwner::stride_window(ProcessSite& site, const mem::Vma& vma,
                                       mem::Vaddr page, std::uint32_t access,
                                       std::uint32_t cap, task::Task* t) {
    if (prefetch_window_ <= 1 || t == nullptr) return 0;
    task::FaultStreak& streak =
        (access & mem::kProtWrite) != 0 ? t->write_streak : t->read_streak;
    // A stream continues at the next page, or inside or just past the last
    // window: the window's granted pages never fault, so the next fault of
    // a stream lands past its end (or on a page the home could not grant).
    // It also continues past pages this kernel already maps, which the
    // thread read through without faulting: a slice it holds, say.
    const auto held_up_to = [&] {
        const mem::Vaddr from = std::max(streak.last_page + mem::kPageSize, streak.window_end);
        if (streak.run == 0 || page <= from ||
            ((page - from) >> mem::kPageShift) > kMaxHomeWindow) {
            return false;
        }
        const mem::PageTable& table = site.space().page_table();
        for (mem::Vaddr va = from; va < page; va += mem::kPageSize) {
            const mem::Pte* pte = table.find(va);
            if (pte == nullptr || !pte->allows(access)) return false;
        }
        return true;
    };
    if (streak.last_page + mem::kPageSize == page ||
        (page > streak.last_page && page <= streak.window_end) || held_up_to()) {
        ++streak.run;
    } else {
        streak.run = 1;
        streak.window_end = 0;
    }
    streak.last_page = page;
    if (streak.run < kPrefetchMinRun) return 0;
    // Ramp: each window that continues the stream doubles the next one.
    std::uint64_t want = static_cast<std::uint64_t>(prefetch_window_);
    for (std::uint32_t run = kPrefetchMinRun; run < streak.run && want < cap; ++run) {
        want *= 2;
    }
    // Clip to the faulting kernel's VMA; the home re-clips against its own
    // tree and the directory entries it can grant.
    const std::uint64_t avail = (vma.end - page) >> mem::kPageShift;
    const std::uint64_t pages = std::min({want, static_cast<std::uint64_t>(cap), avail});
    if (pages < 2) return 0;
    streak.window_end = page + pages * mem::kPageSize;
    return static_cast<std::uint32_t>(pages);
}

std::byte* PageOwner::ensure_readable(ProcessSite& site, mem::Vaddr page) {
    RKO_ASSERT(site.is_origin());
    constexpr std::uint32_t kPeek = mem::kProtRead | kAccessKernelPeek;
    // Attempts bound the installs lost to racing invalidations; a retry
    // answer costs none (settle_fault waits it out).
    for (int attempt = 0; attempt < 16; ++attempt) {
        {
            const mem::Pte* pte = site.space().page_table().find(page);
            if (pte != nullptr && pte->allows(mem::kProtRead)) {
                return k_.phys().frame_ptr(pte->paddr);
            }
        }
        mem::Vma vma;
        {
            ReadGuard guard(site.space().mmap_lock());
            const mem::Vma* found = site.space().vmas().find(page);
            if (found == nullptr || (found->prot & mem::kProtRead) == 0) return nullptr;
            vma = *found;
        }
        // Sharded homes: the page's directory entry may live on another
        // kernel even though we are the origin — take the requester role.
        const FaultStatus status = settle_fault(site, page, [&](topo::KernelId home) {
            return home == k_.id()
                       ? home_fault(site, vma, page, kPeek, nullptr)
                       : remote_fault(site, vma, home, page, kPeek, 0, false, nullptr);
        });
        if (status == FaultStatus::kSegv) return nullptr;
    }
    return nullptr;
}

namespace {

/// Claims the busy bit of `vpn`'s entry, waiting out other transactions.
/// Returns false if the entry does not exist (nothing to do). On success
/// the snapshot holds the pre-claim state and the entry is busy.
///
/// Deadlock note for the ranged paths, which claim MANY busy bits before
/// releasing any: a fault transaction holds exactly one busy bit and never
/// waits on another (its protocol work is RPCs to leaf handlers, which
/// always complete), a prefetch batch claims extra bits only with try-claim
/// semantics (never waits), and destructive ops serialize on the
/// vma_op_lock — so the wait graph has no cycle.
bool claim_busy(sim::Engine& engine, msg::Node& node,
                ProcessSite::DirShard& shard, std::uint64_t vpn,
                PageDirEntry* snapshot) {
    shard.lock.lock();
    auto it = shard.entries.find(vpn);
    while (it != shard.entries.end() && it->second.busy) {
        shard.lock.unlock();
        // Pre-wait check: a late arrival at a killed kernel's leaked busy
        // bit would otherwise park after the kill's one-shot notify.
        if (node.dead()) throw msg::LocalNodeDead{};
        shard.busy_wait.wait(engine);
        if (node.dead()) throw msg::LocalNodeDead{}; // killed mid-wait
        shard.lock.lock();
        it = shard.entries.find(vpn);
    }
    if (it == shard.entries.end()) {
        shard.lock.unlock();
        return false;
    }
    shard.shadow.on_read();
    it->second.busy = true;
    shard.shadow.on_write();
    *snapshot = it->second;
    shard.lock.unlock();
    return true;
}

/// Collects the vpns in [lo, hi) present in the shard right now, sorted —
/// hash-map iteration order must not leak into message contents, or
/// same-seed runs would stop being bit-identical.
std::vector<std::uint64_t> collect_vpns(ProcessSite::DirShard& shard,
                                        std::uint64_t vpn_lo, std::uint64_t vpn_hi) {
    std::vector<std::uint64_t> vpns;
    shard.lock.lock();
    for (const auto& [vpn, entry] : shard.entries) {
        if (vpn >= vpn_lo && vpn < vpn_hi) vpns.push_back(vpn);
    }
    shard.lock.unlock();
    std::sort(vpns.begin(), vpns.end());
    return vpns;
}

/// Chunks each holder's VPN list into kPageInvalidateRange requests and
/// appends them to `posts`. Lists are sorted first: offsets are encoded
/// relative to the chunk's first vpn and must not underflow (per-shard
/// collection concatenates the 16 shards' sorted runs out of order).
void append_ranged_posts(
    Pid pid, std::array<std::vector<std::uint64_t>, topo::kMaxKernels>& by_holder,
    InvalidateRangeOp op, std::vector<msg::Node::ScatterItem>* posts) {
    for (std::size_t h = 0; h < by_holder.size(); ++h) {
        auto& vpns = by_holder[h];
        if (vpns.empty()) continue;
        std::sort(vpns.begin(), vpns.end());
        std::size_t i = 0;
        while (i < vpns.size()) {
            PageInvalidateRangeReq req{};
            req.pid = pid;
            req.op = op;
            req.base_vpn = vpns[i];
            std::uint32_t n = 0;
            while (i + n < vpns.size() && n < PageInvalidateRangeReq::kMaxPages &&
                   vpns[i + n] - req.base_vpn <=
                       std::numeric_limits<std::uint32_t>::max()) {
                req.vpn_offset[n] =
                    static_cast<std::uint32_t>(vpns[i + n] - req.base_vpn);
                ++n;
            }
            req.count = n;
            posts->push_back(
                {static_cast<topo::KernelId>(h),
                 msg::make_message_prefix(msg::MsgType::kPageInvalidateRange,
                                          msg::MsgKind::kRequest, req,
                                          wire_bytes(req))});
            i += n;
        }
    }
}

/// Releases a claimed busy bit and wakes its waiters, leaving the entry as
/// it was (a cancelled transfer: the page demand-faults later) or, given
/// `post`, committing that state. Like a transaction's commit, the release
/// strips holders that died while the claim was held, and erases an entry
/// left with no holder.
void release_claim(ProcessSite& site, const msg::Node& node, std::uint64_t vpn,
                   const PageDirEntry* post = nullptr) {
    auto& shard = site.dir_shard(vpn);
    shard.lock.lock();
    auto it = shard.entries.find(vpn);
    if (it != shard.entries.end()) {
        if (post != nullptr) it->second = *post;
        it->second.busy = false;
        if (!strip_dead_holders(it->second, node)) shard.entries.erase(it);
    }
    shard.busy_wait.notify_all();
    shard.lock.unlock();
}

/// Parks a claimed page's post-transfer state; the requester's install
/// confirm (commit_install) applies it and releases the busy bit.
void park_pending(ProcessSite& site, std::uint64_t vpn, const PageDirEntry& updated,
                  topo::KernelId requester) {
    auto& shard = site.dir_shard(vpn);
    shard.lock.lock();
    RKO_ASSERT(shard.entries.contains(vpn));
    shard.pending[vpn] = updated;
    shard.pending_from[vpn] = requester;
    shard.lock.unlock();
}

/// How one claimed page replicates to `requester`: the transitions a
/// demand read fault makes, minus the dead-holder fallbacks (a dead or
/// copy-less source cancels the claim instead).
struct ReadSharePlan {
    topo::KernelId source = -1; ///< kernel whose copy supplies the bytes
    bool downgrade = false;     ///< source is the Exclusive owner: drop its write bit
    PageDirEntry updated;       ///< directory state once the requester installs
};

ReadSharePlan plan_read_share(ProcessSite& site, std::uint64_t vpn, topo::KernelId self,
                              topo::KernelId requester) {
    auto& shard = site.dir_shard(vpn);
    shard.lock.lock();
    auto it = shard.entries.find(vpn);
    RKO_ASSERT_MSG(it != shard.entries.end() && it->second.busy,
                   "page transfer lost its claimed entry");
    const PageDirEntry snapshot = it->second;
    shard.lock.unlock();

    ReadSharePlan plan;
    plan.updated = snapshot;
    plan.updated.busy = false;
    if (snapshot.state == PageDirEntry::State::kShared) {
        // Our own copy is the cheapest source; else the lowest sharer.
        plan.source = snapshot.holds(self) ? self
                                           : static_cast<topo::KernelId>(
                                                 std::countr_zero(snapshot.sharers));
        plan.updated.sharers = snapshot.sharers | topo::kbit(requester);
    } else {
        // Exclusive elsewhere (the claim excluded requester-held pages).
        plan.source = snapshot.owner;
        plan.downgrade = true;
        plan.updated.state = PageDirEntry::State::kShared;
        plan.updated.sharers = topo::kbit(snapshot.owner) | topo::kbit(requester);
        plan.updated.owner = -1;
    }
    return plan;
}

/// Pages `from` up to `to` (exclusive) of a window starting at `first`:
/// from 1, the pages a window offers after its faulting page.
std::vector<mem::Vaddr> window_pages(mem::Vaddr first, std::uint32_t from,
                                     std::uint32_t to) {
    std::vector<mem::Vaddr> pages;
    for (std::uint32_t i = from; i < to; ++i) {
        pages.push_back(first + static_cast<mem::Vaddr>(i) * mem::kPageSize);
    }
    return pages;
}

} // namespace

/// One claimed page in the push pipeline: its read-share plan and, once
/// captured, the kPagePush carrying its bytes.
struct PageOwner::PushPage {
    ReadSharePlan plan;
    PagePushMsg push{};
};

std::uint32_t PageOwner::sweep(ProcessSite& site, HomeRangeKind kind, mem::Vaddr start,
                               mem::Vaddr end, topo::KernelId parting) {
    RKO_ASSERT(site.is_origin() || k_.home_map().sharded());
    RKO_ASSERT((kind == HomeRangeKind::kEvict) == (parting >= 0 && parting != k_.id()));
    const topo::KernelId self = k_.id();
    const PageDirEntry gone{PageDirEntry::State::kShared}; // no holder left
    PageDirEntry owned; // Exclusive here
    owned.owner = self;
    constexpr std::size_t kNoPull = ~std::size_t{0};
    struct Swept {
        std::uint64_t vpn;
        PageDirEntry post; ///< committed state; one with no holder erases the entry
        std::size_t pull;  ///< reply part that brings the page's bytes, or kNoPull
        /// Live holders besides a pull's source: they keep their copies
        /// until the bytes have landed, and hand them over if it fails.
        topo::KernelMask spare = 0;
    };
    std::vector<Swept> pages;
    std::vector<std::uint64_t> local; // this kernel's legs
    std::array<std::vector<std::uint64_t>, topo::kMaxKernels> ranged; // dataless legs
    std::array<std::vector<std::size_t>, topo::kMaxKernels> pulls;    // pages indices

    // Claim every entry in range (an eviction: every entry the parting
    // kernel holds), waiting out live transactions, and plan its legs: the
    // live holders whose copy the kind changes, and whether one of them
    // must hand its bytes over first. vpn_of(end - 1) + 1 is
    // vpn_of(page_ceil(end)) without overflow at the top of the space.
    const std::uint64_t vpn_lo = mem::vpn_of(start);
    const std::uint64_t vpn_hi = mem::vpn_of(end - 1) + 1;
    for (auto& shard : site.dir_shards()) {
        for (const std::uint64_t vpn : collect_vpns(shard, vpn_lo, vpn_hi)) {
            PageDirEntry snapshot;
            if (!claim_busy(k_.engine(), k_.node(), shard, vpn, &snapshot)) continue;
            if (kind == HomeRangeKind::kEvict && !snapshot.holds(parting)) {
                release_claim(site, k_.node(), vpn);
                continue;
            }
            Swept p{vpn, snapshot, kNoPull};
            p.post.busy = false;
            topo::KernelMask legs = snapshot.holder_mask();
            bool pull = false;    // the page's bytes must come here
            bool pulling = false; // a live holder was asked for them
            switch (kind) {
            case HomeRangeKind::kRevoke:
                p.post = gone;
                break;
            case HomeRangeKind::kDowngrade:
                // The owner's write bit goes; the bytes stay in place.
                if (snapshot.state == PageDirEntry::State::kShared) {
                    legs = 0;
                } else {
                    p.post.state = PageDirEntry::State::kShared;
                    p.post.sharers = legs;
                    p.post.owner = -1;
                }
                break;
            case HomeRangeKind::kSequester:
                // Our own copy stays with no access; without one, another
                // holder hands its bytes over.
                legs &= ~topo::kbit(self);
                pull = !snapshot.holds(self);
                if (!pull) local.push_back(vpn);
                p.post = owned;
                break;
            case HomeRangeKind::kEvict:
                legs = topo::kbit(parting);
                pull = snapshot.holder_mask() == legs; // the only copy
                p.post.sharers &= ~legs;
                if (pull) p.post = owned;
                break;
            }
            for (; legs != 0; legs &= legs - 1) {
                const auto holder = static_cast<topo::KernelId>(std::countr_zero(legs));
                if (k_.node().peer_dead(holder)) continue;
                if (kind != HomeRangeKind::kDowngrade) invalidations_.inc();
                const auto h = static_cast<std::size_t>(holder);
                if (holder == self) {
                    local.push_back(vpn);
                } else if (pull) {
                    pulls[h].push_back(pages.size()); // the lowest live holder
                    pull = false;
                    pulling = true;
                } else if (pulling) {
                    p.spare |= topo::kbit(holder);
                } else {
                    ranged[h].push_back(vpn);
                }
            }
            if (pull) p.post = gone; // no live holder has the bytes
            pages.push_back(p);
        }
    }

    // This kernel's legs as one batched local op, then every remote leg in
    // one scatter: per pull source, one dropping kPageFetch for each
    // kMaxPages of its pages (one reply part per page), then each holder's
    // kPageInvalidateRange chunks. A pulled page's spare holders keep their
    // copies until its bytes have landed, so a source that died or lost its
    // copy costs no data: the next round pulls from the next spare, or,
    // once the bytes are in, drops the spares.
    const InvalidateRangeOp op = kind == HomeRangeKind::kDowngrade
                                     ? InvalidateRangeOp::kDowngrade
                                     : InvalidateRangeOp::kDrop;
    local_range(site, local,
                kind == HomeRangeKind::kSequester ? InvalidateRangeOp::kProtNone : op);
    for (;;) {
        std::vector<msg::Node::ScatterItem> posts;
        std::size_t part = 0;
        for (std::size_t h = 0; h < pulls.size(); ++h) {
            for (std::size_t first = 0; first < pulls[h].size();
                 first += PageFetchReq::kMaxPages) {
                PageFetchReq req{};
                req.pid = site.pid();
                req.drop = true;
                while (req.count < PageFetchReq::kMaxPages &&
                       first + req.count < pulls[h].size()) {
                    Swept& p = pages[pulls[h][first + req.count]];
                    p.pull = part++;
                    req.va[req.count++] = static_cast<mem::Vaddr>(p.vpn) << mem::kPageShift;
                }
                posts.push_back(
                    {static_cast<topo::KernelId>(h), fetch_request(req), req.count});
            }
            pulls[h].clear();
        }
        const std::size_t fetches = posts.size();
        append_ranged_posts(site.pid(), ranged, op, &posts);
        for (auto& vpns : ranged) vpns.clear();
        range_rpcs_.inc(posts.size() - fetches);
        if (posts.empty()) break;
        const std::vector<msg::MessagePtr> replies = k_.node().rpc_scatter(std::move(posts));
        if (fetches == 0) break;

        // Land each pulled page straight from its reply part in a fresh
        // local frame (a fresh map needs no shootdown). A holder that died
        // or lost its copy leaves the pull to the next spare; a VMA a racing
        // munmap took leaves the data dead. A non-origin home's VMA replica
        // may lack the mapping: fill it first (an RPC, so outside the mmap
        // lock).
        const auto bytes = [&](const Swept& p) -> const std::byte* {
            if (p.pull == kNoPull || replies[p.pull] == nullptr) return nullptr;
            const auto& fetched = replies[p.pull]->payload_prefix_as<PageFetchResp>();
            return fetched.had_page != 0 ? fetched.data.data() : nullptr;
        };
        for (const Swept& p : pages) {
            if (site.is_origin() || bytes(p) == nullptr) continue;
            mem::Vma vma;
            k_.vma().ensure_vma(site, static_cast<mem::Vaddr>(p.vpn) << mem::kPageShift,
                                &vma);
        }
        WriteGuard guard(site.space().mmap_lock());
        for (std::size_t i = 0; i < pages.size(); ++i) {
            Swept& p = pages[i];
            if (p.pull == kNoPull) continue;
            const mem::Vaddr page = static_cast<mem::Vaddr>(p.vpn) << mem::kPageShift;
            const mem::Vma* vma = site.space().vmas().find(page);
            const std::byte* data = bytes(p);
            p.pull = kNoPull;
            if (data == nullptr && vma != nullptr && p.spare != 0) {
                const auto next = static_cast<topo::KernelId>(std::countr_zero(p.spare));
                p.spare &= ~topo::kbit(next);
                pulls[static_cast<std::size_t>(next)].push_back(i);
                continue;
            }
            for (; p.spare != 0; p.spare &= p.spare - 1) {
                ranged[static_cast<std::size_t>(std::countr_zero(p.spare))].push_back(p.vpn);
            }
            if (data == nullptr || vma == nullptr) {
                p.post = gone;
                continue;
            }
            const mem::Paddr frame = k_.frames().alloc();
            RKO_ASSERT(frame != 0);
            std::memcpy(k_.phys().frame_ptr(frame), data, mem::kPageSize);
            sim::current_actor().sleep_for(k_.costs().page_copy);
            if (const mem::Pte* old = site.space().page_table().find(page);
                old != nullptr && old->present) {
                const mem::Pte cleared = site.space().page_table().clear(page);
                site.space().bump_tlb_generation();
                k_.frames().free(cleared.paddr);
            }
            site.space().page_table().map(
                page, frame,
                kind == HomeRangeKind::kSequester ? mem::kProtNone : vma->prot);
        }
    }

    // Commit each page's post-state and release its claim.
    for (const Swept& p : pages) release_claim(site, k_.node(), p.vpn, &p.post);

    if (kind == HomeRangeKind::kRevoke && check::enabled()) {
        // Post-condition: no directory entry in the range survives. The
        // caller removed the VMA (under vma_op_lock) before revoking, so no
        // new entry can be born in the range concurrently. The sweep never
        // yields, so it reads the shards without their simulated locks —
        // taking them would charge virtual time and make RKO_CHECK runs
        // diverge from unchecked ones.
        for (const auto& shard : site.dir_shards()) {
            for (const auto& [vpn, entry] : shard.entries) {
                RKO_ASSERT_MSG(vpn < vpn_lo || vpn >= vpn_hi,
                               "directory entry survived a revoke");
            }
        }
    }
    return static_cast<std::uint32_t>(pages.size());
}

// ---------------------------------------------------------------------------
// Sharded-home maintenance (rko/home).
// ---------------------------------------------------------------------------

void PageOwner::wait_out_rebuilds(ProcessSite& site) {
    for (int s = 0; s < k_.home_map().shards(); ++s) {
        while (site.home_rebuilding(s)) {
            if (k_.node().dead()) throw msg::LocalNodeDead{};
            k_.engine().current().sleep_for(1000);
        }
    }
}

std::uint32_t PageOwner::home_range_fanout(ProcessSite& site, HomeRangeKind kind,
                                           mem::Vaddr start, mem::Vaddr end) {
    RKO_ASSERT(site.is_origin() && k_.home_map().sharded());
    std::uint32_t touched = 0;
    // A home that leaves mid-pass (death or drain) takes its unswept slice
    // with it. The survivor inheriting the slice rebuilds it from a PTE
    // census, and the census still names every holder in the range, so
    // sweep again until one whole pass runs under an unchanged home set.
    // The set only shrinks after boot, so this adds at most one pass per
    // home that leaves.
    for (;;) {
        const topo::KernelMask homes = k_.home_map().eligible();
        // The holders a rebuilt entry names would otherwise keep PTEs in
        // the dead range. The rebuilder never takes the vma_op_lock our
        // caller holds.
        wait_out_rebuilds(site);
        // Local slice first (the origin always owns some shards), then one
        // kHomeRangeOp per other eligible home — their sweeps run
        // concurrently under rpc_scatter. The replica broadcast already
        // completed, so no kernel can validate a new fault in the range
        // while these run.
        touched += sweep(site, kind, start, end);
        std::vector<msg::Node::ScatterItem> posts;
        for (topo::KernelMask m = k_.home_map().eligible(); m != 0; m &= m - 1) {
            const auto h = static_cast<topo::KernelId>(std::countr_zero(m));
            if (h == k_.id() || k_.node().peer_dead(h)) continue;
            posts.push_back({h, msg::make_message(
                                    msg::MsgType::kHomeRangeOp, msg::MsgKind::kRequest,
                                    HomeRangeOpReq{site.pid(), kind, start, end})});
        }
        if (!posts.empty()) {
            auto replies = k_.node().rpc_scatter(std::move(posts));
            for (const auto& reply : replies) {
                if (reply == nullptr) continue; // home died mid-sweep (elastic)
                touched += reply->payload_as<HomeRangeOpResp>().touched;
            }
        }
        if (k_.home_map().eligible() == homes) return touched;
    }
}

void PageOwner::on_home_range_op(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<HomeRangeOpReq>();
    HomeRangeOpResp resp{0};
    if (k_.has_site(req.pid)) {
        ProcessSite& site = k_.site(req.pid);
        // Otherwise the origin's post-munmap audit would see holders that
        // were never invalidated.
        wait_out_rebuilds(site);
        // The origin holds ITS vma_op_lock across the whole destructive op;
        // this guards the LOCAL slice against a concurrent local sweep
        // (drain eviction). Lock order is strictly origin -> home, so the
        // two-level hold cannot cycle.
        WriteGuard op_guard(site.vma_op_lock());
        resp.touched = sweep(site, req.kind, req.start, req.end);
    }
    node.reply(*m, msg::make_message(msg::MsgType::kHomeRangeOp,
                                     msg::MsgKind::kReply, resp));
}

void PageOwner::on_home_rebuild(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<HomeRebuildReq>();
    HomeRebuildResp resp{};
    if (!k_.has_site(req.pid) || !k_.home_map().sharded()) {
        resp.ready = HomeRebuildResp::kReady; // nothing here to census
    } else {
        ProcessSite& site = k_.site(req.pid);
        // Census: every present PTE in the requested (pid, shard) whose
        // home just moved from `dead` to the requester. Ownership is
        // recomputed from OUR map; if we have not applied the membership
        // event yet the validation fails and ready stays 0 — the rebuilder
        // backs off and retries rather than losing our PTEs from the census.
        const topo::KernelMask before = k_.home_map().eligible() | topo::kbit(req.dead);
        const auto old_owner = home::Map::owner_in(site.pid(),
                                                   static_cast<int>(req.shard), before);
        const auto new_owner = k_.home_map().owner_of(site.pid(),
                                                      static_cast<int>(req.shard));
        const bool applied = old_owner == req.dead && new_owner == m->hdr.src;
        if (applied && site.grants_in_flight(req.dead) != 0) {
            // A grant the departed home sent is still being installed here:
            // its PTE would be missing from the census, and the page lost.
            resp.ready = HomeRebuildResp::kGrantsInFlight;
        } else if (applied) {
            resp.ready = HomeRebuildResp::kReady;
            std::vector<std::uint64_t> words;
            site.space().page_table().for_each_present(
                0, std::numeric_limits<mem::Vaddr>::max(),
                [&](mem::Vaddr va, mem::Pte& pte) {
                    const std::uint64_t vpn = mem::vpn_of(va);
                    if (vpn < req.resume_vpn) return;
                    if (k_.home_map().shard_of(vpn) != static_cast<int>(req.shard)) {
                        return;
                    }
                    const std::uint64_t writable =
                        (pte.prot & mem::kProtWrite) != 0 ? 1 : 0;
                    words.push_back((vpn << 1) | writable);
                });
            std::sort(words.begin(), words.end());
            for (const std::uint64_t w : words) {
                if (resp.count >= HomeRebuildResp::kMaxEntries) {
                    resp.has_more = 1;
                    resp.next_vpn = w >> 1;
                    break;
                }
                resp.entry[resp.count++] = w;
            }
        }
    }
    node.reply(*m, msg::make_message_prefix(msg::MsgType::kHomeRebuild,
                                            msg::MsgKind::kReply, resp,
                                            wire_bytes(resp)));
}

std::uint32_t PageOwner::rebuild_home_shard(ProcessSite& site, int shard,
                                            topo::KernelId dead) {
    RKO_ASSERT(k_.home_map().sharded());
    // Pull each live peer's census for this (pid, shard) and merge: a
    // writable PTE means its kernel owned the page Exclusive; read-only
    // PTEs accumulate into a Shared holder mask. The shard is flagged
    // rebuilding, so no transaction mutates these entries concurrently.
    std::unordered_map<std::uint64_t, PageDirEntry> rebuilt;
    // Census EVERY kernel, not just the eligible set: a kernel outside it
    // (deferred boot, hot joiner) never serves as a home but still faults
    // pages in and holds copies that must appear in the rebuilt entries.
    // The removed owner itself is included too — a PARTED kernel is still
    // reachable and still maps its copies (the drain sweeps them only after
    // the shard has moved); a killed one fails peer_dead below.
    for (int ik = 0; ik < k_.topology().nkernels(); ++ik) {
        const auto peer = static_cast<topo::KernelId>(ik);
        auto absorb = [&](std::uint64_t vpn, bool writable, topo::KernelId holder) {
            PageDirEntry& e = rebuilt[vpn];
            if (writable) {
                e.state = PageDirEntry::State::kExclusive;
                e.owner = holder;
                e.sharers = 0;
            } else if (e.state != PageDirEntry::State::kExclusive ||
                       e.owner < 0) {
                e.state = PageDirEntry::State::kShared;
                e.sharers |= topo::kbit(holder);
                e.owner = -1;
            }
        };
        if (peer == k_.id()) {
            // Our own installs of the departed home's grants land first.
            // They finish without it, so the wait is bounded.
            while (site.grants_in_flight(dead) != 0) {
                k_.engine().current().sleep_for(1000);
            }
            site.space().page_table().for_each_present(
                0, std::numeric_limits<mem::Vaddr>::max(),
                [&](mem::Vaddr va, mem::Pte& pte) {
                    const std::uint64_t vpn = mem::vpn_of(va);
                    if (k_.home_map().shard_of(vpn) != shard) return;
                    absorb(vpn, (pte.prot & mem::kProtWrite) != 0, k_.id());
                });
            continue;
        }
        if (k_.node().peer_dead(peer)) continue;
        std::uint64_t cursor = 0;
        int not_ready = 0;
        for (;;) {
            msg::RpcStatus st = msg::RpcStatus::kOk;
            auto reply = k_.node().rpc( // rko-lint: allow(serial-fanout): each census chunk resumes at the cursor the last reply returned
                peer,
                msg::make_message(msg::MsgType::kHomeRebuild, msg::MsgKind::kRequest,
                                  HomeRebuildReq{site.pid(), dead,
                                                 static_cast<std::uint32_t>(shard),
                                                 cursor}),
                &st);
            if (reply == nullptr) break; // peer died mid-census: skip it
            const auto& resp = reply->payload_prefix_as<HomeRebuildResp>();
            if (resp.ready == HomeRebuildResp::kGrantsInFlight) {
                // Not capped: the peer's installs finish without the
                // departed home.
                k_.engine().current().sleep_for(1000);
                continue;
            }
            if (resp.ready != HomeRebuildResp::kReady) {
                // The peer has not applied the membership event yet; give
                // it a beat. A peer that still disagrees after the cap has
                // a divergent map — home.map_divergence reports that.
                if (++not_ready > 64) break;
                k_.engine().current().sleep_for(1000);
                continue;
            }
            for (std::uint32_t i = 0; i < resp.count; ++i) {
                const std::uint64_t w = resp.entry[i];
                absorb(w >> 1, (w & 1) != 0, peer);
            }
            if (resp.has_more == 0) break;
            cursor = resp.next_vpn;
        }
    }
    // Install. Entries for this shard cannot pre-exist here (the map moved
    // the shard TO us), but be tolerant: keep whatever is already present.
    std::uint32_t installed = 0;
    std::vector<std::pair<std::uint64_t, PageDirEntry>> sorted(rebuilt.begin(),
                                                               rebuilt.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [vpn, entry] : sorted) {
        auto& dir = site.dir_shard(vpn);
        dir.lock.lock();
        dir.shadow.on_read();
        if (!dir.entries.contains(vpn)) {
            dir.entries.emplace(vpn, entry);
            ++installed;
        }
        dir.shadow.on_write();
        dir.lock.unlock();
    }
    return installed;
}

// ---------------------------------------------------------------------------
// Elastic membership hooks (rko/elastic).
// ---------------------------------------------------------------------------

std::pair<std::uint32_t, std::uint32_t> PageOwner::rehome_dead(ProcessSite& site,
                                                               topo::KernelId dead) {
    RKO_ASSERT(site.is_origin() || k_.home_map().sharded());
    std::uint32_t rehomed = 0;
    std::uint32_t lost = 0;
    for (auto& shard : site.dir_shards()) {
        // 1. Roll back installs the dead requester never confirmed. Sorted
        // for determinism; abandon_pending is tolerant of a racing kworker
        // having already done the same rollback.
        std::vector<std::uint64_t> stale;
        shard.lock.lock();
        shard.shadow.on_read();
        for (const auto& [vpn, from] : shard.pending_from) {
            if (from == dead) stale.push_back(vpn);
        }
        shard.lock.unlock();
        std::sort(stale.begin(), stale.end());
        for (const std::uint64_t vpn : stale) {
            abandon_pending(site, static_cast<mem::Vaddr>(vpn) << mem::kPageShift,
                            dead);
        }
        // 2. Strip the corpse from every settled entry — no messages, the
        // dead kernel cannot answer. Entries busy under a live transaction
        // are skipped: the transaction itself routes around dead peers and
        // commits a post-death holder set.
        shard.lock.lock();
        for (auto it = shard.entries.begin(); it != shard.entries.end();) {
            PageDirEntry& entry = it->second;
            if (entry.busy || !entry.holds(dead)) {
                ++it;
                continue;
            }
            if (entry.state == PageDirEntry::State::kExclusive) {
                // Sole copy died with its kernel; later faults zero-fill.
                it = shard.entries.erase(it);
                ++lost;
            } else {
                entry.sharers &= ~topo::kbit(dead);
                if (entry.sharers == 0) {
                    it = shard.entries.erase(it);
                    ++lost;
                } else {
                    ++rehomed;
                    ++it;
                }
            }
        }
        // Like the futex sweep: stripping the corpse is a write even when
        // nothing matched — it publishes "no dead holder remains here".
        shard.shadow.on_write();
        shard.busy_wait.notify_all();
        shard.lock.unlock();
    }
    return {rehomed, lost};
}

// ---------------------------------------------------------------------------
// Batched local holder ops & the page-push pipeline.
// ---------------------------------------------------------------------------

std::uint32_t PageOwner::local_range(ProcessSite& site,
                                     const std::vector<std::uint64_t>& vpns,
                                     InvalidateRangeOp op) {
    if (vpns.empty()) return 0;
    WriteGuard guard(site.space().mmap_lock());
    // INVARIANT (see serve_fetch): every PTE change and the generation bump
    // must share a no-yield window — so change them ALL, bump once, and
    // only then free the frames and pay the one modeled shootdown.
    std::uint32_t changed = 0;
    std::vector<mem::Paddr> frames;
    if (op == InvalidateRangeOp::kDrop) frames.reserve(vpns.size());
    for (const std::uint64_t vpn : vpns) {
        const mem::Vaddr page = static_cast<mem::Vaddr>(vpn) << mem::kPageShift;
        const mem::Pte* pte = site.space().page_table().find(page);
        if (pte == nullptr || !pte->present) continue;
        if (op == InvalidateRangeOp::kDrop) {
            frames.push_back(site.space().page_table().clear(page).paddr);
        } else {
            const std::uint32_t prot = op == InvalidateRangeOp::kDowngrade
                                           ? pte->prot & ~mem::kProtWrite
                                           : mem::kProtNone;
            if (prot == pte->prot) continue;
            site.space().page_table().protect(page, prot);
        }
        ++changed;
    }
    if (changed == 0) return 0;
    site.space().bump_tlb_generation();
    for (const mem::Paddr frame : frames) k_.frames().free(frame);
    sim::current_actor().sleep_for(k_.costs().tlb_shootdown);
    return changed;
}

std::vector<mem::Vaddr> PageOwner::claim_push_pages(ProcessSite& site,
                                                    const std::vector<mem::Vaddr>& pages,
                                                    topo::KernelId requester,
                                                    ClaimRule rule) {
    std::vector<mem::Vaddr> claimed;
    // Validate every page against this kernel's VMA tree (the master at the
    // origin): the requester's replica may be stale. The last readable VMA
    // found stays cached until a destructive VMA op bumps the epoch, so a
    // window costs one lookup.
    mem::Vma cached;
    std::uint64_t cached_epoch = 0;
    const auto try_claim = [&](mem::Vaddr page, bool skip_migratory) {
        if (!cached.contains(page) || site.vma_epoch != cached_epoch) {
            ReadGuard guard(site.space().mmap_lock());
            const mem::Vma* vma = site.space().vmas().find(page);
            if (vma == nullptr || (vma->prot & mem::kProtRead) == 0) return false;
            cached = *vma;
            cached_epoch = site.vma_epoch;
        }
        // Sharded homes: a list's pages hash to different shards. Only the
        // ones homed HERE can be claimed; the rest demand-fault at their own
        // homes.
        if (k_.home_map().sharded() && home_of(site, page) != k_.id()) return false;
        const std::uint64_t vpn = mem::vpn_of(page);
        auto& shard = site.dir_shard(vpn);
        // Try-claim only: a page that is absent (never touched — zero-fill
        // is the requester's own cheap path), busy (live transaction), or
        // already held by the requester is skipped, never waited for.
        shard.lock.lock();
        auto it = shard.entries.find(vpn);
        if (it == shard.entries.end() || it->second.busy ||
            it->second.holds(requester) || (skip_migratory && it->second.migratory)) {
            shard.lock.unlock();
            return false;
        }
        it->second.busy = true;
        shard.lock.unlock();
        return true;
    };
    for (const mem::Vaddr page : pages) {
        const bool demand = rule == ClaimRule::kDemandFirst && page == pages.front();
        if (try_claim(page, demand || rule == ClaimRule::kReadAhead)) {
            claimed.push_back(page);
        } else if (demand) {
            break; // nothing claimed: the fault runs its own transaction first
        }
    }
    return claimed;
}

void PageOwner::capture_pages(ProcessSite& site, const std::vector<mem::Vaddr>& claimed,
                              topo::KernelId requester, const CaptureSink& sink) {
    std::vector<PushPage> work(claimed.size());
    // Local sources go to this kernel's holder batch; remote ones to one
    // kPageFetch per source kernel for each kMaxPages of its pages, so each
    // holder serves each list under one shootdown and every holder works
    // concurrently.
    std::vector<FetchPart> local;
    std::vector<PushPage*> local_pages;
    struct SourceFetch {
        topo::KernelId source;
        PageFetchReq req;
        std::vector<PushPage*> pages;
    };
    std::vector<SourceFetch> remote;
    for (std::size_t i = 0; i < claimed.size(); ++i) {
        PushPage& p = work[i];
        p.plan = plan_read_share(site, mem::vpn_of(claimed[i]), k_.id(), requester);
        p.push.pid = site.pid();
        p.push.va = claimed[i];
        p.push.data_included = true;
        p.push.source = static_cast<std::uint8_t>(p.plan.source);
        if (p.plan.source == k_.id()) {
            local.push_back({p.push.va, p.plan.downgrade, p.push.data.data()});
            local_pages.push_back(&p);
            continue;
        }
        fetches_.inc();
        auto it = std::find_if(remote.begin(), remote.end(), [&p](const SourceFetch& f) {
            return f.source == p.plan.source && f.req.count < PageFetchReq::kMaxPages;
        });
        if (it == remote.end()) {
            it = remote.insert(remote.end(), SourceFetch{p.plan.source, PageFetchReq{}, {}});
            it->req.pid = site.pid();
        }
        if (p.plan.downgrade) it->req.downgrade |= 1u << it->req.count;
        it->req.va[it->req.count++] = p.push.va;
        it->pages.push_back(&p);
    }

    // The one cancel policy: a source that lost its copy (a munmap replica
    // sweep dropped it after the snapshot — the transient the read path
    // tolerates, DESIGN §14; a remote source answers without a copy) or died
    // (elastic: a null reply) cancels its page. The claim is released and
    // the requester demand-faults the page later. Every other page goes to
    // the sink as soon as its bytes are in.
    const auto land = [&](PushPage& p, bool copied) {
        if (copied) {
            sink(p);
        } else {
            release_claim(site, k_.node(), mem::vpn_of(p.push.va));
        }
    };
    if (!local.empty()) {
        serve_fetch(site, local);
        for (std::size_t i = 0; i < local.size(); ++i) {
            land(*local_pages[i], local[i].had_page != 0);
        }
    }
    if (remote.empty()) return;
    std::vector<msg::Node::ScatterItem> posts;
    std::vector<PushPage*> parts; // one per reply part, in post order
    for (const SourceFetch& f : remote) {
        posts.push_back({f.source, fetch_request(f.req), f.req.count});
        parts.insert(parts.end(), f.pages.begin(), f.pages.end());
    }
    k_.node().rpc_scatter(std::move(posts), [&](std::size_t part, msg::MessagePtr reply) {
        PushPage& p = *parts[part];
        const bool copied =
            reply != nullptr && reply->payload_prefix_as<PageFetchResp>().had_page != 0;
        if (copied) p.push.data = reply->payload_prefix_as<PageFetchResp>().data;
        land(p, copied);
    });
}

std::uint32_t PageOwner::push_window(ProcessSite& site,
                                     const std::vector<mem::Vaddr>& claimed,
                                     topo::KernelId requester, bool workset) {
    std::uint32_t pushed = 0;
    capture_pages(site, claimed, requester, [&](PushPage& p) {
        const std::uint64_t vpn = mem::vpn_of(p.push.va);
        // Elastic: a requester that died while we captured will never
        // confirm — release the claim instead of parking a pending nobody
        // commits. No yield separates this check from the park's lock
        // request, so a later death finds the pending for the reaper's
        // sweep (which takes the same shard lock) to roll back.
        if (k_.node().peer_dead(requester)) {
            release_claim(site, k_.node(), vpn);
            return;
        }
        // The requester's kPageInstalled (sent by its on_page_push, success
        // or not) commits or rolls back the parked state and releases the
        // busy bit — the standard three-phase shape.
        park_pending(site, vpn, p.plan.updated, requester);
        (workset ? workset_pushed_ : prefetch_issued_).inc();
        p.push.workset = workset;
        k_.node().send(requester, msg::make_message_prefix(msg::MsgType::kPagePush,
                                                           msg::MsgKind::kOneway, p.push,
                                                           wire_bytes(p.push)));
        ++pushed;
    });
    return pushed;
}

FaultStatus PageOwner::home_fault(ProcessSite& site, const mem::Vma& vma,
                                  mem::Vaddr page, std::uint32_t access, task::Task* t,
                                  bool* installed) {
    PageFaultResp resp{};
    const FaultStatus status = origin_transaction(site, page, access, k_.id(), resp);
    if (status != FaultStatus::kOk) return status;
    const bool ok = install_locally(site, vma, page, access, resp);
    commit_install(site, page, k_.id(), ok);
    if (ok) attribute_fault(t, page, resp.source);
    if (installed != nullptr) *installed = ok;
    return FaultStatus::kOk;
}

/// An in-flight read-ahead (PageOwner::read_ahead): the range it offered,
/// and the faults waiting for its job to end.
struct PageOwner::ReadAhead {
    Pid pid = 0;
    mem::Vaddr start = 0;
    mem::Vaddr end = 0;
    bool done = false;
    sim::WaitList waiters;
};

std::shared_ptr<PageOwner::ReadAhead> PageOwner::read_ahead_at(Pid pid,
                                                               mem::Vaddr page) const {
    for (const auto& ahead : read_aheads_) {
        if (ahead->pid == pid && page >= ahead->start && page < ahead->end) return ahead;
    }
    return nullptr;
}

FaultStatus PageOwner::home_read(ProcessSite& site, const mem::Vma& vma, mem::Vaddr page,
                                 std::uint32_t access, task::Task* t) {
    // A stream that caught up with its read-ahead waits for it to land; a
    // kill ends the job too, so the wait always ends.
    const std::shared_ptr<ReadAhead> ahead = read_ahead_at(site.pid(), page);
    if (ahead != nullptr) {
        while (!ahead->done) {
            if (k_.node().dead()) throw msg::LocalNodeDead{};
            ahead->waiters.wait(k_.engine());
        }
        if (k_.node().dead()) throw msg::LocalNodeDead{};
    }
    const std::uint32_t window = stride_window(site, vma, page, access, kMaxHomeWindow, t);
    if (ahead != nullptr) {
        const mem::Pte* pte = site.space().page_table().find(page);
        if (pte != nullptr && pte->allows(mem::kProtRead)) {
            // It brought the page in: keep one window in flight ahead.
            if (window >= 2) read_ahead(site, vma, ahead->end, window, t);
            return FaultStatus::kOk;
        }
        // Skipped or cancelled: the page takes the plain path.
    }
    if (window < 2) return home_fault(site, vma, page, access, t);
    const FaultStatus status = home_window(site, vma, page, access, window, t);
    if (status == FaultStatus::kOk) {
        read_ahead(site, vma, page + static_cast<mem::Vaddr>(window) * mem::kPageSize, window,
                   t);
    }
    return status;
}

FaultStatus PageOwner::home_window(ProcessSite& site, const mem::Vma& vma,
                                   mem::Vaddr page, std::uint32_t access,
                                   std::uint32_t window, task::Task* t) {
    const std::vector<mem::Vaddr> rest = window_pages(page, 1, window);
    // The faulting page leads the claim only where its transaction would
    // plan a plain read share: the claim takes nothing when the page is
    // absent (zero-fill), busy, already held here or migratory, and without
    // read replication every read takes ownership.
    std::vector<mem::Vaddr> claimed;
    if (read_replication_) {
        std::vector<mem::Vaddr> pages{page};
        pages.insert(pages.end(), rest.begin(), rest.end());
        claimed = claim_push_pages(site, pages, k_.id(), ClaimRule::kDemandFirst);
    }
    // With kDemandFirst the faulting page leads the claim, or nothing is
    // claimed.
    const bool folded = !claimed.empty();
    if (!folded) {
        // The page demand-faults, then the rest of the window follows once
        // it has committed.
        bool installed = false;
        const FaultStatus status = home_fault(site, vma, page, access, t, &installed);
        if (!installed) return status;
        claimed = claim_push_pages(site, rest, k_.id());
    }
    // A folded page whose capture was cancelled (its source died or lost
    // the copy) runs its own transaction; the window stays installed.
    if (land_capture(site, vma, claimed, folded ? page : 0, access, t) || !folded) {
        return FaultStatus::kOk;
    }
    return home_fault(site, vma, page, access, t);
}

bool PageOwner::land_capture(ProcessSite& site, const mem::Vma& vma,
                             const std::vector<mem::Vaddr>& claimed, mem::Vaddr demand,
                             std::uint32_t access, task::Task* t) {
    bool demand_done = false;
    // Frames come from one allocator operation at the first landing; a
    // short bulk falls back to one frame per page, and frames a cancelled
    // page left unused go back.
    std::vector<mem::Paddr> frames;
    std::size_t next_frame = 0;
    bool allocated = false;
    // Each page installs and commits as soon as its bytes arrive, while the
    // rest of the capture is still in flight.
    capture_pages(site, claimed, k_.id(), [&](PushPage& p) {
        // The claim skipped pages the home holds: every source is remote.
        RKO_ASSERT(p.plan.source != k_.id());
        if (!allocated) {
            frames = k_.frames().alloc_bulk(claimed.size());
            allocated = true;
        }
        const mem::Paddr frame = next_frame < frames.size() ? frames[next_frame++] : 0;
        const bool is_demand = p.push.va == demand;
        PageFaultResp resp{};
        resp.status = FaultStatus::kOk;
        resp.data_included = true;
        resp.source = p.push.source;
        resp.data = p.push.data;
        PageDirEntry updated = p.plan.updated;
        // Detector input, as the transaction records it: if the home
        // upgrades this page next, kernels take turns on it (§17).
        if (is_demand && p.plan.downgrade) updated.reader = static_cast<std::int8_t>(k_.id());
        // A racing munmap/mprotect waits on this busy bit, then treats the
        // home as a holder, so installing against the claim's VMA is safe.
        park_pending(site, mem::vpn_of(p.push.va), updated, k_.id());
        const bool installed = install_locally(
            site, vma, p.push.va, is_demand ? access : mem::kProtRead, resp, frame);
        commit_install(site, p.push.va, k_.id(), installed);
        if (is_demand) {
            demand_done = true;
            if (installed) attribute_fault(t, demand, resp.source);
            return;
        }
        prefetch_issued_.inc();
        (installed ? prefetch_hit_ : prefetch_wasted_).inc();
    });
    for (; next_frame < frames.size(); ++next_frame) k_.frames().free(frames[next_frame]);
    return demand_done;
}

void PageOwner::read_ahead(ProcessSite& site, const mem::Vma& vma, mem::Vaddr start,
                           std::uint32_t window, task::Task* t) {
    if (start >= vma.end) return;
    const auto pages = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(window, (vma.end - start) >> mem::kPageShift));
    // The stream's next fault continues the run past the read-ahead, landed
    // or not.
    t->read_streak.window_end = start + static_cast<mem::Vaddr>(pages) * mem::kPageSize;
    std::vector<mem::Vaddr> claimed = claim_push_pages(
        site, window_pages(start, 0, pages), k_.id(), ClaimRule::kReadAhead);
    if (claimed.empty()) return;
    auto ahead = std::make_shared<ReadAhead>();
    ahead->pid = site.pid();
    ahead->start = start;
    ahead->end = t->read_streak.window_end;
    read_aheads_.push_back(ahead);
    k_.node().post_local([this, &site, vma, claimed = std::move(claimed), ahead] {
        // Every way out, a kill's unwind included, ends the read-ahead and
        // wakes the faults waiting for it.
        const auto end = [&] {
            ahead->done = true;
            ahead->waiters.notify_all();
            std::erase(read_aheads_, ahead);
        };
        try {
            // A killed kernel may have dropped the site already.
            if (!k_.node().dead()) land_capture(site, vma, claimed, 0, mem::kProtRead, nullptr);
        } catch (const msg::LocalNodeDead&) {
            end();
            throw;
        }
        end();
    });
}

// ---------------------------------------------------------------------------
// Working-set migration pull (destination side, DESIGN.md §15).
// ---------------------------------------------------------------------------

void PageOwner::workset_prefault(ProcessSite& site, task::Task& t) {
    const std::uint32_t count =
        std::min<std::uint32_t>(t.pending_workset_count, task::kMaxWorkset);
    t.pending_workset_count = 0;
    if (count == 0 || workset_push_ <= 0) return;
    // Group the shipped list by home and post ONE kWorksetPull per home,
    // all in a single scatter round. Pages homed HERE are skipped — their
    // faults never cross the fabric, so pushing them buys nothing.
    std::vector<std::pair<topo::KernelId, WorksetPullReq>> per_home;
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint64_t vpn = t.pending_workset[i];
        const mem::Vaddr page = static_cast<mem::Vaddr>(vpn) << mem::kPageShift;
        // Warm the replica VMA tree first: VMAs replicate lazily on fault,
        // so a freshly instantiated site knows nothing yet — and a push
        // arriving with no covering replica VMA is dropped as a racing
        // munmap. A page whose mapping vanished for real is just skipped.
        mem::Vma vma;
        if (!k_.vma().ensure_vma(site, page, &vma) ||
            (vma.prot & mem::kProtRead) == 0) {
            continue;
        }
        const topo::KernelId home = home_of(site, page);
        if (home == k_.id()) continue;
        auto it = std::find_if(per_home.begin(), per_home.end(),
                               [home](const auto& e) { return e.first == home; });
        if (it == per_home.end()) {
            WorksetPullReq req{};
            req.pid = site.pid();
            req.requester = k_.id();
            per_home.emplace_back(home, req);
            it = std::prev(per_home.end());
        }
        it->second.vpn[it->second.count++] = vpn;
    }
    std::vector<msg::Node::ScatterItem> posts;
    for (auto& [home, req] : per_home) {
        if (k_.node().peer_dead(home)) continue;
        posts.push_back(
            {home, msg::make_message_prefix(msg::MsgType::kWorksetPull,
                                            msg::MsgKind::kRequest, req,
                                            wire_bytes(req))});
    }
    if (posts.empty()) return;
    // Each home replies AFTER its pushes on a FIFO channel, so when the
    // scatter returns every granted page is installed locally — pre-copy
    // behaves as a barrier and the guest resumes into a warm set. Dead
    // homes (null replies) cost nothing; their pages demand-fault once the
    // membership update re-routes them.
    k_.node().rpc_scatter(std::move(posts));
}

// ---------------------------------------------------------------------------
// Message handlers.
// ---------------------------------------------------------------------------

ProcessSite* PageOwner::serve_fault(const PageFaultReq& req, PageFaultResp& out) {
    if (!k_.has_site(req.pid) || k_.node().peer_dead(req.requester)) {
        // A fault from an already-declared-dead requester must not park a
        // pending install nobody will ever confirm; the reply dead-letters.
        out.status = FaultStatus::kSegv;
        return nullptr;
    }
    ProcessSite& site = k_.site(req.pid);
    if (k_.home_map().sharded() && home_of(site, req.va) != k_.id()) {
        // Stale routing: the requester aimed at a home that has since moved
        // (membership change in flight). Back off and re-route.
        out.status = FaultStatus::kRetry;
        return nullptr;
    }
    if (origin_transaction(site, req.va, req.access, req.requester, out) !=
        FaultStatus::kOk) {
        return nullptr;
    }
    if (out.zero_fill && req.window >= 2) {
        out.run = static_cast<std::uint8_t>(
            grant_first_touch_run(site, req.va, req.access, req.window, req.requester));
    }
    if (k_.node().peer_dead(req.requester)) {
        // The requester died while we worked: its kPageInstalled confirms
        // will never arrive — roll the parked installs back now
        // (idempotent versus the reaper's own sweep).
        for (std::uint32_t i = 0; i <= out.run; ++i) {
            abandon_pending(site, req.va + static_cast<mem::Vaddr>(i) * mem::kPageSize,
                            req.requester);
        }
        return nullptr;
    }
    return &site;
}

std::uint32_t PageOwner::grant_first_touch_run(ProcessSite& site, mem::Vaddr page,
                                               std::uint32_t access, std::uint32_t window,
                                               topo::KernelId requester) {
    // Each page gets the entry a first touch gets (origin_transaction).
    const bool exclusive = (access & mem::kProtWrite) != 0 || !read_replication_;
    std::uint64_t epoch = 0;
    mem::Vaddr end = page + static_cast<mem::Vaddr>(std::min(window, kMaxFaultAround)) *
                                mem::kPageSize;
    {
        ReadGuard guard(site.space().mmap_lock());
        const mem::Vma* vma = site.space().vmas().find(page);
        if (vma == nullptr) return 0;
        end = std::min(end, vma->end);
        epoch = site.vma_epoch;
    }
    // The run stops at the first page another fault already touched: the
    // pages past it (a neighbour thread's slice, say) would otherwise land
    // here, and their own first touch would become a transfer from us.
    std::uint32_t run = 0;
    for (mem::Vaddr va = page + mem::kPageSize; va < end; va += mem::kPageSize) {
        const std::uint64_t vpn = mem::vpn_of(va);
        if (k_.home_map().sharded() &&
            (home_of(site, va) != k_.id() ||
             site.home_rebuilding(k_.home_map().shard_of(vpn)))) {
            break;
        }
        auto& shard = site.dir_shard(vpn);
        shard.lock.lock();
        shard.shadow.on_read();
        // A destructive VMA op since the lookup ends the run, as it sends
        // the transaction back to re-validate.
        if (site.vma_epoch != epoch || shard.entries.contains(vpn)) {
            shard.lock.unlock();
            break;
        }
        park_first_touch(shard, vpn, requester, exclusive);
        shard.lock.unlock();
        ++run;
    }
    first_touch_grants_.inc(run);
    return run;
}

void PageOwner::on_page_fault(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<PageFaultReq>();
    PageFaultResp resp{};
    ProcessSite* site = serve_fault(req, resp);
    // Only a read window pushes: a write's pages would be read shares it
    // must upgrade at once.
    std::vector<mem::Vaddr> claimed;
    if (site != nullptr && req.window >= 2 && (req.access & mem::kProtWrite) == 0) {
        claimed = claim_push_pages(
            *site, window_pages(req.va, 1, std::min<std::uint32_t>(req.window, kMaxFaultAround)),
            req.requester);
    }
    const auto push = [&] {
        if (!claimed.empty()) push_window(*site, claimed, req.requester, req.workset);
    };
    // Boosted window (§15): push FIRST, reply last. The channel is FIFO, so
    // every pushed page is already installed when the demand reply unblocks
    // the guest; it resumes into a warm window instead of re-faulting page
    // by page into busy directory entries while the pushes are in flight.
    if (req.workset) push();
    // Dataless outcomes (SEGV, retry, zero-fill, upgrade) ship 8 bytes, not
    // 8 + 4 KiB — the wire carries only what the requester will read.
    node.reply(*m, msg::make_message_prefix(msg::MsgType::kPageFault,
                                            msg::MsgKind::kReply, resp,
                                            wire_bytes(resp)));
    // Streaming window: reply first, so the requester installs the demand
    // page while the pushes are still being generated behind it.
    if (!req.workset) push();
}

void PageOwner::on_page_fetch(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_prefix_as<PageFetchReq>();
    RKO_ASSERT(req.count >= 1 && req.count <= PageFetchReq::kMaxPages);
    // Each page's bytes land straight in its own reply's payload.
    std::array<msg::MessagePtr, PageFetchReq::kMaxPages> replies;
    std::array<FetchPart, PageFetchReq::kMaxPages> parts;
    for (std::uint32_t i = 0; i < req.count; ++i) {
        replies[i] = msg::make_message(msg::MsgType::kPageFetch, msg::MsgKind::kReply);
        parts[i] = {req.va[i], ((req.downgrade >> i) & 1u) != 0,
                    replies[i]->emplace_payload<PageFetchResp>().data.data(), req.drop};
    }
    if (k_.has_site(req.pid)) {
        serve_fetch(k_.site(req.pid), std::span(parts.data(), req.count));
    }
    for (std::uint32_t i = 0; i < req.count; ++i) {
        auto& resp = replies[i]->payload_as<PageFetchResp>();
        resp.had_page = parts[i].had_page;
        replies[i]->truncate_payload(wire_bytes(resp));
        node.reply_part(*m, i, std::move(replies[i]));
    }
}

void PageOwner::on_page_installed(msg::Node& node, msg::MessagePtr m) {
    (void)node;
    const auto& done = m->payload_as<PageInstalledMsg>();
    if (!k_.has_site(done.pid)) return;
    ProcessSite& site = k_.site(done.pid);
    // Stale-confirm guard (elastic): if this requester was reaped, the
    // reaper already rolled its pending back — and a NEWER transaction may
    // own the pending slot for the same vpn by now. Commit only when the
    // parked install is still waiting on exactly this requester.
    const std::uint64_t vpn = mem::vpn_of(done.va);
    auto& shard = site.dir_shard(vpn);
    shard.lock.lock();
    auto from_it = shard.pending_from.find(vpn);
    const bool current =
        from_it != shard.pending_from.end() && from_it->second == done.requester;
    shard.lock.unlock();
    if (!current) return;
    commit_install(site, done.va, done.requester, done.ok);
}

void PageOwner::on_page_invalidate_range(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_prefix_as<PageInvalidateRangeReq>();
    PageInvalidateRangeResp resp{};
    if (k_.has_site(req.pid)) {
        ProcessSite& site = k_.site(req.pid);
        std::vector<std::uint64_t> vpns;
        vpns.reserve(req.count);
        for (std::uint32_t i = 0; i < req.count; ++i) {
            vpns.push_back(req.base_vpn + req.vpn_offset[i]);
        }
        resp.touched = local_range(site, vpns, req.op);
    }
    node.reply(*m, msg::make_message(msg::MsgType::kPageInvalidateRange,
                                     msg::MsgKind::kReply, resp));
}

void PageOwner::on_page_push(msg::Node& node, msg::MessagePtr m) {
    (void)node;
    const auto& push = m->payload_prefix_as<PagePushMsg>();
    const topo::KernelId from = m->hdr.src;
    bool installed = false;
    // A push from a home already declared dead is dropped: the census that
    // rebuilt its shard may not have seen this copy, and the home will
    // never commit the transfer.
    if (!k_.node().peer_dead(from)) {
        if (k_.has_site(push.pid)) {
            ProcessSite& site = k_.site(push.pid);
            const GrantInFlight in_flight(site, from);
            // Replica-side VMA lookup: the list was validated against the
            // home's tree, but a racing munmap/mprotect may have landed here
            // since — abandoning rolls the home's parked transaction back.
            mem::Vma vma;
            bool found = false;
            {
                ReadGuard guard(site.space().mmap_lock());
                const mem::Vma* v = site.space().vmas().find(push.va);
                if (v != nullptr && (v->prot & mem::kProtRead) != 0) {
                    vma = *v;
                    found = true;
                }
            }
            if (found) {
                PageFaultResp resp{};
                resp.status = FaultStatus::kOk;
                resp.data_included = push.data_included;
                resp.source = push.source;
                if (push.data_included) resp.data = push.data;
                installed = install_locally(site, vma, push.va, mem::kProtRead, resp);
            }
        }
        // ALWAYS confirm — success or not — or the home's busy bit leaks and
        // every later fault on the page hangs.
        k_.node().send(from, msg::make_message(msg::MsgType::kPageInstalled,
                                               msg::MsgKind::kOneway,
                                               PageInstalledMsg{push.pid, push.va,
                                                                k_.id(), installed}));
    }
    if (push.workset) {
        (installed ? workset_hit_ : workset_wasted_).inc();
    } else {
        (installed ? prefetch_hit_ : prefetch_wasted_).inc();
    }
}

void PageOwner::on_workset_pull(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_prefix_as<WorksetPullReq>();
    WorksetPullResp resp{};
    if (k_.has_site(req.pid) && !k_.node().peer_dead(req.requester) &&
        workset_push_ > 0) {
        ProcessSite& site = k_.site(req.pid);
        std::vector<mem::Vaddr> pages;
        for (std::uint32_t i = 0; i < req.count && i < task::kMaxWorkset; ++i) {
            pages.push_back(static_cast<mem::Vaddr>(req.vpn[i]) << mem::kPageShift);
        }
        resp.granted = push_window(site, claim_push_pages(site, pages, req.requester),
                                   req.requester, /*workset=*/true);
    }
    // Reply AFTER the pushes: the channel is FIFO, so by the time the
    // puller's scatter completes every granted push has already been
    // dispatched and installed — the pull round is a barrier.
    node.reply(*m, msg::make_message(msg::MsgType::kWorksetPull,
                                     msg::MsgKind::kReply, resp));
}

} // namespace rko::core
