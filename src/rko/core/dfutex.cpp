#include "rko/core/dfutex.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "rko/base/stats.hpp"
#include "rko/check/gate.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/kernel/kernel.hpp"
#include "rko/trace/trace.hpp"

namespace rko::core {

DFutex::DFutex(kernel::Kernel& k)
    : k_(k),
      local_(k.id()),
      waits_(k.metrics().counter("futex.waits")),
      wakes_(k.metrics().counter("futex.wakes")),
      remote_grants_(k.metrics().counter("futex.remote_grants")),
      local_handoffs_(k.metrics().counter("futex.local_handoffs")),
      aggregated_waits_(k.metrics().counter("futex.aggregated_waits")),
      grant_fanout_(k.metrics().histogram("futex.grant_batch.fanout")) {
    if (race::enabled()) {
        char label[48];
        for (std::size_t i = 0; i < kBuckets; ++i) {
            std::snprintf(label, sizeof label, "k%d.futex.bucket[%zu]",
                          static_cast<int>(k.id()), i);
            race::name_lock(&table_[i].lock, label);
        }
        std::snprintf(label, sizeof label, "k%d.futex.hot",
                      static_cast<int>(k.id()));
        race::name_lock(&hot_lock_, label);
    }
}

void DFutex::install() {
    k_.node().register_handler(
        msg::MsgType::kFutexWait, msg::HandlerClass::kBlocking,
        [this](msg::Node& node, msg::MessagePtr m) { on_futex_wait(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kFutexWake, msg::HandlerClass::kBlocking,
        [this](msg::Node& node, msg::MessagePtr m) { on_futex_wake(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kFutexGrant, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) { on_futex_grant(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kFutexCancel, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) { on_futex_cancel(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kFutexGrantBatch, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) {
            on_futex_grant_batch(node, std::move(m));
        });
    k_.node().register_handler(
        msg::MsgType::kFutexDeregister, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) {
            on_futex_deregister(node, std::move(m));
        });
}

std::size_t DFutex::queued_waiters() const {
    std::size_t total = 0;
    for (const auto& bucket : table_) {
        for (const Waiter& w : bucket.queue) {
            total += w.tid == kAggregateTid ? w.count : 1;
        }
    }
    return total + local_.queued();
}

Nanos DFutex::bucket_wait_time() const {
    Nanos total = local_.lock_wait_time();
    for (const auto& bucket : table_) total += bucket.lock.wait_time();
    return total;
}

void DFutex::for_each_waiter(
    const std::function<void(const WaiterView&)>& fn) const {
    for (const auto& bucket : table_) {
        for (const Waiter& w : bucket.queue) {
            if (w.tid == kAggregateTid && w.count == 0) continue; // tombstone
            fn(WaiterView{w.pid, w.tid, w.kernel, w.uaddr, w.count,
                          w.tid == kAggregateTid, false});
        }
    }
    local_.for_each_waiter([&](Pid pid, mem::Vaddr uaddr, Tid tid) {
        fn(WaiterView{pid, tid, k_.id(), uaddr, 1, false, true});
    });
}

std::uint32_t DFutex::aggregate_count(Pid pid, mem::Vaddr uaddr,
                                      topo::KernelId kernel) const {
    const Bucket& bucket = table_[bucket_index(pid, uaddr)];
    for (const Waiter& w : bucket.queue) {
        if (w.tid == kAggregateTid && w.pid == pid && w.uaddr == uaddr &&
            w.kernel == kernel) {
            return w.count;
        }
    }
    return 0;
}

std::size_t DFutex::locked_buckets() const {
    std::size_t held = 0;
    for (const auto& bucket : table_) held += bucket.lock.held() ? 1 : 0;
    return held;
}

std::int32_t DFutex::origin_wait(ProcessSite& site, Pid pid, Tid tid,
                                 topo::KernelId waiter_kernel, mem::Vaddr uaddr,
                                 std::uint32_t val, std::uint32_t aggregate_count,
                                 std::uint64_t epoch,
                                 topo::KernelId* owner_hint) {
    RKO_ASSERT(site.is_origin());
    const mem::Vaddr page = mem::page_floor(uaddr);
    Bucket& bucket = bucket_of(pid, uaddr);
    const bool aggregate = aggregate_count > 0;

    for (int attempt = 0; attempt < 16; ++attempt) {
        if (inject_stale_registration_) {
            // BUG RE-INJECTION (tests only): sample the bucket's sweep
            // state before the fault-path await, without the bucket lock —
            // the pre-PR6 shape of this function. The unlocked shadow read
            // is what lets the race detector flag the enqueue below once
            // the reaper's sweep writes the bucket.
            bucket.shadow.on_read();
        }
        // Make sure this kernel can read the word, *then* re-check its
        // mapping under the bucket lock: any globally-completed write either
        // updated our frame or invalidated it first.
        const std::byte* frame = k_.pages().ensure_readable(site, page);
        if (frame == nullptr) return kEfault; // unmapped: cannot sleep on it
        bucket.lock.lock();
        const mem::Pte* pte = site.space().page_table().find(page);
        if (pte == nullptr || !pte->allows(mem::kProtRead)) {
            bucket.lock.unlock();
            continue; // invalidated under us; refetch and retry
        }
        std::uint32_t current;
        std::memcpy(&current,
                    k_.phys().frame_ptr(pte->paddr) + (uaddr & mem::kPageMask),
                    sizeof current);
        if (current != val) {
            bucket.lock.unlock();
            return kEagain;
        }
        if (check::enabled() && !aggregate) {
            // A tid can sleep on at most one word at a time; a duplicate
            // here means a grant or cancel was lost.
            for (const Waiter& w : bucket.queue) {
                RKO_ASSERT_MSG(w.tid != tid || w.pid != pid ||
                                   w.tid == kAggregateTid,
                               "futex waiter queued twice");
            }
        }
        if (!inject_stale_registration_) {
            // The enqueue decision re-reads queue + sweep state under the
            // bucket lock; the shadow read records that discipline.
            bucket.shadow.on_read();
            if (waiter_kernel != k_.id() && k_.node().peer_dead(waiter_kernel)) {
                // The waiter's kernel was declared dead while ensure_readable
                // above parked this handler on the fault protocol — the reaper
                // already swept the buckets, so enqueueing now would leave an
                // entry nothing can ever cancel.
                bucket.lock.unlock();
                return kEfault;
            }
        }
        if (aggregate) {
            apply_report_locked(bucket, pid, uaddr, waiter_kernel,
                                aggregate_count, epoch);
        } else {
            bucket.queue.push_back(
                Waiter{pid, tid, waiter_kernel, uaddr, 1, 0});
        }
        bucket.shadow.on_write();
        bucket.lock.unlock();
        // Census credit for the waiter's kernel: the kernel whose threads
        // keep (re-)parking on a word is the kernel the lock is churning
        // on. Grants alone are too rare a signal — a healthy handoff chain
        // contacts the origin once per budget expiry — but every chain
        // step re-forms the convoy and re-registers here, so registration
        // rate tracks lock activity tick by tick.
        note_grant(pid, uaddr, waiter_kernel, 1);
        if (owner_hint != nullptr) *owner_hint = owner_of(pid, uaddr);
        return 0;
    }
    return kEagain;
}

void DFutex::apply_report_locked(Bucket& bucket, Pid pid, mem::Vaddr uaddr,
                                 topo::KernelId kernel, std::uint32_t count,
                                 std::uint64_t epoch) {
    for (Waiter& w : bucket.queue) {
        if (w.tid == kAggregateTid && w.pid == pid && w.uaddr == uaddr &&
            w.kernel == kernel) {
            if (epoch > w.epoch) {
                w.count = count;
                w.epoch = epoch;
            }
            return;
        }
    }
    // Absent entry: create one even for count 0 — the tombstone's epoch
    // outranks a stale registration still parked in a blocking handler
    // (its kworker resumed after this report despite the FIFO channel),
    // which would otherwise resurrect a convoy that already drained.
    bucket.queue.push_back(Waiter{pid, kAggregateTid, kernel, uaddr, count, epoch});
}

std::uint32_t DFutex::origin_wake(ProcessSite& site, Pid pid, mem::Vaddr uaddr,
                                  std::uint32_t max_wake) {
    RKO_ASSERT(site.is_origin());
    Bucket& bucket = bucket_of(pid, uaddr);
    std::uint32_t woken_total = 0;

    // Grant rounds: each round scans the FIFO queue once, wakes direct
    // waiters, and fans one kFutexGrantBatch per convoy kernel out with a
    // single rpc_scatter. Replies carry each kernel's authoritative
    // remaining count, so a stale-low aggregate (followers joined after
    // the head registered) is topped up by the next round. Every round
    // either wakes a waiter or retires an aggregate, so the loop
    // terminates; the cap is a belt against a pathological churn of
    // re-registrations (excess waiters are next-generation and owed
    // nothing by this wake).
    constexpr int kMaxGrantRounds = 8;
    for (int round = 0; round < kMaxGrantRounds; ++round) {
        std::uint32_t need = max_wake - woken_total;
        std::vector<Waiter> direct;
        std::vector<std::pair<topo::KernelId, std::uint32_t>> grants;
        bucket.lock.lock();
        for (auto it = bucket.queue.begin();
             it != bucket.queue.end() && need > 0;) {
            if (it->pid != pid || it->uaddr != uaddr) {
                ++it;
                continue;
            }
            if (it->tid != kAggregateTid) {
                direct.push_back(*it);
                it = bucket.queue.erase(it);
                --need;
                continue;
            }
            if (it->count == 0) { // tombstone
                ++it;
                continue;
            }
            const std::uint32_t m = std::min(it->count, need);
            it->count -= m;
            need -= m;
            grants.emplace_back(it->kernel, m);
            ++it;
        }
        if (!direct.empty() || !grants.empty()) bucket.shadow.on_write();
        bucket.lock.unlock();
        if (direct.empty() && grants.empty()) break;

        for (const Waiter& waiter : direct) deliver_grant(waiter);
        woken_total += static_cast<std::uint32_t>(direct.size());
        for (const Waiter& waiter : direct) {
            note_grant(pid, uaddr, waiter.kernel, 1);
        }

        if (!grants.empty()) {
            grant_fanout_.add(static_cast<Nanos>(grants.size()));
            std::vector<msg::Node::ScatterItem> items;
            items.reserve(grants.size());
            for (const auto& [kid, n] : grants) {
                items.push_back({kid, msg::make_message(
                                          msg::MsgType::kFutexGrantBatch,
                                          msg::MsgKind::kRequest,
                                          FutexGrantBatchReq{pid, uaddr, n})});
            }
            auto replies = k_.node().rpc_scatter(std::move(items));
            bucket.lock.lock();
            for (std::size_t i = 0; i < replies.size(); ++i) {
                if (replies[i] == nullptr) continue; // peer died; reaper sweeps
                const auto& r = replies[i]->payload_as<FutexGrantBatchResp>();
                woken_total += r.woken;
                apply_report_locked(bucket, pid, uaddr, grants[i].first,
                                    r.remaining, r.epoch);
            }
            bucket.shadow.on_write();
            bucket.lock.unlock();
            for (std::size_t i = 0; i < replies.size(); ++i) {
                if (replies[i] == nullptr) continue;
                const auto& r = replies[i]->payload_as<FutexGrantBatchResp>();
                if (r.woken > 0) note_grant(pid, uaddr, grants[i].first, r.woken);
            }
        }
        if (woken_total >= max_wake) break;
    }
    return woken_total;
}

void DFutex::deliver_grant(const Waiter& waiter) {
    if (waiter.kernel == k_.id()) {
        task::Task* t = k_.find_task(waiter.tid);
        if (t != nullptr) k_.sched().wake(*t);
        return;
    }
    remote_grants_.inc();
    k_.node().send(waiter.kernel,
                   msg::make_message(msg::MsgType::kFutexGrant, msg::MsgKind::kOneway,
                                     FutexGrantMsg{waiter.pid, waiter.tid}));
}

void DFutex::note_grant(Pid pid, mem::Vaddr uaddr, topo::KernelId kernel,
                        std::uint32_t n) {
    hot_lock_.lock();
    Hot& hot = hot_words_[{pid, uaddr}];
    if (hot.heat.empty()) {
        hot.heat.resize(static_cast<std::size_t>(k_.fabric().nkernels()), 0);
    }
    hot.heat[static_cast<std::size_t>(kernel)] += n;
    // Owner *changes* are driven by the live parked-count census
    // (hottest_word); credits only seed the initial designation so a
    // no-balancer machine still names a holder (see Hot).
    if (hot.owner < 0) hot.owner = kernel;
    hot_lock_.unlock();
}

topo::KernelId DFutex::owner_of(Pid pid, mem::Vaddr uaddr) {
    topo::KernelId owner = -1;
    hot_lock_.lock();
    auto it = hot_words_.find({pid, uaddr});
    if (it != hot_words_.end()) owner = it->second.owner;
    hot_lock_.unlock();
    return owner;
}

DFutex::HotWord DFutex::hottest_word() {
    // Live parked-count census: how many waiters each kernel has parked on
    // each word right now, read from this origin's own buckets. Grant and
    // registration credits (note_grant) go silent exactly when the system
    // converges — a deep convoy never drains, so nothing re-registers and
    // the origin only hears a wake once per budget expiry — but the
    // aggregate counts persist through that silence, so the owner a
    // converged cohort earned is re-affirmed every tick instead of
    // decaying into a flip to whichever straggler registers next.
    const auto nk = static_cast<std::size_t>(k_.fabric().nkernels());
    std::map<std::pair<Pid, mem::Vaddr>, std::vector<std::uint32_t>> live;
    for (Bucket& bucket : table_) {
        // Unlocked emptiness check, free in virtual time like the balancer's
        // other scans: an empty bucket adds nothing to the census, so only
        // occupied buckets pay a simulated lock. A waiter that lands just
        // after its bucket was checked is counted on the next tick, like
        // one that lands just after its bucket was scanned.
        if (bucket.queue.empty()) continue;
        bucket.lock.lock();
        bucket.shadow.on_read();
        for (const Waiter& w : bucket.queue) {
            if (w.count == 0) continue; // aggregate tombstone
            auto& counts = live[{w.pid, w.uaddr}];
            if (counts.empty()) counts.resize(nk, 0);
            counts[static_cast<std::size_t>(w.kernel)] += w.count;
        }
        bucket.lock.unlock();
    }

    HotWord out;
    hot_lock_.lock();
    for (auto& [key, counts] : live) {
        Hot& hot = hot_words_[key];
        if (hot.heat.empty()) hot.heat.resize(nk, 0);
        std::uint32_t total = 0;
        std::uint32_t best_count = 0;
        topo::KernelId best = -1;
        for (std::size_t kid = 0; kid < nk; ++kid) {
            total += counts[kid];
            if (counts[kid] > best_count) { // ties resolve to the lowest id
                best_count = counts[kid];
                best = static_cast<topo::KernelId>(kid);
            }
        }
        if (hot.owner < 0) {
            hot.owner = best;
        } else if (best >= 0 && best != hot.owner &&
                   best_count >
                       2 * counts[static_cast<std::size_t>(hot.owner)]) {
            hot.owner = best;
        }
        hot.live = total;
    }
    for (auto it = hot_words_.begin(); it != hot_words_.end();) {
        Hot& hot = it->second;
        if (live.find(it->first) == live.end()) hot.live = 0;
        std::uint32_t credit = 0;
        std::uint32_t left = 0;
        for (std::uint32_t& h : hot.heat) {
            credit += h;
            h /= 2; // same decay cadence as Task::fault_from
            left += h;
        }
        const std::uint32_t total = hot.live + credit;
        if (total > out.heat) {
            out = HotWord{it->first.first, it->first.second, hot.owner, total};
        }
        if (left == 0 && hot.live == 0) {
            it = hot_words_.erase(it);
        } else {
            ++it;
        }
    }
    hot_lock_.unlock();
    return out;
}

bool DFutex::origin_cancel(Pid pid, Tid tid, mem::Vaddr uaddr) {
    if (uaddr == 0) {
        // Wildcard: the word is unknown, so the bucket is too. A tid sleeps
        // on at most one word, so stop at the first hit. Aggregates never
        // match — their waiters cancel through the owning kernel's convoy.
        for (Bucket& bucket : table_) {
            bucket.lock.lock();
            for (auto it = bucket.queue.begin(); it != bucket.queue.end(); ++it) {
                if (it->pid == pid && it->tid == tid && it->tid != kAggregateTid) {
                    bucket.queue.erase(it);
                    bucket.shadow.on_write();
                    bucket.lock.unlock();
                    return true;
                }
            }
            bucket.lock.unlock();
        }
        return false;
    }
    Bucket& bucket = bucket_of(pid, uaddr);
    bucket.lock.lock();
    for (auto it = bucket.queue.begin(); it != bucket.queue.end(); ++it) {
        if (it->pid == pid && it->tid == tid && it->uaddr == uaddr &&
            it->tid != kAggregateTid) {
            bucket.queue.erase(it);
            bucket.shadow.on_write();
            bucket.lock.unlock();
            return true;
        }
    }
    bucket.lock.unlock();
    return false;
}

std::size_t DFutex::remove_kernel_waiters(topo::KernelId kernel) {
    std::size_t removed = 0;
    for (Bucket& bucket : table_) {
        bucket.lock.lock();
        for (auto it = bucket.queue.begin(); it != bucket.queue.end();) {
            if (it->kernel == kernel) {
                removed += it->tid == kAggregateTid ? it->count : 1;
                it = bucket.queue.erase(it);
            } else {
                ++it;
            }
        }
        // The sweep is a write even when it removes nothing: it publishes
        // "no waiters of `kernel` remain here", and any enqueue decided on
        // pre-sweep knowledge invalidates that — exactly the PR 6 bug.
        bucket.shadow.on_write();
        bucket.lock.unlock();
    }
    return removed;
}

bool DFutex::cancel_local(Pid pid, Tid tid, topo::KernelId origin) {
    mem::Vaddr uaddr = 0;
    auto c = local_.cancel_any(pid, tid, &uaddr);
    if (!c) return false;
    if (c->emptied) send_deregister(origin, pid, uaddr, c->epoch);
    return true;
}

void DFutex::send_deregister(topo::KernelId origin, Pid pid, mem::Vaddr uaddr,
                             std::uint64_t epoch) {
    if (origin == k_.id()) return; // convoys only form for remote origins
    k_.node().send(origin, msg::make_message(
                               msg::MsgType::kFutexDeregister, msg::MsgKind::kOneway,
                               FutexDeregisterMsg{pid, uaddr, k_.id(), epoch}));
}

int DFutex::sleep_or_timeout(task::Task& t, ProcessSite& site, mem::Vaddr uaddr,
                             Nanos timeout) {
    if (timeout < 0) {
        k_.sched().block_and_wait(t);
        return 0;
    }
    if (k_.sched().block_and_wait_for(t, timeout)) return 0;

    // Timed out: withdraw from the local convoy. Queue membership is the
    // authoritative grant signal — if the entry is already gone a grant or
    // handoff selected us, so consume the banked wake and report a normal
    // wakeup (it must not poison this task's next wait).
    auto c = local_.cancel(t.pid, uaddr, t.tid);
    if (!c) {
        k_.sched().block_and_wait(t);
        return 0;
    }
    // The origin's aggregate count is now stale-high by one; the next
    // grant reply reconciles it. Only a drained convoy owes a deregister.
    if (c->emptied) send_deregister(site.origin(), t.pid, uaddr, c->epoch);
    return kEtimedout;
}

int DFutex::convoy_wait(task::Task& t, ProcessSite& site, mem::Vaddr uaddr,
                        std::uint32_t val, Nanos timeout) {
    const mem::Vaddr page = mem::page_floor(uaddr);
    std::optional<DFutexLocal::Enter> entered;
    for (int attempt = 0; attempt < 16 && !entered; ++attempt) {
        // Fault the word readable on this kernel first (may await on the
        // coherence protocol); enter() re-checks the mapping and the value
        // under the convoy lock, where grants serialize with the enqueue.
        const mem::Pte* pte = site.space().page_table().find(page);
        if (pte == nullptr || !pte->allows(mem::kProtRead)) {
            if (k_.handle_fault(t, uaddr, mem::kProtRead) ==
                mem::Mmu::FaultResult::kSegv) {
                return kEfault;
            }
        }
        entered = local_.enter(t.pid, uaddr, t.tid, val, [&]() -> std::optional<std::uint32_t> {
            const mem::Pte* locked_pte = site.space().page_table().find(page);
            if (locked_pte == nullptr || !locked_pte->allows(mem::kProtRead)) {
                return std::nullopt; // invalidated under us; refetch and retry
            }
            std::uint32_t current;
            std::memcpy(&current,
                        k_.phys().frame_ptr(locked_pte->paddr) +
                            (uaddr & mem::kPageMask),
                        sizeof current);
            return current;
        });
    }
    if (!entered) return kEagain;
    if (entered->mismatch) return kEagain;

    if (!entered->head) {
        // Follower: one RPC for the whole convoy already flew (or will be
        // reconciled by the next grant reply). Park until a grant or
        // handoff pops us.
        return sleep_or_timeout(t, site, uaddr, timeout);
    }

    // Convoy head: register the whole kernel at the origin. The head is
    // already queued locally, so a grant racing this RPC banks its wake.
    aggregated_waits_.inc();
    FutexWaitResp resp{};
    for (int attempt = 0;; ++attempt) {
        auto reply = k_.node().rpc(
            site.origin(),
            msg::make_message(
                msg::MsgType::kFutexWait, msg::MsgKind::kRequest,
                FutexWaitReq{t.pid, t.tid, uaddr, val, k_.id(), /*aggregate=*/1,
                             /*count=*/1, entered->reg_epoch}));
        resp = reply->payload_as<FutexWaitResp>();
        if (resp.result != kEagain || attempt >= 3) break;
        // Transient refusal: a contended word flips several times per
        // registration RTT, so the origin often samples it mid-transition.
        // While this kernel's own copy still shows `val` the convoy is
        // still owed a wake — re-register rather than unwinding every
        // follower into a spurious-wake storm (each unwound waiter would
        // re-pull the page and re-park, a coherence stampede).
        const mem::Pte* pte = site.space().page_table().find(page);
        if (pte == nullptr || !pte->allows(mem::kProtRead)) break;
        std::uint32_t current;
        std::memcpy(&current,
                    k_.phys().frame_ptr(pte->paddr) + (uaddr & mem::kPageMask),
                    sizeof current);
        if (current != val) break;
    }
    if (resp.result != 0) {
        // Refused (EAGAIN/EFAULT): the origin saw a changed value, so every
        // follower's local check is stale too — unwind them with legal
        // spurious wakes and report the refusal ourselves.
        std::vector<Tid> unwound;
        const bool head_was_queued = local_.registration_failed(
            t.pid, uaddr, entered->reg_epoch, t.tid, &unwound);
        for (Tid tid : unwound) {
            task::Task* w = k_.find_task(tid);
            if (w != nullptr) k_.sched().wake(*w);
        }
        if (!head_was_queued) {
            // A handoff or grant popped this head while the registration
            // RPC flew, banking a wake on it. Consume the bank and report
            // a normal wakeup — returning the refusal would let the stale
            // bank pay for this task's next wait instantly, stranding a
            // queue entry that spuriously wakes it forever after.
            k_.sched().block_and_wait(t);
            return 0;
        }
        return resp.result;
    }
    local_.registration_ok(t.pid, uaddr, entered->reg_epoch);
    if (resp.owner >= 0 && resp.owner < topo::kMaxKernels &&
        resp.owner != k_.id()) {
        // Owner-affinity hint: count the grant holder like a remote-fault
        // source so the balance affinity policy converges contenders there.
        t.fault_from[static_cast<std::size_t>(resp.owner)] += 1;
    }
    return sleep_or_timeout(t, site, uaddr, timeout);
}

int DFutex::wait(task::Task& t, ProcessSite& site, mem::Vaddr uaddr,
                 std::uint32_t val, Nanos timeout) {
    waits_.inc();
    t.last_futex_word = uaddr;
    trace::Span span(k_.engine(), k_.id(), "futex.wait", uaddr);
    if (!site.is_origin() && hierarchy_) {
        return convoy_wait(t, site, uaddr, val, timeout);
    }
    std::int32_t result;
    if (site.is_origin()) {
        result = origin_wait(site, t.pid, t.tid, k_.id(), uaddr, val, 0, 0,
                             nullptr);
    } else {
        auto reply = k_.node().rpc(
            site.origin(),
            msg::make_message(msg::MsgType::kFutexWait, msg::MsgKind::kRequest,
                              FutexWaitReq{t.pid, t.tid, uaddr, val, k_.id()}));
        result = reply->payload_as<FutexWaitResp>().result;
    }
    if (result != 0) return result;

    // Queued at the origin: sleep until a grant wakes us. A grant that
    // raced ahead is banked as wake_pending by the scheduler.
    if (timeout < 0) {
        k_.sched().block_and_wait(t);
        return 0;
    }
    if (k_.sched().block_and_wait_for(t, timeout)) return 0;

    // Timed out: withdraw the queue entry at the origin. If the entry is
    // already gone a grant is in flight; report a normal wake (the banked
    // wake_pending becomes a legal spurious wakeup later).
    bool removed;
    if (site.is_origin()) {
        removed = origin_cancel(t.pid, t.tid, uaddr);
    } else {
        auto reply = k_.node().rpc(
            site.origin(),
            msg::make_message(msg::MsgType::kFutexCancel, msg::MsgKind::kRequest,
                              FutexCancelReq{t.pid, t.tid, uaddr}));
        removed = reply->payload_as<FutexCancelResp>().removed;
    }
    if (removed) return kEtimedout;
    // The entry was already gone: a grant is in flight (or has landed as a
    // banked wake_pending). Consume it before returning, otherwise the
    // stale wake poisons this task's *next* wait — it would dequeue-and-run
    // instantly while its queue entry stays behind, tripping the
    // "queued twice" audit on the wait after that.
    k_.sched().block_and_wait(t);
    return 0;
}

int DFutex::wake(task::Task& t, ProcessSite& site, mem::Vaddr uaddr,
                 std::uint32_t max_wake) {
    wakes_.inc();
    trace::Span span(k_.engine(), k_.id(), "futex.wake", uaddr);
    if (site.is_origin()) {
        return static_cast<int>(origin_wake(site, t.pid, uaddr, max_wake));
    }
    if (hierarchy_ && max_wake == 1) {
        // Local handoff: pass the lock around our own convoy without
        // contacting the origin, until the fairness budget expires. The
        // origin's count goes stale-high; the next grant reply reconciles.
        if (auto h = local_.try_handoff(t.pid, uaddr)) {
            local_handoffs_.inc();
            task::Task* w = k_.find_task(h->tid);
            if (w != nullptr) k_.sched().wake(*w);
            if (h->emptied) send_deregister(site.origin(), t.pid, uaddr, h->epoch);
            return 1;
        }
    }
    auto reply = k_.node().rpc(
        site.origin(), msg::make_message(msg::MsgType::kFutexWake, msg::MsgKind::kRequest,
                                         FutexWakeReq{t.pid, uaddr, max_wake}));
    return static_cast<int>(reply->payload_as<FutexWakeResp>().woken);
}

void DFutex::on_futex_wait(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<FutexWaitReq>();
    FutexWaitResp resp{kEfault, -1};
    // A registration from an already-declared-dead kernel must not enter
    // the queue after the reaper swept that kernel's waiters — the request
    // can arrive late when its handler sat behind a lock whose holder was
    // itself stuck rpc-ing the corpse. Mirrors the page-fault guard; the
    // refusal reply dead-letters at the dead node.
    if (k_.has_site(req.pid) && !node.peer_dead(req.waiter_kernel)) {
        resp.result = origin_wait(k_.site(req.pid), req.pid, req.tid,
                                  req.waiter_kernel, req.uaddr, req.val,
                                  req.aggregate != 0 ? req.count : 0, req.epoch,
                                  &resp.owner);
    }
    node.reply(*m,
               msg::make_message(msg::MsgType::kFutexWait, msg::MsgKind::kReply, resp));
}

void DFutex::on_futex_wake(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<FutexWakeReq>();
    FutexWakeResp resp{0};
    if (k_.has_site(req.pid)) {
        resp.woken = origin_wake(k_.site(req.pid), req.pid, req.uaddr, req.max_wake);
    }
    node.reply(*m,
               msg::make_message(msg::MsgType::kFutexWake, msg::MsgKind::kReply, resp));
}

void DFutex::on_futex_cancel(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<FutexCancelReq>();
    FutexCancelResp resp{origin_cancel(req.pid, req.tid, req.uaddr)};
    node.reply(*m, msg::make_message(msg::MsgType::kFutexCancel, msg::MsgKind::kReply,
                                     resp));
}

void DFutex::on_futex_grant(msg::Node& node, msg::MessagePtr m) {
    (void)node;
    const auto& grant = m->payload_as<FutexGrantMsg>();
    task::Task* t = k_.find_task(grant.tid);
    if (t != nullptr) k_.sched().wake(*t);
}

void DFutex::on_futex_grant_batch(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<FutexGrantBatchReq>();
    std::vector<Tid> woken;
    const auto r = local_.grant(req.pid, req.uaddr, req.n, handoff_cap_, &woken);
    for (Tid tid : woken) {
        task::Task* t = k_.find_task(tid);
        if (t != nullptr) k_.sched().wake(*t);
    }
    node.reply(*m, msg::make_message(msg::MsgType::kFutexGrantBatch,
                                     msg::MsgKind::kReply,
                                     FutexGrantBatchResp{r.woken, r.remaining, r.epoch}));
}

void DFutex::on_futex_deregister(msg::Node& node, msg::MessagePtr m) {
    (void)node;
    const auto& d = m->payload_as<FutexDeregisterMsg>();
    if (!k_.has_site(d.pid)) return;
    Bucket& bucket = bucket_of(d.pid, d.uaddr);
    bucket.lock.lock();
    apply_report_locked(bucket, d.pid, d.uaddr, d.kernel, 0, d.epoch);
    bucket.shadow.on_write();
    bucket.lock.unlock();
}

} // namespace rko::core
