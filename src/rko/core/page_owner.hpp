// Page-granularity ownership protocol (paper §IV-C).
//
// MSI-style, home-based: the process's origin kernel keeps a directory
// entry per touched page recording who holds valid copies. Read faults
// replicate (Shared); write faults invalidate every other copy and move
// exclusive ownership to the writer. The result is sequential consistency
// at page granularity across kernels, which is what the hardware gives a
// thread group on one kernel. A page kernels take turns to read and then
// write (migratory) changes owner on the read instead, so each handoff
// costs one transaction (DESIGN.md §17). A thread at the home that takes
// a page by an atomic keeps it until it next enters the kernel, for at most
// one message round trip, as a remote grantee does (tenure, §17).
//
// Transactions at the origin serialize per page with a busy bit (the shard
// lock is never held across an await) and re-validate against the site's
// vma_epoch so racing munmaps cannot resurrect dead pages.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "rko/base/stats.hpp"
#include "rko/core/process.hpp"
#include "rko/mem/mmu.hpp"
#include "rko/core/wire.hpp"
#include "rko/msg/node.hpp"
#include "rko/trace/metrics.hpp"

namespace rko::kernel {
class Kernel;
}

namespace rko::core {

class PageOwner {
public:
    /// Hard cap on a fault-around window (pages, including the faulting
    /// one): a remote stream's ramp and a first-touch run stop here, so one
    /// capture fits one kPageFetch per holder.
    static constexpr std::uint32_t kMaxFaultAround = 32;
    /// Hard cap on a read stream's window at the page's home: its ramp keeps
    /// doubling past kMaxFaultAround, and its capture posts one kPageFetch
    /// per holder for each kMaxFaultAround pages (DESIGN.md §10).
    static constexpr std::uint32_t kMaxHomeWindow = 128;
    /// Consecutive +1-page faults a thread must string together before a
    /// fault carries a fault-around window.
    static constexpr std::uint32_t kPrefetchMinRun = 3;

    explicit PageOwner(kernel::Kernel& k);

    /// Registers kPageFault / kHomeRangeOp / kWorksetPull (blocking),
    /// kPageFetch / kPageInvalidateRange / kPageInstalled / kPageForward /
    /// kPagePush / kHomeRebuild (leaf).
    void install();

    /// Protocol ablation: when false, read faults also take exclusive
    /// ownership (no Shared state — pages migrate on any fault, the
    /// simplest DSM). Default true: MSI with reader replication.
    void set_read_replication(bool enabled) { read_replication_ = enabled; }
    bool read_replication() const { return read_replication_; }

    /// Fault-around prefetch window (pages): the first window of a stream.
    /// Each window that continues the stream doubles the next one, up to
    /// kMaxFaultAround (kMaxHomeWindow for a read stream at the home, which
    /// also reads one window ahead). <= 1, the measured demand-fault
    /// ablation, disables the stride detector: no fault carries a window
    /// and no kPagePush traffic, first-touch run or read-ahead exists.
    void set_prefetch_window(int pages) { prefetch_window_ = pages; }
    int prefetch_window() const { return prefetch_window_; }

    /// Working-set migration (DESIGN.md §15): how many hot pages a
    /// migration pre-copies (top-K of the task tracker, <= kMaxWorkset).
    /// <= 0, the measured demand-only ablation, disables the whole feature:
    /// no workset tail on kMigrate, no kWorksetPull rounds or workset
    /// pushes, no primed read streak.
    void set_workset_push(int k) { workset_push_ = k; }
    int workset_push() const { return workset_push_; }

    /// Post-resume pre-copy pull (runs on the migrated guest's actor):
    /// drains t.pending_workset in ONE rpc_scatter of kWorksetPull rounds,
    /// one per home; when it returns every granted page is installed
    /// locally. Pages homed here, and pulls to homes that died mid-round,
    /// simply demand-fault later.
    void workset_prefault(ProcessSite& site, task::Task& t);

    /// TEST-ONLY fault injection: write transactions skip one victim's
    /// invalidation, planting exactly the stale-copy coherence bug the
    /// rko/check pages auditors exist to catch (rko_explore --inject and
    /// the checker self-tests). Never enable outside those harnesses.
    void set_inject_lost_invalidate(bool on) { inject_lost_invalidate_ = on; }

    /// Fault entry after VMA validation: obtain `access` rights to `page`
    /// for this kernel and map it locally. Runs on the faulting task.
    /// When `t` is given, the fault is attributed to the kernel that
    /// supplied the bytes (Task::fault_from) for the balancer's affinity
    /// policy.
    mem::Mmu::FaultResult acquire(ProcessSite& site, const mem::Vma& vma,
                                  mem::Vaddr page, std::uint32_t access,
                                  task::Task* t = nullptr);

    /// Ensures this (origin) kernel holds a readable copy of `page` —
    /// used by the distributed futex to peek at user words. Runs acquire's
    /// home and remote fault legs as a kernel peek, outside the fault
    /// counters. Returns the host pointer to the local frame, or null if
    /// unmapped/SEGV.
    std::byte* ensure_readable(ProcessSite& site, mem::Vaddr page);

    /// The range sweep (DESIGN.md §10), run by a page's home with the
    /// vma_op_lock held. Claims every directory entry in [start, end),
    /// waiting out live transactions, plans each page's holder legs from
    /// its snapshot (holders known dead get none), runs this kernel's legs
    /// as one batched local op, posts every remote leg in one rpc_scatter,
    /// lands pulled bytes in local frames and commits each page's
    /// post-state, stripping holders that died meanwhile. By kind:
    /// - kRevoke (munmap): every copy is dropped and the entry erased;
    /// - kDowngrade (mprotect without write): an Exclusive owner loses its
    ///   write bit and the page turns Shared, data in place;
    /// - kSequester (PROT_NONE): every other copy is dropped and the bytes
    ///   end in one frame here with no access, so they survive a later
    ///   mprotect back to accessibility;
    /// - kEvict (drain): only entries the live, parting kernel `parting`
    ///   holds are claimed, and it drops its copy; a sole copy is pulled
    ///   here first, with the VMA's protection.
    /// Pulls travel as dropping kPageFetch, one per holder for each
    /// kMaxFaultAround pages; drops and downgrades as kPageInvalidateRange.
    /// Returns the entries swept.
    std::uint32_t sweep(ProcessSite& site, HomeRangeKind kind, mem::Vaddr start,
                        mem::Vaddr end, topo::KernelId parting = -1);

    // --- Elastic membership hooks (rko/elastic; origin-side) ---

    /// Strips a DEAD kernel from every directory entry (its leases expired;
    /// no messages — the corpse cannot answer). Surviving sharers keep the
    /// data; pages whose only copy died are erased and refault as zero-fill.
    /// Pending installs the dead requester never confirmed are rolled back,
    /// and grants forwarded to the dead owner are cancelled: the requester's
    /// ticket gets a kCancelled answer, and the pending state waits for its
    /// confirm. Entries busy under a live transaction are skipped — the
    /// transaction itself routes around dead peers. Returns {entries
    /// stripped, sole-copy pages lost}.
    std::pair<std::uint32_t, std::uint32_t> rehome_dead(ProcessSite& site,
                                                        topo::KernelId dead);

    // --- Sharded homes (rko/home; only active with home_shards > 1) ---

    /// The kernel homing `page`'s directory entry: the origin when
    /// unsharded, else the home map's rendezvous owner of the page's shard.
    topo::KernelId home_of(ProcessSite& site, mem::Vaddr page) const;

    /// Parks until no home shard of `site` is being rebuilt from a census
    /// (elastic): a sweep that ran mid-rebuild would find the shard empty
    /// and miss the entries the census installs right after. Throws
    /// msg::LocalNodeDead once this kernel is killed, since its reaper will
    /// never finish the rebuild.
    void wait_out_rebuilds(ProcessSite& site);

    /// Destructive-op fan-out (origin side, vma_op_lock held, AFTER the
    /// replica broadcast): sweeps the local directory slice and scatters
    /// kHomeRangeOp to every other eligible home. Returns total entries
    /// swept machine-wide.
    std::uint32_t home_range_fanout(ProcessSite& site, HomeRangeKind kind,
                                    mem::Vaddr start, mem::Vaddr end);

    /// Failover (elastic reaper actor): `shard` just moved from `dead` to
    /// this kernel. Pulls a PTE census from every live peer (kHomeRebuild)
    /// and installs the reconstructed directory entries locally. The shard
    /// must already be marked rebuilding (faults answer kRetry meanwhile).
    /// Returns entries reconstructed.
    std::uint32_t rebuild_home_shard(ProcessSite& site, int shard,
                                     topo::KernelId dead);

    /// Directory transactions this kernel served (home.msgs metric): the
    /// per-kernel share shows the origin bottleneck dissolving as shards
    /// spread the protocol load.
    std::uint64_t home_msgs() const { return home_msgs_.value; }

    std::uint64_t local_faults() const { return local_faults_.value; }
    std::uint64_t remote_faults() const { return remote_faults_.value; }
    std::uint64_t invalidations() const { return invalidations_.value; }
    std::uint64_t fetches() const { return fetches_.value; }
    /// Fault-around pages this (home) kernel granted: pushed to a remote
    /// requester, or fetched for one of its own read streaks.
    std::uint64_t prefetch_issued() const { return prefetch_issued_.value; }
    /// Granted pages this kernel installed / failed to install (a remote
    /// requester's pushes, or the home's own fetched window).
    std::uint64_t prefetch_hit() const { return prefetch_hit_.value; }
    std::uint64_t prefetch_wasted() const { return prefetch_wasted_.value; }
    /// kPageInvalidateRange RPCs posted: a range sweep's chunks (each
    /// replaces up to kMaxPages per-page round trips) and a write
    /// transaction's one-offset drops.
    std::uint64_t range_rpcs() const { return range_rpcs_.value; }
    const base::Histogram& remote_fault_latency() const { return remote_latency_; }
    /// Working-set pages this (home) kernel pushed to migration
    /// destinations in kWorksetPull rounds.
    std::uint64_t workset_pushed() const { return workset_pushed_.value; }
    /// Workset pushes this (destination) kernel installed / failed to
    /// install.
    std::uint64_t workset_hit() const { return workset_hit_.value; }
    std::uint64_t workset_wasted() const { return workset_wasted_.value; }
    /// Guest read faults on migratory pages this (home) kernel served as
    /// ownership transfers, and migratory pages it reverted to replication
    /// because their owner never stored to them (DESIGN §17).
    std::uint64_t migratory_grants() const { return migratory_grants_.value; }
    std::uint64_t migratory_reverts() const { return migratory_reverts_.value; }
    /// Migratory grants this (home) kernel forwarded to a third kernel's
    /// copy, which answered the requester itself (DESIGN §17, "One hop").
    std::uint64_t migratory_forwarded() const { return migratory_forwarded_.value; }
    /// Pages this (home) kernel granted as zero-fill in first-touch runs,
    /// after the faulting page of a remote fault's window (DESIGN.md §10).
    std::uint64_t first_touch_grants() const { return first_touch_grants_.value; }
    /// Remote write transactions this (home) kernel deferred to the tenure
    /// of one of its own threads (DESIGN.md §17); pages.tenure.wait_ns
    /// holds how long each waited.
    std::uint64_t tenure_deferred() const { return tenure_deferred_.value; }
    /// The longest tenure: one message round trip in the cost model, what a
    /// remote grantee's confirm and a later revoke take at the least.
    Nanos tenure_cap() const;

private:
    /// The heart of the protocol; runs at the origin (task or kworker).
    /// On kOk the directory entry is left BUSY with the post-transaction
    /// state parked in the shard's pending map; the requester must call
    /// commit_install (locally or via kPageInstalled) after installing its
    /// PTE. This three-phase shape makes directory state and requester PTEs
    /// change atomically with respect to other transactions. A read makes
    /// the same read share as a pushed page: plan_read_share picks the
    /// source, fetch_page copies it, and a source that fails leaves the
    /// holder set before the plan runs again. `access` may carry
    /// kAccessKernelPeek: a plain read share, outside the migratory
    /// detector. `fault`, a remote requester's kPageFault, lets a migratory
    /// grant from a third kernel's copy go one hop: the state is parked as
    /// for kOk, the owner is sent kPageForward, and kForwarded tells the
    /// caller that the owner, not it, answers `fault`.
    FaultStatus origin_transaction(ProcessSite& site, mem::Vaddr page,
                                   std::uint32_t access, topo::KernelId requester,
                                   PageFaultResp& out,
                                   const msg::Message* fault = nullptr);

    /// Commits (ok) or rolls back (!ok: requester removed from holders) the
    /// pending state and releases the busy bit. `clean`: a forwarded grant's
    /// owner never stored to the page, so it stops being migratory.
    void commit_install(ProcessSite& site, mem::Vaddr page, topo::KernelId requester,
                        bool ok, bool clean = false);

    /// Tolerant rollback of a pending install: no-op (false) unless a
    /// pending for `page` exists AND is waiting on `requester`. Idempotent —
    /// the reaper and a kworker's dead-requester check may both try.
    bool abandon_pending(ProcessSite& site, mem::Vaddr page,
                         topo::KernelId requester);

    /// Requester-side: installs the transaction result into the local
    /// address space. Returns false if the local VMA vanished meanwhile.
    /// `frame`, when set, is a frame taken ahead (a bulk landing), used
    /// instead of allocating one.
    bool install_locally(ProcessSite& site, const mem::Vma& vma, mem::Vaddr page,
                         std::uint32_t access, const PageFaultResp& resp,
                         mem::Paddr frame = 0);

    // Local holder ops, used both by leaf handlers (for remote requests)
    // and directly when the origin itself is the holder.

    /// One page of a holder-side fetch (serve_fetch).
    struct FetchPart {
        mem::Vaddr va = 0;
        bool downgrade = false;   ///< strip the write bit before the copy
        std::byte* out = nullptr; ///< receives the page bytes
        bool drop = false;        ///< unmap and free the page after the copy
        /// Set by serve_fetch: PageFetchResp::had_page flags (zero: the
        /// page was not present).
        std::uint8_t had_page = 0;
    };
    /// The holder batch: copies out every present page of `parts` under one
    /// mmap_lock hold. Downgrades and drops share one TLB-generation bump
    /// and one modeled shootdown, and the copy charges are summed. Serves
    /// kPageFetch, the push pipeline's local sources and the transaction's
    /// own copy.
    void serve_fetch(ProcessSite& site, std::span<FetchPart> parts);

    /// One page's bytes from `source` into `out`: this kernel's own copy
    /// through serve_fetch, else a one-page kPageFetch. With `downgrade` the
    /// source loses its write bit first. False when the source is dead, dies
    /// mid-fetch or no longer has the page.
    bool fetch_page(ProcessSite& site, mem::Vaddr page, topo::KernelId source,
                    bool downgrade, std::byte* out);

    /// The batched holder op behind kPageInvalidateRange and a range
    /// sweep's own legs: applies `op` to every present page of `vpns` that
    /// it changes, with one TLB-generation bump and one modeled shootdown
    /// for the batch instead of both per page. Returns the pages changed.
    std::uint32_t local_range(ProcessSite& site, const std::vector<std::uint64_t>& vpns,
                              InvalidateRangeOp op);

    /// The fault-around stride detector both fault branches share: records
    /// this fault in `t`'s read or write streak and returns the window
    /// (pages, including `page`, clipped to `vma`) the fault should batch,
    /// or 0. A stream's first window is prefetch_window; each window that
    /// continues it doubles the next, up to `cap`. A stream continues at
    /// the next page, inside or just past its last window, or past up to
    /// kMaxHomeWindow pages this kernel maps with `access` (the thread read
    /// through them without faulting). A migrated thread's read streak
    /// arrives primed (Migration::on_migrate): every page above its last
    /// page lies inside its last window, so its first read fault opens the
    /// stream's second window, at the home as well. Charges no virtual time.
    std::uint32_t stride_window(ProcessSite& site, const mem::Vma& vma, mem::Vaddr page,
                                std::uint32_t access, std::uint32_t cap, task::Task* t);

    /// Runs `leg(home)`, a fault leg aimed at the page's current home,
    /// until it settles. A kRetry answer (a shard being rebuilt, a home
    /// that moved or died) waits a 1 us beat and re-routes, so a rebuild of
    /// any length costs the guest no MMU retry.
    template <typename Leg>
    FaultStatus settle_fault(ProcessSite& site, mem::Vaddr page, const Leg& leg);

    /// One guest fault leg routed to `home`: a home fault or window, or a
    /// remote fault with its window.
    FaultStatus guest_fault(ProcessSite& site, const mem::Vma& vma, topo::KernelId home,
                            mem::Vaddr page, std::uint32_t access, task::Task* t);

    // The page-push pipeline (home side, DESIGN.md §10). Fault-around
    // windows, read-aheads and kWorksetPull rounds all run it:
    // claim_push_pages try-claims a page list for `requester` (skipping
    // absent, busy and requester-held entries; never waiting);
    // capture_pages plans each claimed page's read share and copies its
    // bytes — local copies in one holder batch, remote ones with one
    // kPageFetch per source kernel for each kMaxFaultAround pages, all in
    // one streaming rpc_scatter — releasing the claim of any page whose
    // source died or lost its copy, and hands every other page to `sink` as
    // soon as its bytes are in; push_window's sink parks each page's
    // pending state and ships it as kPagePush, which the requester's
    // kPageInstalled confirm commits.
    struct PushPage;
    using CaptureSink = std::function<void(PushPage& page)>;
    /// Which pages of a list a claim skips beyond absent, busy and
    /// requester-held ones.
    enum class ClaimRule {
        kWindow, ///< none
        /// pages.front() is a guest read fault's own page, also skipped when
        /// migratory (its read is an ownership grant, §17); when it cannot
        /// be claimed, nothing is
        kDemandFirst,
        /// every migratory page, so each is still granted on its own fault
        kReadAhead,
    };
    std::vector<mem::Vaddr> claim_push_pages(ProcessSite& site,
                                             const std::vector<mem::Vaddr>& pages,
                                             topo::KernelId requester,
                                             ClaimRule rule = ClaimRule::kWindow);
    void capture_pages(ProcessSite& site, const std::vector<mem::Vaddr>& claimed,
                       topo::KernelId requester, const CaptureSink& sink);
    /// Captures `claimed` and pushes each page to `requester` as it
    /// arrives, or releases its claim if the requester has died. Returns
    /// the pages pushed.
    std::uint32_t push_window(ProcessSite& site, const std::vector<mem::Vaddr>& claimed,
                              topo::KernelId requester, bool workset);

    /// A fault taken AT the page's home: the transaction with this kernel
    /// as requester, then the local install and commit. An atomic RMW fault
    /// that took the page from another holder gives `t` the page's tenure.
    /// `installed`, when given, reports whether the page was mapped.
    FaultStatus home_fault(ProcessSite& site, const mem::Vma& vma, mem::Vaddr page,
                           std::uint32_t access, task::Task* t,
                           bool* installed = nullptr);

    /// A guest read fault AT the page's home from a process another kernel
    /// may hold pages of (DESIGN.md §10). A fault inside an in-flight
    /// read-ahead waits for it to land; if that brought the page in, the
    /// stream posts its next read-ahead and the fault is done. Otherwise
    /// the stride detector picks a window: none demand-faults (home_fault),
    /// one runs home_window and then reads one window ahead.
    FaultStatus home_read(ProcessSite& site, const mem::Vma& vma, mem::Vaddr page,
                          std::uint32_t access, task::Task* t);

    /// A read streak AT the home: claims `page` with the rest of its window
    /// for this kernel and lands them (land_capture). The faulting page
    /// leads the claim only where its transaction would plan a plain read
    /// share; otherwise it demand-faults first (home_fault) and the rest of
    /// the window follows, and a folded page whose capture was cancelled
    /// demand-faults last.
    FaultStatus home_window(ProcessSite& site, const mem::Vma& vma, mem::Vaddr page,
                            std::uint32_t access, std::uint32_t window, task::Task* t);

    /// The home's sink for `claimed`, pages this kernel claimed for itself:
    /// captures them (every source is remote, since the claim skipped pages
    /// held here) and installs and commits each page as its bytes land, in
    /// frames from one bulk allocation. `demand`, when not 0, is the
    /// faulting page folded into the capture, installed with `access` and
    /// attributed to `t`; every other page maps read-only and counts as a
    /// prefetch. Returns whether `demand` landed.
    bool land_capture(ProcessSite& site, const mem::Vma& vma,
                      const std::vector<mem::Vaddr>& claimed, mem::Vaddr demand,
                      std::uint32_t access, task::Task* t);

    /// A home read stream's next window, [start, start + window) clipped to
    /// `vma`: moves `t`'s stream past it, claims its pages like a window's
    /// tail (ClaimRule::kReadAhead) and lands them in a background job
    /// (msg::Node::post_local) while the thread reads on. The claims pin
    /// the site until the job releases them, and the job touches nothing
    /// of the thread; a job that starts on a killed kernel leaves its
    /// claims to leak as that kernel's other busy bits do.
    struct ReadAhead;
    void read_ahead(ProcessSite& site, const mem::Vma& vma, mem::Vaddr start,
                    std::uint32_t window, task::Task* t);
    /// The in-flight read-ahead of process `pid` whose range holds `page`,
    /// or null.
    std::shared_ptr<ReadAhead> read_ahead_at(Pid pid, mem::Vaddr page) const;

    /// A fault taken away from the page's `home`: one kPageFault round trip
    /// (carrying the fault-around `window`, 0 for none), then the local
    /// install, its attribution and the kPageInstalled confirm, and the
    /// same for each page of a first-touch run the home granted. kRetry
    /// when the home died mid-fault or asked for a retry.
    FaultStatus remote_fault(ProcessSite& site, const mem::Vma& vma,
                             topo::KernelId home, mem::Vaddr page,
                             std::uint32_t access, std::uint32_t window, task::Task* t);

    /// The demand half of kPageFault `m`: SEGV for an unknown process or an
    /// already-dead requester, kRetry for a stale sharded route, else the
    /// demand transaction (kForwarded: the owner answers `m`), with its
    /// first-touch run when it answered zero-fill to a fault with a
    /// `window`; both are rolled back if the requester died meanwhile.
    /// Returns the site only when the transaction parked an install a live
    /// requester will confirm.
    ProcessSite* serve_fault(const msg::Message& m, PageFaultResp& out);

    /// A first-touch run (DESIGN.md §10): after a zero-fill answer to
    /// `requester`'s fault on `page`, creates entries for the pages after it,
    /// up to the fault's `window`, stopping at the first page that already
    /// has an entry, lies outside this kernel's VMA or is homed elsewhere.
    /// Each entry is born busy with the demand's post-state parked, as a
    /// first touch's is. Returns the run length (pages after `page`).
    std::uint32_t grant_first_touch_run(ProcessSite& site, mem::Vaddr page,
                                        std::uint32_t access, std::uint32_t window,
                                        topo::KernelId requester);

    /// Requester side of the first-touch run `resp` (the demand's zero-fill
    /// answer) grants after `page`: maps each page as a zeroed frame with
    /// the fault's access, attributes it and confirms it to `home`
    /// (ok=false where the VMA vanished).
    void install_first_touch_run(ProcessSite& site, topo::KernelId home,
                                 mem::Vaddr page, std::uint32_t access,
                                 const PageFaultResp& resp, task::Task* t);

    /// A remote writer's transaction, about to drop this home's copy of
    /// `page`, waits until the thread here holding the page's tenure enters
    /// the kernel or the tenure runs out. Throws msg::LocalNodeDead when
    /// this kernel was killed meanwhile.
    void wait_out_tenure(ProcessSite& site, mem::Vaddr page);

    void on_page_fault(msg::Node& node, msg::MessagePtr m);
    void on_home_range_op(msg::Node& node, msg::MessagePtr m);
    void on_home_rebuild(msg::Node& node, msg::MessagePtr m);
    void on_page_fetch(msg::Node& node, msg::MessagePtr m);
    void on_page_invalidate_range(msg::Node& node, msg::MessagePtr m);
    void on_page_installed(msg::Node& node, msg::MessagePtr m);
    void on_page_forward(msg::Node& node, msg::MessagePtr m);
    void on_page_push(msg::Node& node, msg::MessagePtr m);
    void on_workset_pull(msg::Node& node, msg::MessagePtr m);

    kernel::Kernel& k_;
    bool read_replication_ = true;
    bool inject_lost_invalidate_ = false;
    int prefetch_window_ = 8;
    int workset_push_ = 32;
    // Registry-backed ("pages.*" in the kernel's MetricsRegistry).
    trace::Counter& local_faults_;
    trace::Counter& remote_faults_;
    trace::Counter& invalidations_;
    trace::Counter& fetches_;
    trace::Counter& prefetch_issued_;
    trace::Counter& prefetch_hit_;
    trace::Counter& prefetch_wasted_;
    trace::Counter& range_rpcs_;
    trace::Counter& home_msgs_;
    trace::Counter& workset_pushed_;
    trace::Counter& workset_hit_;
    trace::Counter& workset_wasted_;
    trace::Counter& migratory_grants_;
    trace::Counter& migratory_reverts_;
    trace::Counter& migratory_forwarded_;
    trace::Counter& first_touch_grants_;
    trace::Counter& tenure_deferred_;
    base::Histogram& remote_latency_;
    base::Histogram& tenure_wait_;
    /// This kernel's tasks that took a tenure here, at most once each; a
    /// record whose tenure ended is dropped at the next grant.
    std::vector<task::Task*> tenured_;
    /// Transactions waiting out a tenure; each holder's next kernel entry
    /// wakes them all (Task::tenure_waiters).
    sim::WaitList tenure_waiters_;
    /// Read-aheads whose job has not ended, in post order.
    std::vector<std::shared_ptr<ReadAhead>> read_aheads_;
};

// A remote window and a kWorksetPull round fit one kPageFetch per holder;
// a home window takes one per kMaxPages pages.
static_assert(PageFetchReq::kMaxPages == PageOwner::kMaxFaultAround &&
                  PageFetchReq::kMaxPages >= task::kMaxWorkset,
              "one kPageFetch carries a remote window's pages from one holder");
static_assert(PageOwner::kMaxHomeWindow >= PageOwner::kMaxFaultAround,
              "a home window is at least a remote one");
static_assert(PageOwner::kMaxFaultAround <= 0xff,
              "a window fits PageFaultReq::window and a run PageFaultResp::run");

} // namespace rko::core
