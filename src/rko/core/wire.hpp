// Wire payloads for the replicated-kernel protocols. All trivially
// copyable; each struct corresponds to one MsgType (requests and replies).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "rko/mem/types.hpp"
#include "rko/mem/vma.hpp"
#include "rko/task/task.hpp"
#include "rko/topo/topology.hpp"

namespace rko::core {

// --- VMA consistency (kVmaOp / kVmaFetch / kVmaUpdate) ---------------------

enum class VmaOp : std::uint32_t { kMmap = 0, kMunmap, kMprotect, kBrk };

struct VmaOpReq {
    Pid pid;
    VmaOp op;
    mem::Vaddr addr;   ///< 0 for mmap = "kernel picks"
    std::uint64_t length;
    std::uint32_t prot;
};

struct VmaOpResp {
    std::int64_t result; ///< 0 / -errno
    mem::Vaddr addr;     ///< assigned address for mmap
};

struct VmaFetchReq {
    Pid pid;
    mem::Vaddr addr;
};

struct VmaFetchResp {
    bool found;
    mem::Vma vma;
};

struct VmaUpdateReq {
    Pid pid;
    VmaOp op;          ///< kMunmap = erase range, kMprotect = reprotect
    /// Master vma_epoch after this op (rko/home): replicas advance their
    /// local epoch to at least this, so a non-origin home's in-flight page
    /// transactions re-validate exactly like the origin's do. Occupies what
    /// was a padding hole, so the wire size (and every modeled copy cost)
    /// is unchanged. 32 bits of epoch outlast any simulated run.
    std::uint32_t epoch;
    mem::Vaddr start;
    mem::Vaddr end;
    std::uint32_t prot;
};
static_assert(sizeof(VmaUpdateReq) == 40, "epoch must fill the padding hole");

struct VmaUpdateResp {
    std::uint32_t cleared_pages;
};

// --- Page-ownership protocol (kPageFault / kPageFetch / kPageInvalidateRange)

/// A fault's outcome. kForwarded never travels: the home handed a migratory
/// grant to the page's owner, which answers the requester's kPageFault
/// itself (DESIGN §17). kCancelled is the home's answer in its place when
/// that owner died first: the requester confirms the grant as not installed
/// and refaults.
enum class FaultStatus : std::uint8_t { kOk = 0, kSegv, kRetry, kForwarded, kCancelled };

/// PageFaultReq::access flag above every mem::Prot bit: the fault is a
/// kernel peek (the distributed futex reading a user word through
/// PageOwner::ensure_readable), not a guest access. The home serves it as a
/// plain read share: it never grants a migratory page and never feeds the
/// migratory detector. Rides in `access` so the request keeps its size.
constexpr std::uint32_t kAccessKernelPeek = 1u << 31;

/// A fault on `va`, plain or with a fault-around window: the home serves
/// the faulting page, then, for a read, try-claims up to window-1 following
/// pages and pushes each one it claimed (kPagePush) down the same channel.
/// A fault the home answers zero-fill also takes the untouched pages after
/// it, up to the window, as a first-touch run (PageFaultResp::run).
struct PageFaultReq {
    Pid pid;
    mem::Vaddr va;          ///< page-aligned
    std::uint32_t access;   ///< mem::Prot bits, plus kAccessKernelPeek
    std::int16_t requester;
    /// Pages including the faulting one; <= 1: no window.
    std::uint8_t window;
};
static_assert(sizeof(PageFaultReq) == 24, "window must fill the bytes freed by `requester`");
static_assert(topo::kMaxKernels <= 1 << 15, "a KernelId fits PageFaultReq::requester");

struct PageFaultResp {
    FaultStatus status;
    bool data_included; ///< payload carries the page bytes
    bool zero_fill;     ///< first touch: requester allocates a zero page
    bool upgrade;       ///< requester already holds current bytes; flip to RW
    /// Kernel that supplied (or already held) the bytes; feeds the per-thread
    /// fault-affinity counters the balancer's affinity policy reads. Occupies
    /// what was a padding byte, so the wire size (and thus every modeled copy
    /// cost) is unchanged.
    std::uint8_t source;
    /// A read fault on a migratory page was granted Exclusive ownership: map
    /// the page writable if the VMA allows it (DESIGN §17). Occupies a byte
    /// freed by narrowing `status`, so the wire size is unchanged.
    bool writable;
    /// First-touch run (DESIGN §10): the pages after `va` the home also
    /// granted as zero-fill with this fault's access; the requester maps
    /// and confirms each one. Occupies a reserved byte, so a reply without
    /// data stays 8 bytes.
    std::uint8_t run;
    /// A forwarded migratory grant (DESIGN §17): the owner that answered
    /// never stored to the page since its own grant. The requester passes
    /// it on in its kPageInstalled, and the home reverts the page. Occupies
    /// the byte that keeps `data` at offset 8.
    bool clean;
    std::array<std::byte, mem::kPageSize> data;
};

static_assert(sizeof(PageFaultResp) == 8 + mem::kPageSize,
              "PageFaultResp must keep its pre-`source` wire size: copy costs "
              "are charged per byte and golden baselines depend on them");

/// Home -> holder: copy out a page list, the one message page bytes travel
/// in from a holder. The holder serves the whole list under one mmap_lock
/// hold and one shootdown, and answers each page with its own reply part
/// (msg::Node::reply_part) carrying one PageFetchResp, in list order.
/// Truncated on the wire to the addresses actually carried (see
/// wire_bytes), so a one-page fetch is 24 bytes. Drops that need no bytes
/// travel in kPageInvalidateRange instead.
struct PageFetchReq {
    /// PageOwner::kMaxFaultAround: a window's pages all fit one request to
    /// their holder.
    static constexpr std::uint32_t kMaxPages = 32;
    Pid pid;
    std::uint16_t count;
    /// The holder unmaps and frees each page after copying it (a write
    /// transaction's byte source, or a page pulled home).
    bool drop;
    /// Bit i: the holder drops write permission on va[i] (Exclusive ->
    /// Shared) before copying it.
    std::uint32_t downgrade;
    std::array<mem::Vaddr, kMaxPages> va;
};
static_assert(PageFetchReq::kMaxPages <= 8 * sizeof(PageFetchReq::downgrade),
              "the downgrade bitmask must cover every page of a fetch");

struct PageFetchResp {
    static constexpr std::uint8_t kHadPage = 1; ///< the holder had a copy
    /// ...and stored to it since it was mapped (the PTE dirty bit) — the
    /// migratory detector's reversion signal (DESIGN §17).
    static constexpr std::uint8_t kDirty = 2;
    std::uint8_t had_page; ///< kHadPage | kDirty; zero: no copy, no data
    std::array<std::byte, mem::kPageSize> data;
};

/// Third leg of a remote fault: the requester confirms (or abandons) its
/// local install so the directory can commit and release the busy bit.
struct PageInstalledMsg {
    Pid pid;
    mem::Vaddr va;
    topo::KernelId requester;
    bool ok;
    /// PageFaultResp::clean of a forwarded grant: the home clears the
    /// page's migratory bit at commit. Occupies padding.
    bool clean = false;
};
static_assert(sizeof(PageInstalledMsg) == 24, "`clean` must fill padding");

/// Home -> Exclusive owner of a migratory page (one-way, DESIGN §17): hand
/// the page to `requester` yourself. The owner drops its copy as a dropping
/// kPageFetch would, and answers the requester's kPageFault on its ticket
/// with the bytes, `writable` and `clean`; the requester confirms to the
/// home as for any fault.
struct PageForwardReq {
    Pid pid;
    mem::Vaddr va;
    std::uint64_t ticket; ///< the requester's kPageFault ticket
    topo::KernelId requester;
};

// --- Coherence batching & fault-around prefetch (DESIGN.md §10) -------------

/// What a ranged invalidation asks the holder to do with each page.
enum class InvalidateRangeOp : std::uint32_t {
    kDrop = 0,      ///< clear the PTE and free the frame (munmap)
    kDowngrade = 1, ///< strip the write bit only (Exclusive -> Shared)
    /// Keep the frame with no access: a PROT_NONE sweep's own copy at the
    /// home (PageOwner::sweep); every other holder's copy is dropped.
    kProtNone = 2,
};

/// One ranged invalidation RPC: `count` VPN offsets relative to base_vpn,
/// all of whose busy bits the home already claimed — a ranged sweep's
/// chunk, or the one offset a write transaction drops at a holder that is
/// not its byte source. An explicit offset list — not a [start, end) span
/// — because the holder may hold in-range pages whose busy bits belong to
/// *other* transactions; only pages the home claimed may be touched.
/// Truncated on the wire to the offsets actually carried (see wire_bytes).
struct PageInvalidateRangeReq {
    static constexpr std::uint32_t kMaxPages = 512;
    Pid pid;
    InvalidateRangeOp op;
    std::uint32_t count;
    std::uint64_t base_vpn;
    std::array<std::uint32_t, kMaxPages> vpn_offset;
};

struct PageInvalidateRangeResp {
    std::uint32_t touched; ///< pages the holder actually dropped/downgraded
};

/// Home -> requester: one pushed page (a fault-around window page, or a
/// working-set page after a migration). The requester installs it
/// read-only and confirms with kPageInstalled (the normal third leg), so
/// the directory commits or rolls back the parked transaction exactly as
/// for a demand fault.
struct PagePushMsg {
    Pid pid;
    mem::Vaddr va;
    bool data_included;
    bool workset; ///< counted as migration.workset.*, else pages.prefetch.*
    std::uint8_t source; ///< kernel that supplied the bytes (affinity)
    std::array<std::byte, mem::kPageSize> data;
};

// --- Size-on-wire helpers ---------------------------------------------------
//
// Replies whose trailing `data` array is only meaningful when a flag says
// so are truncated on the wire to the fields actually carried: the structs
// keep their full in-memory size, only hdr.payload_size (and with it
// msg.bytes and the modeled copy cost) shrinks. Receivers must use
// Message::payload_prefix_as and gate on the flags.

static_assert(offsetof(PageFaultResp, data) == 8,
              "dataless PageFaultResp wire size");
static_assert(offsetof(PageFetchResp, data) == 1,
              "dataless PageFetchResp wire size");
static_assert(offsetof(PageFetchReq, va) + sizeof(mem::Vaddr) == 24,
              "a one-page PageFetchReq, dropping or not, is 24 bytes");
static_assert(offsetof(PagePushMsg, data) == 19,
              "PagePushMsg header wire size");

inline std::size_t wire_bytes(const PageFaultResp& r) {
    return offsetof(PageFaultResp, data) + (r.data_included ? mem::kPageSize : 0);
}
inline std::size_t wire_bytes(const PageFetchReq& r) {
    return offsetof(PageFetchReq, va) +
           static_cast<std::size_t>(r.count) * sizeof(mem::Vaddr);
}
inline std::size_t wire_bytes(const PageFetchResp& r) {
    return offsetof(PageFetchResp, data) + (r.had_page != 0 ? mem::kPageSize : 0);
}
inline std::size_t wire_bytes(const PagePushMsg& r) {
    return offsetof(PagePushMsg, data) + (r.data_included ? mem::kPageSize : 0);
}
inline std::size_t wire_bytes(const PageInvalidateRangeReq& r) {
    return offsetof(PageInvalidateRangeReq, vpn_offset) +
           static_cast<std::size_t>(r.count) * sizeof(std::uint32_t);
}

// --- Distributed futex (kFutexWait / kFutexWake / kFutexGrant) -------------

struct FutexWaitReq {
    Pid pid;
    Tid tid;
    mem::Vaddr uaddr;
    std::uint32_t val;
    topo::KernelId waiter_kernel;
    /// Nonzero: convoy-head registration for the whole kernel (DESIGN §13).
    /// The origin queues one aggregate entry per (pid, uaddr, kernel)
    /// instead of one entry per waiter.
    std::uint32_t aggregate = 0;
    std::uint32_t count = 0;  ///< aggregate: local convoy size at send time
    std::uint64_t epoch = 0;  ///< aggregate: sender's convoy clock at send
};

struct FutexWaitResp {
    std::int32_t result; ///< 0 = queued, EAGAIN = value mismatch
    /// Owner-affinity hint: the kernel last granted this word (-1 = none).
    /// Waiter kernels fold it into Task::fault_from so the balance affinity
    /// policy converges contenders onto the grant holder.
    topo::KernelId owner = -1;
};

struct FutexWakeReq {
    Pid pid;
    mem::Vaddr uaddr;
    std::uint32_t max_wake;
};

struct FutexWakeResp {
    std::uint32_t woken;
};

struct FutexGrantMsg {
    Pid pid;
    Tid tid;
};

struct FutexCancelReq {
    Pid pid;
    Tid tid;
    mem::Vaddr uaddr;
};

struct FutexCancelResp {
    bool removed; ///< false => a grant was already issued; expect a wake
};

/// Origin -> kernel: wake up to `n` waiters from your local convoy for
/// (pid, uaddr). Fanned out with rpc_scatter so a wake spread over many
/// kernels costs one round trip. The reply's `remaining` is the kernel's
/// authoritative convoy size, reconciling the origin's aggregate count.
struct FutexGrantBatchReq {
    Pid pid;
    mem::Vaddr uaddr;
    std::uint32_t n;
};

struct FutexGrantBatchResp {
    std::uint32_t woken;     ///< waiters actually woken (<= n)
    std::uint32_t remaining; ///< convoy size after the grant (authoritative)
    std::uint64_t epoch;     ///< convoy clock at reply; origin applies newest
};

/// Kernel -> origin (oneway): the local convoy for (pid, uaddr) drained
/// (last waiter timed out, was handed the lock locally, or evacuated).
/// Epoch-guarded like grant replies: a deregister that loses the race with
/// a newer registration is ignored.
struct FutexDeregisterMsg {
    Pid pid;
    mem::Vaddr uaddr;
    topo::KernelId kernel;
    std::uint64_t epoch;
};

// --- Thread groups & migration ---------------------------------------------

struct CloneReq {
    Pid pid;
    Tid tid;
    topo::KernelId origin;
};

struct CloneResp {
    bool ok;
};

struct MigrateReq {
    Pid pid;
    Tid tid;
    topo::KernelId origin;
    topo::KernelId from;
    task::ThreadContext ctx; ///< the architectural state being shipped
    /// Pre-copy working set (DESIGN.md §15): the source's top-K hot VPNs,
    /// piggybacked on the checkpoint so the destination can pull them in one
    /// scatter round instead of demand-faulting each. Truncated on the wire
    /// (see wire_bytes): with workset_push=0 the message ends exactly where
    /// the pre-workset MigrateReq did, so the modeled transfer cost — and
    /// every baseline derived from it — is unchanged when the feature is off.
    std::uint32_t workset_count;
    std::array<std::uint64_t, task::kMaxWorkset> workset_vpn;
};

/// Disabled-path wire size: ends right after ctx, as before the workset tail.
static_assert(offsetof(MigrateReq, workset_count) ==
                  sizeof(Pid) + sizeof(Tid) + 2 * sizeof(topo::KernelId) +
                      sizeof(task::ThreadContext),
              "workset tail must start where the old MigrateReq ended");

inline std::size_t wire_bytes(const MigrateReq& r) {
    if (r.workset_count == 0) return offsetof(MigrateReq, workset_count);
    return offsetof(MigrateReq, workset_vpn) +
           static_cast<std::size_t>(r.workset_count) * sizeof(std::uint64_t);
}

struct MigrateResp {
    bool ok;
};

/// Destination -> home (kWorksetPull, blocking): after a migrated thread
/// resumes, it asks each home for the shipped hot pages that home serves.
/// The home try-claims what it can (absent/busy/already-held pages are
/// skipped, never waited on — the prefetch deadlock discipline), pushes
/// each granted page as kPagePush, then replies with the granted count.
/// Truncated on the wire to the VPNs actually carried.
struct WorksetPullReq {
    Pid pid;
    topo::KernelId requester;
    std::uint32_t count;
    std::array<std::uint64_t, task::kMaxWorkset> vpn;
};

inline std::size_t wire_bytes(const WorksetPullReq& r) {
    return offsetof(WorksetPullReq, vpn) +
           static_cast<std::size_t>(r.count) * sizeof(std::uint64_t);
}

struct WorksetPullResp {
    std::uint32_t granted; ///< pushes that will follow down the channel
};

enum class GroupUpdateKind : std::uint32_t { kJoin = 0, kLocation };

struct GroupUpdateMsg {
    Pid pid;
    Tid tid;
    GroupUpdateKind kind;
    topo::KernelId where;
};

struct TaskExitMsg {
    Pid pid;
    Tid tid;
    std::int32_t status;
};

// --- Single-system image ----------------------------------------------------

struct CensusReq {
    Pid pid; ///< 0 = count all processes
};

struct CensusResp {
    std::uint32_t ntasks;
    std::uint32_t nrunnable;
    std::uint32_t idle_cores;
};

// --- Load balancing (kLoadGossip / kSteal) ---------------------------------

/// Periodic one-way load broadcast from a balancer tick. Receivers fold it
/// into the age-stamped census table in core::Ssi.
struct LoadGossipMsg {
    topo::KernelId sender;
    std::uint32_t ntasks;     ///< live tasks (excludes shadows/exited)
    std::uint32_t nrunnable;  ///< run-queue depth + running
    std::uint32_t idle_cores;
    Nanos stamp;              ///< sender's virtual time at emission
    // Hottest contended futex word served by this sender's origin-side
    // table (owner-affinity census, DESIGN §13). hot_owner -1 = none.
    // Receivers fold it into the core::Ssi hot-word table so the affinity
    // policy can steer contenders toward the grant holder.
    Pid hot_pid = 0;
    mem::Vaddr hot_uaddr = 0;
    topo::KernelId hot_owner = -1;
    std::uint32_t hot_heat = 0;
};

/// Thief -> victim: hand me one queued (never running) thread. The victim's
/// leaf handler detaches a stealable task from its run queue and unparks it;
/// the task then ships itself over the normal kMigrate path.
struct StealReq {
    topo::KernelId thief;
    Pid pid; ///< 0 = any process
};

struct StealResp {
    bool granted;
    Pid pid;
    Tid tid;
};

/// One row of the machine-wide task listing (SSI "ps").
struct TaskInfo {
    Tid tid;
    Pid pid;
    topo::KernelId kernel;
    std::uint32_t state; ///< task::TaskState
};

struct TaskListResp {
    static constexpr std::uint32_t kMaxEntries = 120;
    std::uint32_t count;    ///< entries filled
    std::uint32_t truncated; ///< nonzero if more existed than fit
    std::array<TaskInfo, kMaxEntries> entries;
};

// --- Elastic membership (rko/elastic; kMembershipUpdate / kElasticEvict) ----

/// What happened to `subject`: declared dead by the failure detector,
/// parted voluntarily after a drain, or (re)joined the cluster.
enum class MembershipEvent : std::uint32_t { kDead = 0, kParted, kJoin };

struct MembershipUpdateMsg {
    topo::KernelId subject;
    MembershipEvent event;
    topo::KernelId reporter; ///< who observed/initiated it (dedup + tracing)
};

/// Drain, final leg: a parting holder asks the origin to evict every page
/// copy it still holds for `pid` (pull dirty bytes home, strip the holder
/// from the directory) so the kernel can leave with empty page tables.
struct ElasticEvictReq {
    Pid pid;
    topo::KernelId holder;
};

struct ElasticEvictResp {
    std::uint32_t evicted; ///< directory entries the origin stripped
};

// --- Sharded directory homes (rko/home; kHomeRangeOp / kHomeRebuild) --------

/// What one range sweep (PageOwner::sweep) does to the directory entries
/// it claims: a destructive VMA op's three kinds, which kHomeRangeOp
/// carries to every eligible home, or a drain's eviction of a parting
/// holder (kElasticEvict).
enum class HomeRangeKind : std::uint32_t { kRevoke = 0, kDowngrade, kSequester, kEvict };

/// Origin -> every eligible home, after a destructive VMA op's replica
/// broadcast: sweep your directory entries in [start, end). Only sent with
/// home_shards > 1; the shards=1 wire protocol is unchanged.
struct HomeRangeOpReq {
    Pid pid;
    HomeRangeKind kind;
    mem::Vaddr start;
    mem::Vaddr end;
};

struct HomeRangeOpResp {
    std::uint32_t touched; ///< directory entries this home swept
};

/// Failover census (rko/home): the kernel inheriting a dead owner's home
/// shard asks each survivor which in-shard pages it still maps. Cursor-
/// chunked: resume_vpn is 0 on the first call, then the reply's next_vpn.
struct HomeRebuildReq {
    Pid pid;
    topo::KernelId dead;      ///< departed owner whose shard is moving
    std::uint32_t shard;      ///< home-map shard being rebuilt
    std::uint64_t resume_vpn; ///< scan cursor (first vpn to consider)
};

/// One census chunk: packed (vpn << 1 | writable) words, truncated on the
/// wire to the entries actually carried (see wire_bytes).
struct HomeRebuildResp {
    static constexpr std::uint32_t kMaxEntries = 256;
    /// `ready` values. kNotApplied: the peer has not applied the membership
    /// event yet. kGrantsInFlight: the peer is still installing a grant the
    /// departed home sent. Either way, retry after a beat.
    static constexpr std::uint32_t kNotApplied = 0;
    static constexpr std::uint32_t kReady = 1;
    static constexpr std::uint32_t kGrantsInFlight = 2;
    std::uint32_t ready;
    std::uint32_t count;
    std::uint32_t has_more;   ///< nonzero: call again with resume_vpn=next_vpn
    std::uint64_t next_vpn;
    std::array<std::uint64_t, kMaxEntries> entry;
};

inline std::size_t wire_bytes(const HomeRebuildResp& r) {
    return offsetof(HomeRebuildResp, entry) +
           static_cast<std::size_t>(r.count) * sizeof(std::uint64_t);
}

} // namespace rko::core
