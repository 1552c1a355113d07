// Inter-kernel message format.
//
// Mirrors Popcorn's messaging layer: fixed-size slots big enough to carry
// one 4 KiB page plus a protocol header, a compact type id demuxed by the
// receiving kernel's dispatcher, and a ticket correlating replies with
// outstanding requests. Payloads are trivially-copyable PODs only.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

#include "rko/base/assert.hpp"
#include "rko/base/units.hpp"
#include "rko/topo/topology.hpp"

namespace rko::msg {

using topo::KernelId;

enum class MsgType : std::uint16_t {
    kPing = 0,          ///< liveness / latency probe (nb)
    kShutdown,          ///< stop the dispatcher (nb)
    // Thread groups & migration (core/)
    kRemoteClone,       ///< create a thread of a distributed group here (blk)
    kMigrate,           ///< import a migrating thread context (blk)
    kMigrateBack,       ///< re-activate the shadow task at origin (blk)
    kTaskExit,          ///< distributed-group member exited (nb)
    kGroupUpdate,       ///< membership/location change -> origin (nb)
    kGroupExit,         ///< whole-group teardown broadcast (nb)
    // Address space: VMA layer (core/vma_server)
    kVmaOp,             ///< execute mmap/munmap/mprotect at origin (blk)
    kVmaFetch,          ///< fetch the VMA covering an address (nb)
    kVmaUpdate,         ///< apply a VMA change to a replica (nb)
    // Address space: page-ownership layer (core/page_owner)
    kPageFault,         ///< remote fault, with its fault-around window (blk)
    kPageFetch,         ///< directory -> holder: a page list's bytes, a reply each,
                        ///< optionally dropping each copy (leaf)
    kPageInstalled,     ///< requester -> directory: install done, commit (nb)
    kPageForward,       ///< directory -> owner: hand a migratory page to the
                        ///< requester yourself, on its ticket (oneway, leaf)
    // Distributed futex (core/dfutex)
    kFutexWait,         ///< queue a waiter at the origin futex table (blk)
    kFutexWake,         ///< wake up to n waiters at origin (blk)
    kFutexGrant,        ///< origin -> waiter kernel: wake this task (nb)
    kFutexCancel,       ///< waiter timed out: remove it from the queue (nb)
    kFutexGrantBatch,   ///< origin -> kernel: wake n from your local convoy (leaf)
    kFutexDeregister,   ///< kernel -> origin: local convoy drained (oneway, leaf)
    // Single-system image (core/ssi)
    kTaskCensus,        ///< enumerate tasks on this kernel (nb)
    kLoadReport,        ///< periodic load exchange for migration policy (nb)
    // Load balancing (balance/)
    kLoadGossip,        ///< one-way balancer load broadcast (nb)
    kSteal,             ///< thief asks victim to surrender a queued thread (leaf)
    // Coherence batching & fault-around prefetch (core/page_owner, §10)
    kPageInvalidateRange, ///< directory -> holder: drop/downgrade a VPN batch (leaf)
    kPagePush,          ///< home -> requester: one pushed page (leaf)
    // Elastic membership (elastic/)
    kMembershipUpdate,  ///< membership event broadcast: dead/parted/join (nb)
    kElasticEvict,      ///< drain: evict a parting holder's page copies (blk)
    // Sharded directory homes (rko/home)
    kHomeRangeOp,       ///< origin -> home: ranged directory sweep (blk)
    kHomeRebuild,       ///< new shard owner -> survivor: PTE census chunk (leaf)
    // Working-set migration (core/migration + core/page_owner, §15)
    kWorksetPull,       ///< migrated thread -> home: push my shipped hot pages (blk)
    kCount
};

constexpr std::size_t kNumMsgTypes = static_cast<std::size_t>(MsgType::kCount);

const char* msg_type_name(MsgType type);

enum class MsgKind : std::uint16_t { kOneway = 0, kRequest, kReply };

/// Fits one page of data plus protocol fields.
constexpr std::size_t kMaxPayload = 4096 + 256;

struct MessageHeader {
    MsgType type = MsgType::kPing;
    MsgKind kind = MsgKind::kOneway;
    std::uint32_t payload_size = 0;
    KernelId src = -1;
    KernelId dst = -1;
    std::uint64_t ticket = 0; ///< request/reply correlation
};

struct Message {
    MessageHeader hdr;
    /// Virtual time at which the receiver may observe the message
    /// (enqueue completion + wire latency). Simulation metadata, not state
    /// the guest protocol may read.
    Nanos ready_at = 0;
    /// Tracing flow id correlating this send with its remote dispatch;
    /// 0 = untraced. Simulation metadata like ready_at.
    std::uint64_t trace_flow = 0;
    /// Virtual time a blocking handler's message joined the kworker queue
    /// (msg.kworker_queue_ns). Simulation metadata like ready_at.
    Nanos queued_at = 0;
    std::array<std::byte, kMaxPayload> payload;

    template <typename T>
    void set_payload(const T& value) {
        static_assert(std::is_trivially_copyable_v<T>, "payloads must be PODs");
        static_assert(sizeof(T) <= kMaxPayload, "payload too large for a slot");
        hdr.payload_size = static_cast<std::uint32_t>(sizeof(T));
        std::memcpy(payload.data(), &value, sizeof(T));
    }

    /// Truncated-payload variant for messages whose trailing page-data
    /// array travels only when flags say so: charges `bytes` on the wire
    /// instead of sizeof(T), so msg.bytes and modeled copy costs reflect
    /// what actually crosses the fabric. `bytes` must cover every field the
    /// receiver reads unconditionally (everything before the data array) —
    /// pair with payload_prefix_as on the receiving side.
    template <typename T>
    void set_payload_prefix(const T& value, std::size_t bytes) {
        static_assert(std::is_trivially_copyable_v<T>, "payloads must be PODs");
        static_assert(sizeof(T) <= kMaxPayload, "payload too large for a slot");
        RKO_ASSERT_MSG(bytes > 0 && bytes <= sizeof(T),
                       "payload prefix must be within the payload type");
        hdr.payload_size = static_cast<std::uint32_t>(bytes);
        std::memcpy(payload.data(), &value, bytes);
    }

    template <typename T>
    const T& payload_as() const {
        static_assert(std::is_trivially_copyable_v<T>, "payloads must be PODs");
        RKO_ASSERT_MSG(hdr.payload_size == sizeof(T), "payload size mismatch");
        return *reinterpret_cast<const T*>(payload.data());
    }

    /// Reads a possibly-truncated T (see set_payload_prefix). The slot is
    /// kMaxPayload wide, so the reference is always in bounds; bytes past
    /// hdr.payload_size are unspecified and the caller must gate on the
    /// flags the prefix carries (data_included and friends).
    template <typename T>
    const T& payload_prefix_as() const {
        static_assert(std::is_trivially_copyable_v<T>, "payloads must be PODs");
        static_assert(sizeof(T) <= kMaxPayload, "payload too large for a slot");
        RKO_ASSERT_MSG(hdr.payload_size > 0 && hdr.payload_size <= sizeof(T),
                       "payload prefix size out of range");
        return *reinterpret_cast<const T*>(payload.data());
    }

    /// Starts a T in place in the slot, for a sender that fills a
    /// page-sized payload directly instead of copying a stack temporary in.
    /// Charges sizeof(T) until truncate_payload cuts it to the bytes the
    /// receiver reads (see set_payload_prefix).
    template <typename T>
    T& emplace_payload() {
        static_assert(std::is_trivially_copyable_v<T>, "payloads must be PODs");
        static_assert(sizeof(T) <= kMaxPayload, "payload too large for a slot");
        hdr.payload_size = static_cast<std::uint32_t>(sizeof(T));
        return *reinterpret_cast<T*>(payload.data());
    }

    /// Cuts the charged payload to its first `bytes` (set_payload_prefix
    /// for an emplaced payload).
    void truncate_payload(std::size_t bytes) {
        RKO_ASSERT_MSG(bytes > 0 && bytes <= hdr.payload_size,
                       "a payload can only be truncated");
        hdr.payload_size = static_cast<std::uint32_t>(bytes);
    }

    template <typename T>
    T& payload_as() {
        static_assert(std::is_trivially_copyable_v<T>, "payloads must be PODs");
        RKO_ASSERT_MSG(hdr.payload_size == sizeof(T), "payload size mismatch");
        return *reinterpret_cast<T*>(payload.data());
    }

    /// Bytes that travel on the wire (header + payload).
    std::size_t wire_size() const { return sizeof(MessageHeader) + hdr.payload_size; }
};

using MessagePtr = std::unique_ptr<Message>;

template <typename T>
MessagePtr make_message(MsgType type, MsgKind kind, const T& payload) {
    auto m = std::make_unique<Message>();
    m->hdr.type = type;
    m->hdr.kind = kind;
    m->set_payload(payload);
    return m;
}

inline MessagePtr make_message(MsgType type, MsgKind kind) {
    auto m = std::make_unique<Message>();
    m->hdr.type = type;
    m->hdr.kind = kind;
    return m;
}

/// make_message with a truncated payload (see Message::set_payload_prefix).
template <typename T>
MessagePtr make_message_prefix(MsgType type, MsgKind kind, const T& payload,
                               std::size_t bytes) {
    auto m = std::make_unique<Message>();
    m->hdr.type = type;
    m->hdr.kind = kind;
    m->set_payload_prefix(payload, bytes);
    return m;
}

} // namespace rko::msg
