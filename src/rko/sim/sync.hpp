// Simulated synchronization primitives.
//
// These model the *timing* of kernel locks: an uncontended acquire costs one
// atomic round trip; a contended handoff costs a cacheline transfer between
// cores. Waiters queue FIFO (ticket-lock discipline, which is what Linux
// spinlocks and the paper's kernels use) so fairness and convoy effects are
// reproduced. While an actor waits on a SpinLock it continues to occupy its
// simulated core — exactly like a spinning CPU — because the actor simply
// parks without notifying any scheduler.
//
// Contention statistics are accumulated per lock so benchmarks can report
// where serialization happened.
#pragma once

#include <deque>

#include "rko/base/stats.hpp"
#include "rko/base/units.hpp"
#include "rko/sim/actor.hpp"

namespace rko::sim {

/// Virtual-time cost parameters for a lock. Defaults approximate an x86
/// server part: ~20 ns uncontended atomic RMW, ~80 ns dirty-cacheline
/// handoff between cores.
struct LockCosts {
    Nanos uncontended = 20;
    Nanos handoff = 80;
};

/// FIFO ticket spinlock. Waiters burn their core.
class SpinLock {
public:
    SpinLock() = default;
    explicit SpinLock(LockCosts costs) : costs_(costs) {}
    SpinLock(const SpinLock&) = delete;
    SpinLock& operator=(const SpinLock&) = delete;

    void lock();
    void unlock();
    bool try_lock();

    bool held() const { return owner_ != nullptr; }
    bool held_by_current() const;

    /// Virtual time actors spent queued on this lock (the contention bill).
    Nanos wait_time() const { return wait_time_; }
    std::uint64_t acquisitions() const { return acquisitions_; }
    std::uint64_t contended_acquisitions() const { return contended_; }

private:
    LockCosts costs_;
    Actor* owner_ = nullptr;
    std::deque<Actor*> waiters_;
    Nanos wait_time_ = 0;
    std::uint64_t acquisitions_ = 0;
    std::uint64_t contended_ = 0;
};

/// FIFO readers-writer lock (no reader or writer starvation: strict queue
/// order, readers admitted in batches).
class RwLock {
public:
    RwLock() = default;
    explicit RwLock(LockCosts costs) : costs_(costs) {}
    RwLock(const RwLock&) = delete;
    RwLock& operator=(const RwLock&) = delete;

    void lock_shared();
    void unlock_shared();
    void lock();
    void unlock();

    int readers() const { return readers_; }
    bool write_held() const { return writer_ != nullptr; }
    Nanos wait_time() const { return wait_time_; }

private:
    struct Waiter {
        Actor* actor;
        bool writer;
        bool* admitted; ///< the waiter's own flag, set by admit_front
    };

    void admit_front();

    LockCosts costs_;
    Actor* writer_ = nullptr;
    int readers_ = 0;
    std::deque<Waiter> waiters_;
    Nanos wait_time_ = 0;
};

/// RAII scope guard for simulated locks — std::lock_guard without the
/// <mutex> header (banned outside rko/sim by scripts/lint_rko.py).
template <typename Lock>
class [[nodiscard]] LockGuard {
public:
    explicit LockGuard(Lock& lock) : lock_(lock) { lock_.lock(); }
    ~LockGuard() { lock_.unlock(); }
    LockGuard(const LockGuard&) = delete;
    LockGuard& operator=(const LockGuard&) = delete;

private:
    Lock& lock_;
};

/// A bare list of parked actors; the building block for condition-variable
/// and wait-queue patterns. Thanks to actor permits, the
/// enqueue-publish-park pattern has no lost-wakeup window.
class WaitList {
public:
    /// Parks the current actor until notified.
    void wait(Engine& engine);

    /// Parks up to `timeout`; returns true if notified.
    bool wait_for(Engine& engine, Nanos timeout);

    /// Wakes the oldest waiter; returns false if none.
    bool notify_one(Nanos delay = 0);

    /// Wakes everyone; returns the number woken.
    int notify_all(Nanos delay = 0);

    bool empty() const { return waiters_.empty(); }
    std::size_t size() const { return waiters_.size(); }

private:
    std::deque<Actor*> waiters_;
};

} // namespace rko::sim
