#include "rko/sim/sync.hpp"

#include <algorithm>

#include "rko/race/race.hpp"

namespace rko::sim {

void SpinLock::lock() {
    Actor& self = current_actor();
    if (race::enabled()) race::on_lock_request(this, race::LockKind::kSpin);
    ++acquisitions_;
    if (owner_ == nullptr) {
        // The acquire takes effect at call time; the atomic's latency is
        // charged while the lock is already held, exactly like hardware
        // (the winning RMW globally orders before the charge elapses).
        owner_ = &self;
        if (race::enabled()) race::on_lock_acquired(this, race::LockKind::kSpin);
        self.sleep_for(costs_.uncontended);
        return;
    }
    RKO_ASSERT_MSG(owner_ != &self, "SpinLock is not recursive");
    ++contended_;
    const Nanos enqueued_at = self.now();
    waiters_.push_back(&self);
    // Only unlock's handoff admits. A permit banked by an earlier wake
    // that found this actor already runnable (e.g. an rpc failed by peer
    // death) ends a park early; without the loop the waiter would run
    // unadmitted.
    while (owner_ != &self) self.park();
    wait_time_ += self.now() - enqueued_at;
    if (race::enabled()) race::on_lock_acquired(this, race::LockKind::kSpin);
}

bool SpinLock::try_lock() {
    Actor& self = current_actor();
    if (owner_ != nullptr) {
        // A failed probe still pays for reading the (likely remote) line.
        self.sleep_for(costs_.uncontended);
        return false;
    }
    ++acquisitions_;
    owner_ = &self;
    // No order edge for a try: a failed probe cannot deadlock.
    if (race::enabled()) race::on_lock_acquired(this, race::LockKind::kSpin);
    self.sleep_for(costs_.uncontended);
    return true;
}

void SpinLock::unlock() {
    Actor& self = current_actor();
    // Detector first: a foreign unlock should be reported with both
    // acquisition contexts before the hard assert below fires.
    if (race::enabled()) race::on_lock_released(this, race::LockKind::kSpin);
    RKO_ASSERT_MSG(owner_ == &self, "unlock by non-owner");
    if (waiters_.empty()) {
        owner_ = nullptr;
        return;
    }
    Actor* next = waiters_.front();
    waiters_.pop_front();
    // Ownership transfers immediately; the handoff delay models the line
    // bouncing to the next core before it can proceed.
    owner_ = next;
    next->unpark(costs_.handoff);
}

bool SpinLock::held_by_current() const {
    Engine* engine = current_engine();
    return engine != nullptr && owner_ == engine->current_or_null();
}

void RwLock::lock_shared() {
    Actor& self = current_actor();
    if (race::enabled()) race::on_lock_request(this, race::LockKind::kRwReader);
    if (writer_ == nullptr && waiters_.empty()) {
        ++readers_;
        if (race::enabled()) race::on_lock_acquired(this, race::LockKind::kRwReader);
        self.sleep_for(costs_.uncontended);
        return;
    }
    const Nanos enqueued_at = self.now();
    bool admitted = false;
    waiters_.push_back(Waiter{&self, false, &admitted});
    while (!admitted) self.park(); // see SpinLock::lock
    wait_time_ += self.now() - enqueued_at;
    if (race::enabled()) race::on_lock_acquired(this, race::LockKind::kRwReader);
}

void RwLock::unlock_shared() {
    // The reader count cannot tell a foreign release from a legal one; the
    // detector's per-actor locksets can.
    if (race::enabled()) race::on_lock_released(this, race::LockKind::kRwReader);
    RKO_ASSERT(readers_ > 0);
    --readers_;
    if (readers_ == 0) admit_front();
}

void RwLock::lock() {
    Actor& self = current_actor();
    if (race::enabled()) race::on_lock_request(this, race::LockKind::kRwWriter);
    if (writer_ == nullptr && readers_ == 0 && waiters_.empty()) {
        writer_ = &self;
        if (race::enabled()) race::on_lock_acquired(this, race::LockKind::kRwWriter);
        self.sleep_for(costs_.uncontended);
        return;
    }
    const Nanos enqueued_at = self.now();
    bool admitted = false;
    waiters_.push_back(Waiter{&self, true, &admitted});
    while (!admitted) self.park(); // see SpinLock::lock
    wait_time_ += self.now() - enqueued_at;
    RKO_ASSERT(writer_ == &self);
    if (race::enabled()) race::on_lock_acquired(this, race::LockKind::kRwWriter);
}

bool RwLock::try_lock() {
    Actor& self = current_actor();
    if (writer_ != nullptr || readers_ > 0 || !waiters_.empty()) {
        self.sleep_for(costs_.uncontended);
        return false;
    }
    writer_ = &self;
    // No order edge for a try: a failed probe cannot deadlock.
    if (race::enabled()) race::on_lock_acquired(this, race::LockKind::kRwWriter);
    self.sleep_for(costs_.uncontended);
    return true;
}

void RwLock::unlock() {
    if (race::enabled()) race::on_lock_released(this, race::LockKind::kRwWriter);
    RKO_ASSERT(writer_ == current_engine()->current_or_null());
    writer_ = nullptr;
    admit_front();
}

// Admits the head of the queue: one writer, or a maximal batch of readers.
void RwLock::admit_front() {
    if (waiters_.empty() || writer_ != nullptr || readers_ > 0) return;
    if (waiters_.front().writer) {
        Waiter next = waiters_.front();
        waiters_.pop_front();
        writer_ = next.actor;
        *next.admitted = true;
        next.actor->unpark(costs_.handoff);
        return;
    }
    while (!waiters_.empty() && !waiters_.front().writer) {
        Waiter next = waiters_.front();
        waiters_.pop_front();
        ++readers_;
        *next.admitted = true;
        next.actor->unpark(costs_.handoff);
    }
}

void WaitList::wait(Engine& engine) {
    Actor& self = engine.current();
    waiters_.push_back(&self);
    self.park();
}

bool WaitList::wait_for(Engine& engine, Nanos timeout) {
    Actor& self = engine.current();
    waiters_.push_back(&self);
    const bool notified = self.park_for(timeout);
    if (!notified) {
        // Timed out: remove ourselves so a future notify does not target us.
        auto it = std::find(waiters_.begin(), waiters_.end(), &self);
        if (it != waiters_.end()) waiters_.erase(it);
    }
    return notified;
}

bool WaitList::notify_one(Nanos delay) {
    if (waiters_.empty()) return false;
    Actor* actor = waiters_.front();
    waiters_.pop_front();
    actor->unpark(delay);
    return true;
}

int WaitList::notify_all(Nanos delay) {
    int woken = 0;
    while (notify_one(delay)) ++woken;
    return woken;
}

} // namespace rko::sim
