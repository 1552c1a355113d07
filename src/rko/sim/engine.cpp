#include "rko/sim/engine.hpp"

#include <limits>

#include "rko/sim/actor.hpp"

namespace rko::sim {

namespace {
Engine* g_current_engine = nullptr;
std::uint64_t g_process_dispatches = 0;
} // namespace

Engine* current_engine() { return g_current_engine; }

Actor& current_actor() {
    RKO_ASSERT_MSG(g_current_engine != nullptr, "no engine is running");
    return g_current_engine->current();
}

void Engine::schedule(Actor& actor, Nanos at, std::uint64_t generation) {
    RKO_ASSERT_MSG(at >= now_, "cannot schedule into the past");
    const std::uint64_t key = shuffle_ties_ ? shuffle_rng_.next() : 0;
    events_.push(Event{at, seq_++, &actor, generation, key});
}

// Drops events whose actor was rescheduled (newer generation) or finished.
void Engine::purge_stale() {
    while (!events_.empty()) {
        const Event& ev = events_.top();
        if (ev.generation == ev.actor->generation_ &&
            ev.actor->state_ != Actor::State::kFinished) {
            return;
        }
        events_.pop();
    }
}

bool Engine::step_bounded(Nanos deadline) {
    purge_stale();
    if (events_.empty() || events_.top().at > deadline) return false;
    const Event ev = events_.top();
    events_.pop();
    Actor* actor = ev.actor;
    RKO_ASSERT(ev.at >= now_);
    now_ = ev.at;
    ++dispatches_;
    ++g_process_dispatches;
    current_ = actor;
    Engine* const prev_engine = g_current_engine;
    g_current_engine = this;
    actor->state_ = Actor::State::kRunning;
    Context::switch_to(main_ctx_, actor->ctx_);
    g_current_engine = prev_engine;
    current_ = nullptr;
    return true;
}

std::uint64_t Engine::process_dispatch_count() { return g_process_dispatches; }

bool Engine::step() { return step_bounded(std::numeric_limits<Nanos>::max()); }

Nanos Engine::run() {
    while (step()) {
    }
    return now_;
}

Nanos Engine::run_until(Nanos deadline) {
    while (step_bounded(deadline)) {
    }
    return now_;
}

} // namespace rko::sim
