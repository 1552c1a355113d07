// Unit tests for the per-kernel scheduler: core assignment, runqueue
// ordering, block/wake (including the wake_pending race shutter),
// cooperative preemption, and departure/exit bookkeeping.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rko/sim/actor.hpp"
#include "rko/task/sched.hpp"

namespace rko::task {
namespace {

using namespace rko::time_literals;
using sim::Actor;
using sim::Engine;

struct SchedFixture {
    Engine engine;
    topo::CostModel costs;
    std::unique_ptr<Scheduler> sched;
    std::vector<std::unique_ptr<Task>> tasks;
    std::vector<std::unique_ptr<Actor>> actors;

    explicit SchedFixture(int ncores) {
        std::vector<topo::CoreId> cores;
        for (int c = 0; c < ncores; ++c) cores.push_back(c);
        sched = std::make_unique<Scheduler>(engine, costs, cores);
    }

    /// Creates a task whose actor runs `body(task)` bracketed by
    /// acquire/exit.
    Task& spawn(const std::function<void(Task&)>& body) {
        auto task = std::make_unique<Task>();
        Task& t = *task;
        t.tid = static_cast<Tid>(tasks.size() + 1);
        tasks.push_back(std::move(task));
        actors.push_back(std::make_unique<Actor>(
            engine, std::string("t").append(std::to_string(t.tid)), [this, &t, body](Actor&) {
                sched->acquire(t);
                body(t);
                sched->exit(t);
            }));
        t.actor = actors.back().get();
        t.actor->start();
        return t;
    }
};

TEST(Scheduler, AssignsIdleCoresImmediately) {
    SchedFixture f(2);
    std::vector<int> ran;
    f.spawn([&](Task& t) {
        EXPECT_TRUE(t.on_core());
        ran.push_back(1);
    });
    f.spawn([&](Task& t) {
        EXPECT_TRUE(t.on_core());
        ran.push_back(2);
    });
    f.engine.run();
    EXPECT_EQ(ran.size(), 2u);
    EXPECT_EQ(f.sched->idle_cores(), 2);
}

TEST(Scheduler, QueuesWhenCoresExhausted) {
    SchedFixture f(1);
    std::vector<int> order;
    f.spawn([&](Task& t) {
        order.push_back(1);
        t.actor->sleep_for(10_us); // hold the core
    });
    f.spawn([&](Task&) { order.push_back(2); });
    f.spawn([&](Task&) { order.push_back(3); });
    f.engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3})); // FIFO through the runqueue
}

TEST(Scheduler, BlockAndWakeRoundTrip) {
    SchedFixture f(2);
    Task* sleeper_task = nullptr;
    Nanos woke_at = -1;
    f.spawn([&](Task& t) {
        sleeper_task = &t;
        f.sched->block_and_wait(t);
        woke_at = f.engine.now();
    });
    f.spawn([&](Task& t) {
        t.actor->sleep_for(5_us);
        f.sched->wake(*sleeper_task);
    });
    f.engine.run();
    EXPECT_GE(woke_at, 5_us);
}

TEST(Scheduler, WakePendingShutterPreventsLostWake) {
    // wake() delivered while the task is still running must make the next
    // block_and_wait a no-op instead of sleeping forever.
    SchedFixture f(2);
    bool completed = false;
    Task* target = nullptr;
    f.spawn([&](Task& t) {
        target = &t;
        t.actor->sleep_for(10_us); // the wake arrives during this window
        f.sched->block_and_wait(t); // must consume the pending wake
        completed = true;
    });
    f.spawn([&](Task& t) {
        t.actor->sleep_for(2_us);
        f.sched->wake(*target);
        (void)t;
    });
    f.engine.run();
    EXPECT_TRUE(completed);
}

TEST(Scheduler, BlockedTaskFreesCoreForOthers) {
    SchedFixture f(1);
    Task* blocker = nullptr;
    std::vector<int> order;
    f.spawn([&](Task& t) {
        blocker = &t;
        order.push_back(1);
        f.sched->block_and_wait(t); // frees the only core
        order.push_back(3);
    });
    f.spawn([&](Task& t) {
        order.push_back(2); // runs while the first is blocked
        f.sched->wake(*blocker);
        t.actor->sleep_for(1_us);
    });
    f.engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, YieldRoundRobinsWithWaiters) {
    SchedFixture f(1);
    std::vector<int> order;
    Task* first = nullptr;
    f.spawn([&](Task& t) {
        first = &t;
        order.push_back(1);
        f.sched->yield(t); // someone is waiting: must hand over
        order.push_back(3);
    });
    f.spawn([&](Task& t) {
        order.push_back(2);
        f.sched->yield(t); // first is queued: hand back
        order.push_back(4);
    });
    f.engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Scheduler, YieldNoopWhenAlone) {
    SchedFixture f(2);
    f.spawn([&](Task& t) {
        const Nanos t0 = f.engine.now();
        f.sched->yield(t);
        // No context switch billed when nobody waits.
        EXPECT_LT(f.engine.now() - t0, f.costs.context_switch);
    });
    f.engine.run();
}

TEST(Scheduler, MaybePreemptOnlyAfterTimeslice) {
    SchedFixture f(1);
    bool second_ran_early = false;
    Task* hog_task = nullptr;
    f.spawn([&](Task& t) {
        hog_task = &t;
        // Within the slice: no preemption even with a waiter.
        t.actor->sleep_for(1_ms);
        EXPECT_FALSE(f.sched->maybe_preempt(t));
        // Past the slice: must yield to the waiter.
        t.actor->sleep_for(f.costs.timeslice);
        EXPECT_TRUE(f.sched->maybe_preempt(t));
    });
    f.spawn([&](Task& t) {
        second_ran_early = f.engine.now() < 1_ms;
        (void)t;
    });
    f.engine.run();
    EXPECT_FALSE(second_ran_early);
}

TEST(Scheduler, DepartLeavesSchedulerCleanly) {
    SchedFixture f(2);
    f.spawn([&](Task& t) {
        f.sched->depart(t);
        EXPECT_EQ(t.state, TaskState::kMigrating);
        EXPECT_FALSE(t.on_core());
        // Come back (as a migration retry would).
        t.state = TaskState::kNew;
        f.sched->acquire(t);
        EXPECT_TRUE(t.on_core());
    });
    f.engine.run();
    EXPECT_EQ(f.sched->idle_cores(), 2);
}

TEST(Scheduler, ContextSwitchesCounted) {
    SchedFixture f(1);
    for (int i = 0; i < 4; ++i) {
        f.spawn([&](Task& t) { t.actor->sleep_for(1_us); });
    }
    f.engine.run();
    EXPECT_GE(f.sched->context_switches(), 4u);
}

TEST(Scheduler, WakeOnExitedTaskIsDropped) {
    SchedFixture f(1);
    Task* done = nullptr;
    f.spawn([&](Task& t) { done = &t; });
    f.engine.run();
    ASSERT_NE(done, nullptr);
    EXPECT_EQ(done->state, TaskState::kExited);
    f.spawn([&](Task& t) {
        f.sched->wake(*done); // must be a harmless no-op
        (void)t;
    });
    f.engine.run();
    EXPECT_EQ(done->state, TaskState::kExited);
}

TEST(Scheduler, ManyTasksOneCoreAllComplete) {
    SchedFixture f(1);
    int completed = 0;
    for (int i = 0; i < 32; ++i) {
        f.spawn([&](Task& t) {
            t.actor->sleep_for(3_us);
            ++completed;
        });
    }
    f.engine.run();
    EXPECT_EQ(completed, 32);
    EXPECT_EQ(f.sched->runnable(), 0u);
    EXPECT_EQ(f.sched->idle_cores(), 1);
}

} // namespace
} // namespace rko::task
