// Unit tests for the discrete-event engine: actor scheduling, park/unpark
// permit semantics, virtual-clock monotonicity, and simulated locks.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rko/sim/actor.hpp"
#include "rko/sim/engine.hpp"
#include "rko/sim/sync.hpp"

namespace rko::sim {
namespace {

using namespace rko::time_literals;

TEST(Engine, EmptyRunStaysAtZero) {
    Engine engine;
    EXPECT_EQ(engine.run(), 0);
    EXPECT_TRUE(engine.idle());
}

TEST(Engine, SingleActorAdvancesClock) {
    Engine engine;
    Nanos seen = -1;
    Actor a(engine, "a", [&](Actor& self) {
        self.sleep_for(100);
        self.sleep_for(250);
        seen = self.now();
    });
    a.start();
    engine.run();
    EXPECT_EQ(seen, 350);
    EXPECT_EQ(engine.now(), 350);
    EXPECT_TRUE(a.finished());
}

TEST(Engine, StartDelayOffsetsFirstRun) {
    Engine engine;
    Nanos first = -1;
    Actor a(engine, "a", [&](Actor& self) { first = self.now(); });
    a.start(77);
    engine.run();
    EXPECT_EQ(first, 77);
}

TEST(Engine, TwoActorsInterleaveByTime) {
    Engine engine;
    std::vector<std::string> order;
    Actor a(engine, "a", [&](Actor& self) {
        order.push_back("a0");
        self.sleep_for(100);
        order.push_back("a1");
    });
    Actor b(engine, "b", [&](Actor& self) {
        order.push_back("b0");
        self.sleep_for(30);
        order.push_back("b1");
    });
    a.start();
    b.start();
    engine.run();
    const std::vector<std::string> expected{"a0", "b0", "b1", "a1"};
    EXPECT_EQ(order, expected);
}

TEST(Engine, FifoTieBreakAtSameTimestamp) {
    Engine engine;
    std::vector<int> order;
    Actor a(engine, "a", [&](Actor&) { order.push_back(1); });
    Actor b(engine, "b", [&](Actor&) { order.push_back(2); });
    Actor c(engine, "c", [&](Actor&) { order.push_back(3); });
    a.start(10);
    b.start(10);
    c.start(10);
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, RunUntilStopsBeforeLaterEvents) {
    Engine engine;
    int steps = 0;
    Actor a(engine, "a", [&](Actor& self) {
        for (int i = 0; i < 10; ++i) {
            ++steps;
            self.sleep_for(100);
        }
    });
    a.start();
    engine.run_until(450);
    EXPECT_EQ(steps, 5); // ran at t=0,100,200,300,400
    engine.run();
    EXPECT_EQ(steps, 10);
}

TEST(Actor, ParkUnparkRoundTrip) {
    Engine engine;
    bool woke = false;
    Actor sleeper(engine, "sleeper", [&](Actor& self) {
        self.park();
        woke = true;
    });
    Actor waker(engine, "waker", [&](Actor& self) {
        self.sleep_for(500);
        sleeper.unpark();
    });
    sleeper.start();
    waker.start();
    engine.run();
    EXPECT_TRUE(woke);
    EXPECT_EQ(engine.now(), 500);
}

TEST(Actor, PermitPreventsLostWakeup) {
    // unpark() delivered while the target is still running must be banked
    // and consumed by the next park().
    Engine engine;
    bool done = false;
    Actor target(engine, "target", [&](Actor& self) {
        self.sleep_for(100); // waker unparks us at t=50 while we are READY
        self.park();         // must consume the banked permit, not block
        done = true;
    });
    Actor waker(engine, "waker", [&](Actor& self) {
        self.sleep_for(50);
        target.unpark();
    });
    target.start();
    waker.start();
    engine.run();
    EXPECT_TRUE(done);
}

TEST(Actor, ParkForTimesOut) {
    Engine engine;
    bool woken = true;
    Actor a(engine, "a", [&](Actor& self) { woken = self.park_for(1_us); });
    a.start();
    engine.run();
    EXPECT_FALSE(woken);
    EXPECT_EQ(engine.now(), 1000);
}

TEST(Actor, ParkForWokenEarly) {
    Engine engine;
    bool woken = false;
    Nanos woke_at = -1;
    Actor a(engine, "a", [&](Actor& self) {
        woken = self.park_for(1_ms);
        woke_at = self.now();
    });
    Actor waker(engine, "w", [&](Actor& self) {
        self.sleep_for(200);
        a.unpark();
    });
    a.start();
    waker.start();
    engine.run();
    EXPECT_TRUE(woken);
    EXPECT_EQ(woke_at, 200);
    // The stale timeout event must not fire later.
    EXPECT_EQ(engine.now(), 200);
}

TEST(Actor, JoinBlocksUntilExit) {
    Engine engine;
    Nanos joined_at = -1;
    Actor worker(engine, "worker", [&](Actor& self) { self.sleep_for(3_us); });
    Actor joiner(engine, "joiner", [&](Actor& self) {
        worker.join();
        joined_at = self.now();
    });
    worker.start();
    joiner.start();
    engine.run();
    EXPECT_EQ(joined_at, 3000);
}

TEST(Actor, JoinFinishedReturnsImmediately) {
    Engine engine;
    Nanos joined_at = -1;
    Actor worker(engine, "worker", [&](Actor&) {});
    worker.start();
    engine.run();
    Actor joiner(engine, "joiner", [&](Actor& self) {
        self.sleep_for(10);
        worker.join();
        joined_at = self.now();
    });
    joiner.start();
    engine.run();
    EXPECT_EQ(joined_at, 10);
}

TEST(Actor, ManyActorsDeterministicDispatchCount) {
    Engine engine;
    std::vector<std::unique_ptr<Actor>> actors;
    int total = 0;
    for (int i = 0; i < 64; ++i) {
        actors.push_back(std::make_unique<Actor>(
            engine, std::string("a").append(std::to_string(i)), [&total](Actor& self) {
                for (int j = 0; j < 10; ++j) {
                    ++total;
                    self.sleep_for(j + 1);
                }
            }));
        actors.back()->start(i);
    }
    engine.run();
    EXPECT_EQ(total, 640);
}

TEST(SpinLock, MutualExclusionAndFifo) {
    Engine engine;
    SpinLock lock;
    std::vector<int> order;
    std::vector<std::unique_ptr<Actor>> actors;
    for (int i = 0; i < 4; ++i) {
        actors.push_back(std::make_unique<Actor>(
            engine, std::string("t").append(std::to_string(i)), [&, i](Actor& self) {
                lock.lock();
                order.push_back(i);
                self.sleep_for(1_us); // critical section
                lock.unlock();
            }));
        actors.back()->start(i); // staggered arrival fixes FIFO order
    }
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(lock.acquisitions(), 4u);
    EXPECT_EQ(lock.contended_acquisitions(), 3u);
    EXPECT_GT(lock.wait_time(), 0);
    EXPECT_FALSE(lock.held());
}

TEST(SpinLock, WaitTimeGrowsWithContention) {
    // The contention bill for N waiters on a lock with a fixed critical
    // section should grow superlinearly in N (sum of queue positions).
    auto run_with = [](int n) {
        Engine engine;
        SpinLock lock;
        std::vector<std::unique_ptr<Actor>> actors;
        for (int i = 0; i < n; ++i) {
            actors.push_back(std::make_unique<Actor>(
                engine, std::string("t").append(std::to_string(i)), [&](Actor& self) {
                    lock.lock();
                    self.sleep_for(1_us);
                    lock.unlock();
                }));
            actors.back()->start();
        }
        engine.run();
        return lock.wait_time();
    };
    const Nanos w2 = run_with(2);
    const Nanos w8 = run_with(8);
    EXPECT_GT(w8, 10 * w2);
}

TEST(SpinLock, TryLockFailsWhenHeld) {
    Engine engine;
    SpinLock lock;
    bool second_got = true;
    Actor holder(engine, "holder", [&](Actor& self) {
        lock.lock();
        self.sleep_for(10_us);
        lock.unlock();
    });
    Actor prober(engine, "prober", [&](Actor& self) {
        self.sleep_for(1_us);
        second_got = lock.try_lock();
    });
    holder.start();
    prober.start();
    engine.run();
    EXPECT_FALSE(second_got);
}

TEST(RwLock, ReadersShareWritersExclude) {
    Engine engine;
    RwLock lock;
    int concurrent_readers = 0;
    int max_concurrent = 0;
    bool writer_done = false;
    std::vector<std::unique_ptr<Actor>> actors;
    for (int i = 0; i < 3; ++i) {
        actors.push_back(std::make_unique<Actor>(engine, "r", [&](Actor& self) {
            lock.lock_shared();
            ++concurrent_readers;
            max_concurrent = std::max(max_concurrent, concurrent_readers);
            self.sleep_for(5_us);
            --concurrent_readers;
            lock.unlock_shared();
        }));
        actors.back()->start();
    }
    Actor writer(engine, "w", [&](Actor& self) {
        self.sleep_for(1_us);
        lock.lock();
        EXPECT_EQ(concurrent_readers, 0);
        self.sleep_for(1_us);
        writer_done = true;
        lock.unlock();
    });
    writer.start();
    engine.run();
    EXPECT_EQ(max_concurrent, 3);
    EXPECT_TRUE(writer_done);
}

TEST(RwLock, WriterNotStarvedByLateReaders) {
    Engine engine;
    RwLock lock;
    Nanos writer_at = -1;
    Actor r1(engine, "r1", [&](Actor& self) {
        lock.lock_shared();
        self.sleep_for(10_us);
        lock.unlock_shared();
    });
    Actor w(engine, "w", [&](Actor& self) {
        self.sleep_for(1_us);
        lock.lock();
        writer_at = self.now();
        lock.unlock();
    });
    // r2 arrives after the writer queued; FIFO means it waits behind it.
    Actor r2(engine, "r2", [&](Actor& self) {
        self.sleep_for(2_us);
        lock.lock_shared();
        EXPECT_GT(self.now(), writer_at);
        lock.unlock_shared();
    });
    r1.start();
    w.start();
    r2.start();
    engine.run();
    EXPECT_GE(writer_at, 10_us);
}

// A waiter that carries a stale permit (banked by a wake that found it
// already runnable) must still wait for the holder: the permit ends its
// first park early, but only the unlock admits it.
TEST(RwLock, StalePermitDoesNotAdmitWaiters) {
    Engine engine;
    SpinLock spin;
    RwLock rw;
    std::vector<Nanos> acquired;
    Actor holder(engine, "holder", [&](Actor& self) {
        spin.lock();
        rw.lock();
        self.sleep_for(10_us);
        rw.unlock();
        spin.unlock();
    });
    const auto waiter = [&](const std::function<void()>& lock_and_release) {
        return [&, lock_and_release](Actor& self) {
            self.sleep_for(1_us);
            self.unpark(); // running: banks a permit
            lock_and_release();
            acquired.push_back(self.now());
        };
    };
    Actor reader(engine, "reader", waiter([&] {
                     rw.lock_shared();
                     rw.unlock_shared();
                 }));
    Actor writer(engine, "writer", waiter([&] {
                     rw.lock();
                     rw.unlock();
                 }));
    Actor spinner(engine, "spinner", waiter([&] {
                      spin.lock();
                      spin.unlock();
                  }));
    holder.start();
    reader.start();
    writer.start();
    spinner.start();
    engine.run();
    ASSERT_EQ(acquired.size(), 3u);
    for (const Nanos at : acquired) EXPECT_GE(at, 10_us);
}

TEST(WaitList, NotifyOneWakesInOrder) {
    Engine engine;
    WaitList list;
    std::vector<int> woken;
    std::vector<std::unique_ptr<Actor>> actors;
    for (int i = 0; i < 3; ++i) {
        actors.push_back(std::make_unique<Actor>(engine, "w", [&, i](Actor&) {
            list.wait(engine);
            woken.push_back(i);
        }));
        actors.back()->start(i);
    }
    Actor notifier(engine, "n", [&](Actor& self) {
        self.sleep_for(1_us);
        list.notify_one();
        self.sleep_for(1_us);
        list.notify_one();
        self.sleep_for(1_us);
        list.notify_one();
    });
    notifier.start();
    engine.run();
    EXPECT_EQ(woken, (std::vector<int>{0, 1, 2}));
}

TEST(WaitList, WaitForTimeoutRemovesWaiter) {
    Engine engine;
    WaitList list;
    bool notified = true;
    Actor w(engine, "w", [&](Actor& self) { notified = list.wait_for(engine, 100); (void)self; });
    w.start();
    engine.run();
    EXPECT_FALSE(notified);
    EXPECT_TRUE(list.empty());
    // A notify after the timeout must not wake anything.
    EXPECT_FALSE(list.notify_one());
}

TEST(WaitList, NotifyAllWakesEveryone) {
    Engine engine;
    WaitList list;
    int woken = 0;
    std::vector<std::unique_ptr<Actor>> actors;
    for (int i = 0; i < 5; ++i) {
        actors.push_back(std::make_unique<Actor>(engine, "w", [&](Actor&) {
            list.wait(engine);
            ++woken;
        }));
        actors.back()->start();
    }
    Actor notifier(engine, "n", [&](Actor& self) {
        self.sleep_for(1_us);
        EXPECT_EQ(list.notify_all(), 5);
    });
    notifier.start();
    engine.run();
    EXPECT_EQ(woken, 5);
}

TEST(Context, DeepStackUsageSurvives) {
    // Exercise a few dozen KiB of fiber stack to verify the guard-page
    // arithmetic leaves usable stack where expected.
    Engine engine;
    long result = 0;
    Actor a(engine, "deep", [&](Actor&) {
        volatile char buffer[64 * 1024];
        buffer[0] = 1;
        buffer[sizeof(buffer) - 1] = 2;
        result = buffer[0] + buffer[sizeof(buffer) - 1];
    });
    a.start();
    engine.run();
    EXPECT_EQ(result, 3);
}

} // namespace
} // namespace rko::sim
