// End-to-end integration tests: whole-machine scenarios exercising the
// public API — distributed thread groups, context migration, address-space
// consistency, and distributed futexes across kernels.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "rko/api/machine.hpp"
#include "rko/core/dfutex.hpp"
#include "rko/core/migration.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/core/ssi.hpp"
#include "rko/core/thread_group.hpp"
#include "rko/core/vma_server.hpp"
#include "rko/smp/smp.hpp"

namespace rko::api {
namespace {

using namespace rko::time_literals;
using mem::kPageSize;
using mem::kProtRead;
using mem::kProtWrite;
using mem::Vaddr;

MachineConfig small_config(int ncores, int nkernels) {
    MachineConfig config;
    config.ncores = ncores;
    config.nkernels = nkernels;
    config.frames_per_kernel = 4096; // 16 MiB per kernel is plenty for tests
    return config;
}

// The library default is the protocol perfbench measures: fault-around
// windows and working-set push. A read stream from a replica kernel takes
// windows, and a migration pre-copies the pages the thread just touched.
TEST(Config, DefaultIsTheBenchmarkedProtocol) {
    if (std::getenv("RKO_WORKSET_PUSH") != nullptr) {
        GTEST_SKIP() << "RKO_WORKSET_PUSH overrides the default pre-copy budget";
    }
    constexpr int kPages = 64;
    constexpr topo::KernelId kReader = 1;
    Machine machine(smp::popcorn_config(8, 4));
    auto& process = machine.create_process(0);
    // kPageFault requests the homes served: the reader's own kernel
    // dispatches only their replies.
    const auto faults_served = [&machine] {
        std::uint64_t n = 0;
        for (topo::KernelId k = 0; k < machine.nkernels(); ++k) {
            if (k == kReader) continue;
            n += machine.kernel(k).node().dispatched(msg::MsgType::kPageFault);
        }
        return n;
    };
    Vaddr buf = 0;
    auto& writer = process.spawn(
        [&](Guest& g) {
            buf = g.mmap(kPages * kPageSize);
            for (int i = 0; i < kPages; ++i) {
                g.write<std::uint64_t>(buf + static_cast<Vaddr>(i) * kPageSize,
                                       static_cast<std::uint64_t>(i));
            }
        },
        0);
    std::uint64_t stream_faults = 0;
    process.spawn(
        [&](Guest& g) {
            g.join(writer);
            const std::uint64_t before = faults_served();
            std::uint64_t sum = 0;
            for (int i = 0; i < kPages; ++i) {
                sum += g.read<std::uint64_t>(buf + static_cast<Vaddr>(i) * kPageSize);
            }
            stream_faults = faults_served() - before;
            EXPECT_EQ(sum, static_cast<std::uint64_t>(kPages) * (kPages - 1) / 2);
            g.migrate(2); // the stream's pages are this thread's working set
        },
        kReader);
    machine.run();
    process.check_all_joined();
    EXPECT_LT(stream_faults, static_cast<std::uint64_t>(kPages));
    auto metrics = machine.collect_metrics();
    const trace::Counter* pushed = metrics.find_counter("migration.workset.pushed");
    ASSERT_NE(pushed, nullptr);
    EXPECT_GT(pushed->value, 0u);
}

TEST(System, SingleThreadComputes) {
    Machine machine(small_config(4, 2));
    auto& process = machine.create_process(0);
    bool ran = false;
    process.spawn(
        [&](Guest& g) {
            g.compute(1_ms);
            ran = true;
        },
        0);
    machine.run();
    process.check_all_joined();
    EXPECT_TRUE(ran);
    EXPECT_GE(machine.now(), 1_ms);
}

TEST(System, MmapReadWriteSameKernel) {
    Machine machine(small_config(4, 2));
    auto& process = machine.create_process(0);
    process.spawn(
        [&](Guest& g) {
            const Vaddr buf = g.mmap(4 * kPageSize);
            ASSERT_NE(buf, 0u);
            for (int i = 0; i < 100; ++i) {
                g.write<int>(buf + static_cast<Vaddr>(i) * 8, i * i);
            }
            for (int i = 0; i < 100; ++i) {
                EXPECT_EQ(g.read<int>(buf + static_cast<Vaddr>(i) * 8), i * i);
            }
            EXPECT_EQ(g.munmap(buf, 4 * kPageSize), 0);
        },
        0);
    machine.run();
    process.check_all_joined();
}

TEST(System, SpawnOnRemoteKernelRuns) {
    Machine machine(small_config(4, 2));
    auto& process = machine.create_process(0);
    topo::KernelId observed = -1;
    process.spawn([&](Guest& g) { observed = g.kernel(); }, 1);
    machine.run();
    process.check_all_joined();
    EXPECT_EQ(observed, 1);
    EXPECT_EQ(machine.kernel(0).site(process.pid()).group().alive, 0);
}

TEST(System, SharedMemoryAcrossKernels) {
    // Writer on k0 (origin), reader on k1: the reader's faults must pull
    // the pages over with the writer's data.
    Machine machine(small_config(4, 2));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    std::vector<int> seen;
    auto& writer = process.spawn(
        [&](Guest& g) {
            buf = g.mmap(2 * kPageSize);
            ASSERT_NE(buf, 0u);
            for (int i = 0; i < 8; ++i) {
                g.write<int>(buf + static_cast<Vaddr>(i) * 512, 1000 + i);
            }
        },
        0);
    process.spawn(
        [&](Guest& g) {
            g.join(writer);
            for (int i = 0; i < 8; ++i) {
                seen.push_back(g.read<int>(buf + static_cast<Vaddr>(i) * 512));
            }
        },
        1);
    machine.run();
    process.check_all_joined();
    ASSERT_EQ(seen.size(), 8u);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], 1000 + i);
    EXPECT_GT(machine.kernel(0).pages().remote_faults() +
                  machine.kernel(1).pages().remote_faults(),
              0u);
}

TEST(System, WriteInvalidatesRemoteReader) {
    // k1 reads a page (Shared), k0 writes it (k1 invalidated), k1 re-reads
    // and must observe the new value.
    Machine machine(small_config(4, 2));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    Vaddr sync = 0;
    int second_read = 0;
    auto& t0 = process.spawn(
        [&](Guest& g) {
            buf = g.mmap(kPageSize);
            sync = g.mmap(kPageSize);
            g.write<int>(buf, 1);
            // Phase 1 done; wait for reader to observe, then overwrite.
            while (g.read<std::uint32_t>(sync) != 1) g.yield();
            g.write<int>(buf, 2);
            g.rmw_u32(sync, [](std::uint32_t) { return 2u; });
        },
        0);
    process.spawn(
        [&](Guest& g) {
            while (buf == 0 || sync == 0) g.yield();
            // Faults the page over as Shared. With sharded homes the read
            // fault can beat t0's write commit (extra home hop), so spin
            // past the zero-fill window; the first non-zero value must be 1.
            int first = 0;
            while ((first = g.read<int>(buf)) == 0) g.yield();
            EXPECT_EQ(first, 1);
            g.rmw_u32(sync, [](std::uint32_t) { return 1u; });
            while (g.read<std::uint32_t>(sync) != 2) g.yield();
            second_read = g.read<int>(buf);
            g.join(t0);
        },
        1);
    machine.run();
    process.check_all_joined();
    EXPECT_EQ(second_read, 2);
}

TEST(System, FutexAcrossKernels) {
    Machine machine(small_config(4, 2));
    auto& process = machine.create_process(0);
    Vaddr word = 0;
    bool woken = false;
    auto& sleeper = process.spawn(
        [&](Guest& g) {
            word = g.mmap(kPageSize);
            g.write<std::uint32_t>(word, 0);
            // Wait until the waker flips the word.
            while (g.read<std::uint32_t>(word) == 0) {
                g.futex_wait(word, 0);
            }
            woken = true;
        },
        0);
    process.spawn(
        [&](Guest& g) {
            while (word == 0) g.yield();
            g.compute(200_us); // let the sleeper actually sleep
            g.rmw_u32(word, [](std::uint32_t) { return 1u; });
            g.futex_wake(word, 1);
            g.join(sleeper);
        },
        1);
    machine.run();
    process.check_all_joined();
    EXPECT_TRUE(woken);
}

TEST(System, MutexMutualExclusionAcrossKernels) {
    Machine machine(small_config(8, 4));
    auto& process = machine.create_process(0);
    Vaddr lock_word = 0;
    Vaddr counter = 0;
    constexpr int kThreads = 8;
    constexpr int kIters = 25;
    auto& init = process.spawn(
        [&](Guest& g) {
            lock_word = g.mmap(kPageSize);
            counter = g.mmap(kPageSize);
        },
        0);
    std::vector<Thread*> workers;
    for (int i = 0; i < kThreads; ++i) {
        workers.push_back(&process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                for (int n = 0; n < kIters; ++n) {
                    g.mutex_lock(lock_word);
                    // Non-atomic RMW under the lock: lost updates would
                    // reveal a mutual-exclusion bug.
                    const auto v = g.read<std::uint32_t>(counter);
                    g.compute(1_us);
                    g.write<std::uint32_t>(counter, v + 1);
                    g.mutex_unlock(lock_word);
                }
                (void)i;
            },
            i % 4));
    }
    process.spawn(
        [&](Guest& g) {
            for (Thread* w : workers) g.join(*w);
            EXPECT_EQ(g.read<std::uint32_t>(counter), kThreads * kIters);
        },
        0);
    machine.run();
    process.check_all_joined();
}

TEST(System, BarrierSynchronizesAcrossKernels) {
    Machine machine(small_config(8, 4));
    auto& process = machine.create_process(0);
    Vaddr barrier = 0;
    Vaddr flags = 0;
    constexpr std::uint32_t kThreads = 4;
    bool order_violated = false;
    auto& init = process.spawn(
        [&](Guest& g) {
            barrier = g.mmap(kPageSize);
            flags = g.mmap(kPageSize);
        },
        0);
    for (std::uint32_t i = 0; i < kThreads; ++i) {
        process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                g.write<std::uint32_t>(flags + i * 4, 1);
                g.barrier_wait(barrier, kThreads);
                // After the barrier, every flag must be visible.
                for (std::uint32_t j = 0; j < kThreads; ++j) {
                    if (g.read<std::uint32_t>(flags + j * 4) != 1) {
                        order_violated = true;
                    }
                }
            },
            static_cast<topo::KernelId>(i));
    }
    machine.run();
    process.check_all_joined();
    EXPECT_FALSE(order_violated);
}

TEST(System, MigrationMovesExecution) {
    Machine machine(small_config(4, 2));
    auto& process = machine.create_process(0);
    std::vector<topo::KernelId> where;
    core::MigrationBreakdown breakdown{};
    process.spawn(
        [&](Guest& g) {
            where.push_back(g.kernel());
            breakdown = g.migrate(1);
            where.push_back(g.kernel());
            g.compute(10_us);
        },
        0);
    machine.run();
    process.check_all_joined();
    ASSERT_EQ(where.size(), 2u);
    EXPECT_EQ(where[0], 0);
    EXPECT_EQ(where[1], 1);
    EXPECT_GT(breakdown.total, 0);
    EXPECT_GT(breakdown.transfer, 0);
    EXPECT_EQ(machine.kernel(0).migration().migrations_out(), 1u);
    EXPECT_EQ(machine.kernel(1).migration().migrations_in(), 1u);
    // A shadow task must remain at the origin.
    task::Task* shadow = machine.kernel(0).find_task(process.threads()[0]->tid());
    ASSERT_NE(shadow, nullptr);
    EXPECT_EQ(shadow->state, task::TaskState::kExited); // exited after group exit
}

TEST(System, MigrationPreservesMemoryView) {
    Machine machine(small_config(4, 2));
    auto& process = machine.create_process(0);
    bool ok = false;
    process.spawn(
        [&](Guest& g) {
            const Vaddr buf = g.mmap(8 * kPageSize);
            for (int i = 0; i < 8; ++i) {
                g.write<std::uint64_t>(buf + static_cast<Vaddr>(i) * kPageSize,
                                       0xabc000 + static_cast<std::uint64_t>(i));
            }
            g.migrate(1);
            // Same virtual addresses must hold the same data on the new
            // kernel (pages fault over on demand).
            ok = true;
            for (int i = 0; i < 8; ++i) {
                if (g.read<std::uint64_t>(buf + static_cast<Vaddr>(i) * kPageSize) !=
                    0xabc000 + static_cast<std::uint64_t>(i)) {
                    ok = false;
                }
            }
            // And writes after migration work too.
            g.write<std::uint64_t>(buf, 42);
            ok = ok && g.read<std::uint64_t>(buf) == 42;
        },
        0);
    machine.run();
    process.check_all_joined();
    EXPECT_TRUE(ok);
}

TEST(System, BackMigrationReactivatesShadow) {
    Machine machine(small_config(4, 2));
    auto& process = machine.create_process(0);
    std::vector<topo::KernelId> path;
    process.spawn(
        [&](Guest& g) {
            path.push_back(g.kernel());
            g.migrate(1);
            path.push_back(g.kernel());
            g.migrate(0); // back home: reactivates the shadow
            path.push_back(g.kernel());
        },
        0);
    machine.run();
    process.check_all_joined();
    EXPECT_EQ(path, (std::vector<topo::KernelId>{0, 1, 0}));
    EXPECT_EQ(machine.kernel(0).migration().back_migrations() +
                  machine.kernel(1).migration().back_migrations(),
              1u);
}

TEST(System, MunmapPropagatesToReplicaKernels) {
    Machine machine(small_config(4, 2));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    bool remote_faulted_after_unmap = false;
    auto& owner = process.spawn(
        [&](Guest& g) {
            buf = g.mmap(2 * kPageSize);
            g.write<int>(buf, 7);
        },
        0);
    auto& reader = process.spawn(
        [&](Guest& g) {
            g.join(owner);
            EXPECT_EQ(g.read<int>(buf), 7); // replicate to k1
        },
        1);
    process.spawn(
        [&](Guest& g) {
            g.join(reader);
            EXPECT_EQ(g.munmap(buf, 2 * kPageSize), 0);
        },
        0);
    machine.run();
    process.check_all_joined();
    // After the acked broadcast, no kernel may still map the page.
    for (int k = 0; k < 2; ++k) {
        if (machine.kernel(k).has_site(process.pid())) {
            const auto* pte =
                machine.kernel(k).site(process.pid()).space().page_table().find(buf);
            EXPECT_TRUE(pte == nullptr || !pte->present);
        }
    }
    (void)remote_faulted_after_unmap;
}

TEST(System, AccessAfterMunmapSegfaults) {
    Machine machine(small_config(4, 2));
    auto& process = machine.create_process(0);
    process.spawn(
        [&](Guest& g) {
            const Vaddr buf = g.mmap(kPageSize);
            g.write<int>(buf, 1);
            EXPECT_EQ(g.munmap(buf, kPageSize), 0);
            (void)g.read<int>(buf); // must throw GuestFault -> SIGSEGV exit
            ADD_FAILURE() << "read after munmap did not fault";
        },
        0);
    machine.run();
    process.check_all_joined();
    EXPECT_TRUE(process.threads()[0]->segfaulted());
    EXPECT_EQ(process.threads()[0]->exit_status(), 139);
}

TEST(System, MprotectDowngradeEnforcedOnRemoteKernel) {
    Machine machine(small_config(4, 2));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& owner = process.spawn(
        [&](Guest& g) {
            buf = g.mmap(kPageSize);
            g.write<int>(buf, 3);
            EXPECT_EQ(g.mprotect(buf, kPageSize, kProtRead), 0);
        },
        0);
    process.spawn(
        [&](Guest& g) {
            g.join(owner);
            EXPECT_EQ(g.read<int>(buf), 3); // reads still fine
            g.write<int>(buf, 4);           // must fault
            ADD_FAILURE() << "write to read-only mapping did not fault";
        },
        1);
    machine.run();
    process.check_all_joined();
    EXPECT_TRUE(process.threads()[1]->segfaulted());
}

TEST(System, ManyThreadsManyKernelsProducerConsumer) {
    Machine machine(small_config(8, 4));
    auto& process = machine.create_process(0);
    Vaddr ring = 0;
    constexpr std::uint32_t kItems = 64;
    std::uint64_t consumed_sum = 0;
    auto& init = process.spawn([&](Guest& g) { ring = g.mmap(4 * kPageSize); }, 0);
    auto& producer = process.spawn(
        [&](Guest& g) {
            g.join(init);
            // head at ring+0, items from ring+64
            for (std::uint32_t i = 0; i < kItems; ++i) {
                g.write<std::uint64_t>(ring + 64 + i * 8, i * 3 + 1);
                g.rmw_u32(ring, [](std::uint32_t v) { return v + 1; });
                g.futex_wake(ring, 1);
            }
        },
        1);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            std::uint32_t taken = 0;
            while (taken < kItems) {
                const std::uint32_t avail = g.read<std::uint32_t>(ring);
                if (avail == taken) {
                    g.futex_wait(ring, avail);
                    continue;
                }
                consumed_sum += g.read<std::uint64_t>(ring + 64 + taken * 8);
                ++taken;
            }
            g.join(producer);
        },
        3);
    machine.run();
    process.check_all_joined();
    std::uint64_t expect = 0;
    for (std::uint32_t i = 0; i < kItems; ++i) expect += i * 3 + 1;
    EXPECT_EQ(consumed_sum, expect);
}

TEST(System, SsiGlobalTaskCount) {
    Machine machine(small_config(8, 4));
    auto& process = machine.create_process(0);
    Vaddr gate = 0;
    std::uint32_t counted = 0;
    process.spawn(
        [&](Guest& g) {
            gate = g.mmap(kPageSize);
            // Hold 3 workers alive until we counted them.
            while (g.read<std::uint32_t>(gate) != 1) g.futex_wait(gate, 0);
        },
        0);
    std::vector<Thread*> held;
    for (int i = 1; i <= 3; ++i) {
        held.push_back(&process.spawn(
            [&](Guest& g) {
                while (gate == 0) g.yield();
                while (g.read<std::uint32_t>(gate) != 1) g.futex_wait(gate, 0);
            },
            static_cast<topo::KernelId>(i)));
    }
    process.spawn(
        [&](Guest& g) {
            while (gate == 0) g.yield();
            g.compute(1_ms); // let everyone park
            counted = g.global_task_count();
            g.rmw_u32(gate, [](std::uint32_t) { return 1u; });
            g.futex_wake(gate, 64);
        },
        2);
    machine.run();
    process.check_all_joined();
    EXPECT_EQ(counted, 5u); // init + 3 held + counter
}

TEST(System, SmpSingleKernelConfigWorks) {
    Machine machine(small_config(8, 1));
    auto& process = machine.create_process(0);
    Vaddr counter = 0;
    auto& init = process.spawn([&](Guest& g) { counter = g.mmap(kPageSize); }, 0);
    std::vector<Thread*> workers;
    for (int i = 0; i < 6; ++i) {
        workers.push_back(&process.spawn(
            [&](Guest& g) {
                g.join(init);
                for (int n = 0; n < 50; ++n) {
                    g.rmw_u32(counter, [](std::uint32_t v) { return v + 1; });
                }
            },
            0));
    }
    process.spawn(
        [&](Guest& g) {
            for (Thread* w : workers) g.join(*w);
            EXPECT_EQ(g.read<std::uint32_t>(counter), 300u);
        },
        0);
    machine.run();
    process.check_all_joined();
    EXPECT_EQ(machine.total_messages(), 0u); // one kernel: no fabric traffic
}

TEST(System, TwoProcessesAreIsolated) {
    Machine machine(small_config(4, 2));
    auto& p1 = machine.create_process(0);
    auto& p2 = machine.create_process(1);
    Vaddr a1 = 0;
    p1.spawn(
        [&](Guest& g) {
            a1 = g.mmap(kPageSize);
            g.write<int>(a1, 11);
        },
        0);
    p2.spawn(
        [&](Guest& g) {
            const Vaddr a2 = g.mmap(kPageSize);
            g.write<int>(a2, 22);
            EXPECT_EQ(g.read<int>(a2), 22);
        },
        1);
    machine.run();
    p1.check_all_joined();
    p2.check_all_joined();
    EXPECT_NE(p1.pid(), p2.pid());
}

TEST(System, DeterministicAcrossRuns) {
    auto run_once = [] {
        Machine machine(small_config(8, 4));
        auto& process = machine.create_process(0);
        Vaddr buf = 0;
        auto& init = process.spawn([&](Guest& g) { buf = g.mmap(16 * kPageSize); }, 0);
        for (int i = 0; i < 8; ++i) {
            process.spawn(
                [&, i](Guest& g) {
                    g.join(init);
                    for (int n = 0; n < 20; ++n) {
                        const Vaddr slot =
                            buf + static_cast<Vaddr>((i * 20 + n) % 64) * 64;
                        g.rmw_u32(slot, [](std::uint32_t v) { return v + 1; });
                    }
                },
                static_cast<topo::KernelId>(i % 4));
        }
        machine.run();
        process.check_all_joined();
        return machine.now();
    };
    EXPECT_EQ(run_once(), run_once());
}

} // namespace
} // namespace rko::api
