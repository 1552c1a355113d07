#include "rko/api/machine.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <vector>

#include "rko/base/log.hpp"
#include "rko/check/invariants.hpp"
#include "rko/core/dfutex.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/race/race.hpp"
#include "rko/task/sched.hpp"

namespace rko::api {

namespace {

std::vector<ConfigStamp>& built_configs() {
    static std::vector<ConfigStamp> configs;
    return configs;
}

} // namespace

const std::vector<ConfigStamp>& Machine::process_configs() { return built_configs(); }

Machine::Machine(MachineConfig config)
    : config_(config),
      topo_(config.ncores, config.nkernels),
      phys_(config.nkernels, config.frames_per_kernel) {
    RKO_ASSERT_MSG(config.nkernels <= topo::kMaxKernels,
                   "holder masks are topo::KernelMask bits wide");
    const ConfigStamp stamp{config_.nkernels,        config_.home_shards,
                            config_.workset_push,    config_.prefetch_window,
                            config_.balance.policy,  config_.elastic.enabled,
                            config_.read_replication, config_.futex_hierarchy};
    auto& built = built_configs();
    if (std::find(built.begin(), built.end(), stamp) == built.end()) built.push_back(stamp);
    // Each machine gets a clean race-detector slate: one process often runs
    // many machines (tests, explore sweeps) and findings must not leak
    // between them.
    if (race::enabled()) race::reset();
    if (config_.shuffle_ties) {
        // Before any actor is created so every event carries a shuffle key.
        engine_.enable_tie_shuffle(config_.seed * 0x9e3779b97f4a7c15ULL + 1);
    }
    tracer_ = std::make_unique<trace::Tracer>(config_.nkernels, config_.trace);
    engine_.set_tracer(tracer_.get());
    fabric_ = std::make_unique<msg::Fabric>(engine_, config_.costs, config_.nkernels,
                                            config_.fabric);
    kernels_.reserve(static_cast<std::size_t>(config_.nkernels));
    for (topo::KernelId k = 0; k < config_.nkernels; ++k) {
        kernels_.push_back(std::make_unique<kernel::Kernel>(
            engine_, topo_, config_.costs, phys_, *fabric_, k));
    }
    // Home map: every kernel boots with the same shard count and the same
    // eligible set (the boot membership minus deferred hot-join targets).
    // Membership events shrink it identically everywhere (rko/elastic).
    RKO_ASSERT_MSG(config_.home_shards >= 1, "home_shards must be >= 1");
    topo::KernelMask home_eligible = 0;
    for (topo::KernelId k = 0; k < config_.nkernels; ++k) {
        if (config_.elastic.enabled &&
            (config_.elastic.deferred_mask & topo::kbit(k)) != 0) {
            continue;
        }
        home_eligible |= topo::kbit(k);
    }
    for (auto& k : kernels_) {
        k->home_map().init(config_.home_shards, home_eligible);
        k->pages().set_read_replication(config_.read_replication);
        k->pages().set_prefetch_window(config_.prefetch_window);
        k->pages().set_workset_push(config_.workset_push);
        k->futex().set_hierarchy(config_.futex_hierarchy);
        k->futex().set_handoff_cap(config_.futex_handoff_cap);
        k->install_services([this](Tid tid) -> sim::Actor* {
            Thread* thread = thread_of(tid);
            return thread == nullptr ? nullptr : thread->actor();
        });
        if (config_.balance.policy != balance::Policy::kNone) {
            k->install_balancer(config_.balance);
        }
        if (config_.elastic.enabled) {
            k->install_elastic(config_.elastic);
            install_elastic_hooks(*k);
        }
    }
    fabric_->start_all();
    for (auto& k : kernels_) {
        if (k->elastic() != nullptr) k->elastic()->start();
        // Deferred-boot kernels (hot-join targets) sit parted with no
        // balancer until Machine::join_kernel starts one.
        const bool deferred =
            config_.elastic.enabled &&
            (config_.elastic.deferred_mask & topo::kbit(k->id())) != 0;
        if (k->balancer() != nullptr && !deferred) k->balancer()->start();
    }
}

void Machine::install_elastic_hooks(kernel::Kernel& k) {
    kernel::Kernel* kp = &k;
    // Kill: unwind every guest fiber hosted here. Runs on the reaper actor
    // (actor context — Scheduler::wake may sleep). Collect tids first: the
    // woken threads erase themselves from the task map as they exit.
    k.elastic()->set_thread_killer([this, kp] {
        std::vector<Tid> tids;
        kp->for_each_task([&tids](const task::Task& t) {
            if (t.state == task::TaskState::kExited ||
                t.state == task::TaskState::kShadow) {
                return;
            }
            tids.push_back(t.tid);
        });
        for (const Tid tid : tids) {
            task::Task* t = kp->find_task(tid);
            if (t == nullptr || t->state == task::TaskState::kExited ||
                t->state == task::TaskState::kShadow) {
                continue;
            }
            if (Thread* thread = thread_of(tid)) thread->request_kill();
            // Blocked threads need a spurious wake to reach the kill check;
            // queued/running ones hit it at their next guest operation.
            if (t->state == task::TaskState::kBlocked) kp->sched().wake(*t);
        }
    });
    // Reap (at the origin): a member died with its kernel — publish its
    // CLEARTID word through the normal coherence machinery so joiners
    // parked on the ctid futex unblock with the usual protocol.
    k.elastic()->set_thread_lost([this, kp](Pid pid, Tid tid) {
        Thread* thread = thread_of(tid);
        if (thread == nullptr || !kp->has_site(pid)) return;
        auto& site = kp->site(pid);
        const mem::Vaddr ctid = thread->ctid();
        const mem::Vaddr page = ctid & ~static_cast<mem::Vaddr>(mem::kPageSize - 1);
        mem::Vma vma;
        {
            const mem::Vma* found = site.space().vmas().find(ctid);
            if (found == nullptr) return; // process already torn down
            vma = *found;
        }
        for (int attempt = 0; attempt < 16; ++attempt) {
            if (kp->pages().acquire(site, vma, page,
                                    mem::kProtRead | mem::kProtWrite) !=
                mem::Mmu::FaultResult::kFixed) {
                return;
            }
            const mem::Pte* pte = site.space().page_table().find(page);
            if (pte == nullptr || !pte->present ||
                (pte->prot & mem::kProtWrite) == 0) {
                continue; // transaction retried; fault again
            }
            const std::uint32_t one = 1;
            std::memcpy(kp->phys().frame_ptr(pte->paddr) + (ctid - page), &one,
                        sizeof one);
            kp->futex().wake_at_origin(site, pid, ctid,
                                       std::numeric_limits<std::uint32_t>::max());
            return;
        }
    });
}

void Machine::kill_kernel(topo::KernelId id) {
    kernel::Kernel& k = kernel(id);
    RKO_ASSERT_MSG(k.elastic() != nullptr, "kill_kernel requires elastic.enabled");
    k.for_each_site([](core::ProcessSite& site) {
        RKO_ASSERT_MSG(!site.is_origin(),
                       "origin kernels are immortal: cannot kill a process home");
    });
    k.elastic()->request_kill();
    // Survivors whose balancers parked would never check a lease again.
    for (auto& peer : kernels_) {
        if (peer.get() != &k) peer->elastic()->watch_leases();
    }
}

void Machine::drain_kernel(topo::KernelId id) {
    kernel::Kernel& k = kernel(id);
    RKO_ASSERT_MSG(k.elastic() != nullptr, "drain_kernel requires elastic.enabled");
    k.for_each_site([](core::ProcessSite& site) {
        RKO_ASSERT_MSG(!site.is_origin(),
                       "origin kernels are immortal: cannot drain a process home");
    });
    k.elastic()->request_drain();
}

void Machine::join_kernel(topo::KernelId id) {
    kernel::Kernel& k = kernel(id);
    RKO_ASSERT_MSG(k.elastic() != nullptr, "join_kernel requires elastic.enabled");
    k.elastic()->request_join();
}

bool Machine::is_killed(topo::KernelId id) {
    kernel::Kernel& k = kernel(id);
    return k.elastic() != nullptr &&
           k.elastic()->peer_state(id) != elastic::PeerState::kAlive;
}

Machine::~Machine() {
    for (auto& k : kernels_) {
        if (k->balancer() != nullptr) k->balancer()->request_stop();
        if (k->elastic() != nullptr) k->elastic()->request_stop();
    }
    fabric_->request_stop_all();
    engine_.run();
    for (auto& k : kernels_) {
        if (k->balancer() != nullptr && !k->balancer()->stopped()) {
            RKO_WARN("machine torn down with a live balancer actor");
        }
    }
    if (!fabric_->all_stopped()) {
        RKO_WARN("machine torn down with live messaging actors");
    }
    if (config_.check) {
        check::Registry::builtin().enforce(*this, "teardown");
    }
    if (tracer_->enabled() && !tracer_->config().path.empty()) {
        tracer_->write_chrome_trace_file(tracer_->config().path);
    }
    engine_.set_tracer(nullptr);
    // Threads (owned by processes) must be destroyed before the engine;
    // processes_ members are destroyed before engine_ per declaration order
    // ... which is the reverse: engine_ declared before processes_, so
    // processes_ (and their actors) die first. Correct as declared.
}

kernel::Kernel& Machine::kernel(topo::KernelId id) {
    RKO_ASSERT(id >= 0 && id < config_.nkernels);
    return *kernels_[static_cast<std::size_t>(id)];
}

Process& Machine::create_process(topo::KernelId origin) {
    RKO_ASSERT_MSG(sim::current_engine() == nullptr,
                   "create_process is a host-side (boot) operation");
    kernel::Kernel& k = kernel(origin);
    const Pid pid = k.alloc_pid();
    // Home the process: master site + empty thread group at the origin.
    k.ensure_site(pid, origin);
    k.site(pid).group().replica_mask |= topo::kbit(origin);
    // With sharded homes, every eligible kernel may own directory shards
    // for this process, so it needs a site (directory storage + VMA
    // replica) and a slot in the replica mask (so destructive-op
    // broadcasts reach it) from birth.
    if (k.home_map().sharded()) {
        for (topo::KernelMask m = k.home_map().eligible(); m != 0; m &= m - 1) {
            const auto h = static_cast<topo::KernelId>(std::countr_zero(m));
            if (h == origin) continue;
            kernel(h).ensure_site(pid, origin);
            k.site(pid).group().replica_mask |= topo::kbit(h);
        }
    }
    processes_.push_back(std::make_unique<Process>(*this, pid, origin));
    return *processes_.back();
}

trace::MetricsRegistry Machine::collect_metrics() {
    trace::MetricsRegistry merged;
    merged.merge_from(tracer_->merged_metrics());
    for (const auto& k : kernels_) {
        merged.merge_from(k->metrics());
        merged.gauge("sched.rq_lock_wait_ns").add(static_cast<double>(k->sched().rq_lock_wait()));
        merged.gauge("mem.mmap_lock_wait_ns").add(static_cast<double>(k->mmap_lock_wait_time()));
        // Per-kernel directory-transaction share (rko/home): under sharded
        // uniform fault load the origin's gauge drops toward 1/N of the
        // merged home.msgs counter.
        merged.gauge("home.msgs_per_kernel.k" + std::to_string(k->id()))
            .add(static_cast<double>(k->pages().home_msgs()));
    }
    for (topo::KernelId k = 0; k < config_.nkernels; ++k) {
        msg::Node& node = fabric_->node(k);
        merged.counter("msg.dispatched").inc(node.total_dispatched());
        merged.histogram("msg.delivery_ns").merge(node.delivery_latency());
        merged.histogram("msg.kworker_queue_ns").merge(node.kworker_queue());
        merged.counter("msg.scatter.batches").inc(node.scatter_batches());
        merged.counter("msg.scatter.posts").inc(node.scatter_posts());
        merged.counter("msg.dead_letters").inc(node.dead_letters());
        merged.counter("msg.rpc_failures").inc(node.rpc_failures());
        merged.histogram("msg.scatter.fanout").merge(node.scatter_fanout());
        merged.histogram("msg.scatter.wait_ns").merge(node.scatter_wait());
    }
    for (topo::KernelId src = 0; src < config_.nkernels; ++src) {
        for (topo::KernelId dst = 0; dst < config_.nkernels; ++dst) {
            if (src == dst) continue;
            const msg::Channel& ch = fabric_->channel(src, dst);
            merged.counter("msg.sent").inc(ch.sent());
            merged.counter("msg.bytes").inc(ch.bytes_sent());
            merged.gauge("msg.backpressure_ns").add(static_cast<double>(ch.backpressure_time()));
            const std::string prefix = "msg.k" + std::to_string(src) + "_to_k" +
                                       std::to_string(dst) + ".";
            merged.counter(prefix + "sent").inc(ch.sent());
            merged.counter(prefix + "bytes").inc(ch.bytes_sent());
        }
    }
    return merged;
}

Nanos Machine::run() {
    const Nanos t = engine_.run();
    if (config_.check && engine_.idle()) {
        check::Registry::builtin().enforce(*this, "run-idle");
    }
    return t;
}

Nanos Machine::run_until(Nanos deadline) { return engine_.run_until(deadline); }

void Machine::register_thread(Tid tid, Thread* thread) {
    RKO_ASSERT(!threads_.contains(tid));
    threads_[tid] = thread;
}

void Machine::unregister_thread(Tid tid) { threads_.erase(tid); }

Thread* Machine::thread_of(Tid tid) {
    auto it = threads_.find(tid);
    return it == threads_.end() ? nullptr : it->second;
}

} // namespace rko::api
