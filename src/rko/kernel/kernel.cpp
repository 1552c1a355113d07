#include "rko/kernel/kernel.hpp"

#include <algorithm>
#include <utility>

#include "rko/balance/balance.hpp"
#include "rko/check/gate.hpp"
#include "rko/core/dfutex.hpp"
#include "rko/core/migration.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/core/ssi.hpp"
#include "rko/core/thread_group.hpp"
#include "rko/core/vma_server.hpp"
#include "rko/elastic/elastic.hpp"

namespace rko::kernel {

namespace {

/// Left behind by a migration (kShadow, or kExited on an intermediate
/// kernel) or by the thread's exit: nothing runs on it until a migration
/// revives it.
bool dormant(const task::Task& t) {
    return t.state == task::TaskState::kExited || t.state == task::TaskState::kShadow;
}

} // namespace

Kernel::Kernel(sim::Engine& engine, const topo::Topology& topo,
               const topo::CostModel& costs, mem::PhysMem& phys, msg::Fabric& fabric,
               topo::KernelId id)
    : engine_(engine),
      topo_(topo),
      costs_(costs),
      phys_(phys),
      fabric_(fabric),
      node_(fabric.node(id)),
      id_(id),
      frames_(phys, id, costs),
      sched_(engine, costs, topo.cores_of(id), id, &metrics_) {
    vma_ = std::make_unique<core::VmaServer>(*this);
    pages_ = std::make_unique<core::PageOwner>(*this);
    futex_ = std::make_unique<core::DFutex>(*this);
    groups_ = std::make_unique<core::ThreadGroups>(*this);
    migration_ = std::make_unique<core::Migration>(*this);
    ssi_ = std::make_unique<core::Ssi>(*this);
}

Kernel::~Kernel() = default;

void Kernel::install_services(ActorResolver resolver) {
    resolver_ = std::move(resolver);
    vma_->install();
    pages_->install();
    futex_->install();
    groups_->install();
    migration_->install();
    ssi_->install();
}

void Kernel::install_balancer(const balance::BalanceConfig& config) {
    RKO_ASSERT(balancer_ == nullptr);
    balancer_ = std::make_unique<balance::Balancer>(*this, config);
    balancer_->install();
}

void Kernel::install_elastic(const elastic::ElasticConfig& config) {
    RKO_ASSERT(elastic_ == nullptr);
    elastic_ = std::make_unique<elastic::Elastic>(*this, config);
    elastic_->install();
}

core::ProcessSite& Kernel::site(Pid pid) {
    auto it = sites_.find(pid);
    RKO_ASSERT_MSG(it != sites_.end(), "no process site on this kernel");
    return *it->second;
}

core::ProcessSite& Kernel::ensure_site(Pid pid, topo::KernelId origin) {
    auto it = sites_.find(pid);
    if (it != sites_.end()) return *it->second;
    auto site = std::make_unique<core::ProcessSite>(pid, id_, origin);
    auto& ref = *site;
    sites_.emplace(pid, std::move(site));
    counters_.bump("sites_created");
    return ref;
}

void Kernel::drop_site(Pid pid) {
    auto it = sites_.find(pid);
    if (it == sites_.end()) return;
    core::ProcessSite& site = *it->second;
    RKO_ASSERT_MSG(site.local_tasks().empty(), "dropping a site with live tasks");
    // The teardown munmap should have emptied the page table already;
    // clean up defensively so a protocol miss cannot leak frames.
    std::vector<mem::Vaddr> stale;
    site.space().page_table().for_each_present(
        0, ~0ULL, [&](mem::Vaddr va, mem::Pte&) { stale.push_back(va); });
    for (const mem::Vaddr va : stale) {
        const mem::Pte old = site.space().page_table().clear(va);
        if (old.present) frames_.free(old.paddr);
    }
    if (!stale.empty()) site.space().bump_tlb_generation();
    sites_.erase(it);
    counters_.bump("sites_dropped");
}

task::Task* Kernel::find_task(Tid tid) {
    auto it = tasks_.find(tid);
    return it == tasks_.end() ? nullptr : it->second.get();
}

task::Task& Kernel::add_task(std::unique_ptr<task::Task> task) {
    RKO_ASSERT(task != nullptr);
    auto& ref = *task;
    RKO_ASSERT_MSG(!tasks_.contains(ref.tid), "duplicate tid on kernel");
    tasks_.emplace(ref.tid, std::move(task));
    live_.emplace(ref.tid, &ref);
    return ref;
}

void Kernel::revive_task(task::Task& t) {
    RKO_ASSERT(find_task(t.tid) == &t && !dormant(t));
    live_.emplace(t.tid, &t); // no-op when no walk dropped it meanwhile
}

Nanos Kernel::mmap_lock_wait_time() const {
    Nanos total = 0;
    for (const auto& [pid, site] : sites_) {
        total += site->space().mmap_lock().wait_time();
    }
    return total;
}

std::size_t Kernel::live_task_count() {
    std::erase_if(live_, [](const auto& entry) { return dormant(*entry.second); });
    if (check::enabled()) {
        // The index must cover every live record: a dormant record that
        // turned live again without revive_task would go uncounted here
        // and unseen by the balancer.
        const auto live = std::count_if(tasks_.begin(), tasks_.end(), [](const auto& e) {
            return !dormant(*e.second);
        });
        RKO_ASSERT_MSG(static_cast<std::size_t>(live) == live_.size(),
                       "live-task index lost a runnable record");
    }
    return live_.size();
}

void Kernel::for_each_live_task(const std::function<void(task::Task&)>& fn) {
    for (auto it = live_.begin(); it != live_.end();) {
        task::Task& t = *it->second;
        if (dormant(t)) {
            it = live_.erase(it);
            continue;
        }
        const Tid tid = t.tid;
        fn(t);
        // Re-find the successor: while `fn` yielded, other actors may have
        // added, revived or dropped index entries (the old iterator may be
        // gone), exactly as a tasks_ walk sees records added behind it.
        it = live_.upper_bound(tid);
    }
}

void Kernel::syscall_entry(task::Task& t) {
    t.enter_kernel();
    sim::current_actor().sleep_for(costs_.syscall_entry);
}

mem::Vaddr Kernel::sys_mmap(task::Task& t, std::uint64_t length, std::uint32_t prot) {
    syscall_entry(t);
    counters_.bump("sys_mmap");
    return vma_->mmap(site(t.pid), length, prot);
}

int Kernel::sys_munmap(task::Task& t, mem::Vaddr addr, std::uint64_t length) {
    syscall_entry(t);
    counters_.bump("sys_munmap");
    return vma_->munmap(site(t.pid), addr, length);
}

int Kernel::sys_mprotect(task::Task& t, mem::Vaddr addr, std::uint64_t length,
                         std::uint32_t prot) {
    syscall_entry(t);
    counters_.bump("sys_mprotect");
    return vma_->mprotect(site(t.pid), addr, length, prot);
}

int Kernel::sys_futex_wait(task::Task& t, mem::Vaddr uaddr, std::uint32_t val,
                           Nanos timeout) {
    syscall_entry(t);
    counters_.bump("sys_futex_wait");
    return futex_->wait(t, site(t.pid), uaddr, val, timeout);
}

mem::Vaddr Kernel::sys_brk(task::Task& t, mem::Vaddr new_brk) {
    syscall_entry(t);
    counters_.bump("sys_brk");
    return vma_->brk(site(t.pid), new_brk);
}

int Kernel::sys_futex_wake(task::Task& t, mem::Vaddr uaddr, std::uint32_t max_wake) {
    syscall_entry(t);
    counters_.bump("sys_futex_wake");
    return futex_->wake(t, site(t.pid), uaddr, max_wake);
}

void Kernel::sys_yield(task::Task& t) {
    syscall_entry(t);
    sched_.yield(t);
}

void Kernel::sys_exit(task::Task& t, int status) {
    syscall_entry(t);
    counters_.bump("sys_exit");
    groups_->task_exited(t, status);
    sched_.exit(t);
}

void Kernel::sys_exit_local(task::Task& t, int status) {
    syscall_entry(t);
    counters_.bump("sys_exit_local");
    t.exit_status = status;
    if (has_site(t.pid)) site(t.pid).local_tasks().erase(t.tid);
    sched_.exit(t);
}

mem::Mmu::FaultResult Kernel::handle_fault(task::Task& t, mem::Vaddr va,
                                           std::uint32_t access) {
    t.enter_kernel();
    counters_.bump("page_faults");
    core::ProcessSite& s = site(t.pid);
    mem::Vma vma;
    if (!vma_->ensure_vma(s, va, &vma)) return mem::Mmu::FaultResult::kSegv;
    if ((vma.prot & access) != access) return mem::Mmu::FaultResult::kSegv;
    return pages_->acquire(s, vma, mem::page_floor(va), access, &t);
}

} // namespace rko::kernel
