// Distributed thread groups (paper §IV-A).
//
// A process's threads may run on any kernel; the origin kernel keeps the
// master group record (membership, locations, alive count). Spawning a
// thread on another kernel is a kRemoteClone; membership joins are
// synchronous with the origin before the thread starts, so the exit
// notification (one-way, FIFO-ordered per channel) can never precede its
// join.
#pragma once

#include <cstdint>
#include <vector>

#include "rko/core/process.hpp"
#include "rko/core/wire.hpp"
#include "rko/msg/node.hpp"

namespace rko::kernel {
class Kernel;
}

namespace rko::core {

class ThreadGroups {
public:
    explicit ThreadGroups(kernel::Kernel& k) : k_(k) {}

    /// Registers kRemoteClone (leaf), kTaskExit / kGroupUpdate (inline).
    void install();

    /// Spawns thread `tid` of `site`'s process on kernel `dest`; runs on the
    /// calling (parent) task's actor. The thread entity must already be
    /// registered with the machine's actor resolver. Returns false on error.
    bool spawn(task::Task& parent, ProcessSite& site, Tid tid,
               topo::KernelId dest);

    /// Exit path for the current task (runs on its actor, before the actor
    /// finishes). Updates the group record, possibly via message.
    void task_exited(task::Task& t, int status);

    /// Reclaims every machine-wide resource of a dead process: unmaps the
    /// whole address space (revoking and freeing every page copy at its
    /// holder) and broadcasts kGroupExit so replica kernels drop their
    /// sites. Origin-side; the caller's actor may await (any actor except
    /// dispatchers/leaf workers). The origin's own site survives as the
    /// post-mortem master record.
    void teardown(ProcessSite& site);

    /// Origin-side bookkeeping, also used directly at boot.
    void origin_join(Pid pid, Tid tid, topo::KernelId where);

    /// Elastic reap (rko/elastic, at the origin): every group member
    /// located on `dead` died with its kernel. Marks each exited (guarded —
    /// a kTaskExit that raced ahead of the death declaration wins) and
    /// strips `dead` from the replica mask. Returns the tids reaped.
    std::vector<Tid> reap_kernel(ProcessSite& site, topo::KernelId dead);

    /// Creates the local task record for a thread landing on this kernel
    /// (local spawn, remote-clone handler, and boot).
    task::Task& instantiate_local(Pid pid, Tid tid, topo::KernelId origin,
                                  const char* name);

    std::uint64_t remote_clones() const { return remote_clones_; }
    std::uint64_t local_clones() const { return local_clones_; }

private:
    void origin_exit(Pid pid, Tid tid, int status);

    void on_remote_clone(msg::Node& node, msg::MessagePtr m);
    void on_task_exit(msg::Node& node, msg::MessagePtr m);
    void on_group_update(msg::Node& node, msg::MessagePtr m);
    void on_group_exit(msg::Node& node, msg::MessagePtr m);

    kernel::Kernel& k_;
    std::uint64_t remote_clones_ = 0;
    std::uint64_t local_clones_ = 0;
};

} // namespace rko::core
