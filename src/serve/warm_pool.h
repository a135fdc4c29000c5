#pragma once
// WarmPool: the persistent, pre-forked, rlimit-sandboxed worker pool — the
// containment boundary of the serve/ layer.
//
// Each slot is a long-lived child running worker_loop_main: one request
// frame in, checkpoint frames (each envelope-verified before it is filed —
// a crash can only hand back state that hashes) plus one result frame out,
// then the child blocks on the next request. Leasing a warm slot therefore
// costs two frame writes, not a fork; the process bill is paid once per
// recycle instead of once per attempt. The containment rules:
//
//   * recycling: a slot is retired (request pipe closed -> child sees a
//     clean EOF -> exit 0 -> reap -> respawn) after `recycle_after` jobs,
//     and unconditionally after any job that carried an rlimit sandbox or a
//     kill plan. RLIMIT_CPU is cumulative per process and hard limits can
//     never be raised, so a sandboxed job would otherwise poison the budget
//     of every job after it.
//   * death: any WorkerExit other than clean completion reaps the slot,
//     classifies it with classify_wait_status (worker_pool.h), and
//     respawns a fresh child — the auto-respawn the soak harness's kill
//     campaigns assert. A slot that cannot be (re)spawned is kForkFailure.
//   * no orphans: children are forked with fork_tied_to_parent
//     (fork_thread.h) and exit when the process that owns the pool dies,
//     even when the slot was respawned on a short-lived caller thread.
//   * isolation: a freshly forked child keeps stdio and its own two pipe
//     ends and closes every other descriptor (close_fds_except, worker.h)
//     before entering its loop. Without this, a child holding a duplicate
//     of a sibling slot's — or another pool's — request-pipe write end
//     would keep that pipe open, and its worker would never see the
//     retirement EOF.
//
// Thread-safety: run_task may be called from many supervisor/dispatcher
// threads; slot acquisition blocks on a condition variable until a slot is
// free (the service's admission queue, not this pool, is where load is
// shed). Slot bookkeeping is guarded by an annotated mutex; pipe I/O on a
// leased slot happens outside the lock, with the busy flag as the exclusion
// mechanism.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <sys/types.h>
#include <vector>

#include "parallel/annotations.h"
#include "robustness/checkpoint.h"
#include "serve/worker_pool.h"

namespace pfact::serve {

struct WarmPoolOptions {
  std::size_t workers = 2;        // pre-forked slots
  std::size_t recycle_after = 32; // planned retirement after N jobs; 0 = never
};

class WarmPool {
 public:
  explicit WarmPool(WarmPoolOptions options = {});
  ~WarmPool();  // retires every slot (EOF) and reaps the children

  WarmPool(const WarmPool&) = delete;
  WarmPool& operator=(const WarmPool&) = delete;

  // Leases a warm slot (blocking until one is free), ships `request`, pumps
  // its checkpoint frames into `store` (nullptr discards them) until the
  // result frame or death, and returns the slot to the pool — recycled or
  // respawned per the rules above. `watchdog` > 0 arms a wall-clock
  // deadline: a worker still running then is SIGKILLed and reported
  // kWatchdog. A slot that cannot be (re)spawned reports kForkFailure — a
  // transient resource-exhaustion diagnostic for the retry table.
  WorkerRun run_task(const TaskRequest& request,
                     robustness::CheckpointStore* store,
                     std::chrono::milliseconds watchdog =
                         std::chrono::milliseconds{0});

  struct Stats {
    std::uint64_t spawned = 0;    // children forked over the pool's lifetime
    std::uint64_t completed = 0;  // jobs that delivered a result frame
    std::uint64_t crashed = 0;    // jobs ending in any non-kCompleted class
    std::uint64_t watchdog_kills = 0;
    std::uint64_t recycles = 0;   // planned retirements (quota / sandbox)
    std::uint64_t jobs = 0;       // total jobs dispatched to warm slots
  };
  Stats stats() const;

  // Number of currently live (forked, unreaped) warm children.
  std::size_t live_workers() const;

  // Test seam: replaces ::fork() in every later spawn so fork exhaustion
  // (pid < 0) is producible on demand — the real condition needs a
  // pid-starved machine. Idle slots are retired on install, so the next
  // lease respawns through the seam. Not for production use.
  void set_fork_for_testing(std::function<pid_t()> fork_fn);

 private:
  struct Slot {
    pid_t pid = -1;
    int to_wr = -1;    // parent's write end of the slot's request pipe
    int from_rd = -1;  // parent's read end of the slot's response pipe
    std::size_t jobs_done = 0;
    bool busy = false;
    bool alive = false;
  };

  bool spawn_slot(std::size_t idx) PFACT_REQUIRES(mu_);
  void retire_slot(std::size_t idx) PFACT_REQUIRES(mu_);  // EOF + reap

  WarmPoolOptions options_;
  mutable par::Mutex mu_;
  std::condition_variable slot_free_;
  std::vector<Slot> slots_ PFACT_GUARDED_BY(mu_);
  Stats stats_ PFACT_GUARDED_BY(mu_);
  std::function<pid_t()> fork_fn_ PFACT_GUARDED_BY(mu_);
};

}  // namespace pfact::serve
