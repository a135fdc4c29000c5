#pragma once
// Forks whose children die with the process that forked them.
//
// A child arms PR_SET_PDEATHSIG right after the fork, so a SIGKILLed router
// takes its shards with it and a dead shard takes its warm workers. Linux
// sends that signal when the *thread* that forked the child exits, not when
// its process does, which leaves two ways to fork:
//
//   * fork_tied_to_parent forks on the calling thread. The death signal is
//     a catchable one, and its handler _exits only once the child has been
//     re-parented out of the process, so the exit of the forking thread
//     alone is ignored. WarmPool respawns workers this way, on whichever
//     thread leased the slot, often a short-lived client thread. A child
//     stopped by SIGSTOP only dies once it is continued.
//   * ForkThread forks on a thread of its own that lives as long as its
//     owner, and the death signal is SIGKILL, which reaches even a stopped
//     child. The router forks shards this way: a shard can be stopped (the
//     wedge its probe deadline exists to catch), and a stopped orphan would
//     live for ever. The owner reaps every child before the thread is
//     joined (its destructor body runs before its members are destroyed).
//     Forking here costs a hand-off to the thread, and the child runs on a
//     copy of it, which is why hot respawn paths do not use it.

#include <sys/types.h>

#include <condition_variable>
#include <functional>
#include <thread>

#include "parallel/annotations.h"

namespace pfact::serve {

// Forks on the calling thread and returns the child's pid to the parent, or
// -1 when the fork failed. The child _exits if its parent process dies, now
// or later, and otherwise runs `child_main`, which must end in _exit.
// `fork_fn`, when set, replaces ::fork() (a test seam for fork exhaustion).
pid_t fork_tied_to_parent(const std::function<void()>& child_main,
                          const std::function<pid_t()>& fork_fn = {});

class ForkThread {
 public:
  ForkThread();
  ~ForkThread();
  ForkThread(const ForkThread&) = delete;
  ForkThread& operator=(const ForkThread&) = delete;

  // Forks on the owned thread and returns the child's pid to the parent, or
  // -1 when the fork failed. The child is SIGKILLed when its parent process
  // dies, _exits at once if that already happened, and otherwise runs
  // `child_main`, which must end in _exit.
  pid_t fork(const std::function<void()>& child_main);

 private:
  struct Job {
    const std::function<void()>* child_main;
    pid_t pid = -1;
    bool done = false;
  };

  void loop();

  par::Mutex mu_;
  std::condition_variable cv_;
  Job* job_ PFACT_GUARDED_BY(mu_) = nullptr;
  bool stopping_ PFACT_GUARDED_BY(mu_) = false;
  std::thread thread_;  // last: starts once the fields above exist
};

}  // namespace pfact::serve
