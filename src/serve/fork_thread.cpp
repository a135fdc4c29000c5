#include "serve/fork_thread.h"

#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

namespace pfact::serve {

namespace {

// The death signal of fork_tied_to_parent's children; nothing else in the
// library sends or handles it.
constexpr int kParentDeathSignal = SIGUSR2;

pid_t g_parent = 0;  // in such a child: the process that forked it

void exit_if_orphaned(int) {
  if (::getppid() != g_parent) ::_exit(1);
}

// In a freshly forked child: deliver `sig` when the forking thread exits,
// and _exit now if the parent process died before this could arm it (the
// child was then already re-parented, so its parent pid tells).
void arm_parent_death(int sig, pid_t parent) {
  ::prctl(PR_SET_PDEATHSIG, sig);
  if (::getppid() != parent) ::_exit(1);
}

}  // namespace

pid_t fork_tied_to_parent(const std::function<void()>& child_main,
                          const std::function<pid_t()>& fork_fn) {
  const pid_t parent = ::getpid();
  const pid_t pid = fork_fn ? fork_fn() : ::fork();
  if (pid == 0) {
    g_parent = parent;
    struct sigaction sa {};
    sa.sa_handler = exit_if_orphaned;
    sa.sa_flags = SA_RESTART;  // a blocking read survives an ignored signal
    sigemptyset(&sa.sa_mask);
    ::sigaction(kParentDeathSignal, &sa, nullptr);
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, kParentDeathSignal);
    ::pthread_sigmask(SIG_UNBLOCK, &set, nullptr);
    arm_parent_death(kParentDeathSignal, parent);
    child_main();
    ::_exit(1);  // child_main must not return
  }
  return pid;
}

ForkThread::ForkThread() : thread_([this] { loop(); }) {}

ForkThread::~ForkThread() {
  {
    par::MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

pid_t ForkThread::fork(const std::function<void()>& child_main) {
  Job job{&child_main};
  par::MutexLock lock(mu_);
  while (job_ != nullptr) lock.wait(cv_);  // one fork at a time
  job_ = &job;
  cv_.notify_all();
  while (!job.done) lock.wait(cv_);
  return job.pid;
}

void ForkThread::loop() {
  par::MutexLock lock(mu_);
  for (;;) {
    while (!stopping_ && job_ == nullptr) lock.wait(cv_);
    if (stopping_) return;
    Job& job = *job_;
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid == 0) {
      // The child: this thread is its only one, and it must not touch mu_,
      // which the copy it inherited holds locked.
      arm_parent_death(SIGKILL, parent);
      (*job.child_main)();
      ::_exit(1);  // child_main must not return
    }
    job.pid = pid;
    job.done = true;
    job_ = nullptr;
    cv_.notify_all();
  }
}

}  // namespace pfact::serve
