#include "serve/worker_pool.h"

#include <signal.h>
#include <sys/wait.h>

#include <cstring>
#include <string>

namespace pfact::serve {

void classify_wait_status(int status, bool watchdog_fired,
                          std::chrono::milliseconds watchdog, WorkerRun& run) {
  if (watchdog_fired) {
    run.exit = WorkerExit::kWatchdog;
    run.term_signal = SIGKILL;
    run.detail = "watchdog deadline (" + std::to_string(watchdog.count()) +
                 "ms) expired; worker SIGKILLed";
  } else if (WIFEXITED(status)) {
    run.exit_code = WEXITSTATUS(status);
    if (run.exit_code == 0) {
      run.exit = run.has_result ? WorkerExit::kCompleted
                                : WorkerExit::kProtocolError;
      if (!run.has_result && run.detail.empty()) {
        run.detail = "worker exited 0 without a result frame";
      }
    } else {
      run.exit = WorkerExit::kNonzeroExit;
      run.detail = "worker exited with status " +
                   std::to_string(run.exit_code);
    }
  } else if (WIFSIGNALED(status)) {
    run.term_signal = WTERMSIG(status);
    if (run.term_signal == SIGXCPU) {
      run.exit = WorkerExit::kCpuLimit;
      run.detail = "worker hit RLIMIT_CPU (SIGXCPU)";
    } else {
      run.exit = WorkerExit::kSignalled;
      run.detail = "worker killed by signal " +
                   std::to_string(run.term_signal) + " (" +
                   ::strsignal(run.term_signal) + ")";
    }
  } else {
    run.exit = WorkerExit::kProtocolError;
    run.detail = "unrecognized waitpid status " + std::to_string(status);
  }
}

}  // namespace pfact::serve
