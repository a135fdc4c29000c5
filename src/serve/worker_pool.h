#pragma once
// How a sandboxed worker process ended: the WorkerExit taxonomy, the
// WorkerRun record one job produces, and the waitpid classification table
// behind both.
//
// The classification is the pool's own taxonomy of HOW the process ended,
// which the supervisor then maps into the robustness Diagnostic taxonomy
// (diagnose_worker_exit in supervisor.h). Keeping the two taxonomies
// separate keeps waitpid plumbing out of the retry/escalation logic.

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "robustness/diagnostics.h"
#include "serve/wire.h"

namespace pfact::serve {

// How a worker subprocess ended, from the supervisor's chair. Total: every
// waitpid outcome lands in exactly one class (pfact_lint rule PL009 checks
// that each class has a printable name, a Diagnostic mapping, and soak
// coverage).
enum class WorkerExit {
  kCompleted,      // exit(0) AND a decodable result frame arrived
  kNonzeroExit,    // exited by itself with a nonzero status
  kSignalled,      // killed by a signal (SIGSEGV, SIGKILL, SIGABRT, ...)
  kCpuLimit,       // terminated by SIGXCPU: the RLIMIT_CPU sandbox fired
  kWatchdog,       // SIGKILLed by this pool's own watchdog deadline
  kProtocolError,  // exited 0 but the result frame is missing or corrupt
  kForkFailure,    // fork()/pipe() failed: no worker ever existed
};

inline const char* worker_exit_name(WorkerExit e) {
  switch (e) {
    case WorkerExit::kCompleted: return "completed";
    case WorkerExit::kNonzeroExit: return "nonzero-exit";
    case WorkerExit::kSignalled: return "signalled";
    case WorkerExit::kCpuLimit: return "cpu-limit";
    case WorkerExit::kWatchdog: return "watchdog";
    case WorkerExit::kProtocolError: return "protocol-error";
    case WorkerExit::kForkFailure: return "fork-failure";
  }
  return "?";
}

// The sweepable taxonomy, for the soak harness's coverage assertion (every
// death class the pool can report must actually be produced and survived
// by a real-kill campaign). kCompleted is included: a sweep that never
// completes anything proves nothing.
inline const std::vector<WorkerExit>& all_worker_exits() {
  static const std::vector<WorkerExit> classes = {
      WorkerExit::kCompleted,  WorkerExit::kNonzeroExit,
      WorkerExit::kSignalled,  WorkerExit::kCpuLimit,
      WorkerExit::kWatchdog,   WorkerExit::kProtocolError,
      WorkerExit::kForkFailure};
  return classes;
}

// Classifies a reaped waitpid status into run.exit / exit_code /
// term_signal / detail — the one table behind every WorkerExit the pool
// (warm_pool.h) reports. `watchdog` is
// the armed deadline (for the detail string); `watchdog_fired` wins over
// the raw status because the SIGKILL it delivered is the supervisor's own.
struct WorkerRun;
void classify_wait_status(int status, bool watchdog_fired,
                          std::chrono::milliseconds watchdog, WorkerRun& run);

// Everything one worker lifetime produced.
struct WorkerRun {
  WorkerExit exit = WorkerExit::kProtocolError;
  int exit_code = 0;    // WIFEXITED status (kCompleted / kNonzeroExit)
  int term_signal = 0;  // WTERMSIG (kSignalled / kCpuLimit / kWatchdog)
  bool has_result = false;
  robustness::RunReport result;  // valid iff has_result
  std::size_t checkpoints_received = 0;  // envelope-verified, filed
  std::size_t checkpoints_rejected = 0;  // failed the envelope check
  std::string detail;  // human-readable death/protocol description
};

}  // namespace pfact::serve
