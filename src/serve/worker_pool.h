#pragma once
// How a sandboxed worker process ended: the WorkerExit taxonomy, the
// WorkerRun record one job produces, and the waitpid classification table
// behind both.
//
// The classification is the pool's own taxonomy of HOW the process ended;
// each class's row also names the robustness Diagnostic it maps to
// (diagnose_worker_exit). Keeping the two taxonomies separate keeps waitpid
// plumbing out of the retry/escalation logic.

#include <array>
#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "obs/taxonomy.h"
#include "robustness/diagnostics.h"
#include "serve/wire.h"

namespace pfact::serve {

// How a worker subprocess ended, from the supervisor's chair, one row per
// class (see obs/taxonomy.h). Total: every waitpid outcome lands in exactly
// one class. The Diagnostic leg is what the retry loop should think
// happened: every death class lands on a *transient* diagnostic — a fresh
// worker on the same substrate is always worth one more try, and the retry
// budget bounds the attempts.
#define PFACT_WORKER_EXIT_ROWS(X)                                              \
  /* exit(0) AND a decodable result frame arrived; the result frame's own      \
     diagnostic governs */                                                     \
  X(kCompleted, "completed", kOk)                                              \
  /* exited by itself with a nonzero status */                                 \
  X(kNonzeroExit, "nonzero-exit", kWorkerFailure)                              \
  /* killed by a signal (SIGSEGV, SIGKILL, SIGABRT, ...) */                    \
  X(kSignalled, "signalled", kWorkerFailure)                                   \
  /* terminated by SIGXCPU: the RLIMIT_CPU sandbox fired */                    \
  X(kCpuLimit, "cpu-limit", kResourceExhausted)                                \
  /* SIGKILLed by this pool's own watchdog deadline */                         \
  X(kWatchdog, "watchdog", kDeadlineExceeded)                                  \
  /* exited 0 but the result frame is missing or corrupt */                    \
  X(kProtocolError, "protocol-error", kWorkerFailure)                          \
  /* fork()/pipe() failed: no worker ever existed (out of pids/memory;         \
     retry later) */                                                           \
  X(kForkFailure, "fork-failure", kResourceExhausted)

enum class WorkerExit { PFACT_WORKER_EXIT_ROWS(PFACT_ROW1_ID) };

inline constexpr std::array kWorkerExitNames{
    PFACT_WORKER_EXIT_ROWS(PFACT_ROW1_NAME)};
PFACT_TAXONOMY_CHECK_NAMES(kWorkerExitNames);
inline constexpr std::array kWorkerExitDiagnoses = PFACT_TAXONOMY_LEGS(
    robustness::Diagnostic, PFACT_WORKER_EXIT_ROWS, PFACT_ROW1_LEG);

inline const char* worker_exit_name(WorkerExit e) {
  return obs::row_or(kWorkerExitNames, e, "?");
}

// The sweepable taxonomy, for the soak harness's coverage assertion (every
// death class the pool can report must actually be produced and survived
// by a real-kill campaign). kCompleted is included: a sweep that never
// completes anything proves nothing.
inline const std::vector<WorkerExit>& all_worker_exits() {
  return obs::sweep<WorkerExit, kWorkerExitNames.size()>();
}

inline robustness::Diagnostic diagnose_worker_exit(WorkerExit e) {
  return obs::row_or(kWorkerExitDiagnoses, e,
                     robustness::Diagnostic::kInternalError);
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
