#pragma once
// The resilient execution driver: guard -> checkpoint -> classify ->
// retry/escalate, composed into one supervised loop.
//
// One call runs a ReductionTask to a CERTIFIED answer or a classified
// terminal failure, never anything in between (the "zero plausible-but-
// wrong answers" contract — inherited from the guarded drivers' cross-check
// and preserved by construction here, because every rung's answer passes
// through the same certificate).
//
// The loop, per rung of the substrate ladder (escalation.h):
//
//   attempt -> classify (retry.h) -> | success       -> return certified
//                                    | fatal         -> return terminal
//                                    | transient     -> backoff, resume from
//                                    |                  last good checkpoint,
//                                    |                  retry this rung
//                                    | deterministic -> climb one rung
//
// Exhausting a rung's retry budget on transients also climbs (the rung is
// treated as unviable here-and-now); exhausting the ladder returns the last
// report as a terminal failure. Checkpoints are field-tagged, so the store
// is cleared on every climb. The loop is run_ladder below, written once:
// resilient_run plugs in an in-process attempt, serve::supervised_run a
// sandboxed-worker attempt.
//
// Determinism: with a fixed ResilientOptions (policy seed, fault schedule)
// the whole attempt log — diagnostics, backoff delays, escalations — is
// bit-reproducible. Backoff delays are RECORDED on every retry but only
// SLEPT when the caller installs a sleeper, so tests and soak campaigns
// replay at full speed.

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "robustness/checkpoint.h"
#include "robustness/diagnostics.h"
#include "robustness/escalation.h"
#include "robustness/fault_injector.h"
#include "robustness/guarded_run.h"
#include "robustness/retry.h"

namespace pfact::robustness {

// One guarded attempt, as the supervisor saw it.
struct AttemptRecord {
  Substrate substrate = Substrate::kDouble;
  std::size_t attempt = 0;  // 1-based index within the rung
  Diagnostic diagnostic = Diagnostic::kInternalError;
  FailureKind kind = FailureKind::kFatal;
  // Backoff recorded before THIS attempt (zero for a rung's first attempt).
  std::chrono::milliseconds backoff{0};
  bool resumed = false;     // started from a validated checkpoint
  std::string detail;

  std::string to_string() const;
};

struct ResilientOptions {
  RetryPolicy retry;
  GuardLimits limits;
  // Ladder override; empty means default_ladder(task.algorithm).
  std::vector<Substrate> ladder;
  // Checkpoint cadence (guard steps between snapshots); 0 disables
  // checkpointing entirely.
  std::size_t checkpoint_every = 0;
  // External checkpoint store (crash/resume harnesses pre-populate one);
  // nullptr uses a private store.
  CheckpointStore* store = nullptr;
  // Chaos schedule: the fault plan injected into global attempt k (1-based,
  // across rungs). Null means no injected faults.
  std::function<FaultPlan(std::size_t attempt)> fault_for_attempt;
  // Sleeps backoff delays when installed; null records them without
  // sleeping (the deterministic default).
  std::function<void(std::chrono::milliseconds)> sleeper;
};

struct ResilientReport {
  // True iff the run ended kOk — i.e. decoded AND certified by the direct-
  // evaluation cross-check on the rung named below.
  bool certified = false;
  bool value = false;
  Substrate certified_by = Substrate::kDouble;

  FailureKind outcome = FailureKind::kFatal;  // kSuccess when certified
  RunReport final_report;                     // the deciding attempt's report
  std::vector<AttemptRecord> attempts;        // the full supervised log
  std::size_t escalations = 0;                // rungs climbed

  std::string to_string() const;
};

// What one attempt hands back to the ladder.
struct AttemptResult {
  RunReport report;
  // The attempt started from a stored snapshot. Each attempt callable
  // defines this for its own path (in-process: checkpointing on and the
  // store non-empty; worker: a resume blob was handed over the pipe).
  bool had_checkpoint = false;
};

// One attempt on `substrate`: `global_attempt` is 1-based across rungs,
// `fault` is options.fault_for_attempt's plan for it (or none), and `store`
// is the run's checkpoint store (cleared by the ladder on every climb).
using AttemptFn = std::function<AttemptResult(
    Substrate substrate, std::size_t global_attempt, const FaultPlan& fault,
    CheckpointStore& store)>;

// The retry/escalation loop described above, shared by every execution
// path: rung skip, store clear on climb, backoff record (and sleep),
// classification, drop_latest on a corrupt checkpoint, and the
// retry-attempt / escalation counters. `attempt` runs one try — in-process
// (resilient_run) or in a sandboxed worker (serve::supervised_run).
ResilientReport run_ladder(const ReductionTask& task,
                           const ResilientOptions& options,
                           const AttemptFn& attempt);

// run_ladder with in-process attempts: run_on_substrate on this thread.
ResilientReport resilient_run(const ReductionTask& task,
                              const ResilientOptions& options = {});

}  // namespace pfact::robustness
