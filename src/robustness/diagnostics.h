#pragma once
// Structured diagnostics for guarded reduction runs.
//
// The paper's reductions (Thm 3.1/3.4/4.1) only work if the factorization
// produces bit-exact encoded booleans; any perturbation of A_C, a rounding
// slip, or a pivot anomaly silently corrupts the decoded circuit value.
// RunReport replaces the seed's bare `ok=false` with a classified verdict:
// every failure mode the fault-injection suite can produce maps to a
// distinct Diagnostic, together with the offending position and a pivot
// trace excerpt, so a failed run is *explainable* — never just "not ok".
//
// Contract (see DESIGN.md): detection, not correction. A guarded run either
// returns kOk with a value certified against the direct circuit evaluation,
// or a non-kOk diagnostic. It never returns a plausible-but-wrong value.

#include <array>
#include <cstddef>
#include <string>

#include "factor/pivot_trace.h"
#include "obs/counters.h"
#include "obs/taxonomy.h"

namespace pfact::robustness {

// What a failed run's diagnostic says to do next — the whole decision table
// of resilient_run.h (see retry.h for the policy behind each kind).
enum class FailureKind {
  kSuccess,        // diagnostic == kOk: nothing to handle
  kTransient,      // retry on the same substrate
  kDeterministic,  // escalate to a higher-precision substrate
  kFatal,          // fail immediately, no retry, no escalation
};

// One row per diagnostic (see obs/taxonomy.h): its name and the FailureKind
// classify_diagnostic maps it to.
//   kTransient     — environment, preemption or storage: the computation
//                    itself was never refuted, only interrupted or run in a
//                    poisoned moment.
//   kDeterministic — the arithmetic on this substrate produced these bits
//                    and will again: only more precision can change the
//                    outcome.
//   kFatal         — malformed input or a library bug: unrecoverable by
//                    construction.
#define PFACT_DIAGNOSTIC_ROWS(X)                                               \
  X(kOk, "ok", kSuccess) /* decode clean AND certified by cross-check */       \
  /* malformed instance (arity, encoding, size cap) */                         \
  X(kBadInput, "bad-input", kFatal)                                            \
  /* output entry is not an exact encoded 0/1 */                               \
  X(kDecodeNotBoolean, "decode-not-boolean", kDeterministic)                   \
  /* zero or multiple live rows at the decode column */                        \
  X(kDecodeAmbiguous, "decode-ambiguous", kDeterministic)                      \
  /* float decode outside the accepted band of +/-1 */                         \
  X(kDecodeOutOfTolerance, "decode-out-of-tolerance", kDeterministic)          \
  /* decode clean but contradicts direct evaluation */                         \
  X(kCrossCheckMismatch, "cross-check-mismatch", kDeterministic)               \
  /* unexpected skip/fail event in the pivot trace */                          \
  X(kPivotAnomaly, "pivot-anomaly", kDeterministic)                            \
  /* arithmetic substrate is not round-to-nearest-even: the FPU state          \
     flipped under us */                                                       \
  X(kRoundingAnomaly, "rounding-anomaly", kTransient)                          \
  /* SoftFloat saturation / BigInt growth-limit hit */                         \
  X(kNumericOverflow, "numeric-overflow", kDeterministic)                      \
  /* NaN/inf or degenerate (zero-norm) rotation */                             \
  X(kNumericNonFinite, "numeric-non-finite", kDeterministic)                   \
  /* an engine invariant tripped (non-unit pivot, ...) */                      \
  X(kInvariantViolation, "invariant-violation", kDeterministic)                \
  /* the run consumed more steps than its budget: preempted by its own         \
     budget */                                                                 \
  X(kStepBudgetExceeded, "step-budget-exceeded", kTransient)                   \
  /* the run overran its wall-clock deadline */                                \
  X(kDeadlineExceeded, "deadline-exceeded", kTransient)                        \
  /* cooperative cancellation fired mid-run */                                 \
  X(kCancelled, "cancelled", kTransient)                                       \
  /* allocation failure (std::bad_alloc) mid-run, under memory pressure */     \
  X(kResourceExhausted, "resource-exhausted", kTransient)                      \
  /* a resume checkpoint failed CRC/version/shape: a torn write; the retry     \
     re-resumes */                                                             \
  X(kCheckpointCorrupt, "checkpoint-corrupt", kTransient)                      \
  /* a pool worker failed with an unclassified error */                        \
  X(kWorkerFailure, "worker-failure", kTransient)                              \
  /* anything else — a bug in this library */                                  \
  X(kInternalError, "internal-error", kFatal)                                  \
  /* admission control shed the job (queue saturated): the work was            \
     refused, never refuted */                                                 \
  X(kOverloaded, "overloaded", kTransient)                                     \
  /* a network peer vanished mid-conversation; the request may never have      \
     been seen — reconnect and resubmit */                                     \
  X(kConnReset, "connection-reset", kTransient)

enum class Diagnostic { PFACT_DIAGNOSTIC_ROWS(PFACT_ROW1_ID) };

inline constexpr std::array kDiagnosticNames{
    PFACT_DIAGNOSTIC_ROWS(PFACT_ROW1_NAME)};
PFACT_TAXONOMY_CHECK_NAMES(kDiagnosticNames);
inline constexpr std::size_t kNumDiagnostics = kDiagnosticNames.size();
inline constexpr std::array kDiagnosticKinds =
    PFACT_TAXONOMY_LEGS(FailureKind, PFACT_DIAGNOSTIC_ROWS, PFACT_ROW1_LEG);

inline const char* diagnostic_name(Diagnostic d) {
  return obs::row_or(kDiagnosticNames, d, "?");
}

inline constexpr std::size_t kNoPosition = static_cast<std::size_t>(-1);

struct RunReport {
  Diagnostic diagnostic = Diagnostic::kInternalError;

  // Valid only when diagnostic == kOk.
  bool value = false;

  std::string algorithm;         // "GEM" / "GEMS" / "GEP" / "GQR"
  std::size_t order = 0;         // order of the matrix actually run
  double decoded_entry = 0.0;    // raw entry/encoding read at decode time
  std::size_t steps_used = 0;    // guard ticks consumed

  // Where the failure was observed (matrix position or step index);
  // kNoPosition when not applicable.
  std::size_t offending_row = kNoPosition;
  std::size_t offending_col = kNoPosition;

  std::string detail;         // human-readable cause
  std::string pivot_excerpt;  // tail of the pivot trace, when one exists
  std::string injection;      // what the fault injector did (replay aid)

  // The complete pivot trace of the run (empty for GQR, which pivots by
  // rotation). For a resumed run this is the checkpoint's stored prefix
  // concatenated with the freshly executed suffix, so crash/resume
  // equivalence can be asserted event-for-event against an uninterrupted
  // run, not just on the excerpt string.
  factor::PivotTrace trace;

  // Op-counter deltas covering exactly this run (all-zero when the
  // observability layer is compiled out with PFACT_OBS=OFF).
  obs::CounterDelta metrics;

  bool ok() const { return diagnostic == Diagnostic::kOk; }

  std::string to_string() const {
    std::string s = "[" + algorithm + "] " + diagnostic_name(diagnostic);
    if (ok()) s += value ? " value=true" : " value=false";
    s += " order=" + std::to_string(order);
    s += " steps=" + std::to_string(steps_used);
    if (offending_row != kNoPosition || offending_col != kNoPosition) {
      auto fmt = [](std::size_t v) {
        return v == kNoPosition ? std::string("-") : std::to_string(v);
      };
      s += " at=(" + fmt(offending_row) + "," + fmt(offending_col) + ")";
    }
    if (!detail.empty()) s += " — " + detail;
    if (!injection.empty()) s += " [injected: " + injection + "]";
    if (!pivot_excerpt.empty()) s += "\n  trace: " + pivot_excerpt;
    return s;
  }
};

}  // namespace pfact::robustness
