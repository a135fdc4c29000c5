// Seeded defect for PL005 diagnostic-unclassified: a Diagnostic row with no
// FailureKind leg. classify_diagnostic reads that leg, so a diagnostic the
// retry loop cannot classify is a preprocessor error.
#include "robustness/diagnostics.h"

namespace pfact::robustness {

#define SEEDED_DIAGNOSTIC_ROWS(X) \
  X(kOk, "ok", kSuccess)          \
  X(kMystery, "mystery")

enum class SeededDiagnostic { SEEDED_DIAGNOSTIC_ROWS(PFACT_ROW1_ID) };

}  // namespace pfact::robustness
