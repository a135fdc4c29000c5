// Seeded defect for PL010 serve-rejection-unmapped: an Admission row with no
// Diagnostic leg. A shed class that clients could not classify as
// retryable is a preprocessor error.
#include "robustness/diagnostics.h"

namespace pfact::serve {

#define SEEDED_ADMISSION_ROWS(X)                       \
  X(kAccepted, "accepted", kOk)                        \
  X(kShedQueueFull, "shed-queue-full", kOverloaded)    \
  X(kShedMystery, "shed-mystery")

enum class SeededAdmission { SEEDED_ADMISSION_ROWS(PFACT_ROW1_ID) };

}  // namespace pfact::serve
