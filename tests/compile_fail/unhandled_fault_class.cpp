// Seeded defect for PL004 fault-class-unhandled: a FaultClass row without
// its name. The sweep is generated from the same rows, so the only way to
// leave a fault class out of fault_class_name() is a short row, which the
// extractor rejects.
#include "obs/taxonomy.h"

#define SEEDED_FAULT_CLASS_ROWS(X) \
  X(kNone, "none")                 \
  X(kBitFlip, "bit-flip")          \
  X(kRoundingFlip)

enum class SeededFaultClass { SEEDED_FAULT_CLASS_ROWS(PFACT_ROW0_ID) };
