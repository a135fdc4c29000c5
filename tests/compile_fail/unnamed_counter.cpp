// Seeded defect for PL001 counter-unnamed: a Counter row without its kebab
// name. Every extractor names both columns of a ROW0 row, so the short row
// is a preprocessor error, not a counter that prints as "?".
#include "obs/taxonomy.h"

#define SEEDED_COUNTER_ROWS(X) \
  X(kElimSteps, "elim-steps")  \
  X(kRowUpdates)

enum class SeededCounter { SEEDED_COUNTER_ROWS(PFACT_ROW0_ID) };
