// Seeded defect for PL012 frontend-status-unmapped: a FrontendStatus row
// whose name is not kebab-case, so it could not key a log line or a bench
// JSON field the way every other status does.
#include <array>

#include "obs/counters.h"
#include "robustness/diagnostics.h"

namespace pfact::serve {

#define SEEDED_FRONTEND_STATUS_ROWS(X)                                    \
  X(kAccepted, "accepted", kOk, kFrontendAccepted)                        \
  X(kMalformedFrame, "Malformed_Frame", kBadInput, kFrontendMalformed)

inline constexpr std::array kSeededFrontendStatusNames{
    SEEDED_FRONTEND_STATUS_ROWS(PFACT_ROW2_NAME)};
PFACT_TAXONOMY_CHECK_NAMES(kSeededFrontendStatusNames);

}  // namespace pfact::serve
