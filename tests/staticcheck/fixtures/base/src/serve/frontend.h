#pragma once
// staticcheck fixture: a status row list whose counter leg is the only
// increment site of Counter::kFrontendAccepted. Not compiled — parsed only.

namespace pfact::serve {

#define PFACT_FRONTEND_STATUS_ROWS(X) \
  X(kAccepted, "accepted", kOk, kFrontendAccepted)

}  // namespace pfact::serve
