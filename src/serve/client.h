#pragma once
// Client library for the socket front end — the other half of the
// fault-tolerance story. The frontend classifies every way a conversation
// can end; the client maps each classification into the robustness
// taxonomy's retry table and acts on it, so a caller sees exactly the same
// decision surface as an in-process resilient_run: transient failures are
// retried with seeded exponential backoff (the SAME RetryPolicy::backoff
// arithmetic as the supervisor — bit-identical delay sequences for a given
// seed), deterministic refusals fail fast.
//
// One submit() is a sequence of attempts. Each attempt writes one kRequest
// frame and reads one kResponse frame under a deadline, on a connection the
// client keeps: after a kAccepted answer the stream sits at a frame
// boundary, so the next submit reuses it instead of paying a new connect.
// Anything else ends the connection — a refusal (the frontend hangs up
// after one), a deadline, a torn or malformed response, or a sabotaged
// attempt — because a failed conversation leaves a stream in an unknowable
// state and reconnecting is the only sound resync.
//
// A kept connection can be stale: the frontend restarted, drained, or its
// process died while the connection idled. When the write fails, or the
// read ends in EOF or a reset before any response byte arrives, the attempt
// reconnects to the same address once, at once, and resends. That resend is
// sound — the request is a pure function of the task and every answer is
// re-verified — and it is not a retry: it sleeps no backoff and counts in
// neither `attempts` nor kClientRetries, so the backoff sequence stays
// bit-identical to RetryPolicy::backoff. A deadline on a kept connection is
// never resent: a wedged server costs exactly one bounded attempt.
//
// The outcome is classified from whichever layer refused first:
//
//   * transport never answered (connect refused, reset, torn response,
//     deadline)                    -> Diagnostic::kConnReset / kDeadline...
//   * the frontend refused        -> diagnose_frontend_status(status)
//   * the service answered        -> the supervised report rides through
//
// The chaos harness plugs in here: ClientOptions::fault lets one attempt
// sabotage ITSELF (torn frame, dribble, stall, garbage — NetFaultPlan),
// which is how the --net soak proves the retry loop carries a submission
// through any single network fault to a bit-equal certified answer. A
// fault-sabotaged attempt always runs on a fresh connection of its own and
// is always retried as transient, whatever the server answered: the
// injector corrupted the transport, so a clean retry is sound — while in
// production a kMalformedFrame refusal is FATAL (the client's own framing is
// broken; resending identical bytes cannot help).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "robustness/diagnostics.h"
#include "robustness/escalation.h"
#include "robustness/retry.h"
#include "serve/frontend.h"
#include "serve/wire.h"

namespace pfact::serve {

struct ClientOptions {
  // Where to connect: a Unix socket path, or TCP to 127.0.0.1:tcp_port.
  std::string unix_path;
  bool tcp = false;
  std::uint16_t tcp_port = 0;
  // Retry policy: attempts per submit and the seeded backoff between them,
  // mirroring the supervisor's arithmetic exactly.
  robustness::RetryPolicy retry;
  // Deadline for one attempt's response, from the attempt's start (a
  // stale-connection resend shares it).
  std::chrono::milliseconds response_deadline{10'000};
  // Sleeps backoff delays when set; null sleeps for real. Tests install a
  // recorder to assert the delay sequence without waiting it out.
  std::function<void(std::chrono::milliseconds)> sleeper;
  // Network chaos: sabotage attempt `fault.on_attempt` with this shape.
  NetFaultPlan fault;
};

struct ClientResult {
  // True iff a kAccepted response arrived and decoded.
  bool ok = false;
  // The frontend's classification of the LAST attempt's conversation (for
  // transport-level deaths where no response arrived, the client's own
  // inference: kConnReset or kDeadline).
  FrontendStatus status = FrontendStatus::kConnReset;
  // The same, mapped into the retry taxonomy (what drove retry/fail-fast).
  robustness::Diagnostic diagnostic = robustness::Diagnostic::kConnReset;
  robustness::FailureKind outcome = robustness::FailureKind::kTransient;
  // Wire-level verdict of the last attempt's response read.
  WireStatus wire = WireStatus::kOk;
  // Valid when a response frame arrived and decoded (ok or classified).
  FrontendResponse response;
  std::size_t attempts = 0;
  // Connections this submit opened: 0 when it rode a kept connection.
  std::size_t connects = 0;
  // The backoff slept before each retry, in order — bit-reproducible from
  // retry.jitter_seed.
  std::vector<std::chrono::milliseconds> backoffs;
};

// One Client serves one caller at a time (the router pools them per shard).
class Client {
 public:
  // Ignores SIGPIPE process-wide (a vanished server must surface as a
  // classified EPIPE, never kill the client), same disposition the serve
  // layer's pools install.
  explicit Client(ClientOptions options);
  ~Client();  // closes a kept connection

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Submits one task through the retry loop. Blocking; never throws.
  ClientResult submit(const robustness::ReductionTask& task);

  // True while the connection of an earlier accepted answer is kept.
  bool connected() const { return fd_ >= 0; }

 private:
  // Defaults describe a transport that died before any response.
  struct Attempt {
    bool got_response = false;
    FrontendResponse response;
    WireStatus wire = WireStatus::kConnReset;
    FrontendStatus status = FrontendStatus::kConnReset;
    bool fault_injected = false;
  };

  int connect_once();
  void disconnect();
  // Reads and decodes one response frame from `fd` by `deadline`.
  static Attempt read_response(int fd,
                               std::chrono::steady_clock::time_point deadline,
                               bool* any_byte);
  Attempt exchange(const std::string& frame,
                   std::chrono::steady_clock::time_point deadline,
                   bool& stale);
  Attempt run_attempt(const robustness::ReductionTask& task,
                      std::size_t attempt_no);

  ClientOptions options_;
  int fd_ = -1;               // the kept connection, or -1
  std::size_t connects_ = 0;  // connections opened over the client's life
};

}  // namespace pfact::serve
