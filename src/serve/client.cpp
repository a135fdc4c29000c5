#include "serve/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <thread>

#include "obs/counters.h"
#include "obs/trace.h"
#include "robustness/checkpoint.h"

namespace pfact::serve {

namespace {

using robustness::detail::ByteWriter;

// The complete on-wire bytes of one frame — the client builds frames by
// hand (rather than through write_frame) so the fault injector can tear,
// dribble, and mangle them at byte granularity.
std::string frame_bytes(FrameType type, std::string_view payload) {
  ByteWriter w;
  w.reserve(kFrameHeaderBytes + payload.size());
  w.put_u32(kFrameMagic);
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_u64(payload.size());
  w.put_u32(robustness::crc32(payload.data(), payload.size()));
  w.put_bytes(payload.data(), payload.size());
  return w.take();
}

// Writes exactly [data, data+n), absorbing EINTR and partial writes.
// False = the peer is gone (EPIPE/ECONNRESET) or the fd broke.
bool write_all(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

// Completes a connect() that a signal interrupted. POSIX leaves the attempt
// in flight after EINTR — the socket keeps connecting in the background —
// so the right move is to wait for writability and read the real verdict
// from SO_ERROR. Reporting the interruption itself as "refused" would turn
// every SIGCHLD burst from the shard router's reaper into a spurious
// kConnReset on an otherwise healthy connection.
bool finish_connect(int fd) {
  pollfd p{};
  p.fd = fd;
  p.events = POLLOUT;
  for (;;) {
    const int pr = ::poll(&p, 1, 1000);
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) return false;
    break;
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return false;
  return err == 0;
}

FrontendStatus status_for_wire(WireStatus s) {
  // Transport verdicts collapse into the two client-inferable statuses: a
  // deadline is a deadline; everything else that stopped a response from
  // arriving intact reads as "the conversation was reset" — including a
  // desynchronized or corrupt response stream, where reconnecting is the
  // only sound recovery.
  return s == WireStatus::kTimeout ? FrontendStatus::kDeadline
                                   : FrontendStatus::kConnReset;
}

}  // namespace

Client::Client(ClientOptions options) : options_(std::move(options)) {
  // A server that hangs up mid-write must surface as a classified EPIPE,
  // never a SIGPIPE death — the same disposition the serve pools install.
  ::signal(SIGPIPE, SIG_IGN);
}

Client::~Client() { disconnect(); }

void Client::disconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

int Client::connect_once() {
  int fd = -1;
  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) return -1;
    std::memcpy(addr.sun_path, options_.unix_path.c_str(),
                options_.unix_path.size() + 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0 &&
        !(errno == EINTR && finish_connect(fd))) {
      ::close(fd);
      return -1;
    }
  } else if (options_.tcp) {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.tcp_port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0 &&
        !(errno == EINTR && finish_connect(fd))) {
      ::close(fd);
      return -1;
    }
  } else {
    return -1;
  }
  ++connects_;
  return fd;
}

Client::Attempt Client::read_response(
    int fd, std::chrono::steady_clock::time_point deadline, bool* any_byte) {
  Attempt a;
  FrameType type = FrameType::kRequest;
  std::string payload;
  a.wire = read_frame(fd, type, payload, deadline, any_byte);
  if (a.wire != WireStatus::kOk) {
    a.status = status_for_wire(a.wire);
    return a;
  }
  if (type != FrameType::kResponse ||
      !decode_response(payload, a.response)) {
    a.wire = WireStatus::kMalformed;
    a.status = FrontendStatus::kConnReset;  // desynced stream: reconnect
    return a;
  }
  a.got_response = true;
  a.status = a.response.status;
  return a;
}

Client::Attempt Client::exchange(
    const std::string& frame, std::chrono::steady_clock::time_point deadline,
    bool& stale) {
  const bool reused = fd_ >= 0;
  stale = false;
  if (!reused) fd_ = connect_once();
  // Nobody listening (or refused): the transport-level transient.
  if (fd_ < 0) return Attempt{};
  if (!write_all(fd_, frame.data(), frame.size())) {
    stale = reused;
    return Attempt{};
  }
  bool any_byte = false;
  Attempt a = read_response(fd_, deadline, &any_byte);
  stale = reused && !any_byte &&
          (a.wire == WireStatus::kEof || a.wire == WireStatus::kConnReset);
  return a;
}

Client::Attempt Client::run_attempt(const robustness::ReductionTask& task,
                                    std::size_t attempt_no) {
  PFACT_SPAN("serve.client");
  TaskRequest req;
  req.task = task;
  const std::string frame = frame_bytes(FrameType::kRequest,
                                        encode_request(req));

  const NetFaultPlan& fault = options_.fault;
  const bool sabotage = fault.fault != NetFault::kNone &&
                        fault.on_attempt != 0 &&
                        attempt_no == fault.on_attempt;
  if (!sabotage) {
    const auto deadline =
        std::chrono::steady_clock::now() + options_.response_deadline;
    bool stale = false;
    Attempt a = exchange(frame, deadline, stale);
    if (stale) {
      // The kept connection died while it idled: one immediate reconnect
      // to the same address, inside this attempt and its deadline.
      disconnect();
      a = exchange(frame, deadline, stale);
    }
    if (!a.got_response || a.status != FrontendStatus::kAccepted) {
      disconnect();
    }
    return a;
  }

  // The sabotage runs on a connection of its own, closed when it ends.
  disconnect();
  const int fd = connect_once();
  if (fd < 0) return Attempt{};
  const std::uint64_t r = robustness::mix64(fault.seed, attempt_no);
  bool wrote_ok = true;
  switch (fault.fault) {
    case NetFault::kNone: break;  // unreachable: sabotage implies a shape
    case NetFault::kTornFrame: {
      // A strict prefix, then vanish — the mid-request client death.
      const std::size_t cut =
          1 + static_cast<std::size_t>(r % (frame.size() - 1));
      write_all(fd, frame.data(), cut);
      wrote_ok = false;
      break;
    }
    case NetFault::kMidFrameClose: {
      // Die INSIDE the 17-byte header: the server must not even have a
      // declared length to wait for.
      const std::size_t cut =
          1 + static_cast<std::size_t>(r % (kFrameHeaderBytes - 1));
      write_all(fd, frame.data(), cut);
      wrote_ok = false;
      break;
    }
    case NetFault::kDribble: {
      // The whole frame, one byte per write: a correct-but-slow client.
      // This shape must SUCCEED — it proves partial-read resumption.
      for (std::size_t i = 0; wrote_ok && i < frame.size(); ++i) {
        wrote_ok = write_all(fd, frame.data() + i, 1);
        if (i % 64 == 63) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      break;
    }
    case NetFault::kStalledReader: {
      // Half a frame, then silence with the connection held open: the
      // slowloris. The server's read deadline must evict us.
      const std::size_t cut =
          kFrameHeaderBytes + (frame.size() - kFrameHeaderBytes) / 2;
      write_all(fd, frame.data(), cut);
      std::this_thread::sleep_for(fault.stall);
      break;  // fall through to the read: expect kDeadline (or a close)
    }
    case NetFault::kGarbagePreamble: {
      // Junk where a frame should start: the protocol-confused client.
      std::string junk(16 + static_cast<std::size_t>(r % 32), '\0');
      for (std::size_t i = 0; i < junk.size(); ++i) {
        junk[i] = static_cast<char>(robustness::mix64(r, i) & 0xFF);
      }
      // Junk must not start with a valid magic byte sequence.
      junk[0] = static_cast<char>(~(kFrameMagic & 0xFF));
      write_all(fd, junk.data(), junk.size());
      break;  // expect a kMalformedFrame refusal
    }
  }
  Attempt a;
  if (wrote_ok) {
    a = read_response(
        fd, std::chrono::steady_clock::now() + options_.response_deadline,
        nullptr);
  }
  ::close(fd);
  a.fault_injected = true;
  return a;
}

ClientResult Client::submit(const robustness::ReductionTask& task) {
  ClientResult result;
  const std::size_t connects_before = connects_;
  const std::size_t max_attempts =
      options_.retry.max_attempts == 0 ? 1 : options_.retry.max_attempts;
  for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    Attempt a = run_attempt(task, attempt);
    result.attempts = attempt;
    result.wire = a.wire;
    result.status = a.status;
    if (a.got_response) result.response = a.response;

    if (a.got_response && a.status == FrontendStatus::kAccepted) {
      result.ok = true;
      result.diagnostic = robustness::Diagnostic::kOk;
      result.outcome = robustness::FailureKind::kSuccess;
      break;
    }

    result.diagnostic = diagnose_frontend_status(a.status);
    result.outcome = robustness::classify_diagnostic(result.diagnostic);
    // A self-sabotaged attempt is always worth a clean retry: the injector
    // corrupted the transport, not the request. Without injection the
    // classification governs — kMalformedFrame is kFatal and fails fast.
    const bool retryable =
        a.fault_injected ||
        result.outcome == robustness::FailureKind::kTransient;
    if (!retryable || attempt == max_attempts) break;

    const auto delay = options_.retry.backoff(attempt);
    result.backoffs.push_back(delay);
    PFACT_COUNT(kClientRetries);
    if (options_.sleeper) {
      options_.sleeper(delay);
    } else if (delay.count() > 0) {
      std::this_thread::sleep_for(delay);
    }
  }
  result.connects = connects_ - connects_before;
  return result;
}

}  // namespace pfact::serve
