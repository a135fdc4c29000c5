// EINTR regression suite (PR 10 satellite): the serve layer's poll loops
// must treat an interrupted syscall as "ask again", never as a dead peer.
//
// The sharded router multiplies SIGCHLD traffic — every shard death,
// restart, and warm-pool recycle delivers one to the parent — and a signal
// landing mid-poll() or mid-connect() makes the call fail with EINTR. A
// loop that maps that errno onto kConnReset invents outages out of thin
// air. These tests run real signal storms (handlers installed WITHOUT
// SA_RESTART, so nothing is transparently restarted for us) against
// read_frame, Client::submit, and a recycling warm pool, and assert that
// not one conversation is misclassified: every submit is accepted on its
// FIRST attempt, with zero backoffs and zero conn-reset endings.

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "circuit/builders.h"
#include "circuit/circuit.h"
#include "obs/counters.h"
#include "robustness/checkpoint.h"
#include "robustness/escalation.h"
#include "serve/client.h"
#include "serve/frontend.h"
#include "serve/queue.h"
#include "serve/wire.h"

namespace pfact::serve {
namespace {

using robustness::Algorithm;
using robustness::ReductionTask;

std::atomic<std::uint64_t> g_signals{0};

// Async-signal-safe: a lock-free relaxed increment and nothing else.
void count_signal(int) { g_signals.fetch_add(1, std::memory_order_relaxed); }

// Installs a SIGUSR1 handler with SA_RESTART deliberately CLEARED, so every
// delivery makes the interrupted syscall return EINTR instead of resuming
// silently — the harshest honest version of SIGCHLD-heavy supervision
// traffic. Restores the previous disposition on destruction.
class StormDisposition {
 public:
  StormDisposition() {
    struct sigaction sa {};
    sa.sa_handler = count_signal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // no SA_RESTART: EINTR surfaces at every call site
    sigaction(SIGUSR1, &sa, &old_);
  }
  ~StormDisposition() { sigaction(SIGUSR1, &old_, nullptr); }

 private:
  struct sigaction old_ {};
};

// Blocks until the signal counter moves past `before` — the storm's first
// delivery — or ten seconds pass. Under a loaded scheduler the storm
// thread may not run at all before a short workload finishes, so a test
// that must run UNDER the storm synchronizes on it first.
bool wait_for_delivery(std::uint64_t before) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (g_signals.load() == before) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

// Fires SIGUSR1 at a target thread (and, optionally, the whole process so
// the frontend's own poll loop catches strays too) every ~200us until
// stopped.
class SignalStorm {
 public:
  explicit SignalStorm(pthread_t target, bool process_wide = false)
      : target_(target), process_wide_(process_wide), thread_([this] {
          while (!stop_.load(std::memory_order_relaxed)) {
            pthread_kill(target_, SIGUSR1);
            if (process_wide_) ::kill(::getpid(), SIGUSR1);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }) {}
  ~SignalStorm() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

 private:
  pthread_t target_;
  bool process_wide_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

void put_u32le(std::string& s, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64le(std::string& s, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

TEST(EintrRegression, ReadFrameReassemblesThroughASignalStorm) {
  StormDisposition disposition;
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  const std::string payload = "eintr-regression-payload";
  std::string frame;
  put_u32le(frame, kFrameMagic);
  frame.push_back(static_cast<char>(FrameType::kResult));
  put_u64le(frame, payload.size());
  put_u32le(frame, robustness::crc32(payload.data(), payload.size()));
  frame += payload;

  // Dribble the frame one byte per millisecond: the reader's poll loop must
  // cross dozens of EINTR-interrupted poll() calls AND partial reads, and
  // still reassemble the exact frame.
  std::thread writer([&] {
    for (const char b : frame) {
      ASSERT_EQ(::write(sv[1], &b, 1), 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::close(sv[1]);
  });

  const std::uint64_t before = g_signals.load();
  {
    SignalStorm storm(pthread_self());
    FrameType type = FrameType::kRequest;
    std::string got;
    const WireStatus ws = read_frame(
        sv[0], type, got,
        std::chrono::steady_clock::now() + std::chrono::seconds(30));
    EXPECT_EQ(ws, WireStatus::kOk) << wire_status_name(ws);
    EXPECT_EQ(type, FrameType::kResult);
    EXPECT_EQ(got, payload);
  }
  writer.join();
  ::close(sv[0]);
  EXPECT_GT(g_signals.load(), before) << "the storm never actually landed";
}

TEST(EintrRegression, ClientSubmitIsNotMisclassifiedUnderStorm) {
  StormDisposition disposition;
  ServiceOptions so;
  so.dispatchers = 1;
  so.pool.workers = 1;
  ReductionService service(so);
  FrontendOptions fo;
  fo.unix_path =
      "/tmp/pfact_test_eintr_" + std::to_string(::getpid()) + ".sock";
  Frontend frontend(service, fo);
  ASSERT_TRUE(frontend.running());

  ReductionTask task;
  task.algorithm = Algorithm::kGem;
  task.instance = circuit::CvpInstance{circuit::xor_circuit(), {true, false}};

  ClientOptions co;
  co.unix_path = fo.unix_path;
  co.retry.max_attempts = 3;
  co.sleeper = [](std::chrono::milliseconds) {};

  const std::uint64_t before = g_signals.load();
  {
    // Storm both the submitting thread and the whole process, so the
    // frontend's poll loop and the dispatcher threads take strays too.
    SignalStorm storm(pthread_self(), /*process_wide=*/true);
    ASSERT_TRUE(wait_for_delivery(before)) << "the storm never started";
    for (int i = 0; i < 8; ++i) {
      Client client(co);
      const ClientResult res = client.submit(task);
      ASSERT_TRUE(res.ok) << frontend_status_name(res.status);
      EXPECT_EQ(res.status, FrontendStatus::kAccepted);
      // The regression being pinned: a signal mid-poll/mid-connect must not
      // read as a vanished peer. First attempt, no backoffs, no retries.
      EXPECT_EQ(res.attempts, 1u);
      EXPECT_TRUE(res.backoffs.empty());
      EXPECT_EQ(res.response.value, task.expected());
    }
  }
  EXPECT_GT(g_signals.load(), before) << "the storm never actually landed";
  // The frontend's own ledger agrees: no conversation ended kConnReset.
  EXPECT_EQ(frontend.stats().status(FrontendStatus::kConnReset), 0u);
  EXPECT_EQ(frontend.stats().status(FrontendStatus::kAccepted), 8u);
}

TEST(EintrRegression, RealSigchldTrafficFromRecyclingPoolIsHarmless) {
  // No synthetic storm here: recycle_after=1 forks a fresh worker for every
  // job, so each submit delivers genuine SIGCHLDs to this process while
  // later submits are mid-conversation. A handler (no SA_RESTART) makes
  // them visible as EINTR rather than silently restarted.
  struct sigaction sa {}, old {};
  sa.sa_handler = count_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGCHLD, &sa, &old);

  {
    ServiceOptions so;
    so.dispatchers = 1;
    so.pool.workers = 1;
    so.pool.recycle_after = 1;
    ReductionService service(so);
    FrontendOptions fo;
    fo.unix_path =
        "/tmp/pfact_test_eintr_chld_" + std::to_string(::getpid()) + ".sock";
    Frontend frontend(service, fo);
    ASSERT_TRUE(frontend.running());

    ClientOptions co;
    co.unix_path = fo.unix_path;
    co.sleeper = [](std::chrono::milliseconds) {};
    for (unsigned m = 0; m < 4; ++m) {
      ReductionTask task;
      task.algorithm = Algorithm::kGem;
      task.instance = circuit::CvpInstance{circuit::xor_circuit(),
                                           {(m & 1) != 0, (m & 2) != 0}};
      Client client(co);
      const ClientResult res = client.submit(task);
      ASSERT_TRUE(res.ok) << frontend_status_name(res.status);
      EXPECT_EQ(res.attempts, 1u);
      EXPECT_EQ(res.response.value, task.expected());
    }
    EXPECT_EQ(frontend.stats().status(FrontendStatus::kConnReset), 0u);
  }
  sigaction(SIGCHLD, &old, nullptr);
}

}  // namespace
}  // namespace pfact::serve
