// No orphans: when the process that owns a ShardRouter or a WarmPool dies by
// SIGKILL, its whole tree dies with it — shards, a shard stopped by SIGSTOP,
// every shard's warm workers, and a warm worker busy in a job that never
// ends (an idle one would see EOF on its request pipe anyway).
//
// The test process makes itself the child subreaper, so every descendant
// that outlives its parent is re-parented here instead of to init, where it
// can be seen and reaped. Without PR_SET_PDEATHSIG in the forked children
// they would be re-parented here and live on.
//
// Rides the `serve` ctest label: real forks and real SIGKILL/SIGSTOP.

#include <gtest/gtest.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuit/builders.h"
#include "circuit/circuit.h"
#include "serve/router.h"
#include "serve/warm_pool.h"

namespace pfact::serve {
namespace {

// Every live process below `root`, read from /proc. A process that exits
// while the scan runs simply drops out of it.
std::vector<pid_t> descendants(pid_t root) {
  std::multimap<pid_t, pid_t> children;  // ppid -> pid
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream in(entry.path() / "stat");
    std::string stat;
    if (!std::getline(in, stat)) continue;
    // pid (comm) state ppid ...: comm may hold spaces, so parse after ')'.
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(stat.substr(close + 1));
    char state = 0;
    pid_t ppid = 0;
    if (!(rest >> state >> ppid) || state == 'Z') continue;
    children.emplace(ppid, static_cast<pid_t>(std::stol(name)));
  }
  std::vector<pid_t> out;
  std::vector<pid_t> frontier{root};
  while (!frontier.empty()) {
    const pid_t p = frontier.back();
    frontier.pop_back();
    const auto [lo, hi] = children.equal_range(p);
    for (auto it = lo; it != hi; ++it) {
      out.push_back(it->second);
      frontier.push_back(it->second);
    }
  }
  return out;
}

std::string pid_list(const std::vector<pid_t>& pids) {
  std::string s;
  for (pid_t p : pids) s += " " + std::to_string(p);
  return s;
}

// True once some process below `root` is running (state R), not blocked.
bool some_descendant_running(pid_t root) {
  for (pid_t p : descendants(root)) {
    std::ifstream in("/proc/" + std::to_string(p) + "/stat");
    std::string stat;
    if (!std::getline(in, stat)) continue;
    const std::size_t close = stat.rfind(')');
    if (close != std::string::npos && close + 2 < stat.size() &&
        stat[close + 2] == 'R') {
      return true;
    }
  }
  return false;
}

// Runs the body of a forked owner process, which builds a process tree and
// writes one byte to `ready_fd` once it stands, then waits to be killed.
// The test SIGKILLs the owner, reaps whatever is re-parented here, and
// expects nothing below it within a deadline.
class OwnerKill : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
    char dir_template[] = "/tmp/pfact_tree_XXXXXX";
    ASSERT_NE(::mkdtemp(dir_template), nullptr);
    socket_dir_ = dir_template;
  }

  void TearDown() override {
    // Clean up whatever survived, so a failure leaves nothing behind.
    for (pid_t p : descendants(::getpid())) ::kill(p, SIGKILL);
    while (::waitpid(-1, nullptr, 0) > 0 || errno == EINTR) {
    }
    ::prctl(PR_SET_CHILD_SUBREAPER, 0);
    std::filesystem::remove_all(socket_dir_);
  }

  // Forks the owner running `build(ready_fd)`; returns its pid once the
  // tree stands, or -1 if the owner died first.
  template <class Build>
  pid_t start_owner(Build build) {
    int ready[2];
    if (::pipe(ready) != 0) return -1;
    const pid_t owner = ::fork();
    if (owner == 0) {
      ::close(ready[0]);
      build(ready[1]);
      ::_exit(5);
    }
    ::close(ready[1]);
    char byte = 0;
    const bool up = owner > 0 && ::read(ready[0], &byte, 1) == 1;
    ::close(ready[0]);
    return up ? owner : -1;
  }

  // SIGKILLs the owner and reaps until no child is left; returns what is
  // still alive below this process after the deadline.
  std::vector<pid_t> kill_owner(pid_t owner) {
    ::kill(owner, SIGKILL);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      const pid_t p = ::waitpid(-1, nullptr, WNOHANG);
      if (p < 0 && errno == ECHILD) return {};
      if (p == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return descendants(::getpid());
  }

  std::string socket_dir_;
};

TEST_F(OwnerKill, RouterTakesItsShardsAndTheirWorkers) {
  const std::string dir = socket_dir_;
  const pid_t owner = start_owner([&dir](int ready_fd) {
    RouterOptions ro;
    ro.shards = 2;
    ro.socket_dir = dir;
    ro.service.dispatchers = 1;
    ro.service.pool.workers = 1;
    // Probe rarely: the stopped shard must still be stopped at the kill,
    // not evicted and respawned by the router.
    ro.probe_interval = std::chrono::seconds(60);
    ShardRouter router(ro);
    if (!router.wait_all_serving(std::chrono::seconds(10))) return;
    // A stopped process reacts to nothing but SIGKILL.
    if (!router.kill_shard_for_testing(1, SIGSTOP)) return;
    if (::write(ready_fd, "r", 1) != 1) return;
    for (;;) ::pause();
  });
  ASSERT_GT(owner, 0) << "the router owner never reported its tree up";
  // The owner, two shards and one warm worker per shard.
  EXPECT_GE(descendants(::getpid()).size(), 5u)
      << pid_list(descendants(::getpid()));
  const std::vector<pid_t> left = kill_owner(owner);
  EXPECT_TRUE(left.empty())
      << "descendants alive 10 s after the owner's SIGKILL:" << pid_list(left);
}

TEST_F(OwnerKill, PoolTakesAWorkerBusyInAJobThatNeverEnds) {
  const pid_t owner = start_owner([](int ready_fd) {
    WarmPoolOptions o;
    o.workers = 1;
    WarmPool pool(o);
    TaskRequest spin;
    spin.task.algorithm = robustness::Algorithm::kGem;
    spin.task.instance =
        circuit::CvpInstance{circuit::xor_circuit(), {true, false}};
    spin.kill.mode = KillPlan::Mode::kSpin;  // never returns on its own
    std::thread lease([&pool, &spin] { pool.run_task(spin, nullptr); });
    if (::write(ready_fd, "r", 1) != 1) ::_exit(4);
    lease.join();  // never returns: the job spins until the SIGKILL
  });
  ASSERT_GT(owner, 0) << "the pool owner never reported its worker up";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!some_descendant_running(::getpid()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(some_descendant_running(::getpid()))
      << "the spinning job never started:" << pid_list(descendants(::getpid()));
  const std::vector<pid_t> left = kill_owner(owner);
  EXPECT_TRUE(left.empty())
      << "descendants alive 10 s after the owner's SIGKILL:" << pid_list(left);
}

}  // namespace
}  // namespace pfact::serve
