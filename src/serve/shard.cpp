#include "serve/shard.h"

#include <errno.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <memory>

#include "serve/frontend.h"
#include "serve/wire.h"
#include "serve/worker.h"

namespace pfact::serve {

namespace {

// The shard child's whole life: build the private service stack, then park
// until SIGTERM. The signal is consumed with sigwait — not a handler — so
// shutdown needs no async-signal-safe gymnastics: the main thread simply
// returns into the destructors, which drain the frontend and retire the
// warm workers before _exit.
[[noreturn]] void shard_child_main(const ShardSpec& spec) {
  // Drop every descriptor inherited from the router process — other
  // services' warm-worker pipe ends included, whose duplicates would keep
  // those workers from ever seeing EOF at their own pool's shutdown. The
  // shard builds its own sockets, pipes and workers from scratch.
  close_fds_except(-1, -1);
  // Block SIGTERM before the service threads start so every thread inherits
  // the mask and only the sigwait below can consume it.
  sigset_t term;
  sigemptyset(&term);
  sigaddset(&term, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &term, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  {
    ReductionService service(spec.service);
    FrontendOptions fo;
    fo.unix_path = spec.unix_path;
    Frontend frontend(service, fo);
    if (!frontend.running()) _exit(1);
    int sig = 0;
    while (sigwait(&term, &sig) != 0 || sig != SIGTERM) {
    }
    frontend.begin_drain();
  }
  _exit(0);
}

}  // namespace

pid_t spawn_shard(const ShardSpec& spec, ForkThread& forker) {
  return forker.fork([&spec] { shard_child_main(spec); });
}

bool probe_shard(const std::string& unix_path,
                 std::chrono::milliseconds deadline) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (unix_path.empty() || unix_path.size() >= sizeof(addr.sun_path))
    return false;
  ::memcpy(addr.sun_path, unix_path.c_str(), unix_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  bool acked = false;
  if (write_frame(fd, FrameType::kProbe, {}) == WireStatus::kOk) {
    FrameType type = FrameType::kRequest;
    std::string payload;
    const WireStatus st = read_frame(
        fd, type, payload, std::chrono::steady_clock::now() + deadline);
    acked = st == WireStatus::kOk && type == FrameType::kProbe &&
            payload.empty();
  }
  ::close(fd);
  return acked;
}

}  // namespace pfact::serve
