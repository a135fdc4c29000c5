#pragma once
// Shared plumbing of the pfbench program: the run's arguments, the result it
// prints, answer accounting, order statistics and the host descriptor.
//
// The benchmark only calls the library's public entry points and reads the
// stats structs and obs counters the library already keeps; nothing here
// reaches into src/ internals.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "robustness/escalation.h"

namespace perfbench {

using namespace pfact;

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory for every Unix socket the run binds (relative paths keep
  // them short; the caller owns and removes the directory).
  std::string sock_dir = ".";
};

// How one answered operation ended. Everything but kOk is a failure; only
// kWrong makes the run incorrect.
enum class Outcome {
  kOk,
  kWrong,        // certified, but disagrees with ReductionTask::expected()
  kUncertified,  // answered without a certificate
  kShed,         // refused by admission control or brownout
  kRefused,      // a transport or front-end refusal
  kAllDown,      // the router had no shard to ask
};

// Counts every outcome; the first few wrong answers are kept verbatim.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t by_outcome[6] = {0, 0, 0, 0, 0, 0};
  std::vector<std::string> wrong_answers;

  void add(Outcome o) {
    ++attempted;
    ++by_outcome[static_cast<int>(o)];
  }
  // Records a wrong answer with everything needed to replay it.
  void add_wrong(std::uint64_t seed, const robustness::ReductionTask& task,
                 bool got);
  std::uint64_t ok() const { return by_outcome[0]; }
  std::uint64_t failed() const { return attempted - ok(); }
  std::uint64_t count(Outcome o) const {
    return by_outcome[static_cast<int>(o)];
  }
  void merge(const Tally& other);
  std::string to_json() const;
};

// The run's printed result: one JSON object on the last stdout line.
struct Result {
  Tally tally;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> details;  // raw JSON

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void detail(const std::string& key, const std::string& raw_json) {
    details.push_back({key, raw_json});
  }
  std::string to_json() const;
};

std::string json_num(double v);
std::string json_str(const std::string& s);

// Order statistics with linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// The measured phase cut into one-second windows. Each caller keeps one
// log of fixed size, allocated and written before the measured phase, so
// the benchmark's own footprint does not grow with the throughput. Per
// window it holds the answers produced, the operations ended, the time
// spent waiting on the program (their summed latency) and a uniform
// sample of at most kKept of their latencies.
class WindowLog {
 public:
  static constexpr std::size_t kKept = 1024;

  WindowLog(double seconds, std::uint64_t seed);
  // Records one operation that ended `end_s` into the phase; operations
  // ending past the phase (stragglers) are dropped.
  void add(double end_s, double latency_us, std::uint64_t answers);

  std::size_t windows() const { return answers_.size(); }
  std::uint64_t answers(std::size_t w) const { return answers_[w]; }
  std::uint64_t ops(std::size_t w) const { return ops_[w]; }
  double busy_s(std::size_t w) const { return busy_us_[w] / 1e6; }
  // The kept latencies (microseconds) of window `w`.
  const float* kept(std::size_t w, std::size_t& n) const;

 private:
  double seconds_;
  double width_s_;
  std::uint64_t rng_;
  std::vector<std::uint64_t> answers_;
  std::vector<std::uint64_t> ops_;
  std::vector<double> busy_us_;
  std::vector<float> kept_;  // windows() * kKept
};

// The host's CPU time over all CPUs, read from /proc/stat (zeros where it
// cannot be read). steal_share() is the share of the time between two
// readings that the hypervisor gave to other guests.
struct HostJiffies {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
HostJiffies host_jiffies();
double steal_share(const HostJiffies& from, const HostJiffies& to);

// Wall-clock figures of the measured phase, each the median over windows
// of that window's figure, so a short burst of load from outside the run
// moves a few windows, not the result. A window's answers_per_s sums, over
// callers, the caller's answers over the time it spent waiting on the
// program, so neither the benchmark's own bookkeeping nor a window edge
// cutting an operation in two moves it.
struct Windowed {
  double answers_per_s = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  std::size_t windows = 0;  // windows with at least one operation
  std::uint64_t ops = 0;
  std::vector<double> kept_latency_us;  // every window's kept latencies
};
Windowed windowed(const std::vector<WindowLog>& logs);

// CPU seconds (user + system) used so far by this process and by every
// descendant it has reaped. Unlike wall time, this does not grow while the
// hypervisor runs other guests on the host's cores.
double tree_cpu_s();
// CPU seconds used so far by the calling thread.
double thread_cpu_s();

// Peak resident set of this process and of its largest reaped descendant.
struct PeakRss {
  double self_mb = 0;
  double descendant_mb = 0;
  double total_mb() const { return self_mb + descendant_mb; }
};
PeakRss peak_rss();

// What a timed run measured; report_timed() turns it into the end-to-end
// metrics and the details line.
struct Timed {
  Tally measured;
  Windowed wall;
  double elapsed_s = 0;  // actual length of the measured phase
  double steal_share = 0;  // of the host's CPU time while measuring
  // Correct answers per CPU-second of the program; each workload defines
  // which CPU that is.
  double answers_per_cpu_s = 0;
  std::vector<double> setup_wall_s;
  std::vector<double> setup_cpu_s;
  PeakRss rss;
};
void report_timed(const Timed& t, Result& out);

// Host descriptor: processor counts, load average, and the parallelism the
// host actually delivers for a fixed spin workload.
struct Parallelism {
  double one_thread_ms = 0;
  double all_threads_ms = 0;  // nproc threads, each doing the same work
  double effective = 0;       // nproc * one_thread_ms / all_threads_ms
};
Parallelism measure_parallelism();
std::string host_json(const Parallelism& start, const Parallelism& end);

// The per-layer figures of a traced run, by metric name. emit_layers()
// prints every per-layer metric in one fixed order; a layer the workload's
// path never enters reads 0. "self" is a ladder rung's per-task time minus
// the rung below it on the same task.
using Layers = std::map<std::string, double>;
void emit_layers(const Layers& values, Result& out);

// Workload entry points; each fills `out` and returns nonzero only on a
// set-up error that left nothing to measure.
int run_serve(const Args& args, Result& out);
int run_batch(const Args& args, Result& out);

}  // namespace perfbench
