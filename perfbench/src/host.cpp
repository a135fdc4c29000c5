#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "serve/result_cache.h"

namespace perfbench {

void Tally::add_wrong(std::uint64_t seed, const robustness::ReductionTask& task,
                      bool got) {
  add(Outcome::kWrong);
  if (wrong_answers.size() >= 8) return;
  std::string line = "seed=" + std::to_string(seed) + " task=" +
                     task.describe() + " expected=" +
                     (task.expected() ? "true" : "false") +
                     " got=" + (got ? "true" : "false") + " key=" +
                     serve::ResultCache::key_for(
                         task, robustness::Substrate::kDouble);
  std::fprintf(stderr, "pfbench: WRONG ANSWER %s\n", line.c_str());
  wrong_answers.push_back(std::move(line));
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  for (int i = 0; i < 6; ++i) by_outcome[i] += other.by_outcome[i];
  for (const std::string& w : other.wrong_answers) {
    if (wrong_answers.size() < 8) wrong_answers.push_back(w);
  }
}

std::string Tally::to_json() const {
  static const char* const names[6] = {"ok",   "wrong",   "uncertified",
                                       "shed", "refused", "all_shards_down"};
  std::string s = "{";
  for (int i = 0; i < 6; ++i) {
    s += json_str(names[i]) + ":" + std::to_string(by_outcome[i]) + ",";
  }
  s += "\"wrong_answers\":[";
  for (std::size_t i = 0; i < wrong_answers.size(); ++i) {
    if (i) s += ",";
    s += json_str(wrong_answers[i]);
  }
  return s + "]}";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Result::to_json() const {
  std::string s = "{\"correct\":";
  s += tally.count(Outcome::kWrong) == 0 ? "true" : "false";
  s += ",\"attempted\":" + std::to_string(tally.attempted);
  s += ",\"failed\":" + std::to_string(tally.failed());
  s += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) s += ",";
    s += json_str(metrics[i].first) + ":{\"value\":" +
         json_num(metrics[i].second.first) +
         ",\"unit\":" + json_str(metrics[i].second.second) + "}";
  }
  s += "},\"details\":{\"outcomes\":" + tally.to_json();
  for (const auto& [key, raw] : details) s += "," + json_str(key) + ":" + raw;
  return s + "}}";
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

WindowLog::WindowLog(double seconds, std::uint64_t seed)
    : seconds_(seconds), rng_(seed | 1) {
  const std::size_t n =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(seconds)));
  width_s_ = seconds / static_cast<double>(n);
  // Value-initialized, so every page is written now, not mid-run.
  answers_.assign(n, 0);
  ops_.assign(n, 0);
  busy_us_.assign(n, 0.0);
  kept_.assign(n * kKept, 0.0f);
}

void WindowLog::add(double end_s, double latency_us, std::uint64_t answers) {
  if (end_s >= seconds_) return;
  const std::size_t w = std::min(answers_.size() - 1,
                                 static_cast<std::size_t>(end_s / width_s_));
  answers_[w] += answers;
  busy_us_[w] += latency_us;
  const std::uint64_t seen = ++ops_[w];
  // Reservoir sampling: every operation of the window is kept with the
  // same probability kKept / seen.
  std::uint64_t slot = seen - 1;
  if (seen > kKept) {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    slot = rng_ % seen;
    if (slot >= kKept) return;
  }
  kept_[w * kKept + slot] = static_cast<float>(latency_us);
}

const float* WindowLog::kept(std::size_t w, std::size_t& n) const {
  n = static_cast<std::size_t>(std::min<std::uint64_t>(ops_[w], kKept));
  return kept_.data() + w * kKept;
}

HostJiffies host_jiffies() {
  HostJiffies j;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return j;
  // user nice system idle iowait irq softirq steal
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got != 8) return j;
  j.steal = v[7];
  for (unsigned long long x : v) j.total += x;
  return j;
}

double steal_share(const HostJiffies& from, const HostJiffies& to) {
  if (to.total <= from.total) return 0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

Windowed windowed(const std::vector<WindowLog>& logs) {
  Windowed out;
  const std::size_t n = logs.empty() ? 0 : logs[0].windows();
  std::vector<double> rate, p50, p90;
  for (std::size_t w = 0; w < n; ++w) {
    std::vector<double> latency_ms;
    double answers_per_s = 0;
    for (const WindowLog& log : logs) {
      if (log.ops(w) == 0) continue;
      std::size_t kept = 0;
      const float* v = log.kept(w, kept);
      for (std::size_t i = 0; i < kept; ++i) {
        latency_ms.push_back(v[i] / 1000.0);
        out.kept_latency_us.push_back(v[i]);
      }
      answers_per_s += static_cast<double>(log.answers(w)) / log.busy_s(w);
      out.ops += log.ops(w);
    }
    if (latency_ms.empty()) continue;
    rate.push_back(answers_per_s);
    p50.push_back(quantile(latency_ms, 0.5));
    p90.push_back(quantile(latency_ms, 0.9));
  }
  out.answers_per_s = median(rate);
  out.p50_ms = median(p50);
  out.p90_ms = median(p90);
  out.windows = rate.size();
  return out;
}

double tree_cpu_s() {
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  struct rusage self {};
  struct rusage children {};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return seconds(self.ru_utime) + seconds(self.ru_stime) +
         seconds(children.ru_utime) + seconds(children.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    s += (i ? "," : "") + json_num(v[i]);
  }
  return s + "]";
}

std::string valued(double v, const char* unit) {
  return "{\"value\":" + json_num(v) + ",\"unit\":\"" + unit + "\"}";
}

}  // namespace

void report_timed(const Timed& t, Result& out) {
  const double n = static_cast<double>(t.measured.attempted);
  const double ok = static_cast<double>(t.measured.ok());
  const Windowed& w = t.wall;
  out.metric("answers_per_cpu_s", t.answers_per_cpu_s, "1/s");
  out.metric("ok_share", n > 0 ? ok / n : 0, "ratio");
  out.metric("setup_s", median(t.setup_cpu_s), "s");
  out.metric("peak_rss_mb", t.rss.total_mb(), "MB");

  out.detail("answers_per_s", valued(w.answers_per_s, "1/s"));
  out.detail("latency_p50_ms", valued(w.p50_ms, "ms"));
  out.detail("latency_p90_ms", valued(w.p90_ms, "ms"));
  out.detail("latency_p99_ms",
             "{\"value\":" +
                 json_num(quantile(w.kept_latency_us, 0.99) / 1000) +
                 ",\"unit\":\"ms\",\"samples\":" +
                 std::to_string(w.kept_latency_us.size()) + "}");
  out.detail("fail_share", valued(n > 0 ? (n - ok) / n : 1, "ratio"));
  out.detail("steal_share", valued(t.steal_share, "ratio"));
  out.detail("peak_rss_self_mb", valued(t.rss.self_mb, "MB"));
  out.detail("peak_rss_descendant_mb", valued(t.rss.descendant_mb, "MB"));
  out.detail("setup_wall_s", valued(median(t.setup_wall_s), "s"));
  out.detail("setup_wall_s_each", json_list(t.setup_wall_s));
  out.detail("setup_cpu_s_each", json_list(t.setup_cpu_s));
  out.detail("measured", "{\"seconds\":" + json_num(t.elapsed_s) +
                             ",\"windows\":" + std::to_string(w.windows) +
                             ",\"operations\":" + std::to_string(w.ops) +
                             ",\"answers_per_s_whole_run\":" +
                             json_num(ok / t.elapsed_s) + "}");
}

namespace {

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

// A fixed amount of integer work that no compiler can fold away.
void spin_work() {
  static std::atomic<std::uint64_t> sink{0};
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 8'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink.fetch_add(x, std::memory_order_relaxed);
}

double time_threads(std::size_t threads) {
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < threads; ++i) pool.emplace_back(spin_work);
  for (std::thread& t : pool) t.join();
  return us_between(t0, Clock::now()) / 1000.0;
}

}  // namespace

Parallelism measure_parallelism() {
  Parallelism p;
  const std::size_t n = affinity_cpus();
  p.one_thread_ms = time_threads(1);
  p.all_threads_ms = time_threads(n);
  p.effective = static_cast<double>(n) * p.one_thread_ms / p.all_threads_ms;
  return p;
}

std::string host_json(const Parallelism& start, const Parallelism& end) {
  double load[3] = {0, 0, 0};
  if (::getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  auto par_json = [](const Parallelism& p) {
    return "{\"one_thread_ms\":" + json_num(p.one_thread_ms) +
           ",\"all_threads_ms\":" + json_num(p.all_threads_ms) +
           ",\"effective\":" + json_num(p.effective) + "}";
  };
  return "{\"nproc\":" + std::to_string(affinity_cpus()) +
         ",\"hardware_concurrency\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"loadavg\":[" + json_num(load[0]) + "," + json_num(load[1]) + "," +
         json_num(load[2]) + "],\"parallelism_start\":" + par_json(start) +
         ",\"parallelism_end\":" + par_json(end) + "}";
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in the order it prints.
constexpr LayerMetric kLayerMetrics[] = {
    {"router.self_p50_us", "us"},
    {"router.failover_hops", "count"},
    {"router.home_share", "ratio"},
    {"frontend.self_p50_us", "us"},
    {"frontend.conns_per_answer", "ratio"},
    {"frontend.bytes_per_answer", "B"},
    {"frontend.retries", "count"},
    {"queue.self_p50_us", "us"},
    {"queue.sheds", "count"},
    {"queue.peak_depth", "count"},
    {"result_cache.hit_share", "ratio"},
    {"result_cache.lookup_p50_us", "us"},
    {"result_cache.fills", "count"},
    {"result_cache.evictions", "count"},
    {"warm_pool.self_p50_us", "us"},
    {"warm_pool.frames_per_job", "count"},
    {"warm_pool.spawns", "count"},
    {"warm_pool.recycles", "count"},
    {"checkpoint.self_p50_us", "us"},
    {"checkpoint.saves_per_job", "count"},
    {"checkpoint.bytes_per_job", "B"},
    {"guarded_run.p50_us", "us"},
    {"guarded_run.steps_per_job", "count"},
    {"core.assemble_p50_us", "us"},
    {"numeric.bigint_allocs", "count"},
    {"numeric.bigint_limbs", "count"},
    {"nc.gems_nc_p50_ms", "ms"},
    {"nc.prefix_ranks_p50_ms", "ms"},
    {"parallel.ge_rows_p50_ms", "ms"},
    {"parallel.gqr_stages_p50_ms", "ms"},
    {"parallel.overhead_ratio", "ratio"},
    {"parallel.pool_tasks", "count"},
    {"matrix.sparse_chain_p50_ms", "ms"},
    {"matrix.sparse_fill_ins", "count"},
    {"trace.overhead_ratio", "ratio"},
};

}  // namespace

void emit_layers(const Layers& values, Result& out) {
  std::size_t used = 0;
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = values.find(m.name);
    used += it != values.end();
    out.metric(m.name, it == values.end() ? 0 : it->second, m.unit);
  }
  if (used != values.size()) {
    throw std::logic_error("a per-layer figure has no metric of that name");
  }
}

PeakRss peak_rss() {
  struct rusage self {};
  struct rusage children {};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return {static_cast<double>(self.ru_maxrss) / 1024.0,
          static_cast<double>(children.ru_maxrss) / 1024.0};
}

}  // namespace perfbench
