#include "obs/bench_emitter.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <ostream>
#include <thread>

#include "obs/json.h"
#include "obs/trace.h"

namespace pfact::obs {

void BenchSuite::add(std::string name, std::string experiment,
                     std::function<void()> fn) {
  specs_.push_back(BenchSpec{std::move(name), std::move(experiment),
                             std::move(fn)});
}

BenchMeasurement BenchSuite::measure(const BenchSpec& spec,
                                     std::size_t warmup,
                                     std::size_t repeats) const {
  BenchMeasurement m;
  m.name = spec.name;
  m.experiment = spec.experiment;
  m.warmup = warmup;
  m.repeats = repeats;

  for (std::size_t i = 0; i < warmup; ++i) spec.fn();

  std::vector<double> ns;
  ns.reserve(repeats);
  for (std::size_t i = 0; i < repeats; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    spec.fn();
    auto t1 = std::chrono::steady_clock::now();
    ns.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  std::sort(ns.begin(), ns.end());
  if (!ns.empty()) {
    m.ns_min = ns.front();
    m.ns_median = ns[ns.size() / 2];
    double sum = 0;
    for (double v : ns) sum += v;
    m.ns_mean = sum / static_cast<double>(ns.size());
  }

  // One instrumented run: counters + spans, excluded from the timings.
  {
    ScopedTracing tracing;
    ScopedCounters counters;
    spec.fn();
    m.counters = counters.delta();
    std::vector<SpanEvent> spans = dump_spans();
    m.span_count = spans.size();
    m.critical_path_depth = critical_path_depth(std::move(spans));
  }
  return m;
}

std::vector<BenchMeasurement> BenchSuite::run(std::size_t warmup,
                                              std::size_t repeats,
                                              const std::string& filter,
                                              std::ostream* log) const {
  std::vector<BenchMeasurement> out;
  for (const BenchSpec& spec : specs_) {
    if (!filter.empty() && spec.name.find(filter) == std::string::npos) {
      continue;
    }
    BenchMeasurement m = measure(spec, warmup, repeats);
    if (log != nullptr) {
      (*log) << m.name << ": median " << m.ns_median / 1e6 << " ms, depth "
             << m.critical_path_depth << " (" << m.span_count << " spans)\n";
    }
    out.push_back(std::move(m));
  }
  return out;
}

std::string BenchSuite::to_json(const std::vector<BenchMeasurement>& results,
                                std::size_t warmup, std::size_t repeats,
                                const char* crc32_kernel) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(kBenchSchema);
  w.key("generator").value("bench_main");
  w.key("unix_time").value(static_cast<std::int64_t>(std::time(nullptr)));
  w.key("host").begin_object();
  w.key("hardware_threads")
      .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("crc32_kernel").value(crc32_kernel);
  w.key("obs_enabled").value(PFACT_OBS_ENABLED != 0);
  w.end_object();
  w.key("config").begin_object();
  w.key("warmup").value(warmup);
  w.key("repeats").value(repeats);
  w.end_object();
  w.key("benchmarks").begin_array();
  for (const BenchMeasurement& m : results) {
    w.begin_object();
    w.key("name").value(m.name);
    w.key("experiment").value(m.experiment);
    w.key("ns").begin_object();
    w.key("min").value(m.ns_min);
    w.key("mean").value(m.ns_mean);
    w.key("median").value(m.ns_median);
    w.end_object();
    // Nonzero counters only: keeps the artifact readable and its diffs
    // focused on what the workload actually exercises.
    w.key("counters").begin_object();
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      if (m.counters.counts[i] == 0) continue;
      w.key(counter_name(static_cast<Counter>(i)))
          .value(m.counters.counts[i]);
    }
    w.end_object();
    w.key("histograms").begin_object();
    for (std::size_t h = 0; h < kNumHistograms; ++h) {
      const auto hist = static_cast<Histogram>(h);
      if (m.counters.histogram_total(hist) == 0) continue;
      // Trimmed bucket array: [count(2^0..), count(2^1..), ...] up to the
      // last nonzero bucket.
      std::size_t last = 0;
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        if (m.counters.histograms[h][b] != 0) last = b;
      }
      w.key(histogram_name(hist)).begin_array();
      for (std::size_t b = 0; b <= last; ++b) {
        w.value(m.counters.histograms[h][b]);
      }
      w.end_array();
    }
    w.end_object();
    w.key("spans").value(m.span_count);
    w.key("critical_path_depth").value(m.critical_path_depth);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

}  // namespace pfact::obs
