#include "obs/counters.h"

#include <deque>

#include "parallel/annotations.h"

namespace pfact::obs {

std::uint64_t CounterSnapshot::histogram_total(Histogram h) const {
  std::uint64_t total = 0;
  for (std::uint64_t b : histograms[static_cast<std::size_t>(h)]) total += b;
  return total;
}

CounterDelta operator-(const CounterSnapshot& after,
                       const CounterSnapshot& before) {
  CounterDelta d;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    d.counts[i] = after.counts[i] - before.counts[i];
  }
  for (std::size_t h = 0; h < kNumHistograms; ++h) {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      d.histograms[h][b] = after.histograms[h][b] - before.histograms[h][b];
    }
  }
  return d;
}

#if PFACT_OBS_ENABLED

namespace detail {

namespace {

// Blocks are appended, never removed: a thread that exits leaves its totals
// behind (counters are cumulative), and snapshot() never touches freed
// memory. std::deque keeps existing blocks stable across registrations.
// `blocks` (the container) is guarded by `mu`; the atomics INSIDE a block
// are lock-free by design — registered blocks are read outside the lock by
// their owning thread, which is exactly the relaxed-atomic contract.
struct Registry {
  par::Mutex mu;
  std::deque<CounterBlock> blocks PFACT_GUARDED_BY(mu);
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during exit
  return *r;
}

}  // namespace

CounterBlock* this_thread_block() {
  Registry& r = registry();
  par::MutexLock lock(r.mu);
  r.blocks.emplace_back();
  // Escapes the lock on purpose: the block is never freed and its fields
  // are atomics, so the owning thread bumps them lock-free.
  return &r.blocks.back();
}

}  // namespace detail

CounterSnapshot snapshot() {
  CounterSnapshot s;
  detail::Registry& r = detail::registry();
  par::MutexLock lock(r.mu);
  for (const detail::CounterBlock& b : r.blocks) {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      s.counts[i] += b.counts[i].load(std::memory_order_relaxed);
    }
    for (std::size_t h = 0; h < kNumHistograms; ++h) {
      for (std::size_t k = 0; k < kHistogramBuckets; ++k) {
        s.histograms[h][k] +=
            b.histograms[h][k].load(std::memory_order_relaxed);
      }
    }
  }
  return s;
}

#else  // !PFACT_OBS_ENABLED

CounterSnapshot snapshot() { return CounterSnapshot{}; }

#endif  // PFACT_OBS_ENABLED

}  // namespace pfact::obs
