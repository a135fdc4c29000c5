#pragma once
// Seeded task generators. The program under test only ever sees the tasks
// these produce; the same seed always yields the same tasks in the same
// order.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "robustness/escalation.h"

namespace perfbench {

using namespace pfact;
using robustness::ReductionTask;

// serve-hot's fixed key set, in popularity-rank order. The kind of task at
// each rank is fixed and the seed draws its content, so every seed offers
// the same mix at the same popularity. Each block of 16 ranks holds 8 dense
// and 2 sparse GEM/GEMS reductions of random circuits (order 92-108), 3 GEP
// and 3 GQR gadget chains. Every task is distinct under
// ResultCache::key_for.
inline constexpr std::size_t kHotKeys = 64;
std::vector<ReductionTask> hot_keys(std::uint64_t seed);

// Zipf(s = 1) over popularity ranks 0..n-1.
class ZipfDraw {
 public:
  explicit ZipfDraw(std::size_t n);
  std::size_t operator()(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

// serve-fresh's endless stream of small reductions: GEM, GEMS and
// GEM-nonsingular over seeded random circuits (orders 88-120), on the
// dense and the sparse backend. Each task's key under ResultCache::key_for
// differs from those of the last kRecent tasks, over 20 times what the
// three shards' LRU caches hold together, so every request is a cache miss
// while the stream's own memory stays fixed. Not thread-safe; callers
// serialize next().
class FreshStream {
 public:
  static constexpr std::size_t kRecent = 8192;

  explicit FreshStream(std::uint64_t seed)
      : rng_(seed), recent_(kRecent, 0) {}
  ReductionTask next();

 private:
  std::mt19937_64 rng_;
  std::vector<std::uint64_t> recent_;  // key hashes, a ring
  std::size_t issued_ = 0;
};

// The first `n` requests of a workload's seeded traffic, as the traced
// ladder replays them with a single caller.
std::vector<ReductionTask> first_requests(bool hot, std::uint64_t seed,
                                          std::size_t n);

// Per-caller RNG seed: callers draw independent streams from one seed.
inline std::uint64_t caller_seed(std::uint64_t seed, std::size_t caller) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (caller + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
