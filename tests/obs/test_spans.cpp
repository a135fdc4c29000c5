// Tests for obs/trace: span collection semantics, Chrome trace_event
// export, and the critical-path (longest disjoint chain) computation that
// the metrics-theory tests and the bench emitter rely on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "circuit/builders.h"
#include "core/simulator.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace pfact::obs {
namespace {

constexpr bool kObsOn = PFACT_OBS_ENABLED != 0;

SpanEvent make_span(std::uint64_t begin, std::uint64_t end,
                    std::uint32_t tid = 0) {
  SpanEvent s;
  s.name = "synthetic";
  s.begin_ns = begin;
  s.end_ns = end;
  s.tid = tid;
  return s;
}

// critical_path_depth works on plain vectors: these hold in every build.
TEST(CriticalPath, EmptyIsZero) {
  EXPECT_EQ(critical_path_depth({}), 0u);
}

TEST(CriticalPath, DisjointChainCountsEverySpan) {
  EXPECT_EQ(critical_path_depth(
                {make_span(0, 10), make_span(10, 20), make_span(25, 30)}),
            3u);
}

TEST(CriticalPath, FullyOverlappingLayerCountsOnce) {
  EXPECT_EQ(critical_path_depth({make_span(0, 10, 0), make_span(1, 9, 1),
                                 make_span(2, 11, 2)}),
            1u);
}

TEST(CriticalPath, MixedLayersCountLayersNotWidth) {
  // Two sequential layers, each three spans wide -> depth 2.
  std::vector<SpanEvent> spans;
  for (std::uint32_t t = 0; t < 3; ++t) {
    spans.push_back(make_span(0, 10, t));
    spans.push_back(make_span(12, 20, t));
  }
  EXPECT_EQ(critical_path_depth(spans), 2u);
}

TEST(ChromeTrace, EmitsCompleteEventsWithMicrosecondTimes) {
  std::vector<SpanEvent> spans = {make_span(1500, 4500, 7)};
  const std::string json = to_chrome_trace_json(spans);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.find_last_not_of(" \n"), json.rfind(']'));
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"synthetic\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":7"), std::string::npos);
  // 1500 ns -> 1.5 us, duration 3000 ns -> 3 us; fractions zero-padded.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":3.000"), std::string::npos);
}

TEST(Spans, DisabledByDefaultAndScopedTracingCollects) {
  clear_spans();
  { ScopedSpan untraced("test.untraced"); }
  EXPECT_TRUE(dump_spans().empty());
  {
    ScopedTracing tracing;
    { ScopedSpan traced("test.traced"); }
    std::vector<SpanEvent> spans = dump_spans();
    if (kObsOn) {
      ASSERT_EQ(spans.size(), 1u);
      EXPECT_STREQ(spans[0].name, "test.traced");
      EXPECT_GE(spans[0].end_ns, spans[0].begin_ns);
    } else {
      EXPECT_TRUE(spans.empty());
    }
  }
  EXPECT_FALSE(tracing_enabled());  // restored by ScopedTracing
}

TEST(Spans, SpanOpenAtDisableTimeIsStillRecorded) {
  if (!kObsOn) GTEST_SKIP() << "observability compiled out";
  clear_spans();
  set_tracing_enabled(true);
  {
    ScopedSpan s("test.straddle");
    set_tracing_enabled(false);  // capture decision was made at construction
  }
  EXPECT_EQ(dump_spans().size(), 1u);
  clear_spans();
}

// The paper's depth claims, measured: a sequential GEM elimination emits one
// ge.step span per column, and they form a pure chain (depth == count).
TEST(Spans, GemEliminationSpansFormAPureChain) {
  if (!kObsOn) GTEST_SKIP() << "observability compiled out";
  circuit::CvpInstance inst{circuit::xor_circuit(), {true, false}};
  ScopedTracing tracing;
  core::SimulationResult r = core::simulate_gem<double>(
      inst, factor::PivotStrategy::kMinimalSwap);
  ASSERT_TRUE(r.ok);
  std::vector<SpanEvent> spans = dump_spans();
  std::size_t steps = 0;
  for (const SpanEvent& s : spans) {
    if (std::string(s.name) == "ge.step") ++steps;
  }
  EXPECT_EQ(steps, r.order);
  EXPECT_EQ(critical_path_depth(spans), spans.size());
}

// Pool chunks overlap: with >= 2 workers the chunk spans of one
// parallel_for must NOT form a pure chain. The first and last index (always
// in different chunks) rendezvous, each waiting for the other, so two
// chunks are provably in flight at once — a worker blocked there yields to
// a sibling, which holds on a time-sliced core as well as on many. The wait
// is bounded: a pool that cannot overlap fails the EXPECT, it never hangs.
TEST(Spans, PoolChunksOverlapWhenWorkersAreAvailable) {
  if (!kObsOn) GTEST_SKIP() << "observability compiled out";
  if (par::ThreadPool::global().size() < 2) {
    GTEST_SKIP() << "single pool worker";
  }
  ScopedTracing tracing;
  std::atomic<int> arrived{0};
  std::atomic<std::uint64_t> sink{0};
  par::parallel_for(0, 64, [&](std::size_t i) {
    if (i == 0 || i == 63) {
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (arrived.load() < 2 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    }
    std::uint64_t acc = i;
    for (int k = 0; k < 20000; ++k) acc = acc * 2862933555777941757ULL + 3037;
    sink += acc;
  });
  std::vector<SpanEvent> spans = dump_spans();
  std::vector<SpanEvent> chunks;
  for (const SpanEvent& s : spans) {
    if (std::string(s.name) == "pool.chunk") chunks.push_back(s);
  }
  ASSERT_GE(chunks.size(), 2u);
  EXPECT_LT(critical_path_depth(chunks), chunks.size());
}

}  // namespace
}  // namespace pfact::obs
