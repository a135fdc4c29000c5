#pragma once
// One list per closed taxonomy: the column extractors and compile-time
// checks that every taxonomy's row list is expanded through.
//
// The closed taxonomies — obs Counter and Histogram, robustness FaultClass
// and Diagnostic, serve WorkerExit, Admission, CacheProbe, FrontendStatus,
// ShardStatus and RouterStatus — are each written down exactly once, as an
// X-macro row list beside the enum it generates:
//
//   #define PFACT_ADMISSION_ROWS(X)  (line continuations elided)
//     X(kAccepted, "accepted", kOk) /* queued within bounds */
//     X(kShedQueueFull, "shed-queue-full", kOverloaded)
//     ...
//
// One row per enumerator, in enumerator order: the identifier, its stable
// kebab-case name (log lines, bench JSON keys), then the legs of its shape:
//
//   ROW0  X(id, "name")                        Counter, Histogram, FaultClass
//   ROW1  X(id, "name", leg)                   Diagnostic (a FailureKind);
//                                              WorkerExit, Admission and
//                                              CacheProbe (a Diagnostic)
//   ROW2  X(id, "name", diagnostic, counter)   FrontendStatus, ShardStatus,
//                                              RouterStatus
//
// The enum, the name table (hence the element count), the sweep list and
// every leg table are expanded from that one list, so an enumerator cannot
// exist without its name and legs, and no sweep can miss it. Each
// extractor names every column of its shape and takes no `...`: a row with
// a missing leg is a preprocessor error ("macro ... requires 3 arguments,
// but only 2 given"), never a silently defaulted mapping.
// PFACT_TAXONOMY_CHECK_NAMES adds the two checks the preprocessor cannot
// make: every name is kebab-case, and no name repeats.
//
// Legs are written as bare enumerators (kOk, kTransient, kFrontendAccepted);
// PFACT_TAXONOMY_LEGS expands a leg column under `using enum` of its type.
// This header includes only the standard library (obs is rank 0), so every
// layer can generate its taxonomies through it.

#include <array>
#include <cstddef>
#include <string_view>
#include <vector>

#define PFACT_ROW0_ID(id, name) id,
#define PFACT_ROW0_NAME(id, name) name,
#define PFACT_ROW1_ID(id, name, leg) id,
#define PFACT_ROW1_NAME(id, name, leg) name,
#define PFACT_ROW1_LEG(id, name, leg) leg,
#define PFACT_ROW2_ID(id, name, diagnostic, counter) id,
#define PFACT_ROW2_NAME(id, name, diagnostic, counter) name,
#define PFACT_ROW2_DIAGNOSTIC(id, name, diagnostic, counter) diagnostic,
#define PFACT_ROW2_COUNTER(id, name, diagnostic, counter) counter,

// The column `extract` of `rows`, as a std::array of LegEnum, in row order.
#define PFACT_TAXONOMY_LEGS(LegEnum, rows, extract) \
  [] {                                              \
    using enum LegEnum;                             \
    return std::array{rows(extract)};               \
  }()

// The two checks every name table passes, at compile time.
#define PFACT_TAXONOMY_CHECK_NAMES(names)              \
  static_assert(::pfact::obs::all_kebab_case(names),   \
                "taxonomy names must be kebab-case"); \
  static_assert(::pfact::obs::all_distinct(names),     \
                "taxonomy names must be distinct")

namespace pfact::obs {

constexpr bool is_kebab_case(std::string_view s) {
  if (s.empty() || s.front() == '-' || s.back() == '-') return false;
  for (char c : s) {
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-')) {
      return false;
    }
  }
  return true;
}

template <std::size_t N>
constexpr bool all_kebab_case(const std::array<const char*, N>& names) {
  for (const char* name : names) {
    if (!is_kebab_case(name)) return false;
  }
  return true;
}

template <std::size_t N>
constexpr bool all_distinct(const std::array<const char*, N>& names) {
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (std::string_view(names[i]) == names[j]) return false;
    }
  }
  return true;
}

// Row `e` of a generated table, or `fallback` for a value no row holds (an
// out-of-range cast: generated enumerators are exactly 0..N-1).
template <class T, std::size_t N, class E>
constexpr T row_or(const std::array<T, N>& table, E e, T fallback) {
  const auto i = static_cast<std::size_t>(e);
  return i < N ? table[i] : fallback;
}

// The enumerators of an N-row taxonomy in row order, from row `First` on.
template <class E, std::size_t N, std::size_t First = 0>
const std::vector<E>& sweep() {
  static const std::vector<E> all = [] {
    std::vector<E> v;
    for (std::size_t i = First; i < N; ++i) v.push_back(static_cast<E>(i));
    return v;
  }();
  return all;
}

}  // namespace pfact::obs
