// PL017 counter-dead: the counter taxonomy must stay LIVE at both ends.
// Every registered Counter/Histogram enumerator must be (a) incremented
// somewhere in src/ or bench/ — a counter nothing bumps measures nothing —
// and (b) observed by at least one test or bench source (by enumerator or
// by its kebab name), because an unasserted counter silently rots: the
// instrumentation it summarizes can break and no lane goes red.
//
// The registered enumerators and their kebab names are read from the
// PFACT_COUNTER_ROWS / PFACT_HISTOGRAM_ROWS row lists in src/obs/counters.h.
// The increment leg deliberately excludes that file: the row lists mention
// every enumerator by construction and prove nothing about liveness. A
// counter named as the counter leg of a status row elsewhere in src/ (the
// `X(id, "name", diagnostic, counter)` shape) counts as incremented: its
// *_status_counter function is what the status's owner bumps.

#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/rules.h"

namespace pfact_lint {

namespace {

int line_of_first(const std::string& text, const std::string& ident) {
  const std::regex word("\\b" + ident + "\\b");
  std::smatch m;
  if (!std::regex_search(text, m, word)) return 1;
  int line = 1;
  for (std::size_t i = 0; i < static_cast<std::size_t>(m.position()); ++i) {
    if (text[i] == '\n') ++line;
  }
  return line;
}

// Enumerators bumped in `text`: macro call sites, qualified mentions and
// the counter legs of status rows.
void collect_increments(const std::string& text, std::set<std::string>& out) {
  static const std::regex bump(
      R"((?:PFACT_COUNT|PFACT_COUNT_N|PFACT_HISTO)\s*\(\s*(k\w+))"
      R"(|(?:Counter|Histogram)::(k\w+))"
      R"re(|X\(\s*k\w+\s*,\s*"[^"]*"\s*,\s*k\w+\s*,\s*(k\w+)\s*\))re");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), bump);
       it != std::sregex_iterator(); ++it) {
    for (int group = 1; group <= 3; ++group) {
      if ((*it)[group].matched) out.insert((*it)[group].str());
    }
  }
}

// The (enumerator, kebab name) rows of `#define <macro>(X)` in `text`, up
// to the first line the macro does not continue past.
std::vector<std::pair<std::string, std::string>> parse_rows(
    const std::string& text, const std::string& macro) {
  std::vector<std::pair<std::string, std::string>> rows;
  const std::size_t at = text.find("#define " + macro + "(X)");
  if (at == std::string::npos) return rows;
  static const std::regex row(R"re(X\(\s*(k\w+)\s*,\s*"([^"]*)"\s*\))re");
  std::istringstream lines(text.substr(at));
  std::string line;
  while (std::getline(lines, line)) {
    for (auto it = std::sregex_iterator(line.begin(), line.end(), row);
         it != std::sregex_iterator(); ++it) {
      rows.emplace_back((*it)[1].str(), (*it)[2].str());
    }
    const std::size_t last = line.find_last_not_of(" \t\r");
    if (last == std::string::npos || line[last] != '\\') break;
  }
  return rows;
}

}  // namespace

void check_counter_liveness(Context& ctx) {
  const std::string& counters = ctx.scrub("src/obs/counters.h");
  if (counters.empty()) return;

  struct Taxon {
    const char* enum_name;
    const char* rows_macro;
  };
  static const Taxon kTaxa[] = {{"Counter", "PFACT_COUNTER_ROWS"},
                                {"Histogram", "PFACT_HISTOGRAM_ROWS"}};

  // Increment leg: src/ (minus the row lists) plus bench/ sources.
  std::set<std::string> incremented;
  for (const auto& [rel, file] : ctx.tree.files) {
    if (rel != "src/obs/counters.h") {
      collect_increments(file.scrub, incremented);
    }
  }
  for (const auto& [rel, text] : ctx.tree.aux_texts) {
    if (rel.rfind("bench/", 0) == 0) collect_increments(text, incremented);
  }

  // Observed leg: enumerator tokens and quoted strings across tests+bench.
  std::set<std::string> observed_ids;
  std::set<std::string> observed_names;
  static const std::regex enum_tok(R"(\bk[A-Z]\w*\b)");
  static const std::regex quoted_str("\"([a-z0-9-]+)\"");
  for (const auto& [rel, text] : ctx.tree.aux_texts) {
    for (auto it = std::sregex_iterator(text.begin(), text.end(), enum_tok);
         it != std::sregex_iterator(); ++it) {
      observed_ids.insert(it->str());
    }
    for (auto it = std::sregex_iterator(text.begin(), text.end(), quoted_str);
         it != std::sregex_iterator(); ++it) {
      observed_names.insert((*it)[1].str());
    }
  }

  for (const Taxon& t : kTaxa) {
    const auto rows = parse_rows(counters, t.rows_macro);
    if (rows.empty()) {
      ctx.report("PL017", "counter-dead",
                 std::string(t.rows_macro) +
                     " row list not found in src/obs/counters.h");
    }
    for (const auto& [id, name] : rows) {
      const bool inc = incremented.count(id) != 0;
      const bool obs =
          observed_ids.count(id) != 0 || observed_names.count(name) != 0;
      if (inc && obs) continue;
      std::string what;
      if (!inc) {
        what = "is never incremented in src/ or bench/ — it measures "
               "nothing";
      }
      if (!obs) {
        if (!what.empty()) what += ", and ";
        what +=
            "is not asserted or recorded by any test or bench source — it "
            "can silently rot";
      }
      ctx.report_at("PL017", "counter-dead", "src/obs/counters.h",
                    line_of_first(counters, id),
                    std::string(t.enum_name) + "::" + id + " " + what);
    }
  }
}

}  // namespace pfact_lint
