// The PFCK schema ratchet (PL006, PL007, PL008, PL011): checkpoint field
// tags must be unique, the tag set may only change together with a
// kCheckpointVersion bump, the committed manifest must record the current
// state, and the sparse tag namespace is derived from the dense one.

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <set>

#include "lint/rules.h"

namespace pfact_lint {

namespace {

// The brace-matched body of the function named `name`: the text between the
// '{' that opens its definition and the matching '}'. A definition site is
// an occurrence of `name` that is a whole token, is followed by '(', and
// reaches a '{' before any ';' (which would make it a declaration or a
// call). Empty when no such body is found. String/char literals in the
// checked file never contain braces, so plain counting is sufficient.
std::string function_body(const std::string& src, const std::string& name) {
  auto is_ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  for (std::size_t at = src.find(name); at != std::string::npos;
       at = src.find(name, at + 1)) {
    if (at > 0 && is_ident(src[at - 1])) continue;
    std::size_t after = at + name.size();
    while (after < src.size() &&
           std::isspace(static_cast<unsigned char>(src[after]))) {
      ++after;
    }
    if (after >= src.size() || src[after] != '(') continue;
    const std::size_t open = src.find('{', after);
    const std::size_t semi = src.find(';', after);
    if (open == std::string::npos || (semi != std::string::npos && semi < open))
      continue;
    int depth = 0;
    for (std::size_t i = open; i < src.size(); ++i) {
      if (src[i] == '{') ++depth;
      if (src[i] == '}' && --depth == 0) {
        return src.substr(open, i - open + 1);
      }
    }
    return std::string();
  }
  return std::string();
}

}  // namespace

// PL006: duplicate tags (checked before sorting loses multiplicity).
void check_tag_uniqueness(Context& ctx, const CheckpointSchema& schema) {
  std::set<std::string> seen;
  for (const std::string& t : schema.tags) {
    if (!seen.insert(t).second) {
      ctx.report("PL006", "checkpoint-tag-duplicate",
                 "field_tag \"" + t +
                     "\" is returned by more than one specialization in "
                     "src/robustness/checkpoint.h — resume could validate "
                     "a blob from the wrong field");
    }
  }
}

// PL011: the sparse tag namespace is derived, not free-form. Every
// sparse_field_tag<T>() specialization must (a) shadow an existing dense
// field_tag<T>() for the SAME scalar T — a sparse codec for a field the
// dense world cannot decode would strand blobs on backend escalation,
// (b) spell its tag as "sparse-" + the dense tag, so tag pairs stay
// mechanically relatable across the manifest ratchet, and (c) appear in the
// all_sparse_field_tags() sweep list, which the checkpoint corruption tests
// (tests/robustness/test_checkpoint_sparse.cpp) iterate — an unswept tag is
// a codec no rejection matrix ever exercises.
void check_sparse_tags(Context& ctx) {
  const std::string src = ctx.scrub("src/robustness/checkpoint.h");
  if (src.empty()) return;

  const auto normalize = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      if (!std::isspace(static_cast<unsigned char>(c))) out += c;
    }
    return out;
  };

  // Group 1 distinguishes the namespaces: "sparse_" for the sparse
  // specializations, empty for the dense ones (any other identifier prefix
  // would be a third tag family this rule does not govern).
  const std::regex spec(
      "(\\w*)field_tag<([^>]+)>\\(\\)\\s*\\{\\s*return\\s*\"([^\"]+)\"");
  std::map<std::string, std::string> dense_tags;   // scalar arg -> tag
  std::map<std::string, std::string> sparse_tags;  // scalar arg -> tag
  for (auto it = std::sregex_iterator(src.begin(), src.end(), spec);
       it != std::sregex_iterator(); ++it) {
    const std::string prefix = (*it)[1].str();
    const std::string arg = normalize((*it)[2].str());
    const std::string tag = (*it)[3].str();
    if (prefix == "sparse_") {
      sparse_tags[arg] = tag;
    } else if (prefix.empty()) {
      dense_tags[arg] = tag;
    }
  }

  std::set<std::string> swept;  // scalar args mentioned in the sweep list
  const std::string sweep_body = function_body(src, "all_sparse_field_tags");
  const std::regex mention("sparse_field_tag<([^>]+)>");
  for (auto it =
           std::sregex_iterator(sweep_body.begin(), sweep_body.end(), mention);
       it != std::sregex_iterator(); ++it) {
    swept.insert(normalize((*it)[1].str()));
  }

  for (const auto& [arg, tag] : sparse_tags) {
    const std::string spelled = "sparse_field_tag<" + arg + ">";
    const auto dense = dense_tags.find(arg);
    if (dense == dense_tags.end()) {
      ctx.report("PL011", "sparse-tag-unregistered",
                 spelled + " (\"" + tag +
                     "\") has no dense field_tag<" + arg +
                     "> counterpart in src/robustness/checkpoint.h — a "
                     "sparse blob of this field could never be cross-checked "
                     "or resumed densely");
    } else if (tag != "sparse-" + dense->second) {
      ctx.report("PL011", "sparse-tag-unregistered",
                 spelled + " returns \"" + tag + "\" but the naming law "
                     "requires \"sparse-" + dense->second +
                     "\" (the dense tag with the sparse- prefix)");
    }
    if (swept.count(arg) == 0) {
      ctx.report("PL011", "sparse-tag-unregistered",
                 spelled +
                     " is missing from the all_sparse_field_tags() sweep "
                     "list — the checkpoint corruption matrix would never "
                     "exercise its codec");
    }
  }
}

// PL007/PL008: the tag set may only change together with a version bump,
// and the manifest must record the current state.
void check_manifest(Context& ctx, const CheckpointSchema& schema,
                    const std::string& manifest_path) {
  const Manifest m = read_manifest(manifest_path);
  if (!m.present || !m.version.has_value()) {
    ctx.report("PL008", "checkpoint-manifest-outdated",
               "manifest " + manifest_path +
                   " is missing or unparsable — regenerate with "
                   "--update-manifest");
    return;
  }
  std::vector<std::string> tags = schema.tags;
  std::sort(tags.begin(), tags.end());
  const bool tags_changed = tags != m.tags;
  const bool version_changed = schema.version != m.version;
  if (tags_changed && !version_changed) {
    std::string delta;
    for (const std::string& t : tags) {
      if (!std::binary_search(m.tags.begin(), m.tags.end(), t)) {
        delta += " +" + t;
      }
    }
    for (const std::string& t : m.tags) {
      if (!std::binary_search(tags.begin(), tags.end(), t)) delta += " -" + t;
    }
    ctx.report("PL007", "checkpoint-version-stale",
               "the checkpoint field-tag set changed (" +
                   (delta.empty() ? std::string(" reordered") : delta) +
                   " ) but kCheckpointVersion is still " +
                   std::to_string(m.version.value()) +
                   " — old blobs would decode under the new schema; bump "
                   "the version, then --update-manifest");
  } else if (tags_changed || version_changed) {
    ctx.report("PL008", "checkpoint-manifest-outdated",
               "manifest records version " +
                   std::to_string(m.version.value()) + " with " +
                   std::to_string(m.tags.size()) +
                   " tag(s), but src/robustness/checkpoint.h now has "
                   "version " +
                   (schema.version ? std::to_string(*schema.version)
                                   : std::string("?")) +
                   " with " + std::to_string(schema.tags.size()) +
                   " tag(s) — regenerate with --update-manifest");
  }
}

}  // namespace pfact_lint
