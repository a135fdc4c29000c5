// PL015 signal-unsafe-handler: every function reachable from a registered
// signal handler may only perform async-signal-safe operations. A handler
// that calls malloc, printf, or takes a lock deadlocks or corrupts state
// with probability proportional to exactly how unlucky the soak run is.
//
// Registration sites are scraped from the whole tree (`sa_handler = NAME`,
// `sa_sigaction = NAME`, `signal(SIG..., NAME)`; SIG_IGN/SIG_DFL are not
// handlers). From each handler the call graph is walked by name: a callee
// defined anywhere in src/ is recursed into; an undefined callee must be on
// the async-signal-safe allowlist (POSIX table plus lock-free atomics).

#include <map>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "lint/rules.h"

namespace pfact_lint {

namespace {

// POSIX async-signal-safe functions this codebase plausibly reaches, plus
// compiler intrinsics. Extend deliberately; the whole point is friction.
const std::set<std::string> kSafeFree = {
    "write", "read",  "close", "_exit",  "_Exit",        "abort",
    "raise", "kill",  "signal", "sigaction", "fsync",    "fdatasync",
    "dup",   "dup2",  "pipe",  "getpid", "getppid", "gettid", "time",
    "clock_gettime", "sem_post", "send", "recv",
};

// Methods safe on lock-free std::atomic<T> (and atomic_flag).
const std::set<std::string> kSafeMethods = {
    "load",        "store",
    "exchange",    "compare_exchange_strong",
    "compare_exchange_weak", "fetch_add",
    "fetch_sub",   "fetch_or",
    "fetch_and",   "fetch_xor",
    "test_and_set", "clear",
    "test",
};

const std::set<std::string> kNotCalls = {
    "if",     "for",     "while",  "switch", "catch",    "return",
    "sizeof", "alignof", "do",     "else",   "defined",  "noexcept",
};

struct Def {
  const SourceFile* file;
  const SourceFile::Func* func;
};

using DefIndex = std::map<std::string, std::vector<Def>>;

void walk(Context& ctx, const DefIndex& defs, const std::string& handler,
          const Def& d, std::set<std::string>& visited) {
  const std::string key = d.file->relpath + "#" + d.func->name;
  if (!visited.insert(key).second) return;

  const SourceFile& f = *d.file;
  for (std::size_t i = d.func->open_tok + 1; i < d.func->close_tok; ++i) {
    if (f.tokens[i].kind != TokKind::kIdent) continue;
    if (i + 1 >= f.tokens.size() || f.tokens[i + 1].kind != TokKind::kPunct ||
        f.tokens[i + 1].text != "(") {
      continue;
    }
    const std::string& name = f.tokens[i].text;
    if (kNotCalls.count(name) != 0) continue;

    const bool member = i > 0 && f.tokens[i - 1].kind == TokKind::kPunct &&
                        (f.tokens[i - 1].text == "." ||
                         f.tokens[i - 1].text == "->");
    if (member) {
      if (kSafeMethods.count(name) == 0) {
        ctx.report_at(
            "PL015", "signal-unsafe-handler", f.relpath, f.tokens[i].line,
            "signal handler " + handler + " reaches member call ." + name +
                "() in " + d.func->name +
                "() — only lock-free atomic operations are "
                "async-signal-safe here");
      }
      continue;
    }
    if (kSafeFree.count(name) != 0) continue;
    const auto it = defs.find(name);
    if (it != defs.end()) {
      for (const Def& callee : it->second) {
        walk(ctx, defs, handler, callee, visited);
      }
      continue;
    }
    ctx.report_at(
        "PL015", "signal-unsafe-handler", f.relpath, f.tokens[i].line,
        "signal handler " + handler + " reaches " + name + "() in " +
            d.func->name +
            "() — not on the async-signal-safe allowlist and not defined "
            "in src/ (so it cannot be audited)");
  }
}

}  // namespace

void check_signal_safety(Context& ctx) {
  // 1. Registered handler names.
  std::set<std::string> handlers;
  static const std::regex assign(
      R"(sa_(?:handler|sigaction)\s*=\s*([A-Za-z_]\w*))");
  static const std::regex via_signal(
      R"(\bsignal\s*\(\s*SIG[A-Z0-9]+\s*,\s*([A-Za-z_]\w*)\s*\))");
  for (const auto& [rel, file] : ctx.tree.files) {
    for (const std::regex* re : {&assign, &via_signal}) {
      for (auto it = std::sregex_iterator(file.scrub.begin(),
                                          file.scrub.end(), *re);
           it != std::sregex_iterator(); ++it) {
        const std::string name = (*it)[1].str();
        if (name != "SIG_IGN" && name != "SIG_DFL") handlers.insert(name);
      }
    }
  }
  if (handlers.empty()) return;

  // 2. Name -> definitions index over the whole tree.
  DefIndex defs;
  for (const auto& [rel, file] : ctx.tree.files) {
    for (const SourceFile::Func& fn : file.funcs) {
      defs[fn.name].push_back({&file, &fn});
    }
  }

  // 3. Walk reachability from each handler.
  for (const std::string& h : handlers) {
    const auto it = defs.find(h);
    if (it == defs.end()) continue;  // registered but defined out of tree
    std::set<std::string> visited;
    for (const Def& d : it->second) {
      walk(ctx, defs, h, d, visited);
    }
  }
}

}  // namespace pfact_lint
