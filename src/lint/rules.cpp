#include "lint/rules.hpp"

#include <array>
#include <cctype>
#include <string>

namespace exadigit::lint {
namespace {

using Tokens = std::vector<Token>;

/// tokens[i] is preceded by `std::`.
bool std_qualified(const Tokens& toks, std::size_t i) {
  return i >= 2 && toks[i - 1].kind == TokenKind::kPunct && toks[i - 1].text == "::" &&
         toks[i - 2].kind == TokenKind::kIdentifier && toks[i - 2].text == "std";
}

const Token* next_token(const Tokens& toks, std::size_t i) {
  return i + 1 < toks.size() ? &toks[i + 1] : nullptr;
}

bool next_is_punct(const Tokens& toks, std::size_t i, std::string_view punct) {
  const Token* next = next_token(toks, i);
  return next != nullptr && next->kind == TokenKind::kPunct && next->text == punct;
}

/// tokens[i] is selected off an object or a non-std scope: `rng.rand()`,
/// `gen->rand()`, `my::stoi(...)`. Those are project members, not libc.
bool member_qualified(const Tokens& toks, std::size_t i) {
  if (i == 0 || toks[i - 1].kind != TokenKind::kPunct) return false;
  const std::string& prev = toks[i - 1].text;
  if (prev == "." || prev == "->") return true;
  return prev == "::" && i >= 2 && toks[i - 2].kind == TokenKind::kIdentifier &&
         toks[i - 2].text != "std";
}

/// Looks like a call or a std-qualified reference — the shapes a banned
/// function actually ships in. A member of the same name on a project type
/// (e.g. Report::to_string, rng.rand()) is not std-qualified and stays
/// unflagged.
bool is_call_like(const Tokens& toks, std::size_t i) {
  if (std_qualified(toks, i)) return true;
  return next_is_punct(toks, i, "(") && !member_qualified(toks, i);
}

bool any_of(std::string_view needle, std::initializer_list<std::string_view> haystack) {
  for (const std::string_view s : haystack) {
    if (needle == s) return true;
  }
  return false;
}

/// For a type name at tokens[i] (template arguments already skipped to
/// position `after`), decides whether the mention constructs a value.
/// References, pointers, and nested-name uses (`std::string::npos`) do not.
bool mentions_value(const Tokens& toks, std::size_t after) {
  if (after >= toks.size()) return false;
  const Token& next = toks[after];
  if (next.kind != TokenKind::kPunct) return true;  // declarator or identifier
  // `&`/`*` = reference/pointer; `::` = nested name; `>`/`,`/`)` = appearing
  // as a template or parameter-list argument of an enclosing type.
  return !(next.text == "&" || next.text == "*" || next.text == "::" || next.text == ">" ||
           next.text == "," || next.text == ")");
}

/// Index just past a balanced template argument list starting at toks[i]
/// (which must be `<`); returns i when toks[i] is not `<`.
std::size_t skip_template_args(const Tokens& toks, std::size_t i) {
  if (i >= toks.size() || toks[i].kind != TokenKind::kPunct || toks[i].text != "<") return i;
  int depth = 0;
  std::size_t j = i;
  for (; j < toks.size(); ++j) {
    if (toks[j].kind != TokenKind::kPunct) continue;
    if (toks[j].text == "<") ++depth;
    if (toks[j].text == ">" && --depth == 0) return j + 1;
  }
  return j;
}

/// Quoted path of an #include directive, or empty.
std::string_view include_path(std::string_view directive) {
  std::size_t i = 0;
  while (i < directive.size() && (directive[i] == '#' || directive[i] == ' ' ||
                                  directive[i] == '\t')) {
    ++i;
  }
  if (directive.substr(i, 7) != "include") return {};
  const std::size_t open = directive.find('"', i + 7);
  if (open == std::string_view::npos) return {};
  const std::size_t close = directive.find('"', open + 1);
  if (close == std::string_view::npos) return {};
  return directive.substr(open + 1, close - open - 1);
}

// ---------------------------------------------------------------------------
// determinism-containers
// ---------------------------------------------------------------------------

class DeterminismContainersRule final : public Rule {
 public:
  std::string_view name() const override { return "determinism-containers"; }
  std::string_view description() const override {
    return "std::unordered_map/set banned in determinism-critical layers "
           "(iteration order is implementation-defined and breaks the "
           "bit-identical replay contract); use std::map/std::set or sorted "
           "vectors";
  }
  bool applies_to(std::string_view path) const override {
    return path_in_dir(path, "src/raps/policy") || path_in_dir(path, "src/core") ||
           path_in_dir(path, "src/cooling") || path_in_dir(path, "src/power");
  }
  void check(const LintFile& file, std::vector<Finding>& out) const override {
    const Tokens& toks = file.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind == TokenKind::kPreprocessor) {
        const std::size_t lt = toks[i].text.find('<');
        if (toks[i].text.find("include") != std::string::npos &&
            lt != std::string::npos &&
            (toks[i].text.find("<unordered_map>", lt) != std::string::npos ||
             toks[i].text.find("<unordered_set>", lt) != std::string::npos)) {
          out.push_back(Finding{std::string(name()), file.path, toks[i].line,
                                "unordered container header included in a "
                                "determinism-critical layer"});
        }
        continue;
      }
      if (toks[i].kind != TokenKind::kIdentifier) continue;
      if (any_of(toks[i].text, {"unordered_map", "unordered_set", "unordered_multimap",
                                "unordered_multiset"})) {
        out.push_back(
            Finding{std::string(name()), file.path, toks[i].line,
                    "std::" + toks[i].text +
                        " has implementation-defined iteration order; the "
                        "SchedulingPolicy determinism contract "
                        "(src/raps/policy/scheduling_policy.hpp) requires ordered "
                        "containers here"});
      }
    }
  }
};

// ---------------------------------------------------------------------------
// determinism-random
// ---------------------------------------------------------------------------

class DeterminismRandomRule final : public Rule {
 public:
  std::string_view name() const override { return "determinism-random"; }
  std::string_view description() const override {
    return "rand()/std::rand/std::random_device banned outside src/common/rng.* "
           "(unseedable or global-state randomness breaks reproducible runs); "
           "use the seeded exadigit::Rng";
  }
  bool applies_to(std::string_view path) const override {
    return !path_has_prefix(path, "src/common/rng.");
  }
  void check(const LintFile& file, std::vector<Finding>& out) const override {
    const Tokens& toks = file.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier) continue;
      const std::string& t = toks[i].text;
      const bool banned_call =
          any_of(t, {"rand", "srand", "rand_r", "drand48", "lrand48", "mrand48"}) &&
          is_call_like(toks, i);
      const bool banned_type = t == "random_device";
      if (banned_call || banned_type) {
        out.push_back(Finding{std::string(name()), file.path, toks[i].line,
                              (banned_type ? "std::random_device" : t) +
                                  " is non-reproducible; draw from the seeded "
                                  "exadigit::Rng (src/common/rng.hpp) instead"});
      }
    }
  }
};

// ---------------------------------------------------------------------------
// locale-parsing
// ---------------------------------------------------------------------------

class LocaleParsingRule final : public Rule {
 public:
  std::string_view name() const override { return "locale-parsing"; }
  std::string_view description() const override {
    return "std::stod/stoi/strtod/atof/sscanf honour LC_NUMERIC and are banned "
           "outside src/common/parse.*; use the from_chars wrappers in "
           "common/parse.hpp";
  }
  bool applies_to(std::string_view path) const override {
    return !path_has_prefix(path, "src/common/parse.");
  }
  void check(const LintFile& file, std::vector<Finding>& out) const override {
    const Tokens& toks = file.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier) continue;
      const std::string& t = toks[i].text;
      if (!any_of(t, {"stod", "stof", "stold", "stoi", "stol", "stoll", "stoul", "stoull",
                      "strtod", "strtof", "strtold", "strtol", "strtoul", "strtoull", "atof",
                      "atoi", "atol", "atoll", "sscanf", "vsscanf", "fscanf", "scanf"})) {
        continue;
      }
      if (!is_call_like(toks, i)) continue;
      out.push_back(Finding{std::string(name()), file.path, toks[i].line,
                            t + " honours LC_NUMERIC (locale-dependent parsing); use the "
                                "std::from_chars wrappers in common/parse.hpp "
                                "(try_parse_double/try_parse_int/try_parse_uint64)"});
    }
  }
};

// ---------------------------------------------------------------------------
// hot-path-alloc
// ---------------------------------------------------------------------------

class HotPathAllocRule final : public Rule {
 public:
  std::string_view name() const override { return "hot-path-alloc"; }
  std::string_view description() const override {
    return "inside // exadigit-hot-begin/end regions: no operator new, "
           "malloc-family calls, std::to_string, or by-value std::string / "
           "std::vector constructions — the hot paths are allocation-free";
  }
  void check(const LintFile& file, std::vector<Finding>& out) const override {
    if (file.hot_regions.empty()) return;
    const Tokens& toks = file.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier || !file.in_hot_region(toks[i].line)) {
        continue;
      }
      const std::string& t = toks[i].text;
      if (t == "new") {
        report(file, toks[i].line, "operator new allocates", out);
        continue;
      }
      if (any_of(t, {"malloc", "calloc", "realloc", "aligned_alloc", "strdup"}) &&
          is_call_like(toks, i)) {
        report(file, toks[i].line, t + "() allocates", out);
        continue;
      }
      if (!std_qualified(toks, i)) continue;
      if (t == "to_string") {
        report(file, toks[i].line, "std::to_string builds a temporary std::string", out);
        continue;
      }
      if (t == "string" && mentions_value(toks, i + 1)) {
        report(file, toks[i].line,
               "by-value std::string construction allocates; pass string_view or "
               "const std::string&",
               out);
        continue;
      }
      if (t == "vector") {
        const std::size_t after = skip_template_args(toks, i + 1);
        if (after > i + 1 && mentions_value(toks, after)) {
          report(file, toks[i].line,
                 "by-value std::vector construction/return allocates; reuse a "
                 "workspace buffer or an out-parameter (see the columns "
                 "of CduColumns in cooling/cdu_thermal.hpp)",
                 out);
        }
      }
    }
  }

 private:
  void report(const LintFile& file, int line, std::string what,
              std::vector<Finding>& out) const {
    out.push_back(Finding{std::string(name()), file.path, line,
                          std::move(what) + " inside an exadigit-hot region"});
  }
};

// ---------------------------------------------------------------------------
// relative-includes
// ---------------------------------------------------------------------------

class RelativeIncludesRule final : public Rule {
 public:
  std::string_view name() const override { return "relative-includes"; }
  std::string_view description() const override {
    return "#include \"../...\" escapes the single src/ include root; include "
           "repo-relative paths (\"common/parse.hpp\") instead";
  }
  void check(const LintFile& file, std::vector<Finding>& out) const override {
    for (const Token& tok : file.lex.tokens) {
      if (tok.kind != TokenKind::kPreprocessor) continue;
      const std::string_view path = include_path(tok.text);
      if (path.substr(0, 3) == "../" || path.find("/../") != std::string_view::npos) {
        out.push_back(Finding{std::string(name()), file.path, tok.line,
                              "relative include \"" + std::string(path) +
                                  "\"; use the repo-root-relative form (the src/ "
                                  "include root is on every target)"});
      }
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> make_default_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<DeterminismContainersRule>());
  rules.push_back(std::make_unique<DeterminismRandomRule>());
  rules.push_back(std::make_unique<LocaleParsingRule>());
  rules.push_back(std::make_unique<HotPathAllocRule>());
  rules.push_back(std::make_unique<RelativeIncludesRule>());
  return rules;
}

}  // namespace exadigit::lint
