#include "model.hpp"

#include <array>
#include <cstddef>
#include <unordered_set>

namespace nsm_analyze {

namespace {

const std::unordered_set<std::string>& BlockingNames() {
  // The mpimini calls that block until a peer rank (or a notification)
  // makes progress.
  static const std::unordered_set<std::string> kNames = {
      "Barrier",   "Bcast",       "Reduce",     "AllReduce", "AllReduceValue",
      "Gather",    "GatherBytes", "AllGather",  "AllToAllBytes",
      "Split",     "RecvBytes",   "RecvBuffer", "Recv",      "RecvValue",
      "Probe"};
  return kNames;
}

const std::unordered_set<std::string>& CollectiveNames() {
  // The subset every rank of the communicator must call in the same order.
  // Point-to-point receives are deliberately absent: `if (rank == root)
  // Recv else Send` is how collectives are *implemented*, not a divergence.
  static const std::unordered_set<std::string> kNames = {
      "Barrier", "Bcast",     "Reduce",        "AllReduce", "AllReduceValue",
      "Gather",  "GatherBytes", "AllGather",   "AllToAllBytes", "Split"};
  return kNames;
}

const std::unordered_set<std::string>& StatementKeywords() {
  static const std::unordered_set<std::string> kNames = {
      "if",     "for",      "while",   "switch",        "catch",
      "return", "sizeof",   "alignof", "decltype",      "static_assert",
      "new",    "delete",   "throw",   "else",          "do",
      "case",   "default",  "goto",    "co_return",     "co_await",
      "static_cast",        "dynamic_cast", "const_cast",
      "reinterpret_cast",   "alignas",      "noexcept"};
  return kNames;
}

const std::unordered_set<std::string>& MetricMethods() {
  static const std::unordered_set<std::string> kNames = {
      "Set",      "Add",           "SetTotal",      "Observe",
      "DefineHistogram", "SampleCounter", "AddCounter"};
  return kNames;
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// Index just past the region balanced in (), [], {} and — when the region
/// opens with '<' — template angle brackets.  `begin` must index the
/// opening token.  Returns tokens.size() when unbalanced (end of file).
std::size_t SkipBalanced(const std::vector<Token>& tokens, std::size_t begin) {
  struct Pair { const char* open; const char* close; };
  static constexpr std::array<Pair, 4> kPairs = {
      Pair{"(", ")"}, Pair{"[", "]"}, Pair{"{", "}"}, Pair{"<", ">"}};
  const Token& first = tokens[begin];
  const char* open = nullptr;
  const char* close = nullptr;
  for (const Pair& p : kPairs) {
    if (IsPunct(first, p.open)) {
      open = p.open;
      close = p.close;
    }
  }
  if (open == nullptr) return begin + 1;
  int depth = 0;
  for (std::size_t i = begin; i < tokens.size(); ++i) {
    if (IsPunct(tokens[i], open)) ++depth;
    else if (IsPunct(tokens[i], close) && --depth == 0) return i + 1;
  }
  return tokens.size();
}

/// Matches `core::MutexLock` / `std::lock_guard|unique_lock|scoped_lock`
/// starting at `i`.  On match returns the index just past the class name
/// (before any template arguments); otherwise returns 0.
std::size_t MatchGuardClass(const std::vector<Token>& tokens, std::size_t i) {
  if (i + 2 >= tokens.size()) return 0;
  if (!IsPunct(tokens[i + 1], "::")) return 0;
  const std::string& ns = tokens[i].text;
  const std::string& cls = tokens[i + 2].text;
  if (tokens[i].kind != TokenKind::kIdentifier ||
      tokens[i + 2].kind != TokenKind::kIdentifier) {
    return 0;
  }
  const bool core_guard = ns == "core" && cls == "MutexLock";
  const bool std_guard =
      ns == "std" && (cls == "lock_guard" || cls == "unique_lock" ||
                      cls == "scoped_lock");
  return core_guard || std_guard ? i + 3 : 0;
}

/// Last identifier of a token range — the member name of a lock expression
/// (`state_->mutex` -> "mutex", `AdoptMutex()` -> "AdoptMutex").
std::string LastIdentifier(const std::vector<Token>& tokens, std::size_t begin,
                           std::size_t end) {
  std::string last;
  for (std::size_t i = begin; i < end; ++i) {
    if (tokens[i].kind == TokenKind::kIdentifier) last = tokens[i].text;
  }
  return last;
}

/// End of the first constructor argument: the top-level ',' or the close of
/// the region opened at `open` (which indexes '(' or '{').
std::size_t FirstArgEnd(const std::vector<Token>& tokens, std::size_t open) {
  const std::size_t region_end = SkipBalanced(tokens, open);
  int depth = 0;
  for (std::size_t i = open; i < region_end; ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kPunct) continue;
    if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
    else if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
    else if (t.text == "," && depth == 1) return i;
  }
  return region_end > open ? region_end - 1 : open;
}

bool ConditionTestsRank(const std::vector<Token>& tokens, std::size_t begin,
                        std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text == "rank" || t.text == "rank_" || t.text == "world_rank") {
      return true;
    }
    if (t.text == "Rank" && i + 1 < end && IsPunct(tokens[i + 1], "(")) {
      return true;
    }
  }
  return false;
}

/// Collect collective call names inside [begin, end).
void CollectCollectives(const std::vector<Token>& tokens, std::size_t begin,
                        std::size_t end, std::vector<BranchCollective>* out) {
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kIdentifier || !IsCollectiveCall(t.text)) {
      continue;
    }
    if (i + 1 >= tokens.size()) continue;
    const bool method =
        i > 0 && (IsPunct(tokens[i - 1], ".") || IsPunct(tokens[i - 1], "->"));
    const bool qualified = i > 0 && IsPunct(tokens[i - 1], "::");
    if (qualified) continue;  // out-of-line definition header, not a call
    const bool called = IsPunct(tokens[i + 1], "(") ||
                        (method && IsPunct(tokens[i + 1], "<"));
    if (called) out->push_back({t.text, t.line});
  }
}

/// Extent of the statement starting at `i` (used for braceless if/else
/// branches): a balanced `{...}` block, a nested if-statement, or a simple
/// statement up to its ';'.
std::size_t StatementEnd(const std::vector<Token>& tokens, std::size_t i) {
  if (i >= tokens.size()) return i;
  if (IsPunct(tokens[i], "{")) return SkipBalanced(tokens, i);
  if (IsIdent(tokens[i], "if")) {
    std::size_t j = i + 1;
    if (j < tokens.size() && IsPunct(tokens[j], "(")) {
      j = SkipBalanced(tokens, j);           // condition
      j = StatementEnd(tokens, j);           // then-branch
      if (j < tokens.size() && IsIdent(tokens[j], "else")) {
        j = StatementEnd(tokens, j + 1);     // else-branch
      }
      return j;
    }
  }
  int depth = 0;
  for (std::size_t j = i; j < tokens.size(); ++j) {
    const Token& t = tokens[j];
    if (t.kind != TokenKind::kPunct) continue;
    if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
    else if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
    else if (t.text == ";" && depth == 0) return j + 1;
  }
  return tokens.size();
}

/// Parse a qualified name at `i`: ident (:: ident)*.  Returns the index
/// just past it and fills the components; returns `i` when not a name.
std::size_t MatchQualifiedName(const std::vector<Token>& tokens, std::size_t i,
                               std::vector<std::string>* components) {
  if (i >= tokens.size() || tokens[i].kind != TokenKind::kIdentifier) return i;
  components->push_back(tokens[i].text);
  std::size_t j = i + 1;
  while (j + 1 < tokens.size() && IsPunct(tokens[j], "::") &&
         tokens[j + 1].kind == TokenKind::kIdentifier) {
    components->push_back(tokens[j + 1].text);
    j += 2;
  }
  return j;
}

/// Try to match a function definition whose name starts at token `i`.
/// On success returns the index of the body's '{' and fills name/qualified;
/// on failure returns 0.
std::size_t MatchFunctionDefinition(const std::vector<Token>& tokens,
                                    std::size_t i, std::string* name,
                                    std::string* qualified) {
  std::vector<std::string> components;
  const std::size_t after_name = MatchQualifiedName(tokens, i, &components);
  if (after_name == i) return 0;
  if (StatementKeywords().count(components.back()) != 0) return 0;
  if (components.back() == "operator") return 0;  // operator overloads: skip
  if (after_name >= tokens.size() || !IsPunct(tokens[after_name], "(")) {
    return 0;
  }
  std::size_t j = SkipBalanced(tokens, after_name);  // parameter list

  // Trailer: cv-qualifiers, ref-qualifiers, noexcept(...), annotation
  // macros, trailing return type, constructor initializer list — anything
  // legal between the parameter list and the body.
  while (j < tokens.size()) {
    const Token& t = tokens[j];
    if (IsPunct(t, "{")) break;        // the body
    if (IsPunct(t, ";")) return 0;     // declaration only
    if (IsPunct(t, "=")) return 0;     // `= default` / `= delete` / init
    if (t.kind == TokenKind::kIdentifier) {
      // const / noexcept / override / final / NSM_REQUIRES(...) / try ...
      ++j;
      if (j < tokens.size() && IsPunct(tokens[j], "(")) {
        j = SkipBalanced(tokens, j);
      }
      continue;
    }
    if (IsPunct(t, "&") || IsPunct(t, "&&")) {
      ++j;
      continue;
    }
    if (IsPunct(t, "->")) {  // trailing return type: scan to '{' or ';'
      ++j;
      while (j < tokens.size() && !IsPunct(tokens[j], "{") &&
             !IsPunct(tokens[j], ";") && !IsPunct(tokens[j], "=")) {
        j = IsPunct(tokens[j], "(") || IsPunct(tokens[j], "<")
                ? SkipBalanced(tokens, j)
                : j + 1;
      }
      continue;
    }
    if (IsPunct(t, ":")) {  // constructor initializer list
      ++j;
      while (j < tokens.size() && !IsPunct(tokens[j], "{")) {
        if (IsPunct(tokens[j], "(") || IsPunct(tokens[j], "<")) {
          j = SkipBalanced(tokens, j);
          // A braced member init `member{...}` is part of the list; the
          // body '{' follows a ')' or '}' of the previous initializer, a
          // ',' continues the list.
          continue;
        }
        if (IsPunct(tokens[j], "{")) break;
        ++j;
      }
      // Distinguish `member{...}` (followed by ',' or another init) from
      // the body: a '{' directly after an identifier/'>' is a braced init.
      while (j < tokens.size() && IsPunct(tokens[j], "{") && j > 0 &&
             (tokens[j - 1].kind == TokenKind::kIdentifier ||
              IsPunct(tokens[j - 1], ">"))) {
        j = SkipBalanced(tokens, j);
        while (j < tokens.size() && IsPunct(tokens[j], ",")) {
          ++j;
          while (j < tokens.size() && !IsPunct(tokens[j], "{") &&
                 !IsPunct(tokens[j], "(")) {
            ++j;
          }
          if (j < tokens.size() && IsPunct(tokens[j], "(")) {
            j = SkipBalanced(tokens, j);
          }
        }
      }
      continue;
    }
    return 0;  // anything else: not a definition
  }
  if (j >= tokens.size() || !IsPunct(tokens[j], "{")) return 0;

  *name = components.back();
  std::string full;
  for (const std::string& c : components) {
    if (!full.empty()) full += "::";
    full += c;
  }
  *qualified = full;
  return j;
}

/// Scan a function body [body_open, close) producing the ordered events.
void ScanBody(const std::vector<Token>& tokens, std::size_t body_open,
              std::size_t body_end, const std::string& file,
              Function* function, std::vector<RankConditional>* conditionals) {
  int depth = 0;
  for (std::size_t i = body_open; i < body_end; ++i) {
    const Token& t = tokens[i];
    if (IsPunct(t, "{")) {
      ++depth;
      continue;
    }
    if (IsPunct(t, "}")) {
      --depth;
      Event e;
      e.kind = EventKind::kScopeClose;
      e.line = t.line;
      e.depth = depth;
      function->events.push_back(e);
      continue;
    }
    if (t.kind != TokenKind::kIdentifier) continue;

    // Guard acquisition.
    if (std::size_t after = MatchGuardClass(tokens, i); after != 0) {
      const bool core_guard = tokens[i].text == "core";
      std::size_t j = after;
      if (j < tokens.size() && IsPunct(tokens[j], "<")) {
        j = SkipBalanced(tokens, j);  // template arguments
      }
      // Named guard `MutexLock lock(expr)` or guard temporary
      // `MutexLock(expr)` (the latter is a bug — it guards nothing — but
      // the lock-order facts are identical).
      if (j < tokens.size() && tokens[j].kind == TokenKind::kIdentifier) ++j;
      if (j < tokens.size() &&
          (IsPunct(tokens[j], "(") || IsPunct(tokens[j], "{"))) {
        const std::size_t arg_end = FirstArgEnd(tokens, j);
        const std::string member = LastIdentifier(tokens, j + 1, arg_end);
        if (!member.empty()) {
          Event e;
          e.kind = EventKind::kGuardAcquire;
          e.line = t.line;
          e.depth = depth;
          e.name = LockId(file, member);
          e.core_guard = core_guard;
          function->events.push_back(e);
        }
        i = j;  // resume inside the argument list
        continue;
      }
    }

    const bool method_recv =
        i > body_open &&
        (IsPunct(tokens[i - 1], ".") || IsPunct(tokens[i - 1], "->"));
    const bool qualified_prev = i > body_open && IsPunct(tokens[i - 1], "::");
    const Token* next = i + 1 < body_end ? &tokens[i + 1] : nullptr;

    // Condition-variable wait.
    if (method_recv && t.text == "Wait" && next != nullptr &&
        IsPunct(*next, "(")) {
      Event e;
      e.kind = EventKind::kCondWait;
      e.line = t.line;
      e.depth = depth;
      e.name = "Wait";
      function->events.push_back(e);
      continue;
    }

    // Blocking mpimini call: method form `comm.Barrier(` / `comm.Recv<T>(`,
    // or bare member form `AllReduce(...)` inside Comm's own methods.
    if (IsBlockingCall(t.text) && !qualified_prev && next != nullptr &&
        (IsPunct(*next, "(") || (method_recv && IsPunct(*next, "<")))) {
      Event e;
      e.kind = EventKind::kBlockingCall;
      e.line = t.line;
      e.depth = depth;
      e.name = t.text;
      e.collective = IsCollectiveCall(t.text);
      function->events.push_back(e);
      continue;
    }

    // Rank-divergent collective scan: `if`/`switch` whose condition tests
    // the rank.  Lookahead only — the main scan still visits the branches.
    if ((t.text == "if" || t.text == "switch") && next != nullptr &&
        IsPunct(*next, "(")) {
      const std::size_t cond_begin = i + 1;
      const std::size_t cond_end = SkipBalanced(tokens, cond_begin);
      if (ConditionTestsRank(tokens, cond_begin + 1, cond_end - 1)) {
        RankConditional rc;
        rc.file = file;
        rc.line = t.line;
        rc.is_switch = t.text == "switch";
        const std::size_t then_end = StatementEnd(tokens, cond_end);
        CollectCollectives(tokens, cond_end, then_end, &rc.then_branch);
        if (!rc.is_switch && then_end < body_end &&
            IsIdent(tokens[then_end], "else")) {
          rc.has_else = true;
          const std::size_t else_end = StatementEnd(tokens, then_end + 1);
          CollectCollectives(tokens, then_end + 1, else_end, &rc.else_branch);
        }
        if (!rc.then_branch.empty() || !rc.else_branch.empty()) {
          conditionals->push_back(std::move(rc));
        }
      }
      continue;
    }

    // Plain call, a candidate for one-level callee propagation.
    if (next != nullptr && IsPunct(*next, "(") &&
        StatementKeywords().count(t.text) == 0) {
      Event e;
      e.kind = EventKind::kCall;
      e.line = t.line;
      e.depth = depth;
      e.name = t.text;
      function->events.push_back(e);
      continue;
    }
  }
}

/// Whole-file pass for span/metric name literals and ranked-mutex
/// declarations — both can live outside function bodies (member
/// initializers, class-scope declarations), so they get their own scan.
void ScanNamesAndDecls(const std::vector<Token>& tokens,
                       const std::string& file, FileModel* model) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kIdentifier) continue;

    // Span / IdleScope: `Span span("name"...)` or `Span("name"...)`.
    if (t.text == "Span" || t.text == "IdleScope" || t.text == "Instant") {
      std::size_t j = i + 1;
      if (t.text != "Instant" && j < tokens.size() &&
          tokens[j].kind == TokenKind::kIdentifier) {
        ++j;  // variable name
      }
      if (j + 1 < tokens.size() && IsPunct(tokens[j], "(") &&
          tokens[j + 1].kind == TokenKind::kString) {
        model->names.push_back(
            {NameKind::kSpan, tokens[j + 1].text, file, tokens[j + 1].line});
      }
      continue;
    }

    // Metric calls: `metrics->Set("plane.metric", ...)` and friends.  The
    // bare form (no receiver) is accepted too.
    if (MetricMethods().count(t.text) != 0 && i + 2 < tokens.size() &&
        IsPunct(tokens[i + 1], "(") &&
        tokens[i + 2].kind == TokenKind::kString) {
      model->names.push_back(
          {NameKind::kMetric, tokens[i + 2].text, file, tokens[i + 2].line});
      continue;
    }

    // `core::Mutex member{core::lock_rank::kConstant};` — or an unranked
    // declaration `core::Mutex member;`, recorded with an empty constant so
    // the lock-rank gate can demand a spec for every acquired mutex.
    if (t.text == "core" && i + 2 < tokens.size() &&
        IsPunct(tokens[i + 1], "::") && IsIdent(tokens[i + 2], "Mutex")) {
      std::size_t j = i + 3;
      if (j < tokens.size() && tokens[j].kind == TokenKind::kIdentifier) {
        const std::string member = tokens[j].text;
        const int decl_line = tokens[j].line;
        ++j;
        if (j < tokens.size() &&
            (IsPunct(tokens[j], "{") || IsPunct(tokens[j], "("))) {
          const std::size_t init_end = SkipBalanced(tokens, j);
          std::string constant;
          for (std::size_t k = j + 1; k + 2 < init_end; ++k) {
            if (IsIdent(tokens[k], "lock_rank") &&
                IsPunct(tokens[k + 1], "::") &&
                tokens[k + 2].kind == TokenKind::kIdentifier) {
              constant = tokens[k + 2].text;
              break;
            }
          }
          model->ranked_decls.push_back({file, decl_line, member, constant});
        } else if (j < tokens.size() && IsPunct(tokens[j], ";")) {
          model->ranked_decls.push_back({file, decl_line, member, ""});
        }
      }
      continue;
    }
  }
}

/// True when a string literal or identifier in [begin, end) mentions json,
/// case-insensitively.
bool NamesJson(const std::vector<Token>& tokens, std::size_t begin,
               std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kString && t.kind != TokenKind::kIdentifier) {
      continue;
    }
    std::string lower = t.text;
    for (char& c : lower) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    if (lower.find("json") != std::string::npos) return true;
  }
  return false;
}

/// Whole-file pass for the hygiene facts: include targets, raw new/delete
/// expressions, the `std::` vocabulary, and `ofstream` statements naming
/// json anywhere from the statement's start to its ';'.
void ScanHygiene(const std::vector<Token>& tokens, FileModel* model) {
  std::size_t statement_begin = 0;  // token after the last ';', '{' or '}'
  std::size_t flagged_end = 0;      // one json finding per statement
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind == TokenKind::kInclude) {
      model->includes.push_back({t.text, t.line});
      continue;
    }
    if (IsPunct(t, ";") || IsPunct(t, "{") || IsPunct(t, "}")) {
      statement_begin = i + 1;
      continue;
    }
    if (t.kind != TokenKind::kIdentifier) continue;
    const Token* prev = i > 0 ? &tokens[i - 1] : nullptr;

    if (i >= 2 && IsPunct(*prev, "::") && IsIdent(tokens[i - 2], "std")) {
      model->std_names.insert(t.text);
    }
    const bool is_delete = t.text == "delete";
    if ((t.text == "new" || is_delete) &&
        (prev == nullptr || (!IsIdent(*prev, "operator") &&
                             !(is_delete && IsPunct(*prev, "="))))) {
      model->raw_allocs.push_back({is_delete, t.line});
    }
    if (t.text == "ofstream" && i >= flagged_end) {
      std::size_t end = i;
      while (end < tokens.size() && !IsPunct(tokens[end], ";")) ++end;
      if (NamesJson(tokens, statement_begin, end)) {
        model->json_ofstream_lines.push_back(t.line);
        flagged_end = end;
      }
    }
  }
}

}  // namespace

bool IsBlockingCall(const std::string& name) {
  return BlockingNames().count(name) != 0;
}

bool IsCollectiveCall(const std::string& name) {
  return CollectiveNames().count(name) != 0;
}

std::string LockId(const std::string& display_path,
                   const std::string& member) {
  std::string stem = display_path;
  if (stem.rfind("src/", 0) == 0) stem = stem.substr(4);
  const std::size_t dot = stem.rfind('.');
  if (dot != std::string::npos) stem = stem.substr(0, dot);
  return stem + "::" + member;
}

FileModel ExtractFile(const std::string& display_path,
                      const std::vector<Token>& tokens) {
  FileModel model;
  model.file = display_path;
  ScanNamesAndDecls(tokens, display_path, &model);
  ScanHygiene(tokens, &model);

  // Function definitions, at any nesting level outside other bodies (free
  // functions, out-of-line members, in-class inline members).
  std::size_t i = 0;
  while (i < tokens.size()) {
    if (tokens[i].kind != TokenKind::kIdentifier) {
      ++i;
      continue;
    }
    std::string name;
    std::string qualified;
    const std::size_t body_open =
        MatchFunctionDefinition(tokens, i, &name, &qualified);
    if (body_open == 0) {
      ++i;
      continue;
    }
    const std::size_t body_end = SkipBalanced(tokens, body_open);
    Function function;
    function.name = name;
    function.qualified = qualified;
    function.file = display_path;
    function.line = tokens[i].line;
    ScanBody(tokens, body_open, body_end, display_path, &function,
             &model.rank_conditionals);
    model.functions.push_back(std::move(function));
    i = body_end;
  }
  return model;
}

}  // namespace nsm_analyze
