#include "lexer.hpp"

namespace nsm_analyze {

namespace {

bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool IsIdentChar(char c) { return IsIdentStart(c) || (c >= '0' && c <= '9'); }

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

std::vector<Token> Lex(const std::string& source) {
  std::vector<Token> tokens;
  const std::size_t n = source.size();
  std::size_t i = 0;
  int line = 1;
  // True until the first token (or non-whitespace) on the current physical
  // line: a `#` here starts a preprocessor directive.
  bool at_line_start = true;

  auto peek = [&](std::size_t offset) -> char {
    return i + offset < n ? source[i + offset] : '\0';
  };

  while (i < n) {
    const char c = source[i];

    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }

    // Preprocessor directive: consume the logical line, honoring backslash
    // continuations (phase-2 splicing).  Contributes no tokens — a macro
    // definition is not code the analyzer should attribute to a function —
    // except `#include <target>` / `#include "target"`, which records its
    // target for the include-hygiene rule.
    if (c == '#' && at_line_start) {
      std::size_t p = i + 1;
      while (p < n && (source[p] == ' ' || source[p] == '\t')) ++p;
      if (source.compare(p, 7, "include") == 0) {
        p += 7;
        while (p < n && (source[p] == ' ' || source[p] == '\t')) ++p;
        if (p < n && (source[p] == '<' || source[p] == '"')) {
          const char closer = source[p] == '<' ? '>' : '"';
          std::size_t end = p + 1;
          while (end < n && source[end] != closer && source[end] != '\n') {
            ++end;
          }
          if (end < n && source[end] == closer) {
            tokens.push_back({TokenKind::kInclude,
                              source.substr(p + 1, end - p - 1), line});
          }
        }
      }
      while (i < n) {
        if (source[i] == '\\' &&
            (i + 1 >= n || source[i + 1] == '\n' ||
             (source[i + 1] == '\r' && peek(2) == '\n'))) {
          // Continuation: swallow the backslash and the newline, keep going.
          i += source[i + 1] == '\r' ? 3 : 2;
          ++line;
          continue;
        }
        if (source[i] == '\n') break;  // the newline itself ends the line
        ++i;
      }
      continue;
    }
    at_line_start = false;

    // Line comment.  A trailing backslash continues it onto the next
    // physical line (same splicing rule as directives).
    if (c == '/' && peek(1) == '/') {
      i += 2;
      while (i < n) {
        if (source[i] == '\\' &&
            (i + 1 >= n || source[i + 1] == '\n' ||
             (source[i + 1] == '\r' && peek(2) == '\n'))) {
          i += source[i + 1] == '\r' ? 3 : 2;
          ++line;
          continue;
        }
        if (source[i] == '\n') break;
        ++i;
      }
      continue;
    }

    // Block comment: ends at the FIRST `*/` — C++ block comments do not
    // nest, so `/* outer /* inner */ code` resumes lexing at `code`.
    if (c == '/' && peek(1) == '*') {
      i += 2;
      while (i < n) {
        if (source[i] == '*' && peek(1) == '/') {
          i += 2;
          break;
        }
        if (source[i] == '\n') ++line;
        ++i;
      }
      continue;
    }

    // Raw string literal, with optional encoding prefix: R"d(...)d".
    // The body is opaque — braces, quotes, and code-shaped text inside it
    // must not reach the analyzer.
    {
      std::size_t p = i;
      if (source[p] == 'u' && p + 1 < n && source[p + 1] == '8') p += 2;
      else if (source[p] == 'L' || source[p] == 'u' || source[p] == 'U') p += 1;
      if (p < n && source[p] == 'R' && p + 1 < n && source[p + 1] == '"') {
        std::size_t q = p + 2;
        std::string delim;
        while (q < n && source[q] != '(') delim.push_back(source[q++]);
        const std::string closer = ")" + delim + "\"";
        const int start_line = line;
        std::size_t body_begin = q < n ? q + 1 : n;
        std::size_t end = source.find(closer, body_begin);
        std::string body;
        if (end == std::string::npos) {
          body = source.substr(body_begin);
          i = n;
        } else {
          body = source.substr(body_begin, end - body_begin);
          i = end + closer.size();
        }
        for (char bc : body) {
          if (bc == '\n') ++line;
        }
        tokens.push_back({TokenKind::kString, std::move(body), start_line});
        continue;
      }
    }

    // Ordinary string / char literal, with optional encoding prefix.
    {
      std::size_t p = i;
      if (source[p] == 'u' && p + 1 < n && source[p + 1] == '8' &&
          p + 2 < n && (source[p + 2] == '"' || source[p + 2] == '\'')) {
        p += 2;
      } else if ((source[p] == 'L' || source[p] == 'u' || source[p] == 'U') &&
                 p + 1 < n && (source[p + 1] == '"' || source[p + 1] == '\'')) {
        p += 1;
      }
      if (p < n && (source[p] == '"' || source[p] == '\'')) {
        const char quote = source[p];
        const int start_line = line;
        std::size_t q = p + 1;
        std::string body;
        while (q < n && source[q] != quote) {
          if (source[q] == '\\' && q + 1 < n) {
            body.push_back(source[q]);
            body.push_back(source[q + 1]);
            if (source[q + 1] == '\n') ++line;
            q += 2;
            continue;
          }
          if (source[q] == '\n') {
            // Unterminated literal: stop at the newline so the rest of the
            // file still lexes (keeps findings' line numbers intact).
            break;
          }
          body.push_back(source[q]);
          ++q;
        }
        i = q < n && source[q] == quote ? q + 1 : q;
        tokens.push_back({quote == '"' ? TokenKind::kString : TokenKind::kChar,
                          std::move(body), start_line});
        continue;
      }
    }

    // Identifier.
    if (IsIdentStart(c)) {
      std::size_t q = i;
      while (q < n && IsIdentChar(source[q])) ++q;
      tokens.push_back({TokenKind::kIdentifier, source.substr(i, q - i), line});
      i = q;
      continue;
    }

    // Number (including 0x..., digit separators, suffixes, and the
    // pp-number continuation for exponents like 1e-9).
    if (IsDigit(c) || (c == '.' && IsDigit(peek(1)))) {
      std::size_t q = i;
      while (q < n) {
        const char d = source[q];
        if (IsIdentChar(d) || d == '.' || d == '\'') {
          ++q;
          continue;
        }
        if ((d == '+' || d == '-') && q > i &&
            (source[q - 1] == 'e' || source[q - 1] == 'E' ||
             source[q - 1] == 'p' || source[q - 1] == 'P')) {
          ++q;
          continue;
        }
        break;
      }
      tokens.push_back({TokenKind::kNumber, source.substr(i, q - i), line});
      i = q;
      continue;
    }

    // Punctuators the analyzer matches as units.
    if (c == ':' && peek(1) == ':') {
      tokens.push_back({TokenKind::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && peek(1) == '>') {
      tokens.push_back({TokenKind::kPunct, "->", line});
      i += 2;
      continue;
    }

    tokens.push_back({TokenKind::kPunct, std::string(1, c), line});
    ++i;
  }

  return tokens;
}

}  // namespace nsm_analyze
