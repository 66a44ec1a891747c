// Unit tests for the nsm_analyze lexer, extractor and checks
// (tools/nsm_analyze).  The end-to-end behavior of each check is covered by
// the fixture ctests (tools/lint_fixtures/); these tests pin the parts a
// fixture cannot isolate: exact token streams for the lexer edge cases, the
// extractor's event/scope model, and the edges of the token-level rules.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checks.hpp"
#include "lexer.hpp"
#include "model.hpp"

namespace {

using nsm_analyze::Event;
using nsm_analyze::EventKind;
using nsm_analyze::FileModel;
using nsm_analyze::Lex;
using nsm_analyze::Token;
using nsm_analyze::TokenKind;

std::vector<std::string> TextsOf(const std::vector<Token>& tokens) {
  std::vector<std::string> out;
  for (const Token& t : tokens) out.push_back(t.text);
  return out;
}

// ---- lexer -----------------------------------------------------------------

TEST(LexerTest, RawStringBodyIsOneOpaqueToken) {
  const auto tokens = Lex(R"src(auto s = R"json({ "k": "}v{" })json";)src");
  ASSERT_EQ(tokens.size(), 5u);  // auto s = <string> ;
  EXPECT_EQ(tokens[3].kind, TokenKind::kString);
  EXPECT_EQ(tokens[3].text, R"({ "k": "}v{" })");
  EXPECT_EQ(tokens[4].text, ";");
}

TEST(LexerTest, RawStringCustomDelimiterSurvivesEmbeddedCloser) {
  const auto tokens = Lex("auto s = R\"del(ends with )\" here)del\";");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[3].text, "ends with )\" here");
}

TEST(LexerTest, RawStringEncodingPrefixes) {
  for (const char* prefix : {"u8", "L", "u", "U"}) {
    const std::string src = std::string(prefix) + "R\"(body)\";";
    const auto tokens = Lex(src);
    ASSERT_EQ(tokens.size(), 2u) << prefix;
    EXPECT_EQ(tokens[0].kind, TokenKind::kString) << prefix;
    EXPECT_EQ(tokens[0].text, "body") << prefix;
  }
}

TEST(LexerTest, LineContinuationMacroContributesNoTokens) {
  const auto tokens = Lex(
      "#define RECORD(m)            \\\n"
      "  (m)->Observe(\"x.y\", 1.0); \\\n"
      "  (void)0\n"
      "int after;");
  EXPECT_EQ(TextsOf(tokens), (std::vector<std::string>{"int", "after", ";"}));
  EXPECT_EQ(tokens[0].line, 4);  // continuation lines were counted
}

TEST(LexerTest, BlockCommentsDoNotNest) {
  const auto tokens = Lex("/* outer /* inner */ int x; /* tail */");
  EXPECT_EQ(TextsOf(tokens), (std::vector<std::string>{"int", "x", ";"}));
}

TEST(LexerTest, LineCommentWithContinuationSwallowsNextLine) {
  const auto tokens = Lex("// comment continues \\\nint hidden;\nint seen;");
  EXPECT_EQ(TextsOf(tokens), (std::vector<std::string>{"int", "seen", ";"}));
  EXPECT_EQ(tokens[0].line, 3);
}

TEST(LexerTest, StringEscapesAndCharLiterals) {
  const auto tokens = Lex(R"(f("a\"b", '\'', "{"))");
  ASSERT_EQ(tokens.size(), 8u);  // f ( "a\"b" , '\'' , "{" )
  EXPECT_EQ(tokens[2].kind, TokenKind::kString);
  EXPECT_EQ(tokens[2].text, "a\\\"b");
  EXPECT_EQ(tokens[4].kind, TokenKind::kChar);
  EXPECT_EQ(tokens[6].text, "{");  // a brace inside a literal is not a scope
}

TEST(LexerTest, MultiCharPunctuatorsAreUnits) {
  const auto tokens = Lex("a->b::c");
  EXPECT_EQ(TextsOf(tokens),
            (std::vector<std::string>{"a", "->", "b", "::", "c"}));
}

TEST(LexerTest, LineNumbersSpanMultilineTokens) {
  const auto tokens = Lex("R\"(one\ntwo)\"\nint x;");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 3);  // `int` after the two-line raw string
}

TEST(LexerTest, UnterminatedLiteralStopsAtNewline) {
  const auto tokens = Lex("auto s = \"oops\nint next;");
  // The unterminated literal must not eat the rest of the file.
  EXPECT_EQ(TextsOf(tokens),
            (std::vector<std::string>{"auto", "s", "=", "oops", "int", "next",
                                      ";"}));
}

// ---- extractor -------------------------------------------------------------

FileModel Extract(const std::string& source,
                  const std::string& path = "src/demo/demo.cpp") {
  return nsm_analyze::ExtractFile(path, Lex(source));
}

const nsm_analyze::Function* FindFunction(const FileModel& model,
                                          const std::string& name) {
  for (const auto& f : model.functions) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

TEST(ModelTest, GuardAcquisitionAndLockIdentity) {
  const FileModel model = Extract(
      "void F(State& s) {\n"
      "  core::MutexLock lock(s.state_->mutex);\n"
      "}\n");
  const auto* f = FindFunction(model, "F");
  ASSERT_NE(f, nullptr);
  ASSERT_FALSE(f->events.empty());
  const Event& e = f->events.front();
  EXPECT_EQ(e.kind, EventKind::kGuardAcquire);
  EXPECT_EQ(e.name, "demo/demo::mutex");  // last identifier, file-qualified
  EXPECT_TRUE(e.core_guard);
  EXPECT_EQ(e.line, 2);
}

TEST(ModelTest, StdGuardIsNotRankable) {
  const FileModel model = Extract(
      "void F() { std::lock_guard<std::mutex> lock(AdoptMutex()); }\n");
  const auto* f = FindFunction(model, "F");
  ASSERT_NE(f, nullptr);
  const Event& e = f->events.front();
  EXPECT_EQ(e.kind, EventKind::kGuardAcquire);
  EXPECT_EQ(e.name, "demo/demo::AdoptMutex");
  EXPECT_FALSE(e.core_guard);
}

TEST(ModelTest, ScopeCloseEndsGuardLifetime) {
  // Sequential same-depth blocks must not look like nested acquisition:
  // the kScopeClose event between them is what the graph walk pops on.
  const FileModel model = Extract(
      "void F(S& s) {\n"
      "  { core::MutexLock a(s.m1); }\n"
      "  { core::MutexLock b(s.m2); }\n"
      "}\n");
  const auto* f = FindFunction(model, "F");
  ASSERT_NE(f, nullptr);
  std::vector<EventKind> kinds;
  for (const Event& e : f->events) kinds.push_back(e.kind);
  EXPECT_EQ(kinds,
            (std::vector<EventKind>{
                EventKind::kGuardAcquire, EventKind::kScopeClose,  // block one
                EventKind::kGuardAcquire, EventKind::kScopeClose,  // block two
                EventKind::kScopeClose}));                         // body close
  // Each guard lives at depth 2; the closes between the blocks report the
  // post-close depth 1, so the graph walk pops any guard deeper than 1.
  int acquires = 0;
  for (const Event& e : f->events) {
    if (e.kind == EventKind::kGuardAcquire) {
      EXPECT_EQ(e.depth, 2);
      ++acquires;
    }
  }
  EXPECT_EQ(acquires, 2);
  EXPECT_EQ(f->events[1].depth, 1);
  EXPECT_EQ(f->events[3].depth, 1);
}

TEST(ModelTest, MultiLineMetricCallIsExtracted) {
  const FileModel model = Extract(
      "void F(M* metrics, double s) {\n"
      "  metrics->Observe(\n"
      "      \"e2e.step_to_image_seconds\",\n"
      "      s);\n"
      "}\n");
  ASSERT_EQ(model.names.size(), 1u);
  EXPECT_EQ(model.names[0].name, "e2e.step_to_image_seconds");
  EXPECT_EQ(model.names[0].kind, nsm_analyze::NameKind::kMetric);
  EXPECT_EQ(model.names[0].line, 3);
}

TEST(ModelTest, SpanRequiresStringLiteralArgument) {
  // svtk's `void Span(std::span<const T>)` and other non-literal calls must
  // not reach the registry.
  const FileModel model = Extract(
      "void F(S& ser, std::vector<int>& v) { ser.Span(v); }\n"
      "void G() { instrument::Span span(\"demo.real\"); }\n");
  ASSERT_EQ(model.names.size(), 1u);
  EXPECT_EQ(model.names[0].name, "demo.real");
}

TEST(ModelTest, BlockingCallsAndCondWait) {
  const FileModel model = Extract(
      "void F(C& comm, core::CondVar& cv, core::Mutex& m) {\n"
      "  comm.Barrier();\n"
      "  comm.RecvValue<int>(0, 1);\n"
      "  cv.Wait(m);\n"
      "}\n");
  const auto* f = FindFunction(model, "F");
  ASSERT_NE(f, nullptr);
  int barriers = 0, recvs = 0, waits = 0;
  for (const Event& e : f->events) {
    if (e.kind == EventKind::kBlockingCall && e.name == "Barrier") {
      EXPECT_TRUE(e.collective);
      ++barriers;
    }
    if (e.kind == EventKind::kBlockingCall && e.name == "RecvValue") {
      EXPECT_FALSE(e.collective);  // p2p, not a collective
      ++recvs;
    }
    if (e.kind == EventKind::kCondWait) ++waits;
  }
  EXPECT_EQ(barriers, 1);
  EXPECT_EQ(recvs, 1);
  EXPECT_EQ(waits, 1);
}

TEST(ModelTest, RankConditionalBranchesAndPointToPointExemption) {
  const FileModel model = Extract(
      "void F(C& comm, int rank) {\n"
      "  if (rank == 0) {\n"
      "    comm.Barrier();\n"
      "  } else {\n"
      "    comm.Bcast(0, nullptr, 0);\n"
      "  }\n"
      "  if (comm.Rank() == 0) comm.RecvBytes(1, 0, nullptr, 0);\n"
      "}\n");
  // Only the first conditional contains collectives; RecvBytes is p2p.
  ASSERT_EQ(model.rank_conditionals.size(), 1u);
  const auto& rc = model.rank_conditionals[0];
  ASSERT_EQ(rc.then_branch.size(), 1u);
  EXPECT_EQ(rc.then_branch[0].name, "Barrier");
  ASSERT_TRUE(rc.has_else);
  ASSERT_EQ(rc.else_branch.size(), 1u);
  EXPECT_EQ(rc.else_branch[0].name, "Bcast");
}

TEST(ModelTest, ConstructorInitializerListBodyIsFound) {
  const FileModel model = Extract(
      "Pipeline::Pipeline(S& s, int depth)\n"
      "    : solver_(s), slots_(depth), flags_{} {\n"
      "  core::MutexLock lock(mutex_);\n"
      "}\n");
  const auto* f = FindFunction(model, "Pipeline");
  ASSERT_NE(f, nullptr);
  ASSERT_FALSE(f->events.empty());
  EXPECT_EQ(f->events.front().kind, EventKind::kGuardAcquire);
}

TEST(ModelTest, RankedDeclExtraction) {
  const FileModel model = Extract(
      "struct State {\n"
      "  core::Mutex mutex{core::lock_rank::kDemoDemoMutex};\n"
      "  core::Mutex bare;\n"
      "};\n");
  ASSERT_EQ(model.ranked_decls.size(), 2u);
  EXPECT_EQ(model.ranked_decls[0].member, "mutex");
  EXPECT_EQ(model.ranked_decls[0].spec_constant, "kDemoDemoMutex");
  EXPECT_EQ(model.ranked_decls[1].member, "bare");
  EXPECT_TRUE(model.ranked_decls[1].spec_constant.empty());
}

// ---- token-level hygiene rules ---------------------------------------------

std::vector<nsm_analyze::Finding> Hygiene(const std::string& source) {
  nsm_analyze::Analysis analysis({Extract(source)}, nsm_analyze::Config{});
  std::vector<nsm_analyze::Finding> findings;
  analysis.CheckHygiene(true, true, true, &findings);
  return findings;
}

TEST(HygieneTest, DeletedFunctionIsNotRawDelete) {
  const auto findings = Hygiene(
      "struct NoCopy {\n"
      "  NoCopy(const NoCopy&) = delete;\n"
      "  NoCopy& operator=(const NoCopy&) = delete;\n"
      "  static void* operator new(std::size_t) = delete;\n"
      "};\n"
      "void F() {\n"
      "  int* p = new int;\n"
      "  delete p;\n"
      "}\n");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "raw-new");
  EXPECT_EQ(findings[0].line, 7);
  EXPECT_EQ(findings[1].rule, "raw-new");
  EXPECT_EQ(findings[1].line, 8);
}

TEST(HygieneTest, IncludesInCommentsAndRawStringsAreIgnored) {
  const std::string source =
      "#include <vector>\n"
      "// #include <mutex>\n"
      "/* #include <thread>\n"
      "#include <thread> */\n"
      "auto s = R\"(\n"
      "#include <mutex>\n"
      ")\";\n"
      "#  include \"core/buffer.hpp\"\n";
  const FileModel model = Extract(source);
  ASSERT_EQ(model.includes.size(), 2u);
  EXPECT_EQ(model.includes[0].header, "vector");
  EXPECT_EQ(model.includes[0].line, 1);
  EXPECT_EQ(model.includes[1].header, "core/buffer.hpp");
  EXPECT_EQ(model.includes[1].line, 8);
  EXPECT_TRUE(Hygiene(source).empty());
}

TEST(HygieneTest, DuplicateAndUnusedConcurrencyHeaders) {
  const auto findings = Hygiene(
      "#include <mutex>\n"
      "#include <thread>\n"
      "#include <mutex>\n"
      "std::unique_lock<std::timed_mutex> Lock();\n");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 2);  // <thread>: no std::thread vocabulary
  EXPECT_NE(findings[0].message.find("<thread>"), std::string::npos);
  EXPECT_EQ(findings[1].line, 3);  // the duplicate; <mutex> itself is used
  EXPECT_NE(findings[1].message.find("first at line 1"), std::string::npos);
}

TEST(HygieneTest, JsonOfstreamSplitAcrossLinesIsFlagged) {
  const auto findings = Hygiene(
      "void Write(const std::string& dir) {\n"
      "  std::ofstream out(dir +\n"
      "                    \"/metrics.json\");\n"
      "  std::ofstream log(dir + \"/run.log\");  // not json\n"
      "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "json-atomic-write");
  EXPECT_EQ(findings[0].line, 2);
}

// ---- small check helpers ---------------------------------------------------

TEST(ChecksTest, MissingMutexDeclarationCarriesAcquisitionSite) {
  nsm_analyze::Analysis analysis({Extract("void F(State& s) {\n"
                                          "  Prepare();\n"
                                          "  core::MutexLock lock(s.mutex);\n"
                                          "}\n")},
                                 nsm_analyze::Config{});
  std::vector<nsm_analyze::Finding> findings;
  analysis.CheckLockRanks(nullptr, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-rank");
  EXPECT_EQ(findings[0].file, "src/demo/demo.cpp");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(ChecksTest, RankConstantName) {
  EXPECT_EQ(nsm_analyze::RankConstantName("mpimini/comm::mutex"),
            "kMpiminiCommMutex");
  EXPECT_EQ(nsm_analyze::RankConstantName("core/async_pipeline::mutex_"),
            "kCoreAsyncPipelineMutex");
}

TEST(ChecksTest, NameTaxonomy) {
  EXPECT_TRUE(nsm_analyze::MatchesNameTaxonomy("layer.phase"));
  EXPECT_TRUE(nsm_analyze::MatchesNameTaxonomy("e2e.step_to_image_seconds"));
  EXPECT_FALSE(nsm_analyze::MatchesNameTaxonomy("noseparator"));
  EXPECT_FALSE(nsm_analyze::MatchesNameTaxonomy("CamelCase.Bad"));
  EXPECT_FALSE(nsm_analyze::MatchesNameTaxonomy("trailing."));
  EXPECT_FALSE(nsm_analyze::MatchesNameTaxonomy(".leading"));
  EXPECT_FALSE(nsm_analyze::MatchesNameTaxonomy("double..dot"));
}

}  // namespace
