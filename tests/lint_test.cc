// Golden tests for the lint subsystem: one program per diagnostic
// code, a clean bill of health for the paper's programs and the
// shipped examples, and the report/Status/JSON machinery.

#include "lint/lint.h"

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ast/analysis.h"
#include "parser/parser.h"
#include "query/database.h"

namespace pathlog {
namespace {

LintReport Lint(std::string_view source) {
  return ProgramLinter().LintSource(source);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

const Diagnostic* FindCode(const LintReport& report, LintCode code) {
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

// ---- naming ---------------------------------------------------------

TEST(DiagnosticTest, CodeAndSeverityNames) {
  EXPECT_EQ(LintCodeName(LintCode::kParseError), "PL001");
  EXPECT_EQ(LintCodeName(LintCode::kRuleNeverFires), "PL011");
  EXPECT_STREQ(SeverityName(Severity::kError), "error");
  EXPECT_STREQ(SeverityName(Severity::kWarning), "warning");
}

// ---- clean programs -------------------------------------------------

TEST(LintTest, CleanFactsAndRules) {
  LintReport report = Lint(R"(
    manager :: employee.
    mary : employee[age->30; city->newYork].
    mary[vehicles->>{car1, bike1}].
    mary[kids->>{tom}].
    car1 : automobile[cylinders->4; color->red].
    X[desc->>{Y}] <- X[kids->>{Y}].
    X[desc->>{Y}] <- X..desc[kids->>{Y}].
  )");
  EXPECT_TRUE(report.empty()) << report.ToString("<test>");
}

TEST(LintTest, PaperCompanyUniverseIsClean) {
  // The employee/vehicle universe of sections 1-2 plus the queries the
  // paper runs over it.
  LintReport report = Lint(R"(
    manager :: employee.
    automobile :: vehicle.
    mary : employee[age->30; city->newYork].
    mary[vehicles->>{car1, bike1}].
    car1 : automobile[cylinders->4; color->red; producedBy->acme].
    bike1 : vehicle[color->green].
    jim : manager[age->30; city->newYork].
    jim[vehicles->>{car2}].
    car2 : automobile[cylinders->4; color->red; producedBy->detroitMotors].
    sue : manager[age->45; city->detroit].
    sue[vehicles->>{car3}].
    car3 : automobile[cylinders->8; color->red; producedBy->detroitMotors].
    acme : company[city->newYork; president->sue].
    detroitMotors : company[city->detroit; president->jim].
    mary[boss->jim].
    ?- X:employee, X[vehicles->>{Y:automobile}], Y.color[C].
    ?- X:employee..vehicles[Y]:automobile.color[Z].
    ?- X:manager..vehicles[color->red].producedBy[city->detroit; president->X].
  )");
  EXPECT_TRUE(report.empty()) << report.ToString("<paper>");
}

TEST(LintTest, PaperDescendantAndTransitiveClosureClean) {
  // Section 6: specialised and generic transitive closure.
  LintReport report = Lint(R"(
    peter[kids->>{tim, mary}].
    tim[kids->>{anna}].
    X[desc->>{Y}] <- X[kids->>{Y}].
    X[desc->>{Y}] <- X..desc[kids->>{Y}].
    X[(M.tc)->>{Y}] <- X[M->>{Y}].
    X[(M.tc)->>{Y}] <- X..(M.tc)[M->>{Y}].
  )");
  EXPECT_TRUE(report.empty()) << report.ToString("<tc>");
}

// ---- one golden program per code ------------------------------------

TEST(LintTest, PL001ParseError) {
  LintReport report = Lint("mary[age->30");
  const Diagnostic* d = FindCode(report, LintCode::kParseError);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_GT(d->line, 0);
  EXPECT_FALSE(report.ok());
}

TEST(LintTest, PL002IllFormedScalarFilterWithSetResult) {
  LintReport report = Lint("mary[friend->tom..kids].\n");
  const Diagnostic* d = FindCode(report, LintCode::kIllFormed);
  ASSERT_NE(d, nullptr) << report.ToString("<test>");
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->line, 1);
  EXPECT_NE(d->message.find("set-valued"), std::string::npos) << d->message;
}

TEST(LintTest, PL003SetValuedHead) {
  LintReport report = Lint(
      "tom[kids->>{anna}].\n"
      "X..kids[happy->yes] <- X[kids->>{anna}].\n");
  const Diagnostic* d = FindCode(report, LintCode::kSetValuedHead);
  ASSERT_NE(d, nullptr) << report.ToString("<test>");
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->line, 2);
}

TEST(LintTest, PL004TrivialHead) {
  LintReport report = Lint("mary <- tom[age->30].\n");
  const Diagnostic* d = FindCode(report, LintCode::kTrivialHead);
  ASSERT_NE(d, nullptr) << report.ToString("<test>");
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->line, 1);
}

TEST(LintTest, PL005UnboundHeadVariable) {
  LintReport report = Lint("X[adult->yes] <- not X[age->3].\n");
  const Diagnostic* d = FindCode(report, LintCode::kUnsafeRule);
  ASSERT_NE(d, nullptr) << report.ToString("<test>");
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("range restriction"), std::string::npos)
      << d->message;
}

TEST(LintTest, PL005NonGroundFact) {
  LintReport report = Lint("mary[age->X].\n");
  const Diagnostic* d = FindCode(report, LintCode::kUnsafeRule);
  ASSERT_NE(d, nullptr) << report.ToString("<test>");
  EXPECT_NE(d->message.find("not ground"), std::string::npos) << d->message;
}

TEST(LintTest, PL006NegationOnlyVariable) {
  LintReport report = Lint(
      "mary : person.\n"
      "mary[friends->>{tom}].\n"
      "mary[lonely->yes] <- mary : person, not mary[friends->>{F}].\n");
  const Diagnostic* d = FindCode(report, LintCode::kNegationOnlyVar);
  ASSERT_NE(d, nullptr) << report.ToString("<test>");
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->line, 3);
  EXPECT_NE(d->message.find("F"), std::string::npos);
  // The variable must not additionally be flagged as a singleton.
  EXPECT_FALSE(report.Has(LintCode::kSingletonVar))
      << report.ToString("<test>");
}

TEST(LintTest, PL007UnstratifiableWithExplainedCycle) {
  LintReport report = Lint(
      "c[items->>{one}].\n"
      "a[m->>{X}] <- b[n->>{X}].\n"
      "b[n->>{X}] <- a[m->>a..m], c[items->>{X}].\n");
  const Diagnostic* d = FindCode(report, LintCode::kNotStratifiable);
  ASSERT_NE(d, nullptr) << report.ToString("<test>");
  EXPECT_EQ(d->severity, Severity::kError);
  ASSERT_GE(d->notes.size(), 2u);
  // The closing edge names the `->>` dependency and its rule...
  EXPECT_NE(d->notes[0].find("->>"), std::string::npos) << d->notes[0];
  EXPECT_NE(d->notes[0].find("b[n->>{X}] <- a[m->>a..m]"),
            std::string::npos)
      << d->notes[0];
  // ...and the chain names the rule that closes the cycle back.
  EXPECT_NE(d->notes[1].find("a[m->>{X}] <- b[n->>{X}]"), std::string::npos)
      << d->notes[1];
}

TEST(LintTest, PL008UndeclaredMethod) {
  LintReport report = Lint(
      "person[age => integer].\n"
      "mary : person.\n"
      "mary[age->A] <- mary[years->A].\n");
  const Diagnostic* d = FindCode(report, LintCode::kUndeclaredMethod);
  ASSERT_NE(d, nullptr) << report.ToString("<test>");
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->line, 3);
  EXPECT_NE(d->message.find("years"), std::string::npos) << d->message;
}

TEST(LintTest, PL008SilentWithoutSignatures) {
  // Without any signature declarations the check would flag everything;
  // it must stay quiet.
  LintReport report = Lint(
      "mary[years->20].\n"
      "mary[age->A] <- mary[years->A].\n");
  EXPECT_FALSE(report.Has(LintCode::kUndeclaredMethod))
      << report.ToString("<test>");
  EXPECT_FALSE(report.Has(LintCode::kUnsignedHeadPath))
      << report.ToString("<test>");
}

TEST(LintTest, PL009FlavourMismatch) {
  LintReport report = Lint(
      "person[kids =>> person].\n"
      "mary : person[kids->tom].\n");
  const Diagnostic* d = FindCode(report, LintCode::kFlavourMismatch);
  ASSERT_NE(d, nullptr) << report.ToString("<test>");
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("kids"), std::string::npos) << d->message;
}

TEST(LintTest, PL010SingletonVariable) {
  LintReport report = Lint(
      "mary[age->30].\n"
      "mary[adult->yes] <- mary[age->A].\n");
  const Diagnostic* d = FindCode(report, LintCode::kSingletonVar);
  ASSERT_NE(d, nullptr) << report.ToString("<test>");
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->line, 2);
  EXPECT_NE(d->message.find("A"), std::string::npos);
}

TEST(LintTest, PL010UnderscoreSilencesSingleton) {
  LintReport report = Lint(
      "mary[age->30].\n"
      "mary[adult->yes] <- mary[age->_A].\n");
  EXPECT_FALSE(report.Has(LintCode::kSingletonVar))
      << report.ToString("<test>");
}

TEST(LintTest, PL011RuleNeverFires) {
  LintReport report = Lint(
      "mary[age->30].\n"
      "mary[paid->yes] <- mary[salary->S], tom[salary->S].\n");
  const Diagnostic* d = FindCode(report, LintCode::kRuleNeverFires);
  ASSERT_NE(d, nullptr) << report.ToString("<test>");
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("salary"), std::string::npos) << d->message;
}

TEST(LintTest, PL011SkippedWhenGenericRulesDefineAnything) {
  // The generic transitive closure defines (M.tc) for *any* M, so no
  // method can be called undefined.
  LintReport report = Lint(
      "peter[kids->>{tim}].\n"
      "X[(M.tc)->>{Y}] <- X[M->>{Y}].\n"
      "X[(M.tc)->>{Y}] <- X..(M.tc)[M->>{Y}].\n"
      "peter[ok->yes] <- peter[mystery->Z], tim[mystery->Z].\n");
  EXPECT_FALSE(report.Has(LintCode::kRuleNeverFires))
      << report.ToString("<test>");
}

TEST(LintTest, PL012UnsignedHeadPath) {
  LintReport report = Lint(
      "person[age => integer].\n"
      "mary : person[age->30].\n"
      "X[adult->A] <- X[age->A].\n");
  const Diagnostic* d = FindCode(report, LintCode::kUnsignedHeadPath);
  ASSERT_NE(d, nullptr) << report.ToString("<test>");
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("adult"), std::string::npos) << d->message;
}

TEST(LintTest, PL013NegatedTriggerEvent) {
  LintReport report = Lint(
      "mary[age->30].\n"
      "mary[flag->1] <~ not mary[age->30].\n");
  const Diagnostic* d = FindCode(report, LintCode::kIllFormedTrigger);
  ASSERT_NE(d, nullptr) << report.ToString("<test>");
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->line, 2);
}

TEST(LintTest, PL013TriggerEventThatCannotRunFirst) {
  // The event's `->>` result Y..n needs Y, which only the condition
  // binds. Load rejects what the linter reports.
  const char* text = "X[c->1] <~ X[m->>Y..n], Y:k.\n";
  LintReport report = Lint(text);
  const Diagnostic* d = FindCode(report, LintCode::kIllFormedTrigger);
  ASSERT_NE(d, nullptr) << report.ToString("<test>");
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->line, 1);
  EXPECT_EQ(d->column, 12);  // the event literal
  Database db;
  EXPECT_EQ(db.Load(text).code(), StatusCode::kUnsafeRule);
}

// ---- fixture files --------------------------------------------------

struct Fixture {
  const char* file;
  LintCode code;
};

TEST(LintTest, EveryFixtureFiresItsCode) {
  const std::vector<Fixture> fixtures = {
      {"pl001_parse_error.plg", LintCode::kParseError},
      {"pl002_ill_formed.plg", LintCode::kIllFormed},
      {"pl003_set_valued_head.plg", LintCode::kSetValuedHead},
      {"pl004_trivial_head.plg", LintCode::kTrivialHead},
      {"pl005_unsafe_rule.plg", LintCode::kUnsafeRule},
      {"pl006_negation_only_var.plg", LintCode::kNegationOnlyVar},
      {"pl007_unstratifiable.plg", LintCode::kNotStratifiable},
      {"pl008_undeclared_method.plg", LintCode::kUndeclaredMethod},
      {"pl009_flavour_mismatch.plg", LintCode::kFlavourMismatch},
      {"pl010_singleton_var.plg", LintCode::kSingletonVar},
      {"pl011_never_fires.plg", LintCode::kRuleNeverFires},
      {"pl012_unsigned_head_path.plg", LintCode::kUnsignedHeadPath},
      {"pl013_bad_trigger.plg", LintCode::kIllFormedTrigger},
  };
  for (const Fixture& f : fixtures) {
    std::string path = std::string(PATHLOG_LINT_FIXTURES_DIR "/") + f.file;
    LintReport report = Lint(ReadFile(path));
    EXPECT_FALSE(report.empty()) << f.file << " produced no diagnostics";
    const Diagnostic* d = FindCode(report, f.code);
    ASSERT_NE(d, nullptr) << f.file << " did not produce "
                          << LintCodeName(f.code) << ":\n"
                          << report.ToString(f.file);
    EXPECT_GT(d->line, 0) << f.file << " diagnostic lacks a source span";
    EXPECT_GT(d->column, 0) << f.file << " diagnostic lacks a source span";
  }
}

TEST(LintTest, ShippedExamplesAreClean) {
  const std::vector<std::string> examples = {
      "genealogy.plg", "paper_universe.plg", "views.plg"};
  for (const std::string& name : examples) {
    std::string path = std::string(PATHLOG_EXAMPLES_DIR "/") + name;
    LintReport report = Lint(ReadFile(path));
    EXPECT_TRUE(report.empty())
        << name << " should lint clean:\n" << report.ToString(name);
  }
}

// ---- rendering ------------------------------------------------------

TEST(LintTest, HumanRenderingCarriesFileLineColumnAndCode) {
  LintReport report = Lint("X[adult->yes] <- not X[age->3].\n");
  std::string text = report.ToString("bad.plg");
  EXPECT_NE(text.find("bad.plg:1:1: error[PL005]"), std::string::npos)
      << text;
}

TEST(LintTest, JsonRenderingIsWellShaped) {
  LintReport report = Lint("X[adult->yes] <- not X[age->3].\n");
  std::string json = report.ToJson("bad.plg");
  EXPECT_NE(json.find("\"file\":\"bad.plg\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"code\":\"PL005\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"line\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos) << json;
}

TEST(LintTest, JsonEscapesControlCharactersAndQuotes) {
  LintReport report;
  report.Add(LintCode::kParseError, Severity::kError, 1, 2, "a\"b\\c\nd");
  EXPECT_NE(report.ToJson("f").find("\"message\":\"a\\\"b\\\\c\\nd\""),
            std::string::npos)
      << report.ToJson("f");
}

// ---- Database integration -------------------------------------------

TEST(LintTest, DatabaseLintTreatsStoreFactsAsDefined) {
  Database db;
  ASSERT_TRUE(db.Load("mary[age->30]. mary[kids->>{tom}].").ok());
  ASSERT_TRUE(db.Load("X[minor->no] <- X[age->A], X[age->A].").ok());
  LintReport report = db.Lint();
  EXPECT_FALSE(report.Has(LintCode::kRuleNeverFires))
      << report.ToString("<db>");
}

TEST(LintTest, DatabaseLintSeesInstalledRules) {
  Database db;
  ASSERT_TRUE(db.Load("mary[age->30].").ok());
  ASSERT_TRUE(db.Load("X[paid->yes] <- X[salary->S], X[salary->S].").ok());
  LintReport report = db.Lint();
  EXPECT_TRUE(report.Has(LintCode::kRuleNeverFires))
      << report.ToString("<db>");
}

TEST(LintTest, LoadRejectsErrorsButAllowsWarnings) {
  // Load admits every rule: what the linter reports as an error (an
  // unsafe rule) fails the Load, what it warns about does not.
  Database db;
  // Warning-level findings (singleton variable) must not block a load.
  EXPECT_TRUE(db.Load("mary[age->30]. mary[adult->yes] <- mary[age->A].")
                  .ok());
  Status st = db.Load("X[adult->yes] <- not X[age->3].");
  EXPECT_EQ(st.code(), StatusCode::kUnsafeRule) << st;
}

// ---- variable occurrence counting (ast/analysis) --------------------

TEST(LintTest, VarCountsBackCollectVars) {
  Result<Program> program =
      ParseProgram("X[desc->>{Y}] <- X..desc[kids->>{Y}].");
  ASSERT_TRUE(program.ok());
  const Rule& rule = program->rules[0];
  std::map<std::string, int> counts = VarCountsOf(*rule.head);
  CollectVarCounts(*rule.body[0].ref, &counts);
  EXPECT_EQ(counts["X"], 2);
  EXPECT_EQ(counts["Y"], 2);
  std::set<std::string> vars = VarsOf(*rule.head);
  EXPECT_EQ(vars, (std::set<std::string>{"X", "Y"}));
}

}  // namespace
}  // namespace pathlog
