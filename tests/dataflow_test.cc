// Tests for the semantic-analysis layer (lint/dataflow/): the generic
// fixpoint solver and SCC routine, the abstract domains, the
// AnalyzeProgram summary, one golden fixture per PL014-PL019 code, the
// pathlog_lint --analyze --json round trip, and the PL017 acceptance
// demo (the flagged program really does run away without the check).

#include "lint/dataflow/analyses.h"

#include <array>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/dataflow/dataflow.h"
#include "lint/dataflow/domains.h"
#include "lint/lint.h"
#include "parser/parser.h"
#include "query/database.h"

namespace pathlog {
namespace {

// ---- domains --------------------------------------------------------

TEST(SortDomainTest, JoinIsMonotoneCommutativeIdempotent) {
  for (SortSet a = 0; a <= kSortTop; ++a) {
    for (SortSet b = 0; b <= kSortTop; ++b) {
      SortSet ab = a;
      bool grew = SortDomain::Join(&ab, b);
      EXPECT_EQ(ab, a | b);
      EXPECT_EQ(grew, ab != a) << "grew must mean the value changed";
      SortSet ba = b;
      SortDomain::Join(&ba, a);
      EXPECT_EQ(ab, ba);  // commutative
      SortSet again = ab;
      EXPECT_FALSE(SortDomain::Join(&again, b));  // idempotent
      EXPECT_EQ(again, ab);
    }
  }
}

TEST(SortDomainTest, CountAndNames) {
  EXPECT_EQ(SortCount(kSortBottom), 0);
  EXPECT_EQ(SortCount(kSortInt), 1);
  EXPECT_EQ(SortCount(kSortTop), 3);
  EXPECT_EQ(SortSetName(kSortBottom), "unknown");
  EXPECT_EQ(SortSetName(kSortInt), "integer");
  EXPECT_EQ(SortSetName(static_cast<SortSet>(kSortInt | kSortString)),
            "integer+string");
  EXPECT_EQ(SortSetName(kSortTop), "integer+string+object");
}

TEST(LiveDomainTest, TwoPointLattice) {
  LiveDomain::Value v = LiveDomain::Bottom();
  EXPECT_EQ(v, 0);
  EXPECT_FALSE(LiveDomain::Join(&v, 0));  // dead ⊔ dead = dead
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(LiveDomain::Join(&v, 1));  // dead ⊔ live grows
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(LiveDomain::Join(&v, 1));  // live is top
  EXPECT_FALSE(LiveDomain::Join(&v, 0));
  EXPECT_EQ(v, 1);
}

TEST(IntIntervalTest, MeetAndToString) {
  IntInterval i;
  EXPECT_FALSE(i.empty());
  EXPECT_EQ(i.ToString(), "(-inf, +inf)");
  i.Meet(5, std::numeric_limits<int64_t>::max());  // A.geq@(5)
  EXPECT_EQ(i.ToString(), "[5, +inf)");
  EXPECT_TRUE(i.Contains(5));
  EXPECT_FALSE(i.Contains(4));
  i.Meet(std::numeric_limits<int64_t>::min(), 10);  // A.leq@(10)
  EXPECT_EQ(i.ToString(), "[5, 10]");
  i.Meet(7, 7);  // A.intEq@(7)
  EXPECT_EQ(i.ToString(), "[7, 7]");
  i.Meet(8, std::numeric_limits<int64_t>::max());  // contradiction
  EXPECT_TRUE(i.empty());
  EXPECT_EQ(i.ToString(), "(empty)");
  EXPECT_FALSE(i.Contains(8));
}

// ---- fixpoint solver ------------------------------------------------

TEST(FixpointSolverTest, ConvergesOnCyclicGraph) {
  // Three nodes in a cycle: 0 -> 1 -> 2 -> 0, each transfer copying its
  // read node into its defined node. Seeding node 0 must saturate the
  // whole cycle, and the worklist must terminate well short of the
  // application cap.
  std::vector<TransferIO> transfers = {
      {{0}, {1}}, {{1}, {2}}, {{2}, {0}}};
  FixpointSolver<SortDomain> solver(3, transfers);
  solver.Seed(0, kSortInt);
  size_t applications =
      solver.Solve([&](size_t t, FixpointSolver<SortDomain>& s) {
        s.Update(transfers[t].defines[0], s.value(transfers[t].reads[0]));
      });
  EXPECT_EQ(solver.value(0), kSortInt);
  EXPECT_EQ(solver.value(1), kSortInt);
  EXPECT_EQ(solver.value(2), kSortInt);
  // Every transfer runs once up front; the cycle re-queues each at most
  // once more before values stop changing.
  EXPECT_GE(applications, 3u);
  EXPECT_LE(applications, 6u);
  EXPECT_LT(applications, FixpointSolver<SortDomain>::kMaxApplications);
}

TEST(FixpointSolverTest, JoinAccumulatesAcrossPaths) {
  // Diamond: node 0 (int) and node 1 (string) both flow into node 2,
  // which flows into node 3. The join, not the last write, must win.
  std::vector<TransferIO> transfers = {
      {{0}, {2}}, {{1}, {2}}, {{2}, {3}}};
  FixpointSolver<SortDomain> solver(4, transfers);
  solver.Seed(0, kSortInt);
  solver.Seed(1, kSortString);
  solver.Solve([&](size_t t, FixpointSolver<SortDomain>& s) {
    s.Update(transfers[t].defines[0], s.value(transfers[t].reads[0]));
  });
  EXPECT_EQ(solver.value(2), kSortInt | kSortString);
  EXPECT_EQ(solver.value(3), kSortInt | kSortString);
}

TEST(FixpointSolverTest, UnreachedNodesStayBottom) {
  std::vector<TransferIO> transfers = {{{0}, {1}}};
  FixpointSolver<LiveDomain> solver(3, transfers);
  solver.Seed(0, 1);
  solver.Solve([&](size_t t, FixpointSolver<LiveDomain>& s) {
    s.Update(transfers[t].defines[0], s.value(transfers[t].reads[0]));
  });
  EXPECT_EQ(solver.value(0), 1);
  EXPECT_EQ(solver.value(1), 1);
  EXPECT_EQ(solver.value(2), LiveDomain::Bottom());
}

TEST(FixpointSolverTest, ReQueuesOnlyReadersOfChangedNodes) {
  // Transfer 1 reads node 9, which nothing defines: after its initial
  // mandatory run it must never run again, so the application count
  // stays at the minimum even while the chain 0->1->...->5 settles.
  std::vector<TransferIO> transfers;
  for (uint32_t n = 0; n < 5; ++n) {
    transfers.push_back({{n}, {n + 1}});
  }
  transfers.push_back({{9}, {8}});
  FixpointSolver<LiveDomain> solver(10, transfers);
  solver.Seed(0, 1);
  size_t applications =
      solver.Solve([&](size_t t, FixpointSolver<LiveDomain>& s) {
        s.Update(transfers[t].defines[0], s.value(transfers[t].reads[0]));
      });
  EXPECT_EQ(solver.value(5), 1);
  EXPECT_EQ(solver.value(8), LiveDomain::Bottom());
  // 6 initial runs + at most one re-run per chain transfer whose input
  // arrived after its first run.
  EXPECT_LE(applications, 6u + 5u);
}

// ---- strongly connected components ----------------------------------

TEST(SccTest, CycleMembersShareAComponent) {
  // 0 -> 1 -> 2 -> 0 is one cycle; 3 hangs off it; 4 is isolated.
  std::vector<std::pair<uint32_t, uint32_t>> edges = {
      {0, 1}, {1, 2}, {2, 0}, {2, 3}};
  std::vector<uint32_t> comp = StronglyConnectedComponents(5, edges);
  ASSERT_EQ(comp.size(), 5u);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[0], comp[4]);
  EXPECT_NE(comp[3], comp[4]);
}

TEST(SccTest, AcyclicChainIsAllSingletons) {
  std::vector<std::pair<uint32_t, uint32_t>> edges = {{0, 1}, {1, 2}, {2, 3}};
  std::vector<uint32_t> comp = StronglyConnectedComponents(4, edges);
  std::set<uint32_t> distinct(comp.begin(), comp.end());
  EXPECT_EQ(distinct.size(), 4u);
}

TEST(SccTest, TwoDisjointCyclesGetDistinctIds) {
  std::vector<std::pair<uint32_t, uint32_t>> edges = {
      {0, 1}, {1, 0}, {2, 3}, {3, 2}};
  std::vector<uint32_t> comp = StronglyConnectedComponents(4, edges);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
}

// ---- AnalyzeProgram summary -----------------------------------------

Program Parse(std::string_view source) {
  Result<Program> program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status();
  return *program;
}

TEST(AnalyzeProgramTest, TypeFlowPropagatesThroughRules) {
  Program program = Parse(R"(
    alice[age->30].
    bob[city->"detroit"].
    X[years->A] <- X[age->A].
    X[place->C] <- X[city->C].
  )");
  AnalysisSummary summary = AnalyzeProgram(program, {}, nullptr);
  EXPECT_EQ(summary.method_sorts["age"], kSortInt);
  EXPECT_EQ(summary.method_sorts["years"], kSortInt);
  EXPECT_EQ(summary.method_sorts["city"], kSortString);
  EXPECT_EQ(summary.method_sorts["place"], kSortString);
  EXPECT_GT(summary.sort_applications, 0u);
}

TEST(AnalyzeProgramTest, ReachabilityProvesEmptyMethods) {
  Program program = Parse(R"(
    alice[age->30].
    X[flag->1] <- X[ghost->1].
    X[echo->A] <- X[age->A].
  )");
  AnalysisSummary summary = AnalyzeProgram(program, {}, nullptr);
  EXPECT_TRUE(summary.live_methods.count("age"));
  EXPECT_TRUE(summary.live_methods.count("echo"));
  EXPECT_TRUE(summary.empty_methods.count("ghost"));
  // flag's only producer reads the empty ghost, so flag is empty too.
  EXPECT_TRUE(summary.empty_methods.count("flag"));
  EXPECT_GT(summary.live_applications, 0u);
}

TEST(AnalyzeProgramTest, AssumeDefinedSeedsReachability) {
  Program program = Parse("X[flag->1] <- X[ghost->1].");
  AnalysisOptions options;
  options.assume_defined.insert("ghost");
  AnalysisSummary summary = AnalyzeProgram(program, options, nullptr);
  EXPECT_TRUE(summary.live_methods.count("ghost"));
  EXPECT_TRUE(summary.live_methods.count("flag"));
  EXPECT_FALSE(summary.empty_methods.count("flag"));
}

TEST(AnalyzeProgramTest, ExtensionalSortsSeedTypeFlow) {
  Program program = Parse("X[years->A] <- X[age->A].");
  AnalysisOptions options;
  options.assume_defined.insert("age");
  options.extensional_sorts["age"] = kSortInt;
  AnalysisSummary summary = AnalyzeProgram(program, options, nullptr);
  EXPECT_EQ(summary.method_sorts["years"], kSortInt);
}

TEST(AnalyzeProgramTest, AdornmentsRecordBindingModes) {
  Program program = Parse(R"(
    car1 : automobile.
    alice[vehicles->>{car1}].
    V[ownedBy->>{X}] <- X[vehicles->>{V}], V : automobile.
  )");
  AnalysisSummary summary = AnalyzeProgram(program, {}, nullptr);
  ASSERT_EQ(summary.adornments.size(), 1u);
  const RuleAdornment& a = summary.adornments[0];
  ASSERT_EQ(a.literals.size(), 2u);
  // Engine order keeps the vehicles scan first: X is unbound there and
  // nothing drives an index, then `V : automobile` runs with V bound.
  EXPECT_FALSE(a.literals[0].anchor_bound);
  EXPECT_FALSE(a.literals[0].index_driven);
  EXPECT_TRUE(a.literals[1].anchor_bound);
  EXPECT_TRUE(a.literals[1].index_driven);
}

// ---- golden fixtures, PL014-PL019 -----------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

LintReport AnalyzeLint(std::string_view source) {
  LintOptions options;
  options.analyze = true;
  return ProgramLinter(std::move(options)).LintSource(source);
}

const Diagnostic* FindCode(const LintReport& report, LintCode code) {
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

TEST(AnalyzeProgramTest, Pl019SuggestsTheGreedyIndexDrivenOrder) {
  // Safety order runs `X[p->Y]` first, a scan. The suggested order
  // picks, at each step, the earliest admissible literal that scans
  // nothing: the ground class first, then the literals it drives; the
  // negated test and `X[p->Y]` both scan nothing by then, and the tie
  // goes to the earlier one.
  Program program = Parse(R"(
    z1 : c. a[p->b]. b[q->z1].
    X[r->1] <- not Y[bad->1], X[p->Y], Y[q->Z], Z : c.
  )");
  LintReport report;
  AnalyzeProgram(program, {}, &report);
  const Diagnostic* d = FindCode(report, LintCode::kUnboundTarget);
  ASSERT_NE(d, nullptr) << report.ToString("inline");
  ASSERT_FALSE(d->notes.empty());
  EXPECT_EQ(d->notes[0],
            "an admissible order avoids the scan: Z:c, Y[q->Z], "
            "not Y[bad->1], X[p->Y]");
}

struct AnalysisFixture {
  const char* file;
  LintCode code;
  Severity severity;
};

const AnalysisFixture kAnalysisFixtures[] = {
    {"pl014_sort_conflict.plg", LintCode::kSortConflict, Severity::kWarning},
    {"pl015_contradiction.plg", LintCode::kContradiction, Severity::kWarning},
    {"pl016_dead_rule.plg", LintCode::kDeadRule, Severity::kWarning},
    {"pl017_nonterminating.plg", LintCode::kNonTermination, Severity::kError},
    {"pl018_unbounded_invention.plg", LintCode::kUnboundedInvention,
     Severity::kWarning},
    {"pl019_unbound_target.plg", LintCode::kUnboundTarget, Severity::kWarning},
};

TEST(AnalysisFixtureTest, EveryFixtureFiresExactlyItsCode) {
  for (const AnalysisFixture& f : kAnalysisFixtures) {
    std::string source =
        ReadFile(std::string(PATHLOG_LINT_FIXTURES_DIR) + "/" + f.file);
    LintReport report = AnalyzeLint(source);
    const Diagnostic* d = FindCode(report, f.code);
    ASSERT_NE(d, nullptr) << f.file << ":\n" << report.ToString(f.file);
    EXPECT_EQ(d->severity, f.severity) << f.file;
    EXPECT_GT(d->line, 0) << f.file;
    EXPECT_GT(d->column, 0) << f.file;
    // The fixtures are golden: nothing else may fire on them.
    for (const Diagnostic& other : report.diagnostics()) {
      EXPECT_EQ(other.code, f.code)
          << f.file << " also fired " << LintCodeName(other.code) << ": "
          << other.message;
    }
  }
}

TEST(AnalysisFixtureTest, FixturesAreCleanWithoutAnalyze) {
  // The new codes live entirely behind LintOptions::analyze: the plain
  // PL001-PL013 linter must consider every analysis fixture clean.
  for (const AnalysisFixture& f : kAnalysisFixtures) {
    std::string source =
        ReadFile(std::string(PATHLOG_LINT_FIXTURES_DIR) + "/" + f.file);
    LintReport report = ProgramLinter().LintSource(source);
    EXPECT_TRUE(report.empty()) << f.file << ":\n" << report.ToString(f.file);
  }
}

TEST(AnalysisFixtureTest, ErrorsOnlyKeepsPl017AndDropsWarnings) {
  LintOptions options;
  options.analyze = true;
  options.errors_only = true;
  ProgramLinter linter(std::move(options));
  std::string pl017 = ReadFile(std::string(PATHLOG_LINT_FIXTURES_DIR) +
                               "/pl017_nonterminating.plg");
  EXPECT_TRUE(linter.LintSource(pl017).Has(LintCode::kNonTermination));
  std::string pl014 = ReadFile(std::string(PATHLOG_LINT_FIXTURES_DIR) +
                               "/pl014_sort_conflict.plg");
  EXPECT_TRUE(linter.LintSource(pl014).empty());
}

// ---- pathlog_lint --analyze --json round trip -----------------------

std::string RunLintTool(const std::string& args) {
  std::string cmd = std::string(PATHLOG_LINT_PATH) + " " + args + " 2>&1";
  std::array<char, 4096> buffer;
  std::string output;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr) return output;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  // Exit status 1 just means diagnostics were found — expected here.
  pclose(pipe);
  return output;
}

TEST(LintToolTest, AnalyzeJsonRoundTripsEveryNewCode) {
  for (const AnalysisFixture& f : kAnalysisFixtures) {
    std::string path = std::string(PATHLOG_LINT_FIXTURES_DIR) + "/" + f.file;
    std::string out = RunLintTool("--analyze --json " + path);
    std::string code = LintCodeName(f.code);
    EXPECT_NE(out.find("\"code\":\"" + code + "\""), std::string::npos)
        << f.file << " JSON: " << out;
    std::string severity =
        f.severity == Severity::kError ? "error" : "warning";
    EXPECT_NE(out.find("\"severity\":\"" + severity + "\""),
              std::string::npos)
        << f.file << " JSON: " << out;
    // Sanity: the report parses back far enough to re-find the file.
    EXPECT_NE(out.find(f.file), std::string::npos);
  }
}

TEST(LintToolTest, WithoutAnalyzeFixturesAreClean) {
  std::string path = std::string(PATHLOG_LINT_FIXTURES_DIR) +
                     "/pl017_nonterminating.plg";
  std::string out = RunLintTool(path);
  EXPECT_NE(out.find("clean"), std::string::npos) << out;
}

// ---- PL017 acceptance: the flagged program really runs away ---------

TEST(TerminationAnalysisTest, Pl017ProgramLoopsWithoutTheCheck) {
  // The pl017 fixture derives a fresh successor object for every nat,
  // each of which is itself a nat: without a wall-clock budget the
  // engine would invent objects forever. The analysis proves this
  // statically (PL017, error) — and the deadline demonstrates it
  // dynamically.
  std::string source = ReadFile(std::string(PATHLOG_LINT_FIXTURES_DIR) +
                                "/pl017_nonterminating.plg");

  DatabaseOptions opts;
  opts.engine.limits.max_wall_ms = 200;
  Database db(opts);
  ASSERT_TRUE(db.Load(source).ok());

  LintReport report = db.Lint();
  const Diagnostic* d = FindCode(report, LintCode::kNonTermination);
  ASSERT_NE(d, nullptr) << report.ToString("<pl017>");
  EXPECT_EQ(d->severity, Severity::kError);

  Status st = db.Materialize();
  ASSERT_FALSE(st.ok()) << "materialisation was expected to run away";
  EXPECT_TRUE(st.code() == StatusCode::kDeadlineExceeded ||
              st.code() == StatusCode::kResourceExhausted)
      << st;
}

// ---- Database::Lint runs the analyses over the store ----------------

TEST(DatabaseLintTest, StoreFactsSeedTheAnalyses) {
  // `age` has extensional facts only (no program clause): with store
  // seeding, reading it is not dead, and its observed integer sort
  // collides with the string a rule derives into the same method.
  Database db;
  ASSERT_TRUE(db.Load(R"(
    alice[age->30].
    X[age->"old"] <- X[retired->1].
    bob[retired->1].
  )").ok());
  LintReport report = db.Lint();
  const Diagnostic* d = FindCode(report, LintCode::kSortConflict);
  ASSERT_NE(d, nullptr) << report.ToString("<db>");
  EXPECT_FALSE(report.Has(LintCode::kDeadRule)) << report.ToString("<db>");
}

}  // namespace
}  // namespace pathlog
