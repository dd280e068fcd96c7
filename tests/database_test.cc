// End-to-end tests of the Database front end.

#include "query/database.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <optional>
#include <string>

#include "store/fact.h"
#include "workload/company.h"

namespace pathlog {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Load(R"(
      manager :: employee.
      automobile :: vehicle.
      mary : employee[age->30; city->newYork].
      john : manager[age->40; city->detroit].
      mary[vehicles->>{car1,bike1}].
      john[vehicles->>{car2}].
      car1 : automobile[cylinders->4; color->red].
      car2 : automobile[cylinders->8; color->blue].
      bike1 : vehicle[color->red].
    )").ok());
  }

  std::vector<std::string> EvalNames(std::string_view ref) {
    Result<std::vector<Oid>> r = db_.Eval(ref);
    EXPECT_TRUE(r.ok()) << ref << ": " << r.status();
    std::vector<std::string> names;
    if (r.ok()) {
      for (Oid o : *r) names.push_back(db_.DisplayName(o));
      std::sort(names.begin(), names.end());
    }
    return names;
  }

  Database db_;
};

TEST_F(DatabaseTest, EvalGroundPath) {
  EXPECT_EQ(EvalNames("car1.color"), (std::vector<std::string>{"red"}));
  EXPECT_EQ(EvalNames("mary..vehicles"),
            (std::vector<std::string>{"bike1", "car1"}));
}

TEST_F(DatabaseTest, EvalTwoDimensionalPath) {
  EXPECT_EQ(EvalNames("mary..vehicles:automobile[cylinders->4].color"),
            (std::vector<std::string>{"red"}));
}

TEST_F(DatabaseTest, HoldsChecksEntailment) {
  Result<bool> yes = db_.Holds("mary[age->30]");
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  Result<bool> no = db_.Holds("mary[age->31]");
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
  // Subclass membership through `::`.
  Result<bool> isa = db_.Holds("john:employee");
  ASSERT_TRUE(isa.ok());
  EXPECT_TRUE(*isa);
}

TEST_F(DatabaseTest, QueryBindsAllVariables) {
  Result<ResultSet> rs = db_.Query("?- X:employee[age->A].");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->vars(), (std::vector<std::string>{"A", "X"}));
  EXPECT_EQ(rs->size(), 2u);
  EXPECT_TRUE(rs->ContainsRow({{"X", "mary"}, {"A", "30"}}, db_.store()));
  EXPECT_TRUE(rs->ContainsRow({{"X", "john"}, {"A", "40"}}, db_.store()));
}

TEST_F(DatabaseTest, QueryConjunction) {
  Result<ResultSet> rs = db_.Query(
      "?- X:employee, X[vehicles->>{V:automobile[color->red]}].");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->size(), 1u);
  EXPECT_TRUE(rs->ContainsRow({{"X", "mary"}, {"V", "car1"}}, db_.store()));
}

TEST_F(DatabaseTest, QueryWithNegation) {
  // NOTE: under the paper's single hierarchy relation, `manager ::
  // employee` puts the class object `manager` itself into employee's
  // extent, so it answers X:employee alongside mary and john.
  Result<ResultSet> rs =
      db_.Query("?- X:employee, not X[vehicles->>{V:automobile}].");
  ASSERT_TRUE(rs.ok()) << rs.status();
  // Both human employees own automobiles; only the extent-member
  // `manager` (the class object, which owns nothing) qualifies.
  EXPECT_EQ(rs->Column("X", db_.store()),
            (std::vector<std::string>{"manager"}));

  Result<ResultSet> rs2 =
      db_.Query("?- X:employee, not X[city->detroit].");
  ASSERT_TRUE(rs2.ok()) << rs2.status();
  EXPECT_EQ(rs2->Column("X", db_.store()),
            (std::vector<std::string>{"manager", "mary"}));
}

TEST_F(DatabaseTest, RulesMaterializeLazily) {
  ASSERT_TRUE(db_.Load(R"(
    X[redOwner->1] <- X:employee..vehicles[color->red].
  )").ok());
  Result<ResultSet> rs = db_.Query("?- X[redOwner->1].");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->Column("X", db_.store()), (std::vector<std::string>{"mary"}));
  EXPECT_GE(db_.engine_stats().derivations, 1u);
}

TEST_F(DatabaseTest, IncrementalLoadRetriggersMaterialization) {
  ASSERT_TRUE(db_.Load(
      "X[redOwner->1] <- X:employee..vehicles[color->red].").ok());
  ASSERT_TRUE(db_.Query("?- X[redOwner->1].").ok());
  // A new red vehicle for john arrives later.
  ASSERT_TRUE(db_.Load(
      "john[vehicles->>{car3}]. car3 : automobile[color->red].").ok());
  Result<ResultSet> rs = db_.Query("?- X[redOwner->1].");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->Column("X", db_.store()),
            (std::vector<std::string>{"john", "mary"}));
}

TEST_F(DatabaseTest, QueriesInLoadedTextRejected) {
  Status st = db_.Load("?- X:employee.");
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(DatabaseTest, ParseErrorsSurfaceWithPosition) {
  Status st = db_.Load("mary[age->).");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 1"), std::string::npos);
}

TEST_F(DatabaseTest, UnknownNamesInQueriesAreInterned) {
  // `ghost` was never mentioned; the query must not error, just answer
  // emptily.
  Result<ResultSet> rs = db_.Query("?- ghost[age->A].");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_TRUE(rs->empty());
}

TEST_F(DatabaseTest, EvalRejectsIllFormed) {
  Result<std::vector<Oid>> r = db_.Eval("p2[boss->p1..assistants]");
  EXPECT_EQ(r.status().code(), StatusCode::kIllFormed);
}

TEST_F(DatabaseTest, ResultSetRendering) {
  Result<ResultSet> rs = db_.Query("?- X:manager.");
  ASSERT_TRUE(rs.ok());
  std::string text = rs->ToString(db_.store());
  EXPECT_NE(text.find("X"), std::string::npos);
  EXPECT_NE(text.find("john"), std::string::npos);

  Result<ResultSet> empty = db_.Query("?- X:nothing.");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->ToString(db_.store()), "no answers.\n");
}

TEST_F(DatabaseTest, GroundQueryYieldsOneEmptyRow) {
  Result<ResultSet> rs = db_.Query("?- mary[age->30].");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->size(), 1u);
  EXPECT_TRUE(rs->vars().empty());

  Result<ResultSet> no = db_.Query("?- mary[age->99].");
  ASSERT_TRUE(no.ok());
  EXPECT_TRUE(no->empty());
}

TEST(DatabaseOptionsTest, TypeCheckAfterMaterializeRejectsBadDerivation) {
  DatabaseOptions opts;
  opts.type_check_after_materialize = true;
  Database db(opts);
  ASSERT_TRUE(db.Load(R"(
    person[age => integer].
    mary : person.
    mary[nick->molly].
    X[age->X.nick] <- X:person.
  )").ok());
  Status st = db.Materialize();
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
}

TEST(DatabaseScalarConflictTest, ConflictingFactsRejectedAtLoad) {
  Database db;
  ASSERT_TRUE(db.Load("mary[age->30].").ok());
  Status st = db.Load("mary[age->31].");
  EXPECT_EQ(st.code(), StatusCode::kScalarConflict);
}

TEST(DatabaseScalarConflictTest, AFailedLoadStillRunsTheRulesOverWhatItKept) {
  // The failing Load keeps the facts its earlier clauses asserted, so
  // the next read must run the rules over them.
  Database db;
  ASSERT_TRUE(
      db.Load("a[kids->>{b}]. X[desc->>{Y}] <- X[kids->>{Y}].").ok());
  ASSERT_TRUE(db.Materialize().ok());
  EXPECT_EQ(db.Load("b[kids->>{c}]. d[age->1]. d[age->2].").code(),
            StatusCode::kScalarConflict);
  Result<bool> kept = db.Holds("b[kids->>{c}]");
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_TRUE(*kept);
  Result<bool> derived = db.Holds("b[desc->>{c}]");
  ASSERT_TRUE(derived.ok()) << derived.status();
  EXPECT_TRUE(*derived);
}

TEST(DatabaseRuleTest, BodyLiteralOverAnUndefinedMethodDerivesNothing) {
  // Nothing defines `ghost`, so `senior` derives nothing, while the
  // rule beside it still fires.
  Database db;
  ASSERT_TRUE(db.Load(R"(
    alice[age->30]. bob[age->40].
    X[senior->1] <- X[age->A], X[ghost->1].
    X[adult->1] <- X[age->A], A.geq@(18).
  )").ok());
  ASSERT_TRUE(db.Materialize().ok());
  Result<bool> senior = db.Holds("alice[senior->1]");
  ASSERT_TRUE(senior.ok());
  EXPECT_FALSE(*senior);
  Result<bool> adult = db.Holds("alice[adult->1]");
  ASSERT_TRUE(adult.ok());
  EXPECT_TRUE(*adult);
}

TEST(DatabaseRuleTest, AProducerLoadedLaterMakesTheRuleFire) {
  Database db;
  ASSERT_TRUE(db.Load(R"(
    alice[age->30].
    X[senior->1] <- X[age->A], X[emeritus->1].
  )").ok());
  ASSERT_TRUE(db.Materialize().ok());
  Result<bool> senior = db.Holds("alice[senior->1]");
  ASSERT_TRUE(senior.ok());
  EXPECT_FALSE(*senior);

  ASSERT_TRUE(db.Load("X[emeritus->1] <- X[age->A], A.geq@(30).").ok());
  ASSERT_TRUE(db.Materialize().ok());
  senior = db.Holds("alice[senior->1]");
  ASSERT_TRUE(senior.ok());
  EXPECT_TRUE(*senior);
}

TEST(DatabaseLoadErrorTest, ASyntaxErrorKeepsTheClausesBeforeIt) {
  // A Load stops at the first clause that fails to parse and returns
  // its error; the clauses before it stay installed, and the next read
  // runs the rules over them.
  Database db;
  Status st = db.Load("a[v->1].\nX[w->1] <- X[v->1].\nb[v->).");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 3"), std::string::npos) << st;
  Result<bool> derived = db.Holds("a[w->1]");
  ASSERT_TRUE(derived.ok()) << derived.status();
  EXPECT_TRUE(*derived);
  Result<bool> after = db.Holds("b[v->1]");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(*after);
}

TEST(DatabaseLoadErrorTest, ALexerErrorKeepsTheClausesBeforeIt) {
  Database db;
  Status st = db.Load("a[v->1].\nX[w->1] <- X[v->1].\nb[v->2]. #");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 3"), std::string::npos) << st;
  Result<bool> derived = db.Holds("a[w->1]");
  ASSERT_TRUE(derived.ok()) << derived.status();
  EXPECT_TRUE(*derived);
}

TEST(DatabaseLoadErrorTest, AnErrorInTheFirstClauseInstallsNothing) {
  Database db;
  EXPECT_EQ(db.Load("a[v->). b[v->1].").code(), StatusCode::kParseError);
  EXPECT_EQ(db.store().FactCount(), 0u);
  EXPECT_FALSE(db.store().FindSymbol("b").has_value());
}

TEST(DatabaseLoadTest, NamesTakeTheirOidsInTextOrder) {
  // Clauses take effect in text order: a signature after a fact
  // interns its names after the fact's.
  Database db;
  ASSERT_TRUE(db.Load("ann[age->33].\nperson[age => integer].").ok());
  std::optional<Oid> ann = db.store().FindSymbol("ann");
  std::optional<Oid> person = db.store().FindSymbol("person");
  ASSERT_TRUE(ann.has_value() && person.has_value());
  EXPECT_LT(*ann, *person);
}

TEST(DatabaseLoadErrorTest, ARejectedClauseKeepsTheClausesBeforeIt) {
  // Load admits each rule as it reads it: an unsafe rule returns its
  // error as a syntax error does, the clauses before it stay, and
  // neither it nor its names go in.
  Database db;
  EXPECT_EQ(db.Load("a[v->1]. X[w->Y] <- X[v->1].").code(),
            StatusCode::kUnsafeRule);
  EXPECT_EQ(db.store().FactCount(), 1u);
  EXPECT_EQ(db.num_rules(), 0u);
  EXPECT_FALSE(db.store().FindSymbol("w").has_value());
  EXPECT_EQ(db.Load("a[v->1]. b[v->).").code(), StatusCode::kParseError);
  EXPECT_EQ(db.store().FactCount(), 1u);
  ASSERT_TRUE(db.Load("a[v->1]. X[w->1] <- X[v->1].").ok());
  EXPECT_EQ(db.num_rules(), 1u);
}

// ---- admission at Load ----------------------------------------------

/// A Load whose last clause could never run: an unsafe rule or
/// trigger, a trigger whose event literal cannot run first, or a rule
/// that would make the installed rules unstratifiable.
struct PoisonLoad {
  const char* text;
  StatusCode code;
  size_t rules;      ///< clauses admitted before the rejected one
  size_t triggers;
  const char* holds;  ///< holds once the admitted clauses have run
};

const PoisonLoad kPoisonLoads[] = {
    {"a : c. X[p->Y] <- X:c.", StatusCode::kUnsafeRule, 0, 0, "a:c"},
    {"a : c. X[p->Y] <~ X:c.", StatusCode::kUnsafeRule, 0, 0, "a:c"},
    {"a : c. X[c->1] <~ X[m->>Y..n], Y:k.", StatusCode::kUnsafeRule, 0, 0,
     "a:c"},
    // The first rule of the pair stays and runs; the second is rejected.
    {"a : c. X[p->1] <- X:c, not X[q->1]. X[q->1] <- X:c, not X[p->1].",
     StatusCode::kNotStratifiable, 1, 0, "a[p->1]"},
    // The cycle runs back against the load order, ...
    {"a : c. X[q->1] <- X:c, not X[r->1]. X[r->1] <- X[s->1]. "
     "X[s->1] <- X[q->1].",
     StatusCode::kNotStratifiable, 2, 0, "a[q->1]"},
    // ... or enters the last rule's `d` through a co-definition.
    {"a : c. X[d->1; e->1] <- X:c. X[y->1] <- X:c, not X[e->1]. "
     "X[d->1] <- X[y->1].",
     StatusCode::kNotStratifiable, 2, 0, "a[d->1]"},
};

TEST(DatabaseAdmissionTest, LoadRejectsAClauseThatCouldNeverRun) {
  for (const PoisonLoad& load : kPoisonLoads) {
    SCOPED_TRACE(load.text);
    Database db;
    Status st = db.Load(load.text);
    EXPECT_EQ(st.code(), load.code) << st;
    EXPECT_EQ(db.num_rules(), load.rules);
    EXPECT_EQ(db.num_triggers(), load.triggers);
    // The rejected clause poisons nothing that follows.
    Result<bool> holds = db.Holds(load.holds);
    ASSERT_TRUE(holds.ok()) << holds.status();
    EXPECT_TRUE(*holds);
    EXPECT_TRUE(db.Materialize().ok());
    EXPECT_TRUE(db.FireTriggers().ok());
  }
}

/// Peak resident set of this process so far, in bytes.
uint64_t PeakRssBytes() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kRssMeasuresASanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kRssMeasuresASanitizer = true;
#else
constexpr bool kRssMeasuresASanitizer = false;
#endif
#else
constexpr bool kRssMeasuresASanitizer = false;
#endif

TEST(DatabaseLoadMemoryTest, ABulkLoadPeaksBelowTheStoreItBuilds) {
  // A streaming Load holds one clause's tokens and AST at a time, so
  // the process peak grows across it by less than the store it builds:
  // the generated store freed below leaves heap the new one reuses. A
  // Load that tokenised and parsed the whole text first held every
  // token and clause at once, on top of the store. The peak is this
  // test's own: every case runs in its own process.
  if (kRssMeasuresASanitizer) {
    GTEST_SKIP() << "under ASan or TSan, RSS measures the sanitizer";
  }
  std::string text;
  {
    ObjectStore generated;
    CompanyConfig config;
    config.num_employees = 5000;
    GenerateCompany(&generated, config);
    text = StoreToProgramText(generated);
  }
  const uint64_t before = PeakRssBytes();
  Database db;
  ASSERT_TRUE(db.Load(text).ok());
  const uint64_t growth = PeakRssBytes() - before;
  RecordProperty("peak_growth_kib", std::to_string(growth / 1024));
  RecordProperty("store_kib", std::to_string(db.store().ApproxBytes() / 1024));
  EXPECT_LT(growth, db.store().ApproxBytes())
      << "peak grew " << growth / 1024 << " KiB across a Load of "
      << text.size() / 1024 << " KiB of text into a store of "
      << db.store().ApproxBytes() / 1024 << " KiB";
}

}  // namespace
}  // namespace pathlog
