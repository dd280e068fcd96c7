// The site program against two oracles. A read compiled to fact-access
// sites, planned and run (eval/site_program.h, query/planner.h) must
// have exactly the solutions of RefEvaluator walking the same literals
// left to right; a solution is the denoted object together with the
// bindings of every variable of the positive literals. On random
// stores its solutions of a random reference must also be those of
// Definition 4 under every total valuation of the reference's
// variables (MatchesDefinition4, random_refs.h), independently of
// RefEvaluator.
//
// Covered: every positive body literal, and each whole body as one
// conjunctive read, over the differential suites' stores after
// materialisation; random references over random stores, with and
// without variables; and one hand-written read per site kind.

#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ast/analysis.h"
#include "ast/printer.h"
#include "differential_cases.h"
#include "eval/engine.h"
#include "eval/ref_eval.h"
#include "eval/site_program.h"
#include "parser/parser.h"
#include "query/database.h"
#include "query/planner.h"
#include "random_refs.h"
#include "semantics/structure.h"
#include "semantics/valuation.h"

namespace pathlog {
namespace {

struct Outcome {
  Status status;
  RefSolutions solutions;
};

/// The variables of the positive literals, sorted.
std::vector<std::string> PositiveVars(const std::vector<Literal>& body) {
  std::set<std::string> vars;
  for (const Literal& lit : body) {
    if (!lit.negated) CollectVars(*lit.ref, &vars);
  }
  return {vars.begin(), vars.end()};
}

/// The last positive literal in source order: its object is denoted.
const Literal* DenotingLiteral(const std::vector<Literal>& body) {
  const Literal* last = nullptr;
  for (const Literal& lit : body) {
    if (!lit.negated) last = &lit;
  }
  return last;
}

Outcome SiteSolutions(const ObjectStore& store,
                      const std::vector<Literal>& body) {
  Outcome out;
  const SemanticStructure I(store);
  SiteProgram program = CompileSites(body, I);
  out.status = PlanSites(&program, store);
  if (!out.status.ok()) return out;
  const std::vector<std::string> vars = PositiveVars(body);
  auto sink = [&](const Oid* slots) -> Result<bool> {
    RefSolution s{slots[program.denoted], {}};
    for (const std::string& v : vars) {
      s.second.emplace(v, slots[program.VarSlot(v)]);
    }
    out.solutions.insert(std::move(s));
    return true;
  };
  Result<bool> r = RunSites(program, I, nullptr, nullptr, sink);
  if (!r.ok()) out.status = r.status();
  return out;
}

/// RefEvaluator, literal by literal in the safety order (source order
/// when there is none).
Outcome OracleSolutions(const ObjectStore& store,
                        const std::vector<Literal>& body) {
  Outcome out;
  const SemanticStructure I(store);
  RefEvaluator eval(I);
  std::vector<Literal> order = body;
  if (!OrderLiteralsForSafety(&order, nullptr).ok()) order = body;
  const Literal* denoting = DenotingLiteral(body);
  const std::vector<std::string> vars = PositiveVars(body);
  Bindings b;
  Oid denoted = kNilOid;
  std::function<Result<bool>(size_t)> go = [&](size_t i) -> Result<bool> {
    if (i == order.size()) {
      RefSolution s{denoted, {}};
      for (const std::string& v : vars) s.second.emplace(v, *b.Get(v));
      out.solutions.insert(std::move(s));
      return true;
    }
    const Literal& lit = order[i];
    if (lit.negated) {
      Result<bool> sat = eval.Satisfiable(*lit.ref, &b);
      if (!sat.ok()) return sat.status();
      return *sat ? Result<bool>(true) : go(i + 1);
    }
    const bool denotes = lit.ref == denoting->ref;
    return eval.Enumerate(*lit.ref, &b, [&](Oid o) -> Result<bool> {
      if (denotes) denoted = o;
      return go(i + 1);
    });
  };
  Result<bool> r = go(0);
  if (!r.ok()) {
    out.status = r.status();
    out.solutions.clear();
  }
  return out;
}

std::string Describe(const ObjectStore& store, const RefSolutions& s) {
  std::string out;
  for (const RefSolution& sol : s) {
    out += "  " + DescribeSolution(store, sol) + "\n";
  }
  return out;
}

/// Compares the site program with the RefEvaluator oracle. A read the
/// site planner rejects as unsafe must be one the oracle rejects or
/// answers with nothing; a read only the oracle rejects is one the site
/// planner could order inside a literal, and is not compared. Returns
/// false when the read was not compared.
bool ExpectSameSolutions(const ObjectStore& store,
                         const std::vector<Literal>& body,
                         const std::string& label) {
  const Outcome oracle = OracleSolutions(store, body);
  const Outcome sites = SiteSolutions(store, body);
  if (sites.status.code() == StatusCode::kUnsafeRule) {
    EXPECT_TRUE(oracle.status.code() == StatusCode::kUnsafeRule ||
                (oracle.status.ok() && oracle.solutions.empty()))
        << label << ": the site planner rejects a read the oracle answers";
    return false;
  }
  if (oracle.status.code() == StatusCode::kUnsafeRule) return false;
  EXPECT_TRUE(sites.status.ok()) << label << ": " << sites.status;
  EXPECT_TRUE(oracle.status.ok()) << label << ": " << oracle.status;
  EXPECT_EQ(sites.solutions, oracle.solutions)
      << label << "\nsites:\n" << Describe(store, sites.solutions)
      << "oracle:\n" << Describe(store, oracle.solutions);
  return true;
}

std::vector<Literal> OneLiteral(const RefPtr& ref) {
  return {Literal{ref, false}};
}

// ---- The differential suites' programs, after materialisation -------

class SiteDifferentialTest : public ::testing::TestWithParam<Case> {};

TEST_P(SiteDifferentialTest, BodiesAndTheirLiteralsMatchTheScanReference) {
  const Case& c = GetParam();
  Database db;
  Generate(&db.store(), c.workload);
  ASSERT_TRUE(db.Load(c.rules).ok());
  ASSERT_TRUE(db.Materialize().ok());
  int compared = 0;
  for (const Rule& rule : db.rules()) {
    compared += ExpectSameSolutions(db.store(), rule.body,
                                    "body of " + ToString(rule));
    for (const Literal& lit : rule.body) {
      if (lit.negated) continue;
      compared += ExpectSameSolutions(db.store(), OneLiteral(lit.ref),
                                      "literal " + ToString(lit));
    }
  }
  EXPECT_GT(compared, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, SiteDifferentialTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return param_info.param.name;
    });

// ---- Random references over random stores ----------------------------

struct RandomCase {
  uint64_t seed;
  bool with_vars;
};

void PrintTo(const RandomCase& c, std::ostream* os) {
  *os << "seed " << c.seed << (c.with_vars ? " with variables" : " ground");
}

class SiteRandomDifferentialTest
    : public ::testing::TestWithParam<RandomCase> {};

/// `o` as a name: a random store's objects are symbols and integers.
RefPtr NameOf(const ObjectStore& store, Oid o) {
  if (store.kind(o) == ObjectKind::kInt) return Ref::Int(store.IntValue(o));
  return Ref::Name(store.DisplayName(o));
}

/// The site program's solutions of `ref` with the variables of `pre`
/// bound beforehand: a leading literal `V[self->o]` per variable, which
/// the compiler turns into a constant slot.
Result<RefSolutions> SiteSolutionsOf(const ObjectStore& store,
                                     const RefPtr& ref,
                                     const VarValuation& pre) {
  std::vector<Literal> body;
  for (const auto& [var, o] : pre) {
    std::vector<Filter> self;
    self.push_back(
        Ref::ScalarFilter(Ref::Name(kSelfMethodName), NameOf(store, o)));
    body.push_back({Ref::Molecule(Ref::Var(var), std::move(self))});
  }
  body.push_back({ref});
  Outcome out = SiteSolutions(store, body);
  if (!out.status.ok()) return out.status;
  return std::move(out.solutions);
}

TEST_P(SiteRandomDifferentialTest, RandomReferencesMatchTheScanReference) {
  const RandomCase& c = GetParam();
  ObjectStore store = RandomStore(c.seed);
  const SemanticStructure I(store);
  RefGen gen(c.seed + 7000, c.with_vars);
  int compared = 0;
  for (int i = 0; i < 120; ++i) {
    RefPtr ref = gen.Gen(2);
    if (!CheckWellFormed(*ref).ok()) continue;
    EXPECT_TRUE(MatchesDefinition4(I, *ref, [&](const VarValuation& pre) {
      return SiteSolutionsOf(store, ref, pre);
    }));
    compared += ExpectSameSolutions(store, OneLiteral(ref), ToString(*ref));
  }
  EXPECT_GT(compared, 40);
}

std::vector<RandomCase> RandomCases() {
  std::vector<RandomCase> out;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    out.push_back({seed, false});
    out.push_back({seed, true});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SiteRandomDifferentialTest, ::testing::ValuesIn(RandomCases()),
    [](const ::testing::TestParamInfo<RandomCase>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) +
             (param_info.param.with_vars ? "_vars" : "_ground");
    });

// ---- One hand-written read per site kind -----------------------------

struct HandCase {
  const char* name;
  const char* read;  ///< a `?-` query
};

void PrintTo(const HandCase& c, std::ostream* os) { *os << c.name; }

constexpr char kHandProgram[] = R"(
  manager :: employee.  automobile :: vehicle.
  mary : manager[age->42; city->detroit; salary->5000].
  john : employee[age->17; city->detroit; boss->mary; salary->1000].
  sue : employee[age->30; city->newYork; boss->mary; salary->2000].
  bob : employee[age->30; city->detroit; boss->sue].
  mary[vehicles->>{car1, bike1}].  john[vehicles->>{car2}].
  car1 : automobile[color->red; cylinders->4; producedBy->gm].
  car2 : automobile[color->blue; cylinders->6; producedBy->gm].
  bike1 : vehicle[color->red].
  gm : company[city->detroit; president->mary].
  mary[kids->>{john, sue}].  sue[kids->>{bob}].
  car1[price@(usd)->100; price@(eur)->90].  car2[price@(usd)->80].
  cfg[alias->self; cmp->lt].
  X[(M.tc)->>{Y}] <- X[M->>{Y}].
  X[(M.tc)->>{Y}] <- X..(M.tc)[M->>{Y}].
  X[desc->>{Y}] <- X[kids->>{Y}].
  X[desc->>{Y}] <- X..desc[kids->>{Y}].
)";

const HandCase kHandCases[] = {
    {"isa_with_unbound_class", "?- X:C."},
    {"isa_class_test", "?- mary:C, X:C."},
    {"method_variable", "?- X[M->Y]."},
    {"method_variable_set", "?- mary[M->>{Y}]."},
    {"computed_method", "?- mary..(kids.tc)[age->A]."},
    {"computed_method_variable", "?- X[(M.tc)->>{bob}]."},
    {"arguments", "?- X[price@(C)->P]."},
    {"arguments_bound", "?- car1.price@(usd)[V]."},
    {"guard_path", "?- X[age->A], A.geq@(18)."},
    {"guard_filter", "?- X:employee[age->A.lt@(40)]."},
    {"guard_between", "?- X[salary->S.between@(1000, 2000)]."},
    {"self_filter", "?- X:employee[self->Y]."},
    {"self_path", "?- mary..vehicles.self[color->C]."},
    {"self_constant", "?- X[self->mary]."},
    {"self_two_constants", "?- mary[self->john]."},
    {"set_reference_result", "?- X[kids->>{Y}; desc->>Y..kids]."},
    {"set_reference_ground", "?- mary[desc->>mary..kids]."},
    {"nested_filter_value", "?- X:employee[city->X.boss.city]."},
    {"molecule_set_elements",
     "?- X[vehicles->>{Y:automobile[cylinders->4]}]."},
    {"two_set_elements", "?- X[vehicles->>{car1, Y}]."},
    {"missing_name", "?- X[nosuchmethod->Y]."},
    {"missing_value", "?- X[city->atlantis]."},
    {"runtime_self", "?- cfg[alias->M], mary[M->Y]."},
    {"runtime_self_unbound_receiver", "?- cfg[alias->M], X[M->mary]."},
    {"runtime_guard", "?- cfg[cmp->C], X[age->A], A.C@(20)."},
    {"universe_only", "?- X."},
    {"universe_guard", "?- X.lt@(20)."},
    {"negation", "?- X:employee, not X[boss->B]."},
    {"negation_shared", "?- X[boss->B], not B[boss->C]."},
    {"manager_query",
     "?- X:manager..vehicles[color->red].producedBy[city->detroit; "
     "president->X]."},
    {"manager_conjunction",
     "?- X:manager, X[vehicles->>{V}], V[color->red], V[producedBy->C], "
     "C[city->detroit], C[president->X]."},
    {"two_dimensions",
     "?- X:employee[age->A; city->detroit]..vehicles[Y]:automobile"
     "[cylinders->4].color[Z]."},
};

class SiteKindDifferentialTest : public ::testing::TestWithParam<HandCase> {};

TEST_P(SiteKindDifferentialTest, MatchesTheScanReference) {
  const HandCase& c = GetParam();
  Database db;
  ASSERT_TRUE(db.Load(kHandProgram).ok());
  // Materialise, and intern the read's names except the missing ones:
  // the site program must find those absent.
  ASSERT_TRUE(db.Materialize().ok());
  for (const char* name : {"self", "lt", "geq", "between", "tc"}) {
    db.store().InternSymbol(name);
  }
  Result<struct Query> q = ParseQuery(c.read);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(ExpectSameSolutions(db.store(), q->body, c.read)) << c.read;
  for (const Literal& lit : q->body) {
    if (!lit.negated) {
      ExpectSameSolutions(db.store(), OneLiteral(lit.ref), ToString(lit));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SiteKindDifferentialTest, ::testing::ValuesIn(kHandCases),
    [](const ::testing::TestParamInfo<HandCase>& param_info) {
      return param_info.param.name;
    });

TEST(SiteProgramTest, MissingNamesMakeTheProgramEmpty) {
  ObjectStore store;
  store.InternSymbol("mary");
  const SemanticStructure I(store);
  Result<struct Query> q = ParseQuery("?- mary[nosuchmethod->Y].");
  ASSERT_TRUE(q.ok());
  SiteProgram program = CompileSites(q->body, I);
  EXPECT_TRUE(program.empty);
  EXPECT_FALSE(program.names_interned);
  ASSERT_TRUE(PlanSites(&program, store).ok());
  ASSERT_EQ(program.sites.size(), 1u);
  EXPECT_EQ(program.sites[0].estimate, 0);
}

TEST(SiteProgramTest, SelfAliasesSlotsInsteadOfAddingSites) {
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  store.InternSymbol("mary");
  const SemanticStructure I(store);
  Result<struct Query> q = ParseQuery("?- X[self->Y], Y.self[self->mary].");
  ASSERT_TRUE(q.ok());
  SiteProgram program = CompileSites(q->body, I);
  EXPECT_TRUE(program.sites.empty());
  EXPECT_EQ(program.VarSlot("X"), program.VarSlot("Y"));
  EXPECT_TRUE(program.slots[program.VarSlot("X")].constant);
}

TEST(SiteProgramTest, UnbindableSetResultIsUnsafe) {
  ObjectStore store;
  store.InternSymbol("X");
  store.InternSymbol("friends");
  store.InternSymbol("assistants");
  const SemanticStructure I(store);
  Result<struct Query> q = ParseQuery("?- X[friends->>Y..assistants].");
  ASSERT_TRUE(q.ok());
  SiteProgram program = CompileSites(q->body, I);
  EXPECT_EQ(PlanSites(&program, store).code(), StatusCode::kUnsafeRule);
}

}  // namespace
}  // namespace pathlog
