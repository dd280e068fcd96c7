// Unit tests for dependency analysis and stratification in isolation.

#include "eval/stratify.h"

#include <gtest/gtest.h>

#include <random>

#include "base/strings.h"
#include "eval/dependency.h"
#include "parser/parser.h"

namespace pathlog {
namespace {

struct Built {
  ObjectStore store;
  std::vector<Rule> rules;
  Result<DependencyGraph> graph = Status(Internal("unset"));
};

Built Build(std::initializer_list<const char*> rule_srcs,
            HeadValueMode mode = HeadValueMode::kRequireDefined) {
  Built b;
  for (const char* src : rule_srcs) {
    Result<Rule> r = ParseRule(src);
    EXPECT_TRUE(r.ok()) << src << ": " << r.status();
    b.rules.push_back(*r);
  }
  b.graph = DependencyGraph::Build(b.rules, &b.store, mode);
  return b;
}

TEST(DependencyTest, DefinesAndReads) {
  Built b = Build({"X[power->Y] <- X:automobile.engine[power->Y]."});
  ASSERT_TRUE(b.graph.ok());
  const RuleDeps& deps = b.graph->rule_deps()[0];
  Oid power = *b.store.FindSymbol("power");
  Oid engine = *b.store.FindSymbol("engine");
  EXPECT_TRUE(deps.defines.count(power));
  EXPECT_TRUE(deps.reads.count(engine));
  EXPECT_TRUE(deps.reads.count(power));  // body filter reads power too
  EXPECT_TRUE(deps.reads_isa);
  EXPECT_FALSE(deps.defines_any);
  EXPECT_TRUE(deps.reads_complete.empty());
}

TEST(DependencyTest, ClassHeadDefinesIsa) {
  Built b = Build({"X:adult <- X[age->30]."});
  ASSERT_TRUE(b.graph.ok());
  EXPECT_TRUE(b.graph->rule_deps()[0].defines_isa);
}

TEST(DependencyTest, SetRefInBodyIsCompleteRead) {
  Built b = Build({"X[ok->1] <- X[friends->>p1..assistants]."});
  ASSERT_TRUE(b.graph.ok());
  const RuleDeps& deps = b.graph->rule_deps()[0];
  Oid assistants = *b.store.FindSymbol("assistants");
  Oid friends = *b.store.FindSymbol("friends");
  EXPECT_TRUE(deps.reads_complete.count(assistants));
  EXPECT_FALSE(deps.reads_complete.count(friends));
  EXPECT_TRUE(deps.reads.count(friends));
}

TEST(DependencyTest, NegatedLiteralIsCompleteRead) {
  Built b = Build({"X[ok->1] <- X:thing, not X[bad->1]."});
  ASSERT_TRUE(b.graph.ok());
  const RuleDeps& deps = b.graph->rule_deps()[0];
  Oid bad = *b.store.FindSymbol("bad");
  EXPECT_TRUE(deps.reads_complete.count(bad));
}

TEST(DependencyTest, VariableMethodIsWildcard) {
  Built b = Build({"X[(M.tc)->>{Y}] <- X[M->>{Y}]."});
  ASSERT_TRUE(b.graph.ok());
  const RuleDeps& deps = b.graph->rule_deps()[0];
  EXPECT_TRUE(deps.defines_any);
  EXPECT_TRUE(deps.reads_any);
}

TEST(DependencyTest, HeadValuePathReadVsDefineByMode) {
  Built req = Build({"X.addr[c->X.city] <- X:person."},
                    HeadValueMode::kRequireDefined);
  ASSERT_TRUE(req.graph.ok());
  Oid city = *req.store.FindSymbol("city");
  EXPECT_FALSE(req.graph->rule_deps()[0].defines.count(city));
  EXPECT_TRUE(req.graph->rule_deps()[0].reads.count(city));

  Built sko = Build({"X.addr[c->X.city] <- X:person."},
                    HeadValueMode::kSkolemize);
  ASSERT_TRUE(sko.graph.ok());
  Oid city2 = *sko.store.FindSymbol("city");
  EXPECT_TRUE(sko.graph->rule_deps()[0].defines.count(city2));
}

TEST(StratifyTest, PositiveRecursionSingleStratum) {
  Built b = Build({
      "X[desc->>{Y}] <- X[kids->>{Y}].",
      "X[desc->>{Y}] <- X..desc[kids->>{Y}].",
  });
  ASSERT_TRUE(b.graph.ok());
  Result<Stratification> s = Stratify(*b.graph, b.rules.size());
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(s->num_strata, 1);
}

TEST(StratifyTest, CompleteReadForcesHigherStratum) {
  Built b = Build({
      "X[assistants->>{Y}] <- X[helpers->>{Y}].",
      "X[friends->>p1..assistants] <- X:person.",
  });
  ASSERT_TRUE(b.graph.ok());
  Result<Stratification> s = Stratify(*b.graph, b.rules.size());
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(s->num_strata, 2);
  EXPECT_LT(s->rule_stratum[0], s->rule_stratum[1]);
}

TEST(StratifyTest, CompleteCycleRejectedWithDiagnostic) {
  Built b = Build({
      "X[assistants->>p1..assistants] <- X:person.",
  });
  ASSERT_TRUE(b.graph.ok());
  Result<Stratification> s = Stratify(*b.graph, b.rules.size());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kNotStratifiable);
  EXPECT_NE(s.status().message().find("assistants"), std::string::npos);
}

TEST(StratifyTest, MutualRecursionThroughNegationRejected) {
  Built b = Build({
      "X[a->1] <- X:thing, not X[b->1].",
      "X[b->1] <- X:thing, not X[a->1].",
  });
  ASSERT_TRUE(b.graph.ok());
  EXPECT_EQ(Stratify(*b.graph, b.rules.size()).status().code(),
            StatusCode::kNotStratifiable);
}

TEST(StratifyTest, NegationChainGetsAscendingStrata) {
  Built b = Build({
      "X[a->1] <- X:thing.",
      "X[b->1] <- X:thing, not X[a->1].",
      "X[c->1] <- X:thing, not X[b->1].",
  });
  ASSERT_TRUE(b.graph.ok());
  Result<Stratification> s = Stratify(*b.graph, b.rules.size());
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(s->num_strata, 3);
  EXPECT_LT(s->rule_stratum[0], s->rule_stratum[1]);
  EXPECT_LT(s->rule_stratum[1], s->rule_stratum[2]);
}

TEST(StratifyTest, CoDefinedSymbolsShareAStratum) {
  // One head defines both `a` and `b`; a second rule needs complete
  // `a`, and a third defines `b` from it. If a and b were stratified
  // independently this would wedge; co-definition links them.
  Built b = Build({
      "X[a->>{Y}; b->>{Y}] <- X[base->>{Y}].",
      "X[c->>q..a] <- X:thing.",
  });
  ASSERT_TRUE(b.graph.ok());
  Result<Stratification> s = Stratify(*b.graph, b.rules.size());
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(s->rule_stratum[0], 0);
  EXPECT_EQ(s->rule_stratum[1], 1);
}

TEST(StratifyTest, WildcardPlusCompleteReadIsConservativelyRejected) {
  // Rule 1 may define *any* method (variable method position) and read
  // any method, which collapses every symbol into one SCC; rule 2's
  // needs-complete read of `friends` then sits on a cycle. The
  // analysis is deliberately conservative here (DESIGN.md): generic
  // wildcard rules cannot be combined with completion-dependent rules.
  Built b = Build({
      "X[(M.aux)->>{Y}] <- X[M->>{Y}].",
      "X[ok->1] <- X[sub->>q..friends].",
  });
  ASSERT_TRUE(b.graph.ok());
  Result<Stratification> s = Stratify(*b.graph, b.rules.size());
  EXPECT_EQ(s.status().code(), StatusCode::kNotStratifiable);
}

TEST(StratifyTest, FactsAreStratumZero) {
  Built b = Build({
      "p[kids->>{q}].",
      "X[b->1] <- X:thing, not X[kids->>{q}].",
  });
  ASSERT_TRUE(b.graph.ok());
  Result<Stratification> s = Stratify(*b.graph, b.rules.size());
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(s->rule_stratum[0], 0);
  EXPECT_GT(s->rule_stratum[1], 0);
}

// ---- edge ends: when a new rule cannot close a cycle ----------------

/// Adds the edge ends of `rule`, from its own graph in its own store,
/// as a Database computes them.
void AddEnds(const Rule& rule, EdgeEnds* ends) {
  ObjectStore store;
  Result<DependencyGraph> g =
      DependencyGraph::Build({rule}, &store, HeadValueMode::kRequireDefined);
  ASSERT_TRUE(g.ok()) << g.status();
  ends->Add(*g, 0);
}

/// MayCloseCycle for `rule` after the `installed` rules.
bool MayClose(std::initializer_list<const char*> installed, const char* rule) {
  EdgeEnds ends, added;
  for (const char* src : installed) AddEnds(*ParseRule(src), &ends);
  AddEnds(*ParseRule(rule), &added);
  return MayCloseCycle(ends, added);
}

TEST(EdgeEndsTest, ARuleNothingReadsCannotCloseACycle) {
  // Loaded in dependency order, each rule defines what no installed
  // rule reads, whichever way the chain runs.
  EXPECT_FALSE(MayClose({"X[b->1] <- X[a->1], not X[n->1]."},
                        "X[c->1] <- X[b->1]."));
  EXPECT_FALSE(MayClose({"X[c->1] <- X[b->1], not X[n->1]."},
                        "X[b->1] <- X[a->1]."));
  // Without a needs-complete read anywhere, no cycle can matter.
  EXPECT_FALSE(MayClose({"X[b->1] <- X[a->1]."}, "X[a->1] <- X[b->1]."));
}

TEST(EdgeEndsTest, ARuleThatMayCloseACycleIsReported) {
  EXPECT_TRUE(MayClose({"X[b->1] <- X[a->1], not X[n->1]."},
                       "X[n->1] <- X[b->1]."));
  // The cycle enters `d` through a co-definition, not a read.
  EXPECT_TRUE(MayClose({"X[d->1; e->1] <- X:c.",
                        "X[y->1] <- X:c, not X[e->1]."},
                       "X[d->1] <- X[y->1]."));
  // Reading what it defines needs no installed rule at all.
  EXPECT_TRUE(MayClose({}, "X[a->>p..a] <- X:c."));
  // A wildcard couples every method.
  EXPECT_TRUE(MayClose({"X[b->1] <- X:c, not X[a->1]."},
                       "X[(M.aux)->1] <- X[M->1]."));
}

/// A random rule over methods m0..m3 and class c: its head defines
/// one or two methods or a class; its body reads them plainly, negated
/// or as a `->>` result.
std::string RandomRule(std::mt19937* rng) {
  auto pick = [rng](int n) { return static_cast<int>((*rng)() % n); };
  auto m = [&pick] { return StrCat("m", pick(4)); };
  std::string rule;
  switch (pick(4)) {
    case 0: rule = StrCat("X[", m(), "->1; ", m(), "->1]"); break;
    case 1: rule = "X:c"; break;
    default: rule = StrCat("X[", m(), "->1]"); break;
  }
  rule += " <- X[base->1]";
  for (int i = pick(3); i >= 0; --i) {
    switch (pick(4)) {
      case 0: rule += StrCat(", not X[", m(), "->1]"); break;
      case 1: rule += StrCat(", X[", m(), "->>q..", m(), "]"); break;
      case 2: rule += pick(2) == 0 ? ", X:c" : ", not X:c"; break;
      default: rule += StrCat(", X[", m(), "->1]"); break;
    }
  }
  return rule + ".";
}

TEST(EdgeEndsTest, NoRuleItClearsMakesTheRulesUnstratifiable) {
  // Rules are offered one at a time and kept while all kept rules
  // stratify, as Load keeps them. Whenever MayCloseCycle answers
  // false, the rules with the new one must stratify.
  int cleared = 0, rejected = 0;
  for (uint32_t seed = 1; seed <= 300; ++seed) {
    std::mt19937 rng(seed);
    std::vector<Rule> kept;
    EdgeEnds ends;
    for (int i = 0; i < 8; ++i) {
      const std::string src = RandomRule(&rng);
      Result<Rule> rule = ParseRule(src);
      ASSERT_TRUE(rule.ok()) << src << ": " << rule.status();
      EdgeEnds added;
      AddEnds(*rule, &added);
      const bool may_close = MayCloseCycle(ends, added);
      kept.push_back(*rule);
      ObjectStore store;
      Result<DependencyGraph> g = DependencyGraph::Build(
          kept, &store, HeadValueMode::kRequireDefined);
      ASSERT_TRUE(g.ok()) << g.status();
      const bool stratifies = Stratify(*g, kept.size()).ok();
      if (!may_close) {
        ++cleared;
        EXPECT_TRUE(stratifies) << "seed " << seed << ": " << src;
      }
      if (stratifies) {
        AddEnds(*rule, &ends);
      } else {
        ++rejected;
        kept.pop_back();
      }
    }
  }
  // Both answers occur often enough for the check to mean something.
  EXPECT_GT(cleared, 300);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace pathlog
