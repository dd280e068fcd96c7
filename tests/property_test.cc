// Property-based tests over randomly generated references and stores:
//
//  1. Printer/parser round-trip: Parse(Print(t)) is structurally equal
//     to t for every generated reference.
//  2. Scalarity/well-formedness analyses are deterministic under
//     round-trip.
//  3. Semantics/evaluator agreement: on ground well-formed references,
//     the active-domain evaluator implies the literal Definition 4
//     semantics, and the two coincide exactly when the reference has
//     no `->>`-reference filters (whose empty-set corner is the one
//     documented divergence).
//  4. The same with variables: every solution (object, bindings) the
//     evaluator enumerates is one of Definition 4 under a total
//     valuation, and the two solution sets coincide under the same
//     condition (MatchesDefinition4, random_refs.h).

#include <gtest/gtest.h>

#include "ast/analysis.h"
#include "ast/printer.h"
#include "eval/ref_eval.h"
#include "parser/parser.h"
#include "random_refs.h"
#include "semantics/structure.h"
#include "semantics/valuation.h"
#include "store/object_store.h"

namespace pathlog {
namespace {

class PropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertyTest, PrinterParserRoundTrip) {
  RefGen gen(GetParam(), /*with_vars=*/true);
  for (int i = 0; i < 40; ++i) {
    RefPtr ref = gen.Gen(3);
    std::string printed = ToString(*ref);
    Result<RefPtr> reparsed = ParseRef(printed);
    ASSERT_TRUE(reparsed.ok()) << printed << " -> " << reparsed.status();
    EXPECT_TRUE(RefEquals(*ref, **reparsed)) << printed;
    EXPECT_EQ(printed, ToString(**reparsed));
  }
}

TEST_P(PropertyTest, AnalysesStableUnderRoundTrip) {
  RefGen gen(GetParam() + 1000, /*with_vars=*/true);
  for (int i = 0; i < 40; ++i) {
    RefPtr ref = gen.Gen(3);
    Result<RefPtr> reparsed = ParseRef(ToString(*ref));
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(IsSetValued(*ref), IsSetValued(**reparsed));
    EXPECT_EQ(CheckWellFormed(*ref).code(),
              CheckWellFormed(**reparsed).code());
  }
}

TEST_P(PropertyTest, EvaluatorSoundWrtDefinition4) {
  ObjectStore store = RandomStore(GetParam());
  SemanticStructure I(store);
  RefEvaluator eval(I);
  RefGen gen(GetParam() + 5000, /*with_vars=*/false);

  int checked = 0;
  for (int i = 0; i < 120; ++i) {
    RefPtr ref = gen.Gen(2);
    if (!CheckWellFormed(*ref).ok()) continue;
    ASSERT_TRUE(IsGround(*ref)) << ToString(*ref);

    Bindings b;
    Result<std::vector<Oid>> eval_set = eval.EvalGround(*ref, &b);
    ASSERT_TRUE(eval_set.ok()) << ToString(*ref) << ": "
                               << eval_set.status();
    Result<std::vector<Oid>> sem_set = Valuate(I, *ref, {});
    ASSERT_TRUE(sem_set.ok()) << ToString(*ref) << ": " << sem_set.status();

    // Soundness: everything the evaluator derives is in rho_I.
    for (Oid o : *eval_set) {
      EXPECT_TRUE(std::binary_search(sem_set->begin(), sem_set->end(), o))
          << ToString(*ref) << " evaluator over-derives "
          << store.DisplayName(o);
    }
    // Completeness holds whenever the documented divergences cannot
    // occur in the reference.
    if (!MayDivergeFromDefinition4(*ref)) {
      EXPECT_EQ(*eval_set, *sem_set) << ToString(*ref);
    }
    ++checked;
  }
  EXPECT_GT(checked, 60);  // most generated references are well-formed
}

TEST_P(PropertyTest, OpenReferencesMatchDefinition4) {
  ObjectStore store = RandomStore(GetParam());
  SemanticStructure I(store);
  RefEvaluator eval(I);
  RefGen gen(GetParam() + 9000, /*with_vars=*/true);

  // Depth 2 already puts paths inside filter values, which are matched
  // against a bound target; depth 3 nests one level more.
  int open = 0;
  for (int i = 0; i < 300; ++i) {
    RefPtr ref = gen.Gen(2 + i % 2);
    if (!CheckWellFormed(*ref).ok()) continue;
    EXPECT_TRUE(MatchesDefinition4(I, *ref, [&](const VarValuation& pre) {
      return EvaluatorSolutions(&eval, *ref, pre);
    }));
    open += !IsGround(*ref);
  }
  EXPECT_GT(open, 60);  // the generator draws variables often
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace pathlog
