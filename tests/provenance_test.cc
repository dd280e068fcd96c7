// Derivation provenance: ExplainFact and the DerivationRecord stream.

#include <gtest/gtest.h>

#include "obs/json.h"
#include "query/database.h"

namespace pathlog {
namespace {

DatabaseOptions Traced() {
  DatabaseOptions opts;
  opts.engine.trace_provenance = true;
  return opts;
}

TEST(ProvenanceTest, ExtensionalFactsExplainedAsSuch) {
  Database db(Traced());
  ASSERT_TRUE(db.Load("mary[age->30].").ok());
  ASSERT_TRUE(db.Materialize().ok());
  std::string expl = db.ExplainFact(0);
  EXPECT_NE(expl.find("mary[age->30]"), std::string::npos);
  EXPECT_NE(expl.find("extensional"), std::string::npos);
}

TEST(ProvenanceTest, DerivedFactNamesRuleAndBindings) {
  Database db(Traced());
  ASSERT_TRUE(db.Load(R"(
    a1 : automobile[engine->e1].
    e1[power->150].
    X[power->Y] <- X:automobile.engine[power->Y].
  )").ok());
  ASSERT_TRUE(db.Materialize().ok());
  // Find the derived power fact.
  std::optional<uint64_t> gen;
  for (uint64_t g = 0; g < db.store().generation(); ++g) {
    const Fact& f = db.store().FactAt(g);
    if (f.kind == FactKind::kScalar &&
        db.DisplayName(f.method) == "power" &&
        db.DisplayName(f.recv) == "a1") {
      gen = g;
    }
  }
  ASSERT_TRUE(gen.has_value());
  std::string expl = db.ExplainFact(*gen);
  EXPECT_NE(expl.find("derived by rule"), std::string::npos);
  EXPECT_NE(expl.find("X[power->Y]"), std::string::npos);
  EXPECT_NE(expl.find("X=a1"), std::string::npos);
  EXPECT_NE(expl.find("Y=150"), std::string::npos);
}

TEST(ProvenanceTest, VirtualObjectCreationIsAttributed) {
  Database db(Traced());
  ASSERT_TRUE(db.Load(R"(
    p1 : employee[worksFor->cs1].
    X.boss[worksFor->D] <- X:employee[worksFor->D].
  )").ok());
  ASSERT_TRUE(db.Materialize().ok());
  // The boss(p1) = _boss(p1) fact is derived.
  std::optional<uint64_t> gen;
  for (uint64_t g = 0; g < db.store().generation(); ++g) {
    const Fact& f = db.store().FactAt(g);
    if (f.kind == FactKind::kScalar && db.DisplayName(f.method) == "boss") {
      gen = g;
    }
  }
  ASSERT_TRUE(gen.has_value());
  std::string expl = db.ExplainFact(*gen);
  EXPECT_NE(expl.find("derived by rule"), std::string::npos);
  EXPECT_NE(expl.find("X=p1"), std::string::npos);
}

TEST(ProvenanceTest, TriggerAssertedFactNamesTheTriggerAndBindings) {
  Database db(Traced());
  ASSERT_TRUE(
      db.Load("a : c. log[saw->>{X}] <~ X:c. X[tag->1] <- X:c.").ok());
  ASSERT_TRUE(db.Materialize().ok());
  ASSERT_TRUE(db.FireTriggers().ok());
  // Generation 0 is a:c, 1 the rule's a[tag->1], 2 the trigger's
  // log[saw->>{a}].
  std::string rule_expl = db.ExplainFact(1);
  EXPECT_NE(rule_expl.find("derived by rule: X[tag->1] <- X:c."),
            std::string::npos)
      << rule_expl;
  std::string expl = db.ExplainFact(2);
  EXPECT_NE(expl.find("log[saw->>{a}]"), std::string::npos) << expl;
  EXPECT_NE(expl.find("asserted by trigger: log[saw->>{X}] <~ X:c."),
            std::string::npos)
      << expl;
  EXPECT_NE(expl.find("X=a"), std::string::npos) << expl;

  Result<std::string> json = db.ExplainFactJson(2);
  ASSERT_TRUE(json.ok()) << json.status();
  Result<JsonValue> v = ParseJson(*json);
  ASSERT_TRUE(v.ok()) << v.status() << "\njson: " << *json;
  ASSERT_EQ(v->Find("kind")->as_string(), "triggered");
  EXPECT_EQ(v->Find("trigger")->as_string(), "log[saw->>{X}] <~ X:c.");
  EXPECT_DOUBLE_EQ(v->Find("trigger_index")->as_number(), 0.0);
  EXPECT_EQ(v->Find("rule"), nullptr);
  const JsonValue* bindings = v->Find("bindings");
  ASSERT_NE(bindings, nullptr);
  ASSERT_NE(bindings->Find("X"), nullptr);
  EXPECT_EQ(bindings->Find("X")->as_string(), "a");
}

TEST(ProvenanceTest, RecordsSpanMultipleMaterializations) {
  Database db(Traced());
  ASSERT_TRUE(db.Load(R"(
    p0[kids->>{p1}].
    X[desc->>{Y}] <- X[kids->>{Y}].
  )").ok());
  ASSERT_TRUE(db.Materialize().ok());
  size_t first = db.provenance().size();
  EXPECT_GE(first, 1u);
  ASSERT_TRUE(db.Load("p1[kids->>{p2}].").ok());
  ASSERT_TRUE(db.Materialize().ok());
  EXPECT_GT(db.provenance().size(), first);
  // Every record covers a valid, derived fact range.
  for (const DerivationRecord& r : db.provenance()) {
    EXPECT_LT(r.first_gen, r.end_gen);
    EXPECT_LE(r.end_gen, db.store().generation());
    EXPECT_LT(r.rule_index, db.rules().size());
  }
}

TEST(ProvenanceTest, OffByDefault) {
  Database db;
  ASSERT_TRUE(db.Load(R"(
    p0[kids->>{p1}].
    X[desc->>{Y}] <- X[kids->>{Y}].
  )").ok());
  ASSERT_TRUE(db.Materialize().ok());
  EXPECT_TRUE(db.provenance().empty());
}

TEST(ProvenanceTest, OutOfRangeGen) {
  Database db(Traced());
  EXPECT_EQ(db.ExplainFact(99), "no such fact.");
}

// ---------------------------------------------------------------------------
// ExplainFactJson: the machine-readable twin.

TEST(ProvenanceTest, JsonExplainsExtensionalFacts) {
  Database db(Traced());
  ASSERT_TRUE(db.Load("mary[age->30].").ok());
  ASSERT_TRUE(db.Materialize().ok());
  Result<std::string> json = db.ExplainFactJson(0);
  ASSERT_TRUE(json.ok()) << json.status();
  Result<JsonValue> v = ParseJson(*json);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_DOUBLE_EQ(v->Find("gen")->as_number(), 0.0);
  EXPECT_EQ(v->Find("fact")->as_string(), "mary[age->30]");
  EXPECT_EQ(v->Find("kind")->as_string(), "extensional");
  EXPECT_EQ(v->Find("rule"), nullptr);
}

TEST(ProvenanceTest, JsonExplainsDerivedFactsWithRuleAndBindings) {
  Database db(Traced());
  ASSERT_TRUE(db.Load(R"(
    a1 : automobile[engine->e1].
    e1[power->150].
    X[power->Y] <- X:automobile.engine[power->Y].
  )").ok());
  ASSERT_TRUE(db.Materialize().ok());
  std::optional<uint64_t> gen;
  for (uint64_t g = 0; g < db.store().generation(); ++g) {
    const Fact& f = db.store().FactAt(g);
    if (f.kind == FactKind::kScalar &&
        db.DisplayName(f.method) == "power" &&
        db.DisplayName(f.recv) == "a1") {
      gen = g;
    }
  }
  ASSERT_TRUE(gen.has_value());
  Result<std::string> json = db.ExplainFactJson(*gen);
  ASSERT_TRUE(json.ok()) << json.status();
  Result<JsonValue> v = ParseJson(*json);
  ASSERT_TRUE(v.ok()) << v.status() << "\njson: " << *json;
  EXPECT_EQ(v->Find("kind")->as_string(), "derived");
  EXPECT_NE(v->Find("rule")->as_string().find("X[power->Y]"),
            std::string::npos);
  EXPECT_TRUE(v->Find("rule_index")->is_number());
  const JsonValue* bindings = v->Find("bindings");
  ASSERT_NE(bindings, nullptr);
  ASSERT_NE(bindings->Find("X"), nullptr);
  EXPECT_EQ(bindings->Find("X")->as_string(), "a1");
  EXPECT_EQ(bindings->Find("Y")->as_string(), "150");

  // The text and JSON explanations agree on the derivation.
  std::string text = db.ExplainFact(*gen);
  EXPECT_NE(text.find("derived by rule"), std::string::npos);
  EXPECT_NE(text.find("X=a1"), std::string::npos);
}

TEST(ProvenanceTest, JsonOutOfRangeGenIsNotFound) {
  Database db(Traced());
  Result<std::string> json = db.ExplainFactJson(99);
  EXPECT_EQ(json.status().code(), StatusCode::kNotFound);
}

TEST(ProvenanceTest, JsonWithoutTracingFallsBackToExtensional) {
  // trace_provenance off: derived facts exist but no records, so the
  // JSON twin reports them as extensional — same as ExplainFact.
  Database db;
  ASSERT_TRUE(db.Load("p0[kids->>{p1}]. X[desc->>{Y}] <- X[kids->>{Y}].")
                  .ok());
  ASSERT_TRUE(db.Materialize().ok());
  const uint64_t last = db.store().generation() - 1;
  Result<std::string> json = db.ExplainFactJson(last);
  ASSERT_TRUE(json.ok()) << json.status();
  Result<JsonValue> v = ParseJson(*json);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->Find("kind")->as_string(), "extensional");
}

}  // namespace
}  // namespace pathlog
