// The engine: stratified bottom-up fixpoint evaluation of PathLog
// rules (paper section 6: "to evaluate rules in PathLog well-known
// bottom-up techniques may be applied"), and the cascade of active
// rules, triggers, over the fact log (sections 1 and 7: the reference
// machinery serves "deductive, production or active rules" alike, and
// "the way in which a set of rules is being evaluated is an orthogonal
// issue"). Rules and triggers pass one admission (AdmitClause), run
// their bodies through one walk (EnumerateBody) and assert their heads
// through one collect-then-assert step.
//
// Strategies for rules (ablated in bench/bench_tc.cc):
//   kNaive          every rule re-evaluated every iteration until no
//                   new facts — the textbook oracle.
//   kSemiNaiveRules predicate-level change propagation: a rule is only
//                   re-evaluated when a method (or the hierarchy) it
//                   reads gained facts since its last evaluation.
//   kSemiNaiveDelta literal-level delta restriction on top of the
//                   above — the classic semi-naive (see the enum and
//                   docs/IMPLEMENTATION.md).
//
// All strategies are sound and complete for stratified programs; the
// store's set semantics (facts are deduplicated) guarantees
// termination whenever the derivable fact set is finite. Virtual-object
// creation can make it infinite (e.g. a rule deriving a fresh successor
// for every derived object). One Run() is one budget window
// (base/budget.h): its facts and objects ceilings turn such a runaway
// into kResourceExhausted instead of livelock, and every tripped limit
// names the stratum and rule it tripped in.
//
// A trigger `head <~ event, conditions.` fires once per new fact
// matching its event literal: the fact log is the event stream,
// extensional and derived facts alike. Fire() consumes the facts past
// a watermark in cascade rounds. A round matches each event literal
// against the round's facts only and the conditions against the store
// as the round began, collects every trigger's firings before
// asserting any, and so hands its actions to the next round as events.
// There is no fixpoint re-evaluation (each event is consumed once) and
// no stratification (conditions see whatever state exists at firing
// time); cascades may legitimately loop, and max_cascade_rounds and
// the call's window turn a runaway into kResourceExhausted naming the
// trigger round.

#ifndef PATHLOG_EVAL_ENGINE_H_
#define PATHLOG_EVAL_ENGINE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ast/program.h"
#include "base/budget.h"
#include "base/result.h"
#include "eval/dependency.h"
#include "eval/head_assert.h"
#include "eval/stratify.h"
#include "obs/obs.h"
#include "store/object_store.h"

namespace pathlog {

class RefEvaluator;

enum class EvalStrategy : uint8_t {
  /// Every rule re-evaluated every iteration (textbook oracle).
  kNaive,
  /// Predicate-level change propagation: a rule is re-evaluated only
  /// when something it reads changed.
  kSemiNaiveRules,
  /// Literal-level delta restriction (the classic semi-naive): after
  /// the first round, each re-evaluation runs one pass per positive
  /// body literal, keeping only derivations in which that literal
  /// consumed a fact newer than the rule's previous evaluation. Falls
  /// back to a full pass when an assert-time (head) read changed.
  kSemiNaiveDelta,
};

struct EngineOptions {
  EvalStrategy strategy = EvalStrategy::kSemiNaiveRules;
  HeadValueMode head_value_mode = HeadValueMode::kRequireDefined;
  /// Record which rule instance produced each derived fact (see
  /// Engine::provenance and Database::ExplainFact). Off by default:
  /// records cost memory proportional to the number of derivations.
  bool trace_provenance = false;
  /// Ceiling on fixpoint rounds across all strata: the shape of the
  /// engine's own loop, so it stays here rather than in `limits`.
  uint64_t max_iterations = 1'000'000;
  /// Ceiling on the cascade rounds of one Fire(): a round consumes the
  /// facts the previous one appended, and the round past this ceiling
  /// aborts with kResourceExhausted.
  uint64_t max_cascade_rounds = 10'000;
  /// The ceilings, the CancelToken and the clock every budget window
  /// is built from (base/budget.h): store bytes, derivations, facts
  /// (default 20M), objects (default 20M) and wall clock (default
  /// none). A standalone Run() builds its window from these; a
  /// Database builds one per public call from its own copy and passes
  /// it to Run(ResourceBudget*).
  ResourceLimits limits;
  /// Observability sinks (all null by default — disabled cost is one
  /// branch per instrumentation site). Borrowed; the caller keeps them
  /// alive for the engine's lifetime.
  ObsSinks obs;
};

/// One head-instance assertion that added facts: the facts with
/// generation in [first_gen, end_gen) were derived by rule
/// `rule_index`, or with `trigger` set asserted by trigger
/// `rule_index`, under `bindings` (projected onto the head variables).
struct DerivationRecord {
  uint64_t first_gen;
  uint64_t end_gen;
  size_t rule_index;
  VarValuation bindings;
  bool trigger = false;
};

struct EngineStats {
  uint64_t iterations = 0;        ///< fixpoint rounds across all strata
  uint64_t rule_evaluations = 0;  ///< rule body evaluations
  uint64_t delta_passes = 0;      ///< delta-restricted literal passes
  uint64_t derivations = 0;       ///< head instances asserted
  uint64_t facts_added = 0;       ///< store growth caused by Run()
  uint64_t skolems_created = 0;   ///< virtual objects defined
  /// Duplicate path emissions suppressed at the emit boundary,
  /// summed over every rule evaluation.
  uint64_t duplicates_suppressed = 0;
  /// Wall-clock time spent in Run(), cumulative across calls.
  /// Recorded on error returns too (kDeadlineExceeded diagnosis).
  double elapsed_ms = 0;
  /// Fixpoint rounds per stratum, indexed by stratum number (strata
  /// with no rules stay 0). Filled by Run().
  std::vector<uint64_t> stratum_iterations;
  int num_strata = 1;
  /// Where a limit tripped (a budget dimension or max_iterations):
  /// stratum number and the printed rule under evaluation (empty
  /// between rule evaluations, where the iteration ceiling trips).
  /// -1/empty when no limit tripped.
  int limit_stratum = -1;
  std::string limit_rule;
};

struct TriggerStats {
  uint64_t rounds = 0;       ///< cascade rounds executed
  uint64_t firings = 0;      ///< (event, condition-solution) matches
  uint64_t facts_added = 0;  ///< store growth caused by Fire()
};

class Engine {
 public:
  explicit Engine(ObjectStore* store, EngineOptions options = {})
      : store_(store), options_(options) {}

  /// Admits (AdmitClause) and adds a rule, its body in evaluation
  /// order.
  Status AddRule(const Rule& rule);

  /// Adds every rule of a parsed program (queries/signatures ignored).
  Status AddRules(const std::vector<Rule>& rules);

  /// Admits (AdmitClause) and adds a trigger: its event literal stays
  /// first, its conditions follow in evaluation order.
  Status AddTrigger(const TriggerRule& trigger);

  /// Runs stratified fixpoint evaluation to completion under a window
  /// built from options.limits, and counts its rejection, if any.
  Status Run();
  /// Run() under the caller's window, which the caller counts.
  Status Run(ResourceBudget* budget);

  /// Fires the triggers over every fact with generation in
  /// [*watermark, generation()), cascading to quiescence under the
  /// caller's window, which the caller counts. Each round's facts are
  /// consumed — *watermark moves past them — only once all of its
  /// firings landed: a round whose budget check trips lands none of
  /// them, so a later Fire replays it.
  Status Fire(ResourceBudget* budget, uint64_t* watermark);

  const EngineStats& stats() const { return stats_; }
  const TriggerStats& trigger_stats() const { return trigger_stats_; }
  size_t num_rules() const { return rules_.size(); }
  /// The i-th rule as planned (body in evaluation order).
  const Rule& rule(size_t i) const { return rules_[i].rule; }

  /// Derivation records of rules and triggers (empty unless
  /// options.trace_provenance), ordered by first_gen.
  const std::vector<DerivationRecord>& provenance() const {
    return provenance_;
  }

 private:
  struct PlannedRule {
    Rule rule;                    // body already in evaluation order
    bool trigger = false;         // a trigger; body[0] is its event
    size_t index = 0;             // position in rules_ or triggers_
    std::set<std::string> head_vars;
    uint64_t last_eval_gen = 0;   // store generation at last evaluation
  };

  /// AddRule and AddTrigger.
  Status Add(const Rule& rule, bool trigger);
  /// Run(budget) minus the timing/metrics wrapper.
  Status RunImpl();
  Status RunStratum(int stratum, const std::vector<size_t>& rule_idxs,
                    const std::vector<RuleDeps>& deps);
  /// Evaluates a rule body and asserts the head for every solution.
  /// With `delta_from` set, runs one delta-restricted pass per positive
  /// body literal instead of one full evaluation.
  Status EvaluateRule(PlannedRule* pr, HeadAsserter* asserter,
                      std::optional<uint64_t> delta_from);
  /// EvaluateRule minus the route-counter flush wrapper.
  Status EvaluateRuleBody(PlannedRule* pr, HeadAsserter* asserter,
                          std::optional<uint64_t> delta_from,
                          RefEvaluator* eval);
  /// One cascade round over the facts from generation `from` on.
  Status FireRound(uint64_t from, HeadAsserter* asserter);
  /// The assert half of the collect-then-assert step rules and
  /// triggers share: asserts `pr`'s head once per solution of `batch`,
  /// collected beforehand because enumeration must not see the store
  /// change, charges each to the window and records its provenance.
  Status AssertBatch(const PlannedRule& pr,
                     const std::set<VarValuation>& batch,
                     HeadAsserter* asserter);
  bool RuleAffected(const PlannedRule& pr, const RuleDeps& deps) const;
  bool HeadReadsChanged(const PlannedRule& pr, const RuleDeps& deps) const;
  void ScanNewFacts();
  /// Splices where evaluation stands into a failed `st`: the cascade
  /// round during Fire, else the stratum and rule, which it also
  /// records into stats_. OK passes through.
  Status WithLimitContext(const Status& st);
  /// Bumps the pathlog_engine_* metrics by the growth of stats_ since
  /// `before` (no-op without a registry).
  void PublishMetrics(const EngineStats& before, double run_ms);

  ObjectStore* store_;
  EngineOptions options_;
  /// The window of the Run() or Fire() in progress; null between them.
  ResourceBudget* budget_ = nullptr;
  std::vector<PlannedRule> rules_;
  std::vector<PlannedRule> triggers_;
  std::vector<DerivationRecord> provenance_;
  EngineStats stats_;
  TriggerStats trigger_stats_;
  /// Evaluation context for limit/deadline diagnostics: what RunStratum
  /// is currently working on, or the cascade round Fire is in (0
  /// outside Fire). current_rule_ points into rules_.
  int current_stratum_ = -1;
  const PlannedRule* current_rule_ = nullptr;
  uint64_t current_round_ = 0;

  // Change tracking: generation of the most recent fact per method /
  // hierarchy, maintained by ScanNewFacts.
  std::unordered_map<Oid, uint64_t> method_gen_;
  uint64_t isa_gen_ = 0;
  uint64_t any_gen_ = 0;
  uint64_t scan_watermark_ = 0;
};

/// Admission, the one check every rule and trigger passes before it is
/// installed (Engine::AddRule/AddTrigger, Database::Load):
/// Definition-3 well-formedness (CheckRuleWellFormed, or with `trigger`
/// CheckTriggerWellFormed); for a trigger, an event literal that can
/// run first (CheckEventRunsFirst); a safety order of the body
/// (OrderLiteralsForSafety); and range restriction of the head.
/// kIllFormed or kUnsafeRule otherwise. On success `*order` (if
/// non-null) receives the body in evaluation order, a trigger's event
/// literal first. A fact is ground by well-formedness and has nothing
/// to order.
Status AdmitClause(const Rule& rule, bool trigger,
                   std::vector<Literal>* order = nullptr);

/// kUnsafeRule unless the event literal of the trigger whose rule part
/// is `trigger` (body[0], positive by well-formedness) can be evaluated
/// first: no `->>` filter result inside it may need variables that
/// other literals bind.
Status CheckEventRunsFirst(const Rule& trigger);

/// Variables that occur inside the result reference of a `->>` filter
/// anywhere in `t` — these must be bound before the literal containing
/// them is evaluated. Exposed for tests.
std::set<std::string> SetRefValueVars(const Ref& t);

/// Scores a literal that is admissible given the variables bound so
/// far; the ordering loop picks the lowest score.
using LiteralCost =
    std::function<double(const Literal&, const std::set<std::string>&)>;

/// Reorders a conjunction so every literal is admissible when reached:
/// negated literals after all their variables are bound, `->>` filter
/// results after everything inside them is bound. Each step picks the
/// admissible literal `cost` scores lowest, ties going to the earliest;
/// without a `cost` that is the first admissible literal, the safety
/// order. On success `*bound` (if non-null) receives the variables
/// bound by the positive literals and `*costs` (if non-null) the
/// picked literals' scores in order. kUnsafeRule when no admissible
/// order exists. The one ordering loop behind admission, the linter
/// and the cost planner (PlanConjunction).
Status OrderLiteralsForSafety(std::vector<Literal>* body,
                              std::set<std::string>* bound,
                              const LiteralCost& cost = nullptr,
                              std::vector<double>* costs = nullptr);

/// The one body walk behind rules and triggers. Runs `body`, already in
/// evaluation order, on `eval`: a positive literal enumerates its
/// matches, a negated one must be unsatisfiable under the bindings so
/// far. Every solution is projected onto `vars` and inserted into
/// `*out`. With `delta_literal` < body.size(), that positive literal is
/// delta-restricted: a solution survives only if its match consumed a
/// fact of generation >= `delta_from`. Earlier literals run before the
/// restriction starts, later ones with it suspended.
Status EnumerateBody(const std::vector<Literal>& body,
                     const std::set<std::string>& vars, RefEvaluator* eval,
                     std::set<VarValuation>* out,
                     size_t delta_literal = SIZE_MAX, uint64_t delta_from = 0);

}  // namespace pathlog

#endif  // PATHLOG_EVAL_ENGINE_H_
