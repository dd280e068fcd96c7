#include "active/trigger_engine.h"

#include "ast/analysis.h"
#include "ast/printer.h"
#include "base/strings.h"
#include "eval/bindings.h"
#include "eval/engine.h"
#include "eval/ref_eval.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "semantics/structure.h"

namespace pathlog {

Status TriggerEngine::AddTrigger(const TriggerRule& trigger) {
  PATHLOG_RETURN_IF_ERROR(CheckTriggerWellFormed(trigger));

  PlannedTrigger pt;
  pt.rule = trigger.rule;
  pt.head_vars = VarsOf(*pt.rule.head);

  // The event literal is pinned first; order the conditions for safety
  // treating the event's variables as already bound. (Trick: reuse the
  // shared planner on the whole body and verify the event stayed in
  // front — as the first admissible literal it is picked first unless
  // its own `->>` results need foreign variables, which is unsafe for
  // an event anyway.)
  std::vector<Literal> body = pt.rule.body;
  std::set<std::string> bound;
  PATHLOG_RETURN_IF_ERROR(OrderLiteralsForSafety(&body, &bound));
  if (!RefEquals(*body.front().ref, *pt.rule.body.front().ref) ||
      body.front().negated) {
    return UnsafeRule(StrCat(
        "the event literal of trigger `", ToString(trigger),
        "` cannot be evaluated first (its `->>` filter results need "
        "variables bound elsewhere)"));
  }
  pt.rule.body = std::move(body);

  // Range restriction for the head.
  for (const std::string& v : pt.head_vars) {
    if (!bound.count(v)) {
      return UnsafeRule(StrCat("head variable ", v, " of trigger `",
                               ToString(trigger),
                               "` is not bound by the event or conditions"));
    }
  }
  planned_.push_back(std::move(pt));
  return Status::OK();
}

Status TriggerEngine::RunRound(uint64_t from, HeadAsserter* asserter,
                               ResourceBudget* budget) {
  // Names the cascade round in budget/deadline errors — the generic
  // budget message alone does not say the trip happened in a trigger.
  auto with_round = [&](Status st) -> Status {
    if (st.ok()) return st;
    return Status(st.code(), StrCat(st.message(), " during trigger round ",
                                    stats_.rounds));
  };
  PATHLOG_RETURN_IF_ERROR(with_round(budget->CheckControl()));

  SemanticStructure I(*store_);
  RefEvaluator eval(I);
  eval.set_budget(budget);

  // All firings of the round are collected first (the store must not
  // change under enumeration), deduplicated per (trigger, head
  // bindings), then asserted. Only the event literal, body[0], must
  // consume a fresh fact.
  std::vector<std::set<VarValuation>> pending(planned_.size());
  for (size_t ti = 0; ti < planned_.size(); ++ti) {
    const PlannedTrigger& pt = planned_[ti];
    // Budget trips surface here too (the evaluator polls while
    // enumerating), so condition-evaluation errors need the round
    // context as much as the explicit gates do.
    PATHLOG_RETURN_IF_ERROR(with_round(EnumerateBody(
        pt.rule.body, pt.head_vars, &eval, &pending[ti], 0, from)));
  }

  // Enumeration is done; the budget gate sits *before* the assert loop
  // so an over-budget round aborts with zero of its assertions applied.
  // The store dimensions see the growth of every earlier round.
  PATHLOG_RETURN_IF_ERROR(with_round(budget->Check(*store_)));
  for (size_t ti = 0; ti < planned_.size(); ++ti) {
    for (const VarValuation& bindings : pending[ti]) {
      Bindings hb;
      for (const auto& [var, oid] : bindings) hb.Bind(var, oid);
      PATHLOG_RETURN_IF_ERROR(asserter->Assert(*planned_[ti].rule.head, &hb));
      ++stats_.firings;
      budget->ChargeDerivations();
    }
  }
  return Status::OK();
}

Status TriggerEngine::Fire(ResourceBudget* budget) {
  FlightSpan fire_span(obs_.flight, "triggers.fire", "triggers");
  const TriggerStats before = stats_;
  const uint64_t start_facts = store_->generation();

  Status st = [&]() -> Status {
    HeadAsserter asserter(store_, head_value_mode_);
    for (;;) {
      const uint64_t from = watermark_;
      const uint64_t end = store_->generation();
      if (from == end) break;  // quiescent
      if (++stats_.rounds > options_.max_cascade_rounds) {
        return ResourceExhausted(StrCat("trigger cascade exceeded ",
                                        options_.max_cascade_rounds,
                                        " rounds"));
      }
      FlightSpan round_span(obs_.flight, "triggers.round", "triggers", "from",
                            from);
      PATHLOG_RETURN_IF_ERROR(RunRound(from, &asserter, budget));
      // The round's events are consumed only after every one of its
      // assertions landed: an aborted round (deadline, budget, assert
      // error) leaves the watermark at `from`, so a later Fire
      // replays the same events — assertion is idempotent — instead of
      // silently dropping a half-processed round.
      watermark_ = end;
    }
    return Status::OK();
  }();
  stats_.facts_added += store_->generation() - start_facts;
  if (MetricsRegistry* m = obs_.metrics; m != nullptr) {
    auto bump = [&](const char* name, const char* help, uint64_t now_v,
                    uint64_t before_v) {
      Counter* c = m->GetCounter(name, help);
      if (c != nullptr && now_v > before_v) c->Inc(now_v - before_v);
    };
    bump("pathlog_trigger_rounds_total", "trigger cascade rounds",
         stats_.rounds, before.rounds);
    bump("pathlog_trigger_firings_total", "trigger firings", stats_.firings,
         before.firings);
    bump("pathlog_trigger_facts_total", "facts asserted by triggers",
         stats_.facts_added, before.facts_added);
  }
  return st;
}

}  // namespace pathlog
