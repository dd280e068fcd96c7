#include "active/trigger_engine.h"

#include <functional>

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
  PATHLOG_RETURN_IF_ERROR(OrderLiteralsForSafety(&body, nullptr));
  if (!RefEquals(*body.front().ref, *pt.rule.body.front().ref) ||
      body.front().negated) {
    return UnsafeRule(StrCat(
        "the event literal of trigger `", ToString(trigger),
        "` cannot be evaluated first (its `->>` filter results need "
        "variables bound elsewhere)"));
  }
  pt.rule.body = std::move(body);

  // Range restriction for the head.
  std::set<std::string> bound;
  for (const Literal& lit : pt.rule.body) {
    if (!lit.negated) {
      for (const std::string& v : VarsOf(*lit.ref)) bound.insert(v);
    }
  }
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
  // bindings), then asserted.
  std::set<std::pair<size_t, VarValuation>> pending;

  for (size_t ti = 0; ti < planned_.size(); ++ti) {
    const PlannedTrigger& pt = planned_[ti];
    Bindings b;
    const std::vector<Literal>& body = pt.rule.body;
    std::function<Result<bool>(size_t)> go = [&](size_t i) -> Result<bool> {
      if (i == body.size()) {
        VarValuation v;
        for (const std::string& hv : pt.head_vars) v.emplace(hv, *b.Get(hv));
        pending.insert({ti, std::move(v)});
        return true;
      }
      const Literal& lit = body[i];
      if (lit.negated) {
        Result<bool> sat = eval.Satisfiable(*lit.ref, &b);
        if (!sat.ok()) return sat.status();
        if (*sat) return true;
        return go(i + 1);
      }
      if (i != 0) {
        return eval.Enumerate(*lit.ref, &b, [&](Oid) { return go(i + 1); });
      }
      // The event literal: only solutions that consumed a fresh fact.
      eval.EnterDelta(from);
      Result<bool> res = eval.Enumerate(*lit.ref, &b,
                                        [&](Oid) -> Result<bool> {
        if (!eval.DeltaSeen()) return true;
        bool saved = eval.SuspendDelta();
        Result<bool> r = go(i + 1);
        eval.ResumeDelta(saved);
        return r;
      });
      eval.ExitDelta();
      return res;
    };
    Result<bool> r = go(0);
    // Budget trips surface here too (the evaluator polls while
    // enumerating), so condition-evaluation errors need the round
    // context as much as the explicit gates do.
    if (!r.ok()) return with_round(r.status());
  }

  // Enumeration is done; the budget gate sits *before* the assert loop
  // so an over-budget round aborts with zero of its assertions applied.
  // The store dimensions see the growth of every earlier round.
  PATHLOG_RETURN_IF_ERROR(with_round(budget->Check(*store_)));
  for (const auto& [ti, bindings] : pending) {
    Bindings hb;
    for (const auto& [var, oid] : bindings) hb.Bind(var, oid);
    PATHLOG_RETURN_IF_ERROR(asserter->Assert(*planned_[ti].rule.head, &hb));
    ++stats_.firings;
    budget->ChargeDerivations();
  }
  return Status::OK();
}

Status TriggerEngine::Fire() {
  const ResourceLimits defaults;
  ResourceBudget budget(defaults);
  Status st = Fire(&budget);
  CountBudgetRejection(obs_.metrics, budget);
  return st;
}

Status TriggerEngine::Fire(ResourceBudget* budget) {
  FlightSpan fire_span(obs_.flight, "triggers.fire", "triggers");
  const TriggerStats before = stats_;
  const uint64_t start_facts = store_->generation();

  Status st = [&]() -> Status {
    HeadAsserter asserter(store_, options_.head_value_mode);
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
      // error) leaves the watermark at `from`, so a later Fire()
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
