// Active rules (event-condition-action), the production/active flavour
// of paper sections 1 and 7: "the techniques we shall propose are
// applicable for different kinds of rule languages, e.g. deductive,
// production or active rules ... the way in which a set of rules is
// being evaluated is an orthogonal issue."
//
// A trigger `head <~ event, conditions.` fires once per *new fact*
// matching the event literal (the fact log is the event stream —
// extensional and derived facts alike): the event literal is matched
// delta-restricted to the facts of the current round, the condition
// literals are evaluated against the current state, and the head is
// asserted per solution. Actions append facts, which become events of
// the next cascade round; firing runs to quiescence or the cascade
// budget.
//
// Contrast with the deductive engine: no fixpoint re-evaluation (each
// event is consumed exactly once), no stratification (conditions see
// whatever state exists at firing time), and cascades may legitimately
// loop — max_cascade_rounds and the call's budget window
// (base/budget.h) turn runaways into kResourceExhausted.

#ifndef PATHLOG_ACTIVE_TRIGGER_ENGINE_H_
#define PATHLOG_ACTIVE_TRIGGER_ENGINE_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "ast/program.h"
#include "base/budget.h"
#include "base/result.h"
#include "eval/head_assert.h"
#include "obs/obs.h"
#include "store/object_store.h"

namespace pathlog {

struct TriggerOptions {
  /// A cascade round processes the facts appended by the previous one;
  /// exceeding this many rounds aborts with kResourceExhausted.
  uint64_t max_cascade_rounds = 10'000;
};

struct TriggerStats {
  uint64_t rounds = 0;       ///< cascade rounds executed
  uint64_t firings = 0;      ///< (event, condition-solution) matches
  uint64_t facts_added = 0;  ///< store growth caused by Fire
};

class TriggerEngine {
 public:
  /// Facts with generation >= `watermark` count as fresh events for
  /// the first Fire round (pass 0 to replay history). Heads are
  /// asserted in `head_value_mode`, the one the database's rules use
  /// (EngineOptions::head_value_mode). `obs` are the caller's sinks
  /// (borrowed).
  TriggerEngine(ObjectStore* store, uint64_t watermark,
                HeadValueMode head_value_mode, TriggerOptions options = {},
                const ObsSinks& obs = {})
      : store_(store),
        watermark_(watermark),
        head_value_mode_(head_value_mode),
        options_(options),
        obs_(obs) {}

  /// Validates and installs a trigger. The event literal stays first;
  /// condition literals are reordered for safety given the event's
  /// variables.
  Status AddTrigger(const TriggerRule& trigger);

  /// Processes all pending events to quiescence under the caller's
  /// window, which the caller counts. A budget trip returns *before*
  /// any of that round's assertions land and without consuming the
  /// round's events, so the store is never left partially mutated past
  /// the last consumed watermark.
  Status Fire(ResourceBudget* budget);

  uint64_t watermark() const { return watermark_; }
  const TriggerStats& stats() const { return stats_; }
  size_t num_triggers() const { return planned_.size(); }

 private:
  struct PlannedTrigger {
    Rule rule;  // body[0] = event, rest in safe evaluation order
    std::set<std::string> head_vars;
  };

  Status RunRound(uint64_t from, HeadAsserter* asserter,
                  ResourceBudget* budget);

  ObjectStore* store_;
  uint64_t watermark_;
  HeadValueMode head_value_mode_;
  TriggerOptions options_;
  ObsSinks obs_;
  std::vector<PlannedTrigger> planned_;
  TriggerStats stats_;
};

}  // namespace pathlog

#endif  // PATHLOG_ACTIVE_TRIGGER_ENGINE_H_
