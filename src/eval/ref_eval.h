// Binding-enumeration evaluation of references.
//
// Where semantics/valuation.h checks a reference under one *total*
// valuation (Definition 4), this evaluator answers queries: given a
// reference with free variables and a partial Bindings, it enumerates
// every pair (object, extended bindings) such that the object belongs
// to the reference's valuation under the extension. Variables are
// bound as the reference is walked left-to-right — sideways
// information passing: filters apply to an intermediate object in
// place instead of being re-joined against the path afterwards.
//
// That fixed left-to-right walk is what rule bodies, trigger
// conditions and the oracle tests use, and what reads call for their
// negated literals and `->>` results. Reads themselves (Query, Eval,
// Holds) compile to fact-access sites that the cost planner may run in
// any order (eval/site_program.h, query/planner.h); this walk is their
// oracle on the differential programs, and Definition 4 is the oracle
// of both on random stores (site_differential_test.cc,
// property_test.cc).
//
// Matching a path against a bound target and driving a molecule whose
// base is unbound probe the store's inverted value→receiver and
// member→receiver indexes.
//
// Deviation from the literal Definition 4, by design (documented in
// DESIGN.md): evaluation is *active-domain* — a `->>` filter with a
// reference result only holds if the specified set is non-empty, and
// every explicit set element must denote. The literal definition's
// vacuous corner ({} is a subset of everything) would make query
// answers explode with irrelevant bindings.

#ifndef PATHLOG_EVAL_REF_EVAL_H_
#define PATHLOG_EVAL_REF_EVAL_H_

#include <functional>
#include <span>
#include <vector>

#include "ast/ref.h"
#include "base/budget.h"
#include "base/result.h"
#include "eval/bindings.h"
#include "semantics/structure.h"

namespace pathlog {

class RefEvaluator {
 public:
  /// Invoked once per denoted object; the extended bindings are visible
  /// through the Bindings object passed to Enumerate. Return true to
  /// continue enumeration, false to stop early.
  using EmitFn = std::function<Result<bool>(Oid)>;

  explicit RefEvaluator(const SemanticStructure& I) : I_(I) {}

  /// Enumerates all (object, bindings-extension) solutions of `t`.
  /// On return, `b` is restored to its entry state.
  /// The Result is true unless some emit callback stopped enumeration.
  Result<bool> Enumerate(const Ref& t, Bindings* b, const EmitFn& emit);

  /// True iff `t` has at least one solution under (an extension of) `b`.
  /// Bindings are restored either way — use for negation / existence.
  Result<bool> Satisfiable(const Ref& t, Bindings* b);

  /// Evaluates `t` under `b` requiring every variable of `t` bound;
  /// returns the denoted objects (sorted, deduplicated). Fails with
  /// kUnsafeRule when an unbound variable is encountered.
  Result<std::vector<Oid>> EvalGround(const Ref& t, Bindings* b);

  /// Statistics for benchmarks: how many emit calls happened.
  uint64_t emit_count() const { return emit_count_; }

  /// How many duplicate path emissions (same object, same bindings,
  /// different derivations) were suppressed at the emit boundary.
  uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }

  // Index-route counters: how matching and molecule driving reached
  // the store. Always-on cheap member increments (like emit_count_);
  // callers flush them into the profiler by differencing.

  /// Probes of the inverted value→receiver / member→receiver indexes.
  uint64_t inverted_probes() const { return inverted_probes_; }
  /// Scans of a method extent or class extent.
  uint64_t extent_scans() const { return extent_scans_; }
  /// Whole-universe scans (undriven variables or molecules).
  uint64_t universe_scans() const { return universe_scans_; }

  /// Attaches the calling operation's budget window (null detaches).
  /// Enumeration polls budget->CheckControl() — cancellation and wall
  /// clock only, since enumeration never grows the store — on the
  /// first recursion step and every ~1k steps after, closing the "very
  /// long single enumerations can overshoot the deadline" gap the
  /// engine-level per-rule checks leave open.
  void set_budget(ResourceBudget* budget) { budget_ = budget; }

  // --- Delta-restricted mode (literal-level semi-naive) --------------
  //
  // While active, every fact consumption site compares the fact's
  // generation against `from`; DeltaSeen() tells whether at least one
  // fact with generation >= from is on the current derivation path.
  // The engine activates the mode for exactly one body literal per
  // pass and suspends it while continuing into later literals, so a
  // solution is kept iff the designated literal used a new fact.

  void EnterDelta(uint64_t from) {
    delta_from_ = from;
    delta_active_ = true;
    delta_count_ = 0;
  }
  void ExitDelta() { delta_active_ = false; }
  bool DeltaSeen() const { return delta_count_ > 0; }
  /// Deactivates counting (guards already open stay counted); returns
  /// the previous state for ResumeDelta.
  bool SuspendDelta() {
    bool was = delta_active_;
    delta_active_ = false;
    return was;
  }
  void ResumeDelta(bool state) { delta_active_ = state; }

 private:
  /// RAII: counts a fact consumption on the current derivation path
  /// when delta mode is active and the fact is new enough.
  class DeltaGuard {
   public:
    DeltaGuard(RefEvaluator* eval, uint64_t gen) : eval_(eval) {
      counted_ = eval_->delta_active_ && gen != UINT64_MAX &&
                 gen >= eval_->delta_from_;
      if (counted_) ++eval_->delta_count_;
    }
    ~DeltaGuard() {
      if (counted_) --eval_->delta_count_;
    }
    DeltaGuard(const DeltaGuard&) = delete;
    DeltaGuard& operator=(const DeltaGuard&) = delete;

   private:
    RefEvaluator* eval_;
    bool counted_;
  };
  using Cont = std::function<Result<bool>()>;

  /// Succeeds once for every way `t` can denote `target`.
  Result<bool> MatchRef(const Ref& t, Oid target, Bindings* b,
                        const Cont& cont);
  /// MatchRef for paths: drives backwards from the bound target through
  /// the store's inverted indexes (value→receiver for `.m`,
  /// member→receiver for `..m`) instead of enumerating the path's whole
  /// denotation and comparing. Built-ins (`self`, guards), which have
  /// no stored extent, keep their computed semantics.
  Result<bool> MatchPath(const Ref& t, Oid target, Bindings* b,
                         const Cont& cont);
  /// Pairwise MatchRef over parallel sequences.
  Result<bool> MatchArgs(const std::vector<RefPtr>& refs,
                         std::span<const Oid> oids, size_t i, Bindings* b,
                         const Cont& cont);

  /// Enumerates method objects a simple method reference can denote,
  /// using the store's method lists when the reference is an unbound
  /// variable. `set_flavor` selects which method list to use then.
  Result<bool> EnumMethod(const Ref& m, bool set_flavor, Bindings* b,
                          const std::function<Result<bool>(Oid)>& fn);

  /// Enumerates value combinations for an argument list (cartesian
  /// product of the arguments' denotations, binding variables).
  Result<bool> EnumArgValues(const std::vector<RefPtr>& args, size_t i,
                             std::vector<Oid>* argv, Bindings* b,
                             const Cont& cont);

  Result<bool> EnumPath(const Ref& t, Bindings* b, const EmitFn& emit);
  /// EnumPath wrapped in duplicate suppression: a path may denote the
  /// same object through several derivations (e.g. `mary..vehicles.color`
  /// with two same-colour vehicles); emissions that repeat both the
  /// object and every binding made since entry are dropped.
  Result<bool> EnumPathDeduped(const Ref& t, Bindings* b, const EmitFn& emit);
  Result<bool> EnumMolecule(const Ref& t, Bindings* b, const EmitFn& emit);
  Result<bool> CheckFilters(const std::vector<Filter>& filters, size_t i,
                            Oid u0, Bindings* b, const Cont& cont);
  Result<bool> CheckFilter(const Filter& f, Oid u0, Bindings* b,
                           const Cont& cont);
  Result<bool> MatchSetElems(const std::vector<RefPtr>& elems, size_t i,
                             const SetGroup& group, Bindings* b,
                             const Cont& cont);

  /// Scalar-path body: for one method object, enumerate (receiver,
  /// args, result) solutions.
  Result<bool> EnumScalarInvocations(Oid um, const Ref& base,
                                     const std::vector<RefPtr>& args,
                                     Bindings* b, const EmitFn& emit);
  Result<bool> EnumSetInvocations(Oid um, const Ref& base,
                                  const std::vector<RefPtr>& args,
                                  Bindings* b, const EmitFn& emit);

  bool AllVarsBound(const Ref& t, const Bindings& b) const;

  /// Budget poll at enumeration boundaries: OK (and nearly free) on
  /// all but every 1024th call, where the attached budget's control
  /// dimensions (cancellation, deadline) are checked.
  Status TickBudget() {
    if (budget_ == nullptr || (budget_probe_++ & 0x3FF) != 0) {
      return Status::OK();
    }
    return budget_->CheckControl();
  }

  const SemanticStructure& I_;
  uint64_t emit_count_ = 0;
  uint64_t duplicates_suppressed_ = 0;
  uint64_t inverted_probes_ = 0;
  uint64_t extent_scans_ = 0;
  uint64_t universe_scans_ = 0;
  bool delta_active_ = false;
  uint64_t delta_from_ = 0;
  int delta_count_ = 0;
  ResourceBudget* budget_ = nullptr;
  uint64_t budget_probe_ = 0;
};

}  // namespace pathlog

#endif  // PATHLOG_EVAL_REF_EVAL_H_
