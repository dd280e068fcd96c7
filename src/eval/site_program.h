// Reads as fact-access sites: the compile and execute halves of the
// read path (query/planner.h: PlanSites orders the sites).
//
// CompileSites walks every positive literal of a read once and breaks
// each reference into its fact-access sites: one per class test, one
// per scalar step or filter, one per set step or set-member element.
// Every variable and every intermediate object gets an integer slot,
// and every name is resolved to its oid once. `t.self` and
// `[self->v]` alias two slots instead of emitting a site, and a
// comparison guard becomes a test on its receiver's slot. A `->>`
// filter with a reference result and a negated literal stay whole:
// they are test sites that call RefEvaluator (EvalGround and
// Satisfiable) once the slots they read are bound.
//
// After planning, RunSites executes the sites as one loop over a flat
// array of slots. Which operands a site binds and which it compares is
// fixed by the plan, so backtracking needs no trail: a later site only
// reads slots an earlier site wrote, and a retried site overwrites its
// own. The loop polls the call's budget window about every 1k steps
// and hands each full solution to the caller's sink.

#ifndef PATHLOG_EVAL_SITE_PROGRAM_H_
#define PATHLOG_EVAL_SITE_PROGRAM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ast/program.h"
#include "base/budget.h"
#include "base/result.h"
#include "semantics/structure.h"

namespace pathlog {

inline constexpr uint32_t kNoSlot = UINT32_MAX;

enum class SiteKind : uint8_t {
  kIsa,       ///< recv : method (the class sits in the method operand)
  kScalar,    ///< recv[method@(args)->value]
  kMember,    ///< recv[method@(args)->>{value}]
  kSubset,    ///< recv[method@(args)->>ref], ref ground (EvalGround)
  kGuard,     ///< recv.method@(args), a comparison guard: a test
  kNegation,  ///< not ref (Satisfiable): a test
  kMethods,   ///< binds `method` to each named method of one flavour
  kUniverse,  ///< binds `recv` to each object: the last resort
};

/// How a planned site reaches the store.
enum class SiteRoute : uint8_t {
  kReceiverProbe,  ///< by its bound receiver (or object, for kIsa)
  kInverted,       ///< inverted value→receiver / member→receiver bucket
  kExtent,         ///< the method's whole extent, or the method list
  kClassExtent,    ///< the members of a bound class
  kUniverse,       ///< every object
  kTest,           ///< every operand bound: pass or fail
};

std::string_view SiteRouteName(SiteRoute route);

struct Site {
  SiteKind kind;
  uint32_t recv = kNoSlot;
  uint32_t method = kNoSlot;
  uint32_t value = kNoSlot;
  std::vector<uint32_t> args;
  /// kScalar/kMember/kSubset: the method operand is a variable, so an
  /// unbound one ranges over the named, non-anonymous methods.
  bool method_var = false;
  /// kMethods: enumerate the set-valued methods (else the scalar ones).
  bool set_flavor = false;
  /// kSubset: the `->>` result; kNegation: the negated reference.
  const Ref* ref = nullptr;
  /// kSubset/kNegation: the variables the RefEvaluator call reads,
  /// with their slots.
  std::vector<std::pair<std::string_view, uint32_t>> reads;

  // Set by the planner.
  SiteRoute route = SiteRoute::kTest;
  double estimate = 0;
  /// Bit i set: operand i is bound by this site rather than compared.
  /// Operands are numbered recv (0), args (1..k), value (k+1); kIsa's
  /// class and kMethods' method are operand 1 and 0.
  uint64_t outputs = 0;

  bool Output(size_t operand) const { return (outputs >> operand) & 1; }
};

struct Slot {
  /// The user variable this slot holds (the first, when `self`
  /// aliased several); empty for intermediates and constants.
  std::string_view var;
  /// Constants: the name as written, and its oid (kNilOid when the
  /// store lacks the name).
  const Ref* name = nullptr;
  Oid value = kNilOid;
  bool constant = false;
};

struct SiteProgram {
  std::vector<Slot> slots;
  /// Source order after CompileSites, execution order after PlanSites.
  std::vector<Site> sites;
  /// Every variable of the positive literals with its slot, by name.
  std::vector<std::pair<std::string_view, uint32_t>> vars;
  /// The slot the last positive literal denotes.
  uint32_t denoted = kNoSlot;
  /// True when no solution can exist: a compiled name the store lacks,
  /// or `self` aliasing two different objects.
  bool empty = false;
  /// True when every name of the read, the ones left to RefEvaluator
  /// included, is interned: the read cannot grow the name tables.
  bool names_interned = true;

  /// One site as PathLog text: user variables by name, intermediate
  /// objects as `$n`, constants as written.
  std::string SiteText(const Site& site) const;
  /// The slot of variable `var`, or kNoSlot.
  uint32_t VarSlot(std::string_view var) const;
};

/// Compiles a read's literals (at least one) into sites in source
/// order; `I` resolves names and identifies the built-in methods. The
/// literals must outlive the program, which points into them.
SiteProgram CompileSites(const std::vector<Literal>& body,
                         const SemanticStructure& I);

/// Route and per-site counters of one execution.
struct SiteCounters {
  uint64_t receiver_probes = 0;  ///< receiver-probe and test entries
  uint64_t inverted_probes = 0;
  uint64_t extent_scans = 0;  ///< method, method-list and class extents
  uint64_t universe_scans = 0;
  /// Per planned site (sized by RunSites when `per_site` is set):
  /// input bindings that reached the site and rows it produced.
  bool per_site = false;
  std::vector<uint64_t> entered;
  std::vector<uint64_t> produced;
};

/// A non-owning callable: the executor calls it once per solution with
/// the slot array (read a variable as `slots[program.VarSlot(v)]`).
/// Return false to stop.
class SolutionSink {
 public:
  template <typename F>
  SolutionSink(F& f)  // NOLINT(runtime/explicit)
      : obj_(&f), call_([](void* o, const Oid* slots) -> Result<bool> {
          return (*static_cast<F*>(o))(slots);
        }) {}
  Result<bool> operator()(const Oid* slots) const { return call_(obj_, slots); }

 private:
  void* obj_;
  Result<bool> (*call_)(void*, const Oid*);
};

/// Runs a planned program. The Result is true unless the sink stopped
/// the run.
Result<bool> RunSites(const SiteProgram& program, const SemanticStructure& I,
                      ResourceBudget* budget, SiteCounters* counters,
                      SolutionSink sink);

}  // namespace pathlog

#endif  // PATHLOG_EVAL_SITE_PROGRAM_H_
