// The four semantic analyses built on the fixpoint engine
// (lint/dataflow/dataflow.h) and the abstract domains
// (lint/dataflow/domains.h). Each is an abstract interpretation of the
// program over the method dependency structure; together they produce
// the PL014-PL019 diagnostics and a summary (AnalysisSummary).
//
//   type-flow     — least fixpoint of result sorts per method, seeded
//                   from fact values, signature result types and (for
//                   a Database) the store's extensional values, and
//                   propagated through rule heads. Two concrete sorts
//                   meeting on one method is PL014; so is a comparison
//                   guard whose receiver or argument can never be an
//                   integer. Per-rule interval meets over the guards
//                   (plus repeated scalar filters on one receiver)
//                   detect unsatisfiable bodies as PL015.
//
//   reachability  — least fixpoint of "can this method ever hold a
//                   tuple", seeded from facts, signatures and
//                   assume_defined; a rule fires only when every
//                   positive body method is live. Rules that can never
//                   fire *transitively* (every body method is defined
//                   somewhere, but only by other dead rules — deeper
//                   than PL011's syntactic check) are PL016.
//
//   termination   — object invention through head spine paths
//                   (eval/head_assert.h) combined with recursion can
//                   mint a fresh OID per iteration. When the head
//                   provably grants the invented object everything the
//                   body requires of the anchor variable, every round
//                   re-derives its own premise on a fresh object:
//                   guaranteed non-termination, PL017 (error). When the
//                   missing requirements are themselves derivable by
//                   rules coupled into the same dependency cycle, the
//                   invention is possibly unbounded: PL018 (warning).
//
//   adornment     — simulates the engine's body order
//                   (OrderLiteralsForSafety) and computes bound/free
//                   modes per literal. A positive literal that always
//                   runs with an unbound anchor and no ground or
//                   already-bound filter value falls off the inverted
//                   value->receiver indexes (PR 2) onto extent or
//                   universe scans; when an alternative admissible
//                   order avoids that, PL019 suggests it.

#ifndef PATHLOG_LINT_DATAFLOW_ANALYSES_H_
#define PATHLOG_LINT_DATAFLOW_ANALYSES_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ast/program.h"
#include "eval/head_assert.h"
#include "lint/dataflow/domains.h"
#include "lint/diagnostic.h"

namespace pathlog {

struct AnalysisOptions {
  /// Mirrors the engine option; kSkolemize turns head value paths into
  /// definitions (more invention sites, more object sorts).
  HeadValueMode head_value_mode = HeadValueMode::kRequireDefined;

  /// Methods with extensional facts outside the analysed program (a
  /// Database's store). They seed the reachability fixpoint live.
  std::set<std::string> assume_defined;

  /// Observed value sorts of those extensional methods; a method in
  /// assume_defined but absent here contributes no sort information.
  std::map<std::string, SortSet> extensional_sorts;

  /// Drop warning-severity findings (keeps PL017, the only error).
  bool errors_only = false;
};

/// Binding modes of one body literal at its position in the engine's
/// evaluation order.
struct LiteralMode {
  std::string literal;  ///< printed form
  bool negated = false;
  /// The literal's anchor (innermost base) is a name or an
  /// already-bound variable when the literal runs.
  bool anchor_bound = false;
  /// Some filter of the literal probes an index: a ground class, or a
  /// scalar/set value that is ground or already bound. anchor_bound
  /// implies driven (receiver-side probe).
  bool index_driven = false;
};

struct RuleAdornment {
  size_t rule_index = 0;  ///< into Program::rules (facts skipped)
  std::vector<LiteralMode> literals;  ///< in evaluation order
};

/// Everything the analyses computed, beyond the diagnostics. Only the
/// tests read it (tests/dataflow_test.cc).
struct AnalysisSummary {
  /// Least-fixpoint result sorts per method (methods never assigned a
  /// value are absent or kSortBottom).
  std::map<std::string, SortSet> method_sorts;
  /// Methods that can hold at least one tuple.
  std::set<std::string> live_methods;
  /// Methods mentioned by the program that provably never hold a
  /// tuple, under any of the three evaluation strategies.
  std::set<std::string> empty_methods;
  /// Per-rule binding modes, engine order.
  std::vector<RuleAdornment> adornments;

  // Convergence counters (asserted on in tests/dataflow_test.cc).
  size_t sort_applications = 0;
  size_t live_applications = 0;
};

/// Runs all four analyses over `program`. Appends PL014-PL019 findings
/// to `report` (pass nullptr when only the summary is wanted).
AnalysisSummary AnalyzeProgram(const Program& program,
                               const AnalysisOptions& options,
                               LintReport* report);

}  // namespace pathlog

#endif  // PATHLOG_LINT_DATAFLOW_ANALYSES_H_
