// Stratification (paper section 6, cf. [NT89]).
//
// A program is stratifiable iff no strongly connected component of the
// method dependency graph contains a needs-complete edge: a method may
// not (transitively) contribute to the very set whose completion its
// derivation awaits. Programs that never use a set-valued reference as
// the result of a `->>` filter in a body (and never negate) are always
// stratifiable in a single stratum — "in all other cases the treatment
// of sets in PathLog does not imply stratification".

#ifndef PATHLOG_EVAL_STRATIFY_H_
#define PATHLOG_EVAL_STRATIFY_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/result.h"
#include "eval/dependency.h"

namespace pathlog {

struct Stratification {
  /// Stratum of each rule (parallel to the rule vector the graph was
  /// built from). Rules are evaluated stratum by stratum, fixpoint
  /// within each.
  std::vector<int> rule_stratum;
  int num_strata = 1;
};

/// Why a program is not stratifiable: a cycle of dependency edges in
/// one strongly connected component. `edges.front()` is the closing
/// needs-complete edge (the `->>` filter result or negation); the
/// remaining edges chain `edges.front().to` back to
/// `edges.front().from` through ordinary dependencies. Each edge
/// carries the index of the contributing rule (-1 for synthetic
/// wildcard-coupling edges), so a linter can print the offending rule
/// chain verbatim.
struct CycleExplanation {
  std::vector<DependencyGraph::Edge> edges;
};

/// Strongly connected components of the graph of `n` nodes with
/// adjacency lists `adj`, by an iterative Tarjan (deep rule chains
/// cannot overflow the stack). Returns each node's component; two
/// nodes share one iff they lie on a common cycle. Components are
/// numbered in reverse topological order: for an edge u->v between
/// two components, scc[v] < scc[u]. `num_sccs`, if non-null, receives
/// their count. Stratify and the linter's termination analysis run it
/// over the dependency graph.
std::vector<int> TarjanScc(size_t n,
                           const std::vector<std::vector<uint32_t>>& adj,
                           int* num_sccs = nullptr);

/// Computes strata, or kNotStratifiable naming the offending cycle.
/// On failure, `cycle` (if non-null) receives the offending edge
/// chain for diagnostics.
Result<Stratification> Stratify(const DependencyGraph& graph,
                                size_t num_rules,
                                CycleExplanation* cycle = nullptr);

/// The two ends of some rules' dependency edges, by node name (names
/// compare across graphs built in different stores). What a caller
/// that keeps a stratifiable rule set needs to tell, without building
/// the whole graph, that a new rule cannot make it unstratifiable.
struct EdgeEnds {
  std::unordered_set<std::string> from;  ///< symbols the rules define
  std::unordered_set<std::string> to;    ///< symbols read or co-defined
  bool complete = false;   ///< some edge is needs-complete
  bool wildcard = false;   ///< some rule may define or read any method
  bool self_loop = false;  ///< some rule reads a symbol it defines

  /// Adds the ends of rule `rule` of `graph`.
  void Add(const DependencyGraph& graph, size_t rule);
};

/// False when rules with edge ends `installed`, which stratify, surely
/// still stratify with one more rule whose edge ends are `rule`. A
/// cycle through a needs-complete edge that the rule closes needs such
/// an edge, and either lies among the rule's own edges, so the rule
/// reads what it defines, or enters one of the rule's symbols along an
/// installed edge and leaves along one of the rule's edges into a
/// symbol an installed rule defines. Wildcard edges couple every
/// method, so a wildcard always answers true.
bool MayCloseCycle(const EdgeEnds& installed, const EdgeEnds& rule);

}  // namespace pathlog

#endif  // PATHLOG_EVAL_STRATIFY_H_
