// Answer oracles for the end-to-end benchmark. Each one computes the
// expected answer without the code path under test, so a wrong answer
// fails the run instead of being timed:
//
//   closure  reachability by breadth-first search over the generated
//            and inserted edges (no rules, no store);
//   serve    the baseline/ join plan (FlattenLiterals + EvalJoinPlan)
//            on the same materialised store;
//   ingest   after recovery, every acknowledged person and its address
//            object answer, and the fact count is what it was before
//            the database was closed.
//
// Mismatches are kInternal statuses whose message starts with
// "wrong answer".

#ifndef PERFBENCH_ORACLES_H_
#define PERFBENCH_ORACLES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ast/program.h"
#include "base/result.h"
#include "query/database.h"
#include "store/object_store.h"

namespace perfbench {

/// Reachability over a graph of node indexes.
class DagOracle {
 public:
  explicit DagOracle(size_t n) : out_(n), in_(n) {}

  /// Adds a node without edges; returns its index.
  uint32_t AddNode();
  void AddEdge(uint32_t from, uint32_t to);

  /// Nodes reachable from `u` by one or more edges, ascending.
  std::vector<uint32_t> Descendants(uint32_t u) const;
  /// Nodes that reach `v` by one or more edges, ascending.
  std::vector<uint32_t> Ancestors(uint32_t v) const;
  bool Reaches(uint32_t a, uint32_t b) const;

 private:
  static std::vector<uint32_t> Search(
      const std::vector<std::vector<uint32_t>>& adj, uint32_t start);

  std::vector<std::vector<uint32_t>> out_;
  std::vector<std::vector<uint32_t>> in_;
};

/// OK iff `got` and `want` hold the same names, in any order.
pathlog::Status ExpectSameNames(std::vector<std::string> got,
                                std::vector<std::string> want,
                                std::string_view what);

pathlog::Status ExpectSameBool(bool got, bool want, std::string_view what);

using Rows = std::vector<std::vector<pathlog::Oid>>;

/// The baseline join plan's answer to the conjunction `body`, projected
/// onto `vars` in that order, sorted and deduplicated. The body must be
/// inside the flat fragment (baseline/translate.h). Interns the names
/// it mentions through `store`, which leaves a store that already holds
/// them unchanged.
pathlog::Result<Rows> JoinPlanRows(pathlog::ObjectStore* store,
                                   const std::vector<pathlog::Literal>& body,
                                   const std::vector<std::string>& vars);

/// OK iff `got` and `want` hold the same rows, in any order.
pathlog::Status ExpectSameRows(Rows got, Rows want, std::string_view what);

struct AckedPerson {
  std::string name;
  std::string street;
  std::string city;
};

/// The ingest recovery oracle: every acknowledged person is a person
/// whose address object has its street and city, and the store holds
/// exactly `facts_before` facts.
pathlog::Status CheckRecovered(pathlog::Database* db,
                               const std::vector<AckedPerson>& acked,
                               uint64_t facts_before);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLES_H_
