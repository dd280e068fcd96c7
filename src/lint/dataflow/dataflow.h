// A generic monotone-fixpoint dataflow engine over the rule/method
// dependency structure of a PathLog program.
//
// The graph is bipartite in spirit: *nodes* are method symbols (the
// same node space as eval/dependency.h — index 0 is the wildcard,
// index 1 the hierarchy), *transfers* are rules. A transfer reads the
// abstract values of the nodes its rule reads and joins new
// information into the nodes its rule defines. The solver runs a
// worklist to the least fixpoint: a transfer is re-run whenever a node
// it reads changed.
//
// Domains are pluggable: any type with
//
//   struct Domain {
//     using Value = ...;                 // one abstract value per node
//     static Value Bottom();             // least element
//     static bool Join(Value* into, const Value& from);
//                                        // *into ⊔= from; true if grew
//   };
//
// Monotonicity is the domain's obligation (Join only ever grows a
// value); termination follows when the lattice has finite height. The
// solver additionally caps the total number of transfer applications
// at `kMaxApplications` so a buggy (non-monotone) domain degrades into
// a truncated — still sound for the analyses here, which only consume
// reached values — result instead of a hang.

#ifndef PATHLOG_LINT_DATAFLOW_DATAFLOW_H_
#define PATHLOG_LINT_DATAFLOW_DATAFLOW_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace pathlog {

/// Which nodes one transfer (rule) reads and defines. Node indexes are
/// caller-chosen; the solver only needs them dense-ish (it sizes its
/// value vector to the max index + 1).
struct TransferIO {
  std::vector<uint32_t> reads;
  std::vector<uint32_t> defines;
};

template <typename Domain>
class FixpointSolver {
 public:
  using Value = typename Domain::Value;

  FixpointSolver(size_t num_nodes, std::vector<TransferIO> transfers)
      : values_(num_nodes, Domain::Bottom()),
        transfers_(std::move(transfers)),
        readers_(num_nodes) {
    for (size_t t = 0; t < transfers_.size(); ++t) {
      for (uint32_t n : transfers_[t].reads) {
        if (n < readers_.size()) readers_[n].push_back(t);
      }
    }
  }

  size_t num_nodes() const { return values_.size(); }
  const Value& value(uint32_t node) const { return values_[node]; }
  const std::vector<Value>& values() const { return values_; }

  /// Joins `v` into a node outside any transfer (seeding from facts);
  /// callers do this before Solve().
  void Seed(uint32_t node, const Value& v) {
    if (node < values_.size()) Domain::Join(&values_[node], v);
  }

  /// Runs `transfer(t, solver)` for every transfer until no node
  /// changes. The callback reads node values via value() and writes
  /// via Update(); it is re-invoked for transfer `t` whenever a node
  /// in transfers[t].reads changed since its last run. Returns the
  /// number of transfer applications (for convergence tests).
  template <typename TransferFn>
  size_t Solve(TransferFn&& transfer) {
    std::deque<size_t> worklist;
    std::vector<char> queued(transfers_.size(), 1);
    for (size_t t = 0; t < transfers_.size(); ++t) worklist.push_back(t);

    size_t applications = 0;
    while (!worklist.empty() && applications < kMaxApplications) {
      size_t t = worklist.front();
      worklist.pop_front();
      queued[t] = 0;
      ++applications;

      changed_nodes_.clear();
      transfer(t, *this);
      for (uint32_t n : changed_nodes_) {
        for (size_t reader : readers_[n]) {
          if (!queued[reader]) {
            queued[reader] = 1;
            worklist.push_back(reader);
          }
        }
      }
    }
    return applications;
  }

  /// Joins `v` into `node`; records the change so dependent transfers
  /// re-run. Only meaningful from inside a Solve() callback.
  void Update(uint32_t node, const Value& v) {
    if (node >= values_.size()) return;
    if (Domain::Join(&values_[node], v)) changed_nodes_.push_back(node);
  }

  static constexpr size_t kMaxApplications = 1u << 20;

 private:
  std::vector<Value> values_;
  std::vector<TransferIO> transfers_;
  std::vector<std::vector<size_t>> readers_;  // node -> transfer indexes
  std::vector<uint32_t> changed_nodes_;
};

}  // namespace pathlog

#endif  // PATHLOG_LINT_DATAFLOW_DATAFLOW_H_
