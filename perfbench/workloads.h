// The three seeded workloads of the end-to-end benchmark.
//
//   closure  a random DAG (GenerateRandomDag) with the paper's `desc`
//            rules and the generic `(M.tc)` pair; reads are closure
//            lookups, updates insert edges that grow the closure.
//   serve    the company universe (GenerateCompany) with the rules of
//            company_closure.plg minus the quadratic `colleague` rule;
//            parameterised reads through Query, Eval and Holds, and an
//            occasional new hire.
//   ingest   people (GeneratePeople) with the `X.address` virtual
//            objects of people_addresses.plg minus the quadratic
//            `neighbour` rule, plus one trigger; a stream of small
//            person batches, each followed by a few reads.
//
// No measured traffic exists for any of them, so the read mixes and
// update cadences are chosen, not observed: each read type gets an
// equal share, closure and serve load only the kSpacedBatches update
// batches their update metrics need, and ingest follows every batch
// with the new person's address and one read of each other template.
//
// A workload only produces inputs and operations and checks answers;
// the runner (runner.cc) runs them through the Database API and times
// them. Every input is a function of the seed.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "query/database.h"

namespace perfbench {

/// Update batches a workload without a batch stream loads in one run:
/// enough for a steady median. Only a stream (ingest) has ten batches
/// beyond p90, so only its update tail is trustworthy.
constexpr size_t kSpacedBatches = 40;

enum class ReadKind : uint8_t { kQuery, kEval, kHolds };

struct ReadOp {
  ReadKind kind = ReadKind::kQuery;
  /// The text handed to Database::Query, Eval or Holds.
  std::string text;
  int template_id = 0;
  /// Whether the oracle verifies this read (serve samples its reads).
  bool check = true;
};

/// What a read returned; only the member of its kind is meaningful.
struct ReadAnswer {
  pathlog::ResultSet rows;
  std::vector<pathlog::Oid> objects;
  bool holds = false;
};

struct Inputs {
  /// The generator's store rendered with StoreToProgramText.
  std::string facts;
  std::string rules;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// The inputs of the seed the workload was made with.
  virtual Inputs Generate() = 0;
  /// Reads issued after each update batch in a stream of batches; 0
  /// spreads kSpacedBatches batches evenly over the measured window.
  virtual size_t reads_per_batch() const { return 0; }
  virtual ReadOp NextRead() = 0;
  /// Program text of the next update batch.
  virtual std::string NextBatch() = 0;
  /// The batch NextBatch() returned was loaded and materialised.
  virtual void BatchAcknowledged() = 0;
  /// Compares a read's answer with the workload's oracle.
  virtual pathlog::Status Check(const ReadOp& op, const ReadAnswer& answer,
                                pathlog::Database* db) = 0;
  /// The read that completes a recovery.
  virtual ReadOp RecoveryRead() = 0;
  /// Checks a recovered database beyond its first read.
  virtual pathlog::Status CheckRecovery(pathlog::Database* /*db*/,
                                        uint64_t /*facts_before*/) {
    return pathlog::Status::OK();
  }
};

/// "closure", "serve" or "ingest", with inputs and operations drawn
/// from `seed`; nullptr for any other name.
std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
