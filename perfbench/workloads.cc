#include "workloads.h"

#include <iterator>
#include <map>
#include <random>
#include <set>
#include <unordered_map>

#include "oracles.h"
#include "parser/parser.h"
#include "store/fact.h"
#include "workload/company.h"
#include "workload/kinship.h"
#include "workload/people.h"

namespace perfbench {

using pathlog::Database;
using pathlog::Oid;
using pathlog::Result;
using pathlog::Status;

namespace {

std::vector<std::string> Names(const Database& db,
                               const std::vector<Oid>& oids) {
  std::vector<std::string> out;
  out.reserve(oids.size());
  for (Oid o : oids) out.push_back(db.DisplayName(o));
  return out;
}

/// A display name of the generator's scalar `method` on `recv`, or "".
std::string ScalarName(const pathlog::ObjectStore& s, Oid method, Oid recv) {
  std::optional<Oid> v = s.GetScalar(method, recv, {});
  return v ? s.DisplayName(*v) : "";
}

// ---- closure ----------------------------------------------------------

constexpr char kClosureRules[] =
    "X[desc->>{Y}] <- X[kids->>{Y}].\n"
    "X[desc->>{Y}] <- X..desc[kids->>{Y}].\n"
    "X[(M.tc)->>{Y}] <- X[M->>{Y}].\n"
    "X[(M.tc)->>{Y}] <- X..(M.tc)[M->>{Y}].\n";

class ClosureWorkload : public Workload {
 public:
  /// Independent random DAGs in one database, plus one chain. The
  /// closure of one random DAG varies a lot from seed to seed, the
  /// total over many small ones much less. The chain is longer than any
  /// DAG's longest path, so it fixes the number of fixpoint rounds,
  /// which would otherwise move materialisation time in whole-round
  /// steps.
  static constexpr uint32_t kComponents = 48;
  static constexpr uint32_t kNodesPer = 15;
  static constexpr uint32_t kChain = 16;
  /// As many edges as ingest has persons in a batch.
  static constexpr int kEdgesPerBatch = 4;

  explicit ClosureWorkload(uint64_t seed)
      : seed_(seed), rng_(seed ^ 0xC105E) {}

  Inputs Generate() override {
    pathlog::ObjectStore s;
    std::unordered_map<Oid, uint32_t> index;
    for (uint32_t c = 0; c < kComponents; ++c) {
      const std::string prefix = "d" + std::to_string(c) + "_";
      pathlog::KinshipData data = pathlog::GenerateRandomDag(
          &s, kNodesPer, 2.0, seed_ * kComponents + c, prefix.c_str());
      for (Oid person : data.people) {
        index[person] = oracle_.AddNode();
        names_.push_back(s.DisplayName(person));
      }
    }
    for (Oid person : pathlog::GenerateChain(&s, kChain, "c").people) {
      index[person] = oracle_.AddNode();
      names_.push_back(s.DisplayName(person));
    }
    for (const pathlog::SetGroup& g : s.SetGroups(*s.FindSymbol("kids"))) {
      for (Oid m : g.members) oracle_.AddEdge(index[g.recv], index[m]);
    }
    return {pathlog::StoreToProgramText(s), kClosureRules};
  }

  ReadOp NextRead() override {
    ReadOp op;
    op.template_id = static_cast<int>(reads_++ % 4);
    a_ = Pick(names_.size());
    switch (op.template_id) {
      case 0:
        op.kind = ReadKind::kEval;
        op.text = names_[a_] + "..desc";
        break;
      case 1:
        op.text = "?- X[desc->>{" + names_[a_] + "}].";
        break;
      case 2:
        b_ = Pick(names_.size());
        op.kind = ReadKind::kHolds;
        op.text = names_[a_] + "[desc->>{" + names_[b_] + "}]";
        break;
      default:
        op.kind = ReadKind::kEval;
        op.text = names_[a_] + "..(kids.tc)";
        break;
    }
    return op;
  }

  std::string NextBatch() override {
    // Each edge gives a generated node a new child. The closure grows by
    // the node's ancestors, and every batch takes the same few rounds,
    // so batches cost about the same.
    pending_.clear();
    std::string text;
    for (int e = 0; e < kEdgesPerBatch; ++e) {
      const uint32_t parent = Pick(kComponents * kNodesPer + kChain);
      const std::string child = "n" + std::to_string(added_++);
      pending_.emplace_back(parent, child);
      text += names_[parent] + "[kids->>{" + child + "}].\n";
    }
    return text;
  }

  void BatchAcknowledged() override {
    for (auto& [parent, child] : pending_) {
      oracle_.AddEdge(parent, oracle_.AddNode());
      names_.push_back(std::move(child));
    }
    pending_.clear();
  }

  Status Check(const ReadOp& op, const ReadAnswer& answer,
               Database* db) override {
    switch (op.template_id) {
      case 1:
        return ExpectSameNames(answer.rows.Column("X", db->store()),
                               NodeNames(oracle_.Ancestors(a_)), op.text);
      case 2:
        return ExpectSameBool(answer.holds, oracle_.Reaches(a_, b_), op.text);
      default:
        return ExpectSameNames(Names(*db, answer.objects),
                               NodeNames(oracle_.Descendants(a_)), op.text);
    }
  }

  ReadOp RecoveryRead() override {
    a_ = 0;
    ReadOp op;
    op.kind = ReadKind::kEval;
    op.text = names_[0] + "..desc";
    return op;
  }

 private:
  std::vector<std::string> NodeNames(const std::vector<uint32_t>& ids) const {
    std::vector<std::string> out;
    for (uint32_t i : ids) out.push_back(names_[i]);
    return out;
  }
  uint32_t Pick(size_t n) { return static_cast<uint32_t>(rng_() % n); }

  uint64_t seed_;
  DagOracle oracle_{0};
  std::vector<std::string> names_;  // by oracle node index
  std::mt19937_64 rng_;
  uint64_t reads_ = 0;
  uint64_t added_ = 0;
  uint32_t a_ = 0, b_ = 0;  // parameters of the read in flight
  std::vector<std::pair<uint32_t, std::string>> pending_;
};

// ---- serve ------------------------------------------------------------

constexpr char kServeRules[] =
    "X[reports->>{Y}] <- Y[boss->X].\n"
    "X[reports->>{Y}] <- X[reports->>{Z}], Z[reports->>{Y}].\n"
    "X.deputy[assists->X; inDept->D] <- X:manager, X[worksFor->D].\n"
    "X[ownsAutomobile->>{V}] <- V : automobile, X[vehicles->>{V}].\n";

class ServeWorkload : public Workload {
 public:
  static constexpr uint32_t kEmployees = 20000;
  /// One round of reads, two of each of five read types: point lookup,
  /// bound-target probe, section-2 query, two-dimensional path, and a
  /// derived object, which is once the virtual deputy and once the
  /// derived automobiles.
  static constexpr int kMix[] = {0, 1, 2, 3, 4, 0, 1, 2, 3, 5};
  /// One round in this many is checked by the oracle.
  static constexpr uint64_t kCheckEveryRounds = 10;

  explicit ServeWorkload(uint64_t seed)
      : seed_(seed), rng_(seed ^ 0x5E12E) {}

  Inputs Generate() override {
    pathlog::ObjectStore s;
    pathlog::CompanyConfig cfg;
    cfg.num_employees = kEmployees;
    cfg.num_companies = kEmployees / 50;
    cfg.seed = seed_;
    pathlog::CompanyData data = pathlog::GenerateCompany(&s, cfg);
    managers_ = static_cast<uint32_t>(data.managers.size());
    for (Oid c : data.cities) cities_.push_back(s.DisplayName(c));
    for (Oid c : data.colors) colors_.push_back(s.DisplayName(c));
    for (Oid d : data.departments) departments_.push_back(s.DisplayName(d));
    for (Oid c : data.companies) companies_.push_back(s.DisplayName(c));
    return {pathlog::StoreToProgramText(s), kServeRules};
  }

  ReadOp NextRead() override {
    ReadOp op;
    op.template_id = kMix[reads_ % std::size(kMix)];
    op.check = (reads_ / std::size(kMix)) % kCheckEveryRounds == 0;
    ++reads_;
    switch (op.template_id) {
      case 0:  // point lookup
        op.text = "?- " + Emp(Pick(kEmployees)) + "[salary->S; city->C].";
        break;
      case 1:  // bound-target probe
        op.text = "?- X:employee[boss->" + Emp(Pick(managers_)) + "].";
        break;
      case 2:  // the section-2 manager query
        op.text =
            "?- X:manager..vehicles[color->red]"
            ".producedBy[city->detroit; president->X].";
        break;
      case 3:  // E1.4/2.1: filters on both dimensions of one path
        op.text = "?- X:employee[age->" + std::to_string(20 + Pick(46)) +
                  "; city->" + cities_[Pick(cities_.size())] +
                  "]..vehicles[Y]:automobile[cylinders->4].color[Z].";
        break;
      case 4: {  // a manager's virtual deputy
        const std::string m = Emp(Pick(managers_));
        op.kind = ReadKind::kEval;
        op.text = m + ".deputy[assists->" + m + "; inDept->D]";
        break;
      }
      default:
        op.kind = ReadKind::kHolds;
        op.text = Emp(Pick(kEmployees)) + "[ownsAutomobile->>{V}]";
        break;
    }
    return op;
  }

  std::string NextBatch() override {
    const std::string e = "hire" + std::to_string(hires_);
    const std::string v = "hireCar" + std::to_string(hires_);
    ++hires_;
    return e + " : employee[age->" + std::to_string(20 + Pick(46)) +
           "; city->" + cities_[Pick(cities_.size())] + "; salary->" +
           std::to_string(1000 + 100 * Pick(50)) + "; worksFor->" +
           departments_[Pick(departments_.size())] + "; boss->" +
           Emp(Pick(managers_)) + "].\n" + e + "[vehicles->>{" + v + "}].\n" +
           v + " : automobile[color->" + colors_[Pick(colors_.size())] +
           "; cylinders->4; producedBy->" +
           companies_[Pick(companies_.size())] + "].\n";
  }

  void BatchAcknowledged() override {}

  Status Check(const ReadOp& op, const ReadAnswer& answer,
               Database* db) override {
    // Eval reads are checked as the query "?- <ref>[Ans].", Holds reads
    // as "?- <ref>." with a non-empty answer.
    const std::string oracle_text =
        op.kind == ReadKind::kEval    ? "?- " + op.text + "[Ans]."
        : op.kind == ReadKind::kHolds ? "?- " + op.text + "."
                                               : op.text;
    Result<pathlog::Query> q = pathlog::ParseQuery(oracle_text);
    if (!q.ok()) return q.status();
    std::vector<std::string> vars;
    if (op.kind == ReadKind::kQuery) vars = answer.rows.vars();
    if (op.kind == ReadKind::kEval) vars = {"Ans"};
    Result<Rows> want = JoinPlanRows(&db->store(), q->body, vars);
    if (!want.ok()) return want.status();
    switch (op.kind) {
      case ReadKind::kQuery:
        return ExpectSameRows(answer.rows.rows(), *want, op.text);
      case ReadKind::kEval: {
        Rows got;
        for (Oid o : answer.objects) got.push_back({o});
        return ExpectSameRows(std::move(got), *want, op.text);
      }
      case ReadKind::kHolds:
        return ExpectSameBool(answer.holds, !want->empty(), op.text);
    }
    return Status::OK();
  }

  ReadOp RecoveryRead() override {
    ReadOp op;
    op.text = "?- emp0[salary->S; city->C].";
    return op;
  }

 private:
  static std::string Emp(uint64_t i) { return "emp" + std::to_string(i); }
  uint64_t Pick(uint64_t n) { return rng_() % n; }

  uint64_t seed_;
  std::mt19937_64 rng_;
  uint64_t reads_ = 0;
  uint64_t hires_ = 0;
  uint32_t managers_ = 1;
  std::vector<std::string> cities_, colors_, departments_, companies_;
};

// ---- ingest -----------------------------------------------------------

constexpr char kIngestRules[] =
    "X.address[city->X.city] <- X:person.\n"
    "X.address[street->S] <- X:person[street->S].\n"
    "X[adult->1] <- X:person[age->A], A.geq@(18).\n"
    "registry[arrivals->>{X}] <~ X:person.\n";

class IngestWorkload : public Workload {
 public:
  static constexpr uint32_t kPersons = 4000;
  static constexpr int kBatch = 4;
  static constexpr uint32_t kCities = 20;
  static constexpr uint32_t kStreets = 200;

  explicit IngestWorkload(uint64_t seed)
      : seed_(seed), rng_(seed ^ 0x1A6E57) {}

  Inputs Generate() override {
    pathlog::ObjectStore s;
    pathlog::PeopleConfig cfg;
    cfg.num_persons = kPersons;
    cfg.num_cities = kCities;
    cfg.num_streets = kStreets;
    cfg.seed = seed_;
    pathlog::PeopleData data = pathlog::GeneratePeople(&s, cfg);
    const Oid street = *s.FindSymbol("street");
    const Oid city = *s.FindSymbol("city");
    for (Oid p : data.persons) {
      Add({s.DisplayName(p), ScalarName(s, street, p), ScalarName(s, city, p)},
          -1);
    }
    return {pathlog::StoreToProgramText(s), kIngestRules};
  }

  /// The new person's address, then one read of each other template.
  size_t reads_per_batch() const override { return 5; }

  ReadOp NextRead() override {
    ReadOp op;
    if (address_read_due_) {
      // The read every batch is followed by: the newest person's address.
      address_read_due_ = false;
      op.template_id = 0;
      subject_ = people_.size() - 1;
      op.text = "?- " + people_[subject_].name +
                ".address[street->S; city->C].";
      return op;
    }
    op.template_id = 1 + static_cast<int>(reads_++ % 4);
    switch (op.template_id) {
      case 1:
        subject_ = Pick(people_.size());
        op.kind = ReadKind::kEval;
        op.text = people_[subject_].name + ".address.city";
        break;
      case 2:
        subject_ = PickNew();
        op.kind = ReadKind::kHolds;
        op.text = "registry[arrivals->>{" + people_[subject_].name + "}]";
        break;
      case 3:
        city_ = "pcity" + std::to_string(Pick(kCities));
        op.text = "?- X:person[city->" + city_ + "].";
        break;
      default:
        subject_ = PickNew();
        op.kind = ReadKind::kHolds;
        op.text = people_[subject_].name + "[adult->1]";
        break;
    }
    return op;
  }

  std::string NextBatch() override {
    pending_.clear();
    std::string text;
    for (int i = 0; i < kBatch; ++i) {
      AckedPerson p{"np" + std::to_string(people_.size() - kPersons +
                                          pending_.size()),
                    "street" + std::to_string(Pick(kStreets)),
                    "pcity" + std::to_string(Pick(kCities))};
      const int age = 10 + static_cast<int>(Pick(70));
      text += p.name + " : person[street->" + p.street + "; city->" + p.city +
              "; age->" + std::to_string(age) + "].\n";
      pending_.push_back({std::move(p), age});
    }
    return text;
  }

  void BatchAcknowledged() override {
    for (auto& [p, age] : pending_) Add(std::move(p), age);
    pending_.clear();
    address_read_due_ = true;
  }

  Status Check(const ReadOp& op, const ReadAnswer& answer,
               Database* db) override {
    const AckedPerson& p = people_[subject_];
    switch (op.template_id) {
      case 0: {  // vars in name order: C, S
        std::vector<std::string> got;
        for (const std::vector<Oid>& row : answer.rows.rows()) {
          got.push_back(db->DisplayName(row[0]) + "/" +
                        db->DisplayName(row[1]));
        }
        return ExpectSameNames(std::move(got), {p.city + "/" + p.street},
                               op.text);
      }
      case 1:
        return ExpectSameNames(Names(*db, answer.objects), {p.city}, op.text);
      case 2:
        return ExpectSameBool(answer.holds, true, op.text);
      case 3: {
        std::vector<std::string> want;
        for (const AckedPerson& q : people_) {
          if (q.city == city_) want.push_back(q.name);
        }
        return ExpectSameNames(answer.rows.Column("X", db->store()),
                               std::move(want), op.text);
      }
      default:
        return ExpectSameBool(answer.holds, ages_[subject_] >= 18, op.text);
    }
  }

  ReadOp RecoveryRead() override {
    address_read_due_ = true;
    return NextRead();
  }

  Status CheckRecovery(Database* db, uint64_t facts_before) override {
    return CheckRecovered(db, people_, facts_before);
  }

 private:
  void Add(AckedPerson p, int age) {
    people_.push_back(std::move(p));
    ages_.push_back(age);
  }
  uint64_t Pick(uint64_t n) { return rng_() % n; }
  /// A person from a batch, or a generated one while no batch has been
  /// loaded yet.
  size_t PickNew() {
    if (people_.size() == kPersons) return Pick(kPersons);
    return kPersons + Pick(people_.size() - kPersons);
  }

  uint64_t seed_;
  std::mt19937_64 rng_;
  uint64_t reads_ = 0;
  bool address_read_due_ = false;
  size_t subject_ = 0;  // person of the read in flight
  std::string city_;    // city of the read in flight
  std::vector<AckedPerson> people_;  // generated, then acknowledged
  std::vector<int> ages_;            // -1: no age fact
  std::vector<std::pair<AckedPerson, int>> pending_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(std::string_view name, uint64_t seed) {
  if (name == "closure") return std::make_unique<ClosureWorkload>(seed);
  if (name == "serve") return std::make_unique<ServeWorkload>(seed);
  if (name == "ingest") return std::make_unique<IngestWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
