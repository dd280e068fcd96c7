// The end-to-end PathLog benchmark runner.
//
//   perfbench_runner --workload closure|serve|ingest --seed N
//                    --seconds S --trace 0|1 --work-dir DIR
//                    [--trace-out FILE] [--untraced NAME=VALUE,...]
//
// One run drives one workload through the public Database API the way
// an embedding application does, from one client thread in a closed
// loop (each call waits for the previous reply):
//
//   Open(dir) -> Load(facts) -> Load(rules)      setup_s       (x3..)
//   Materialize                                  materialize_s (x3..)
//   FireTriggers
//   S seconds of reads and update batches        query_*, update_*
//     checkpoints at 2%, 4%, ... 48% of S        checkpoint_s  (x24)
//   close; Open + first answered read            recovery_s    (x5..)
//
// Durable directories use the default FsyncPolicy::kAlways. Every
// timing is reported scaled to nominal host speed (speed.h): a read by
// the host's speed over the last 0.1 s, probed every 20 ms, and a phase
// by probes taken just before and just after it. The report line of
// each metric also gives it as measured. Every answer is compared with
// an independent oracle (oracles.h). The last line of standard output
// is one JSON object with the keys "correct", "attempted", "failed" and
// "metrics". With --trace 0 the metrics are
// the end-to-end ones. With --trace 1 the run keeps spans around every
// Database call and file call (timing_file_ops.h), calls each layer a
// Database call hides through that layer's public function on the same
// input, and reports the per-layer metrics instead; its spans go to
// --trace-out. A traced run is given the end-to-end figures of an
// untraced run with the same seed (--untraced) and reports its own
// figures over them as the tracing overhead.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/crc32.h"
#include "eval/engine.h"
#include "eval/ref_eval.h"
#include "oracles.h"
#include "parser/parser.h"
#include "query/planner.h"
#include "recorder.h"
#include "semantics/structure.h"
#include "speed.h"
#include "stats.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "timing_file_ops.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using pathlog::Database;
using pathlog::Oid;
using pathlog::Result;
using pathlog::Status;
using Scope = SpanRecorder::Scope;

// Repetitions of the phases that happen once per run; each metric is
// their median. Cycles, set-ups without a materialisation and reopens
// repeat until their time budget runs out, so that short phases, bound
// by fsync and write calls, get many samples and long ones do not
// stretch the run.
constexpr int kMinCycles = 3;  // set-up + Materialize, fingerprinted
constexpr double kCycleBudgetS = 10;
constexpr double kExtraSetupBudgetS = 2;
constexpr int kCheckpoints = 24;  // at 2%, 4%, ... 48% of the window
constexpr int kMinRecoveries = 5;
constexpr double kRecoveryBudgetS = 4;
// A traced run spans and replicates about this many reads a second;
// spanning every read of closure would keep millions of spans.
constexpr double kTracedReadsPerS = 200;
// The read loop probes the host's speed this often (speed.h); each
// probe takes well under a millisecond, and a read is scaled by the
// last SpeedGauge::kWindow of them.
constexpr double kProbeEveryS = 0.02;
// Probes before and after each timed phase; the phase is scaled by the
// median of these.
constexpr int kPhaseProbes = 5;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
  /// End-to-end figures of an untraced run with the same seed.
  std::map<std::string, double> untraced;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64's finaliser: a well-spread hash of a counter.
uint64_t Mix(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Fnv1a(std::string_view a, std::string_view b) {
  uint64_t h = 1469598103934665603ull;
  for (std::string_view s : {a, b}) {
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

std::string FileSystemName(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(st.f_type));
      return buf;
    }
  }
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

/// Shortest text that reads back as exactly `v`.
std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

double Ratio(double num, double den) { return num / std::max(den, 1.0); }

const char* CallSpanName(ReadKind kind) {
  switch (kind) {
    case ReadKind::kQuery: return "db.query";
    case ReadKind::kEval: return "db.eval";
    case ReadKind::kHolds: return "db.holds";
  }
  return "db.read";
}

/// Runs one read through the Database entry point of its kind.
Status DoRead(Database* db, const ReadOp& op, ReadAnswer* answer) {
  switch (op.kind) {
    case ReadKind::kQuery: {
      Result<pathlog::ResultSet> r = db->Query(op.text);
      if (!r.ok()) return r.status();
      answer->rows = std::move(r).value();
      return Status::OK();
    }
    case ReadKind::kEval: {
      Result<std::vector<Oid>> r = db->Eval(op.text);
      if (!r.ok()) return r.status();
      answer->objects = std::move(r).value();
      return Status::OK();
    }
    case ReadKind::kHolds: {
      Result<bool> r = db->Holds(op.text);
      if (!r.ok()) return r.status();
      answer->holds = *r;
      return Status::OK();
    }
  }
  return Status::OK();
}

size_t AnswerRows(const ReadOp& op, const ReadAnswer& a) {
  switch (op.kind) {
    case ReadKind::kQuery: return a.rows.size();
    case ReadKind::kEval: return a.objects.size();
    case ReadKind::kHolds: return a.holds ? 1 : 0;
  }
  return 0;
}

/// Replays every object and fact of `src` into the empty store `dst`
/// through the store's mutators, in generation order; returns the
/// number of facts replayed.
uint64_t ReplayThroughMutators(const pathlog::ObjectStore& src,
                               pathlog::ObjectStore* dst) {
  for (Oid o = 0; o < src.UniverseSize(); ++o) {
    const std::string& name = src.DisplayName(o);
    switch (src.kind(o)) {
      case pathlog::ObjectKind::kSymbol: dst->InternSymbol(name); break;
      case pathlog::ObjectKind::kInt: dst->InternInt(src.IntValue(o)); break;
      case pathlog::ObjectKind::kString:
        dst->InternString(name.substr(1, name.size() - 2));
        break;
      case pathlog::ObjectKind::kAnonymous: dst->NewAnonymous(name); break;
    }
  }
  for (uint64_t g = 0; g < src.generation(); ++g) {
    const pathlog::Fact& f = src.FactAt(g);
    switch (f.kind) {
      case pathlog::FactKind::kIsa: (void)dst->AddIsa(f.recv, f.method); break;
      case pathlog::FactKind::kScalar:
        (void)dst->SetScalar(f.method, f.recv, f.args, f.value);
        break;
      case pathlog::FactKind::kSetMember:
        dst->AddSetMember(f.method, f.recv, f.args, f.value);
        break;
    }
  }
  return src.generation();
}

/// What a traced run gathers for the per-layer metrics.
struct LayerData {
  double parse_program_s = 0;
  double insert_per_s = 0;
  double engine_run_s = 0;
  pathlog::EngineStats first;  ///< the first Materialize of the kept db
  pathlog::DatabaseHealth health;
  // Traced reads.
  std::vector<double> parse_us, plan_us, enumerate_us, read_self_us;
  double misestimate_max = 1;
  uint64_t traced_reads = 0, inverted = 0, extent = 0, universe = 0;
  uint64_t emits = 0, rows = 0;
  // Updates.
  std::vector<double> update_engine_ms, materialize_self_ms, fire_ms;
  uint64_t update_derivations = 0, update_facts_added = 0;
  uint64_t wal_syncs_in_updates = 0, updates = 0;
  uint64_t firings = 0;
  // Durability.
  std::string wal_before_checkpoint;
  std::vector<double> sync_ms;
  uint64_t wal_append_bytes = 0, facts_logged = 1;
  std::vector<double> snapshot_file_s;
  uint64_t snapshot_bytes = 0, facts_at_checkpoint = 1;
  double serialize_s = 0, deserialize_s = 0, wal_replay_s = 0;
};

/// A per-layer metric and the end-to-end metric and workload it should
/// move; on every other pairing the prediction is no change. A counter
/// that is 0 on every workload is printed but kept out of the metrics
/// JSON, where a 0 baseline gives no relative change to compare.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;
  bool in_json = true;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"parser.load_s", "s", "setup_s@serve"},
    {"parser.read_us", "us", "query_p50_us@serve"},
    {"query.planner.plan_us", "us", "query_p50_us,query_p99_us@serve"},
    {"query.planner.misestimate_max", "ratio", "query_p99_us@serve"},
    {"eval.ref_eval.enumerate_us", "us", "queries_per_s,query_p99_us@serve"},
    {"eval.ref_eval.inverted_probes", "count", "queries_per_s@serve"},
    {"eval.ref_eval.extent_scans", "count", "query_p99_us@serve"},
    // No read of any workload falls back to scanning the universe.
    {"eval.ref_eval.universe_scans", "count", "query_p99_us@serve", false},
    {"eval.ref_eval.emits_per_row", "ratio", "queries_per_s@serve"},
    {"query.database.read_self_us", "us", "query_p50_us@serve"},
    {"query.database.materialize_self_ms", "ms", "update_p50_ms@ingest"},
    {"eval.engine.run_s", "s", "materialize_s@closure"},
    {"eval.engine.derivations", "count", "materialize_s@closure"},
    {"eval.engine.facts_added", "count", "materialize_s@closure"},
    {"eval.engine.redundancy", "ratio", "materialize_s@closure"},
    {"eval.engine.iterations", "count", "materialize_s@closure"},
    {"eval.engine.rule_evaluations", "count", "materialize_s@closure"},
    // The default strategy makes no delta passes.
    {"eval.engine.delta_passes", "count", "materialize_s@closure", false},
    {"eval.engine.update_ms", "ms", "update_p50_ms@ingest,closure"},
    {"eval.engine.update_redundancy", "ratio", "update_p50_ms@ingest,closure"},
    {"eval.head_assert.skolems", "count", "materialize_s@serve,ingest"},
    {"active.fire_ms", "ms", "update_p50_ms@ingest"},
    {"active.firings", "count", "update_p50_ms@ingest"},
    {"store.insert_per_s", "1/s", "setup_s@serve"},
    {"store.bytes_per_fact", "B", "peak_rss_mb@serve"},
    {"store.facts", "count", "peak_rss_mb@serve"},
    {"store.objects", "count", "peak_rss_mb@serve"},
    {"store.wal.syncs_per_update", "count", "update_p50_ms@ingest"},
    {"store.wal.sync_ms", "ms", "update_p50_ms@ingest"},
    {"store.wal.bytes_per_fact", "B", "update_p50_ms,recovery_s@ingest"},
    {"store.wal.replay_s", "s", "recovery_s@ingest"},
    {"store.snapshot.serialize_s", "s", "checkpoint_s@serve"},
    {"store.snapshot.deserialize_s", "s", "recovery_s@serve"},
    {"store.snapshot.file_s", "s", "checkpoint_s@serve"},
    {"store.snapshot.bytes_per_fact", "B", "disk_mb@serve"},
    {"trace.overhead.setup_s", "ratio", "none: traced over untraced run"},
    {"trace.overhead.materialize_s", "ratio", "none: traced over untraced run"},
    {"trace.overhead.query_p50_us", "ratio", "none: traced over untraced run"},
    {"trace.overhead.update_p50_ms", "ratio", "none: traced over untraced run"},
};

/// The end-to-end figures a traced run needs from the untraced one.
constexpr const char* kOverheadOf[] = {"setup_s", "materialize_s",
                                       "query_p50_us", "update_p50_ms"};

/// A phase's timings as measured, and scaled to nominal host speed by
/// the slowdown measured around each of them (speed.h).
struct Timings {
  std::vector<double> raw, scaled;
  /// Adds a timing taken between two runs of kPhaseProbes probes.
  void Add(double measured, const SpeedGauge& gauge) {
    raw.push_back(measured);
    scaled.push_back(measured / gauge.Slowdown(2 * kPhaseProbes));
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
  bool in_json = true;
};

class Run {
 public:
  Run(Options options, std::unique_ptr<Workload> workload)
      : opt_(std::move(options)), w_(std::move(workload)) {
    rec_.set_enabled(opt_.trace);
  }

  /// Runs every phase and prints the report; returns the exit code.
  int Execute();

 private:
  SpanRecorder* rec() { return opt_.trace ? &rec_ : nullptr; }
  pathlog::FileOps* fops() { return opt_.trace ? fops_.get() : nullptr; }
  /// Duration of a span that has ended.
  double Seconds(int span) const { return rec_.Seconds(span); }

  /// Counts an operation, and its failure if it failed.
  bool Count(const Status& st, const char* what) {
    ++attempted_;
    if (st.ok()) return true;
    ++failed_;
    std::fprintf(stderr, "operation failed (%s): %s\n", what,
                 st.ToString().c_str());
    return false;
  }
  void WrongAnswer(const Status& st) {
    if (wrong_++ == 0) {
      std::fprintf(stderr, "WRONG ANSWER: %s\n", st.ToString().c_str());
    }
  }

  /// Opens an empty database in `dir` and loads the inputs into it,
  /// timed as one setup_s sample.
  Status SetupOnce(const std::string& dir, const Inputs& in);
  Status SetupCycles(const Inputs& in);
  void TraceSetupLayers(const Inputs& in);
  void Loop();
  void OneRead();
  void ReplicateRead(const ReadOp& op, size_t answer_rows, double call_s);
  void OneUpdate();
  void OneCheckpoint();
  void Recover();
  void TraceDurabilityLayers();
  std::vector<Metric> EndToEnd() const;
  std::vector<Metric> PerLayer(const std::vector<Metric>& e2e) const;
  std::string MetadataJson(const Inputs& in) const;

  Options opt_;
  std::unique_ptr<Workload> w_;
  SpanRecorder rec_;
  std::unique_ptr<TimingFileOps> fops_;
  std::string db_dir_;
  std::optional<Database> db_;
  uint64_t attempted_ = 0, failed_ = 0, wrong_ = 0, reads_ = 0;
  bool drift_ = false;

  Timings setup_s_, materialize_s_, update_ms_, checkpoint_s_, recovery_s_;
  Reservoir read_us_, read_raw_us_;
  std::map<int, Reservoir> template_us_;
  SpeedGauge gauge_;
  double loop_start_ = 0;
  double read_seconds_ = 0, read_raw_seconds_ = 0;
  double disk_mb_ = 0;
  LayerData L_;
};

Status Run::SetupOnce(const std::string& dir, const Inputs& in) {
  db_.reset();
  std::filesystem::remove_all(dir);
  if (opt_.trace) {
    fops_ = std::make_unique<TimingFileOps>(pathlog::DefaultFileOps(), rec());
  }
  gauge_.Probe(kPhaseProbes);
  const double t0 = Now();
  {
    Scope s(rec(), "db.open");
    Result<Database> opened = Database::Open(dir, {}, fops());
    if (!Count(opened.status(), "open")) return opened.status();
    db_.emplace(std::move(opened).value());
  }
  for (const std::string* text : {&in.facts, &in.rules}) {
    Scope s(rec(), "db.load");
    Status st = db_->Load(*text);
    if (!Count(st, "load")) return st;
  }
  const double setup_s = Now() - t0;
  gauge_.Probe(kPhaseProbes);
  setup_s_.Add(setup_s, gauge_);
  return Status::OK();
}

Status Run::SetupCycles(const Inputs& in) {
  for (double extra_s = 0; extra_s < kExtraSetupBudgetS;) {
    Scope phase(rec(), "phase.setup", rec_.NewCause());
    const std::string dir = opt_.work_dir + "/extra";
    PATHLOG_RETURN_IF_ERROR(SetupOnce(dir, in));
    extra_s += setup_s_.raw.back();
    db_.reset();
    std::filesystem::remove_all(dir);
  }
  // With one seed every cycle must derive, store, log and snapshot
  // exactly the same bytes; anything else is reported as drift.
  struct Fingerprint {
    uint64_t derivations, facts, wal_bytes, snapshot_bytes, snapshot_crc;
    bool operator==(const Fingerprint&) const = default;
  };
  std::optional<Fingerprint> first;
  double cycles_s = 0;
  for (int k = 0; k < kMinCycles || cycles_s < kCycleBudgetS; ++k) {
    const double c0 = Now();
    const std::string dir = opt_.work_dir + "/setup" + std::to_string(k);
    Scope phase(rec(), "phase.setup", rec_.NewCause());
    PATHLOG_RETURN_IF_ERROR(SetupOnce(dir, in));  // closes the previous one
    if (!db_dir_.empty()) std::filesystem::remove_all(db_dir_);
    db_dir_ = dir;
    if (opt_.trace && k == 0) TraceSetupLayers(in);

    gauge_.Probe(kPhaseProbes);
    const double t1 = Now();
    {
      Scope s(rec(), "db.materialize");
      Status st = db_->Materialize();
      if (!Count(st, "materialize")) return st;
    }
    const double materialize_s = Now() - t1;
    gauge_.Probe(kPhaseProbes);
    materialize_s_.Add(materialize_s, gauge_);

    Result<std::string> snap = pathlog::SerializeSnapshot(db_->store());
    if (!snap.ok()) return snap.status();
    const Fingerprint fp{db_->engine_stats().derivations,
                         db_->store().FactCount(), db_->Health().wal_bytes,
                         snap->size(), pathlog::Crc32(*snap)};
    if (!first) {
      first = fp;
      std::printf(
          "fingerprint: derivations=%llu facts=%llu wal_bytes=%llu "
          "snapshot_bytes=%llu snapshot_crc=%08llx\n",
          (unsigned long long)fp.derivations, (unsigned long long)fp.facts,
          (unsigned long long)fp.wal_bytes,
          (unsigned long long)fp.snapshot_bytes,
          (unsigned long long)fp.snapshot_crc);
    } else if (!(fp == *first)) {
      drift_ = true;
      std::fprintf(stderr,
                   "DRIFT: setup cycle %d gave derivations=%llu facts=%llu "
                   "wal_bytes=%llu snapshot_bytes=%llu; cycle 0 gave %llu "
                   "%llu %llu %llu\n",
                   k, (unsigned long long)fp.derivations,
                   (unsigned long long)fp.facts,
                   (unsigned long long)fp.wal_bytes,
                   (unsigned long long)fp.snapshot_bytes,
                   (unsigned long long)first->derivations,
                   (unsigned long long)first->facts,
                   (unsigned long long)first->wal_bytes,
                   (unsigned long long)first->snapshot_bytes);
    }
    L_.first = db_->engine_stats();
    L_.health = db_->Health();
    cycles_s += Now() - c0;
  }

  Scope s(rec(), "db.fire_triggers", rec_.NewCause());
  const double t0 = Now();
  Status st = db_->FireTriggers();
  L_.fire_ms.push_back((Now() - t0) * 1e3);
  return Count(st, "fire triggers") ? Status::OK() : st;
}

void Run::TraceSetupLayers(const Inputs& in) {
  // The layers Load and Materialize hide, called directly on the same
  // input: the parser on the load text, the store mutators on the
  // loaded facts, and the engine on a copy of the unmaterialised store.
  int id;
  {
    Scope s(rec(), "parser.parse_program");
    id = s.id();
    (void)pathlog::ParseProgram(in.facts);
    (void)pathlog::ParseProgram(in.rules);
  }
  L_.parse_program_s = Seconds(id);
  {
    pathlog::ObjectStore replayed;
    uint64_t facts;
    {
      Scope s(rec(), "store.replay_mutators");
      id = s.id();
      facts = ReplayThroughMutators(db_->store(), &replayed);
    }
    L_.insert_per_s = static_cast<double>(facts) / Seconds(id);
  }
  pathlog::ObjectStore copy = db_->store();
  copy.set_metrics(nullptr);
  pathlog::Engine engine(&copy, pathlog::EngineOptions{});
  Status st;
  {
    Scope s(rec(), "eval.engine.add_rules_run");
    id = s.id();
    st = engine.AddRules(db_->rules());
    if (st.ok()) st = engine.Run();
  }
  L_.engine_run_s = Seconds(id);
  Count(st, "engine run on a store copy");
}

void Run::Loop() {
  // A stream workload loads a batch after every reads_per_batch()
  // reads; the others load kSpacedBatches batches, each due at the
  // middle of its share of the window.
  const size_t per_batch = w_->reads_per_batch();
  const double start = loop_start_ = Now();
  int checkpoints = 0;
  size_t batches = 0, reads_since_batch = 0;
  double next_probe = start;
  for (double now = start; now - start < opt_.seconds; now = Now()) {
    const double done = (now - start) / opt_.seconds;
    if (now >= next_probe) {
      gauge_.Probe();
      next_probe = now + kProbeEveryS;
    }
    if (checkpoints < kCheckpoints && done >= 0.02 * (checkpoints + 1)) {
      OneCheckpoint();
      ++checkpoints;
    } else if (per_batch > 0 ? reads_since_batch >= per_batch
                             : batches < kSpacedBatches &&
                                   done >= (batches + 0.5) / kSpacedBatches) {
      OneUpdate();
      ++batches;
      reads_since_batch = 0;
    } else {
      OneRead();
      ++reads_since_batch;
    }
  }
  for (; checkpoints < kCheckpoints; ++checkpoints) OneCheckpoint();
  for (; per_batch == 0 && batches < kSpacedBatches; ++batches) OneUpdate();
}

void Run::OneRead() {
  const ReadOp op = w_->NextRead();
  ReadAnswer answer;
  // A traced run spans one read in k, k being the reads a second so far
  // over kTracedReadsPerS. The choice is a hash of the read's index: a
  // fixed stride would keep meeting the same templates.
  bool traced = false;
  if (opt_.trace) {
    const double rate = static_cast<double>(reads_) /
                        std::max(Now() - loop_start_, 1e-3);
    const auto k =
        static_cast<uint64_t>(std::max(1.0, rate / kTracedReadsPerS));
    traced = Mix(reads_) % k == 0;
  }
  ++reads_;
  rec_.set_enabled(traced);
  Status st;
  double call_s;
  {
    Scope root(rec(), "read", rec_.NewCause());
    const double t0 = Now();
    {
      Scope s(rec(), CallSpanName(op.kind));
      st = DoRead(&*db_, op, &answer);
    }
    call_s = Now() - t0;
    if (traced && st.ok()) ReplicateRead(op, AnswerRows(op, answer), call_s);
  }
  rec_.set_enabled(opt_.trace);
  const double scaled_s = call_s / gauge_.slowdown();
  read_us_.Add(scaled_s * 1e6);
  read_raw_us_.Add(call_s * 1e6);
  template_us_[op.template_id].Add(scaled_s * 1e6);
  read_seconds_ += scaled_s;
  read_raw_seconds_ += call_s;
  if (!Count(st, "read") || !op.check) return;
  Status check = w_->Check(op, answer, &*db_);
  if (!check.ok()) WrongAnswer(check);
}

void Run::ReplicateRead(const ReadOp& op, size_t answer_rows, double call_s) {
  // Parse, plan and enumerate the read again through each layer's
  // public function; what the Database call spent beyond them is the
  // read wrapper's own time.
  const pathlog::ObjectStore& store = db_->store();
  std::vector<pathlog::Literal> body;
  pathlog::RefPtr ref;
  int parse_id, plan_id = -1, enum_id;
  {
    Scope s(rec(), "parser.parse");
    parse_id = s.id();
    if (op.kind == ReadKind::kQuery) {
      Result<pathlog::Query> q = pathlog::ParseQuery(op.text);
      if (q.ok()) body = std::move(q->body);
    } else {
      Result<pathlog::RefPtr> r = pathlog::ParseRef(op.text);
      if (r.ok()) ref = *r;
    }
  }
  std::vector<double> estimates;
  if (op.kind == ReadKind::kQuery) {
    Scope s(rec(), "query.planner.plan");
    plan_id = s.id();
    if (!pathlog::PlanConjunction(&body, store, nullptr, &estimates).ok()) {
      return;
    }
  }
  if (op.kind != ReadKind::kQuery && ref == nullptr) return;
  std::vector<uint64_t> entered(body.size(), 0), produced(body.size(), 0);
  uint64_t emits, inverted, extent, universe;
  {
    Scope s(rec(), "eval.ref_eval.enumerate");
    enum_id = s.id();
    pathlog::SemanticStructure I(store);
    pathlog::RefEvaluator eval(I);
    pathlog::Bindings b;
    if (op.kind == ReadKind::kQuery) {
      // The same backtracking join Database::RunQuery runs over the
      // planned body, counting the rows each literal sees per probe.
      std::function<Result<bool>(size_t)> go =
          [&](size_t i) -> Result<bool> {
        if (i == body.size()) return true;
        ++entered[i];
        if (body[i].negated) {
          Result<bool> sat = eval.Satisfiable(*body[i].ref, &b);
          if (!sat.ok()) return sat.status();
          return *sat ? Result<bool>(true) : go(i + 1);
        }
        return eval.Enumerate(*body[i].ref, &b, [&](Oid) {
          ++produced[i];
          return go(i + 1);
        });
      };
      (void)go(0);
    } else if (op.kind == ReadKind::kEval) {
      (void)eval.Enumerate(*ref, &b, [](Oid) { return Result<bool>(true); });
    } else {
      (void)eval.Satisfiable(*ref, &b);
    }
    emits = eval.emit_count();
    inverted = eval.inverted_probes();
    extent = eval.extent_scans();
    universe = eval.universe_scans();
  }
  const double parse_s = Seconds(parse_id);
  const double plan_s = plan_id >= 0 ? Seconds(plan_id) : 0;
  const double enum_s = Seconds(enum_id);
  L_.parse_us.push_back(parse_s * 1e6);
  if (plan_id >= 0) L_.plan_us.push_back(plan_s * 1e6);
  L_.enumerate_us.push_back(enum_s * 1e6);
  L_.read_self_us.push_back((call_s - parse_s - plan_s - enum_s) * 1e6);
  for (size_t i = 0; i < body.size() && i < estimates.size(); ++i) {
    if (body[i].negated || entered[i] == 0) continue;
    const double observed =
        static_cast<double>(produced[i]) / static_cast<double>(entered[i]);
    const double r = std::max(estimates[i], 1.0) / std::max(observed, 1.0);
    L_.misestimate_max = std::max({L_.misestimate_max, r, 1 / r});
  }
  ++L_.traced_reads;
  L_.emits += emits;
  L_.rows += answer_rows;
  L_.inverted += inverted;
  L_.extent += extent;
  L_.universe += universe;
}

void Run::OneUpdate() {
  const std::string batch = w_->NextBatch();
  const uint64_t syncs_before =
      opt_.trace ? fops_->stats(FileClass::kWal, FileOp::kSync).count : 0;
  Scope root(rec(), "update", rec_.NewCause());
  int mat_id = -1, fire_id = -1;
  double mat_file_s = 0;
  gauge_.Probe(kPhaseProbes);
  const double t0 = Now();
  Status st;
  {
    Scope s(rec(), "db.load");
    st = db_->Load(batch);
  }
  if (st.ok()) {
    const double file_before = opt_.trace ? fops_->Seconds() : 0;
    Scope s(rec(), "db.materialize");
    mat_id = s.id();
    st = db_->Materialize();
    if (opt_.trace) mat_file_s = fops_->Seconds() - file_before;
  }
  if (st.ok()) {
    Scope s(rec(), "db.fire_triggers");
    fire_id = s.id();
    st = db_->FireTriggers();
  }
  const double update_s = Now() - t0;
  gauge_.Probe(kPhaseProbes);
  update_ms_.Add(update_s * 1e3, gauge_);
  if (!Count(st, "update")) return;
  w_->BatchAcknowledged();
  if (!opt_.trace) return;
  const pathlog::EngineStats& es = db_->engine_stats();
  L_.update_engine_ms.push_back(es.elapsed_ms);
  L_.update_derivations += es.derivations;
  L_.update_facts_added += es.facts_added;
  L_.materialize_self_ms.push_back((Seconds(mat_id) - mat_file_s) * 1e3 -
                                   es.elapsed_ms);
  L_.fire_ms.push_back(Seconds(fire_id) * 1e3);
  L_.wal_syncs_in_updates +=
      fops_->stats(FileClass::kWal, FileOp::kSync).count - syncs_before;
  ++L_.updates;
}

void Run::OneCheckpoint() {
  if (opt_.trace && L_.wal_before_checkpoint.empty()) {
    // The run's log so far, replayed later for store.wal.replay_s.
    Result<std::string> wal =
        pathlog::DefaultFileOps()->ReadFile(db_dir_ + "/wal.plgwal");
    if (wal.ok()) L_.wal_before_checkpoint = std::move(wal).value();
  }
  const uint64_t bytes_before =
      opt_.trace ? fops_->stats(FileClass::kSnapshot, FileOp::kAppend).bytes
                 : 0;
  const double file_before =
      opt_.trace ? fops_->Seconds(FileClass::kSnapshot) : 0;
  Scope root(rec(), "phase.checkpoint", rec_.NewCause());
  gauge_.Probe(kPhaseProbes);
  const double t0 = Now();
  Status st;
  {
    Scope s(rec(), "db.checkpoint");
    st = db_->Checkpoint();
  }
  const double checkpoint_s = Now() - t0;
  gauge_.Probe(kPhaseProbes);
  checkpoint_s_.Add(checkpoint_s, gauge_);
  if (!Count(st, "checkpoint") || !opt_.trace) return;
  L_.snapshot_file_s.push_back(fops_->Seconds(FileClass::kSnapshot) -
                               file_before);
  L_.snapshot_bytes =
      fops_->stats(FileClass::kSnapshot, FileOp::kAppend).bytes - bytes_before;
  L_.facts_at_checkpoint = db_->store().FactCount();
}

void Run::Recover() {
  const uint64_t facts_before = db_->store().FactCount();
  if (opt_.trace) {
    L_.firings = db_->trigger_stats().firings;
    L_.wal_append_bytes = fops_->stats(FileClass::kWal, FileOp::kAppend).bytes;
    L_.facts_logged = facts_before;
    L_.sync_ms = fops_->stats(FileClass::kWal, FileOp::kSync).samples;
    for (double& s : L_.sync_ms) s *= 1e3;
  }
  db_.reset();
  double spent = 0;
  for (int r = 0; r < kMinRecoveries || spent < kRecoveryBudgetS; ++r) {
    const ReadOp op = w_->RecoveryRead();
    ReadAnswer answer;
    Scope root(rec(), "phase.recovery", rec_.NewCause());
    gauge_.Probe(kPhaseProbes);
    const double t0 = Now();
    Status st;
    {
      Scope s(rec(), "db.open");
      Result<Database> opened = Database::Open(db_dir_, {}, fops());
      st = opened.status();
      if (st.ok()) db_.emplace(std::move(opened).value());
    }
    if (st.ok()) {
      Scope s(rec(), "db.first_read");
      st = DoRead(&*db_, op, &answer);
    }
    const double recovery_s = Now() - t0;
    gauge_.Probe(kPhaseProbes);
    recovery_s_.Add(recovery_s, gauge_);
    spent += recovery_s;
    if (!Count(st, "recovery")) {
      db_.reset();
      continue;
    }
    Status check = w_->Check(op, answer, &*db_);
    if (check.ok() && db_->store().FactCount() != facts_before) {
      check = pathlog::Internal(
          "wrong answer: recovery changed the fact count from " +
          std::to_string(facts_before) + " to " +
          std::to_string(db_->store().FactCount()));
    }
    if (check.ok() && r == 0) {
      check = w_->CheckRecovery(&*db_, facts_before);
      if (opt_.trace) TraceDurabilityLayers();
    }
    if (!check.ok()) WrongAnswer(check);
    db_.reset();
  }
  disk_mb_ = static_cast<double>(DirBytes(db_dir_)) / 1e6;
}

void Run::TraceDurabilityLayers() {
  // Snapshot (de)serialisation of the recovered store, and replay of
  // the run's log through the WAL scanner into an empty store.
  int id;
  Result<std::string> snap = std::string();
  {
    Scope s(rec(), "store.snapshot.serialize");
    id = s.id();
    snap = pathlog::SerializeSnapshot(db_->store());
  }
  L_.serialize_s = Seconds(id);
  if (!Count(snap.status(), "serialize snapshot")) return;
  {
    Scope s(rec(), "store.snapshot.deserialize");
    id = s.id();
    Count(pathlog::DeserializeSnapshot(*snap).status(), "deserialize snapshot");
  }
  L_.deserialize_s = Seconds(id);
  Status st;
  {
    // Replay starts from the objects every database interns at
    // construction, as recovery does.
    Database fresh;
    pathlog::ObjectStore& replayed = fresh.store();
    Scope s(rec(), "store.wal.replay");
    id = s.id();
    Result<pathlog::WalScan> scan = pathlog::ScanWal(L_.wal_before_checkpoint);
    st = scan.status();
    for (size_t i = 0; st.ok() && i < scan->records.size(); ++i) {
      const pathlog::WalRecord& record = scan->records[i];
      if (record.type == pathlog::WalRecordType::kIntern ||
          record.type == pathlog::WalRecordType::kFact) {
        st = pathlog::ApplyWalRecordToStore(record, &replayed);
      }
    }
  }
  L_.wal_replay_s = Seconds(id);
  Count(st, "replay wal");
}

std::vector<Metric> Run::EndToEnd() const {
  auto count = [](const char* what, size_t n) {
    return std::to_string(n) + " " + what;
  };
  // A tail is trustworthy only with ten or more samples beyond it; the
  // note names the highest percentile that has them.
  auto tail = [](const char* what, const std::vector<double>& samples,
                 double p) {
    const size_t n = samples.size();
    std::string note = std::to_string(n) + " " + what + ", " +
                       std::to_string(SamplesBeyond(n, p)) + " beyond";
    const std::optional<double> pick =
        PickTailPercentile(n, {50, 75, 90, 95, 99, 99.9});
    if (!pick) return note + "; no percentile has ten beyond";
    if (*pick >= p) return note;
    return note + "; ten beyond only up to p" + Number(*pick) + " = " +
           Number(Percentile(samples, *pick));
  };
  // Timings are scaled to nominal host speed; each note ends with the
  // same figure over the timings as measured.
  auto measured = [](double v) { return "; measured " + Number(v); };
  const double reads = static_cast<double>(read_us_.seen());
  return {
      {"setup_s", Median(setup_s_.scaled), "s",
       count("cycles, median", setup_s_.raw.size()) +
           measured(Median(setup_s_.raw))},
      {"materialize_s", Median(materialize_s_.scaled), "s",
       count("cycles, median", materialize_s_.raw.size()) +
           measured(Median(materialize_s_.raw))},
      {"query_p50_us", Percentile(read_us_.samples(), 50), "us",
       count("reads sampled of", read_us_.samples().size()) + " " +
           std::to_string(read_us_.seen()) +
           measured(Percentile(read_raw_us_.samples(), 50))},
      {"query_p99_us", Percentile(read_us_.samples(), 99), "us",
       tail("reads sampled", read_us_.samples(), 99) +
           measured(Percentile(read_raw_us_.samples(), 99))},
      {"queries_per_s", reads / std::max(read_seconds_, 1e-9), "1/s",
       "reads per second of read time, one client" +
           measured(reads / std::max(read_raw_seconds_, 1e-9))},
      {"update_p50_ms", Percentile(update_ms_.scaled, 50), "ms",
       count("batches", update_ms_.raw.size()) +
           measured(Percentile(update_ms_.raw, 50))},
      {"update_p90_ms", Percentile(update_ms_.scaled, 90), "ms",
       tail("batches", update_ms_.scaled, 90) +
           measured(Percentile(update_ms_.raw, 90))},
      {"checkpoint_s", Median(checkpoint_s_.scaled), "s",
       count("checkpoints, median", checkpoint_s_.raw.size()) +
           measured(Median(checkpoint_s_.raw))},
      {"recovery_s", Median(recovery_s_.scaled), "s",
       count("reopens, median", recovery_s_.raw.size()) +
           measured(Median(recovery_s_.raw))},
      {"peak_rss_mb", PeakRssMb(), "MB", "getrusage maxrss"},
      {"disk_mb", disk_mb_, "MB", "durable directory at the end"},
  };
}

std::vector<Metric> Run::PerLayer(const std::vector<Metric>& e2e) const {
  const pathlog::EngineStats& e = L_.first;
  const double reads = static_cast<double>(L_.traced_reads);
  // This run's end-to-end figure over the untraced run's.
  auto overhead = [&](const std::string& name) {
    for (const Metric& m : e2e) {
      if (m.name == name) return m.value / opt_.untraced.at(name);
    }
    return 0.0;
  };
  const double values[] = {
      L_.parse_program_s,
      Median(L_.parse_us),
      Median(L_.plan_us),
      L_.misestimate_max,
      Median(L_.enumerate_us),
      Ratio(static_cast<double>(L_.inverted), reads),
      Ratio(static_cast<double>(L_.extent), reads),
      Ratio(static_cast<double>(L_.universe), reads),
      Ratio(static_cast<double>(L_.emits), static_cast<double>(L_.rows)),
      Median(L_.read_self_us),
      Median(L_.materialize_self_ms),
      L_.engine_run_s,
      static_cast<double>(e.derivations),
      static_cast<double>(e.facts_added),
      Ratio(static_cast<double>(e.derivations),
            static_cast<double>(e.facts_added)),
      static_cast<double>(e.iterations),
      static_cast<double>(e.rule_evaluations),
      static_cast<double>(e.delta_passes),
      Median(L_.update_engine_ms),
      Ratio(static_cast<double>(L_.update_derivations),
            static_cast<double>(L_.update_facts_added)),
      static_cast<double>(e.skolems_created),
      Median(L_.fire_ms),
      static_cast<double>(L_.firings),
      L_.insert_per_s,
      Ratio(static_cast<double>(L_.health.store_bytes),
            static_cast<double>(L_.health.facts)),
      static_cast<double>(L_.health.facts),
      static_cast<double>(L_.health.objects),
      Ratio(static_cast<double>(L_.wal_syncs_in_updates),
            static_cast<double>(L_.updates)),
      Median(L_.sync_ms),
      Ratio(static_cast<double>(L_.wal_append_bytes),
            static_cast<double>(L_.facts_logged)),
      L_.wal_replay_s,
      L_.serialize_s,
      L_.deserialize_s,
      Median(L_.snapshot_file_s),
      Ratio(static_cast<double>(L_.snapshot_bytes),
            static_cast<double>(L_.facts_at_checkpoint)),
      overhead("setup_s"),
      overhead("materialize_s"),
      overhead("query_p50_us"),
      overhead("update_p50_ms"),
  };
  static_assert(std::size(values) == std::size(kLayerMetrics));
  std::vector<Metric> out;
  for (size_t i = 0; i < std::size(values); ++i) {
    const LayerMetric& m = kLayerMetrics[i];
    std::string note = std::string("moves ") + m.moves;
    if (!m.in_json) {
      note += "; 0 on every workload, so not in the metrics JSON";
    } else if (values[i] == 0) {
      note += "; 0 here: the layer is not on this workload's path";
    }
    out.push_back({m.name, values[i], m.unit, std::move(note), m.in_json});
  }
  return out;
}

std::string Run::MetadataJson(const Inputs& in) const {
  std::string tags;
  for (const LayerMetric& m : kLayerMetrics) {
    tags += std::string(tags.empty() ? "" : ",") + "\"" + m.name + "\":\"" +
            m.moves + "\"";
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
                "\"build_type\":\"%s\",\"nproc\":%ld,\"file_system\":\"%s\","
                "\"fsync_policy\":\"always\",\"text_hash\":\"%016llx\",",
                opt_.workload.c_str(), (unsigned long long)opt_.seed,
                Number(opt_.seconds).c_str(), PERFBENCH_BUILD_TYPE,
                sysconf(_SC_NPROCESSORS_ONLN),
                FileSystemName(opt_.work_dir).c_str(),
                (unsigned long long)Fnv1a(in.facts, in.rules));
  return std::string(buf) + "\"moves\":{" + tags + "}}";
}

int Run::Execute() {
  const Inputs in = w_->Generate();
  std::filesystem::create_directories(opt_.work_dir);
  std::printf(
      "perfbench %s seed=%llu seconds=%s trace=%d build=%s nproc=%ld "
      "fs=%s fsync=always text_hash=%016llx facts_text=%zuB\n",
      opt_.workload.c_str(), (unsigned long long)opt_.seed,
      Number(opt_.seconds).c_str(), opt_.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
      sysconf(_SC_NPROCESSORS_ONLN), FileSystemName(opt_.work_dir).c_str(),
      (unsigned long long)Fnv1a(in.facts, in.rules), in.facts.size());
  Status st = SetupCycles(in);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n",
                 st.ToString().c_str());
    return 2;
  }
  Loop();
  Recover();

  std::vector<Metric> e2e = EndToEnd();
  std::vector<Metric> metrics = opt_.trace ? PerLayer(e2e) : e2e;
  for (const Metric& m : e2e) {
    std::printf("%s%-16s %14s %-5s %s\n", opt_.trace ? "(traced) " : "",
                m.name.c_str(), Number(m.value).c_str(), m.unit.c_str(),
                m.note.c_str());
  }
  const std::vector<double>& slow = gauge_.history();
  std::printf("%shost slowdown over nominal: median %s, quartiles %s %s, "
              "%zu probes\n",
              opt_.trace ? "(traced) " : "", Number(Median(slow)).c_str(),
              Number(Percentile(slow, 25)).c_str(),
              Number(Percentile(slow, 75)).c_str(), slow.size());
  for (const auto& [id, us] : template_us_) {
    std::printf("%sread template %d: p50 %s us, p99 %s us, %llu reads\n",
                opt_.trace ? "(traced) " : "", id,
                Number(Percentile(us.samples(), 50)).c_str(),
                Number(Percentile(us.samples(), 99)).c_str(),
                (unsigned long long)us.seen());
  }
  std::printf("%s%-16s %14s %-5s %llu failed of %llu attempted\n",
              opt_.trace ? "(traced) " : "", "error_rate",
              Number(Ratio(static_cast<double>(failed_),
                           static_cast<double>(attempted_)))
                  .c_str(),
              "ratio", (unsigned long long)failed_,
              (unsigned long long)attempted_);
  if (opt_.trace) {
    for (const Metric& m : metrics) {
      std::printf("%-36s %14s %-5s %s\n", m.name.c_str(),
                  Number(m.value).c_str(), m.unit.c_str(), m.note.c_str());
    }
    if (!opt_.trace_out.empty()) {
      Status w = rec_.WriteJson(opt_.trace_out, MetadataJson(in));
      if (!w.ok()) {
        std::fprintf(stderr, "perfbench: writing spans: %s\n",
                     w.ToString().c_str());
      } else {
        std::printf("spans: %zu written to %s\n", rec_.spans().size(),
                    opt_.trace_out.c_str());
      }
    }
  }
  const bool correct = wrong_ == 0 && !drift_;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  const char* sep = "";
  for (const Metric& m : metrics) {
    if (!m.in_json) continue;
    json += std::string(sep) + "\"" + m.name + "\": {\"value\": " +
            Number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    sep = ", ";
  }
  std::printf("%s}}\n", json.c_str());
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      o->trace = v[0] == '1';
    } else if (flag == "--work-dir") {
      o->work_dir = v;
    } else if (flag == "--trace-out") {
      o->trace_out = v;
    } else if (flag == "--untraced") {
      // NAME=VALUE,NAME=VALUE,...
      for (std::string_view rest = v; !rest.empty();) {
        const std::string_view item = rest.substr(0, rest.find(','));
        rest.remove_prefix(std::min(rest.size(), item.size() + 1));
        const size_t eq = item.find('=');
        if (eq == std::string_view::npos) return false;
        const std::string value(item.substr(eq + 1));
        const double x = std::strtod(value.c_str(), &end);
        if (*end != '\0' || !std::isfinite(x)) return false;
        o->untraced[std::string(item.substr(0, eq))] = x;
      }
    } else {
      return false;
    }
  }
  // A traced run reports its overhead over an untraced one.
  for (const char* name : kOverheadOf) {
    if (o->trace && o->untraced.count(name) == 0) return false;
  }
  return argc % 2 == 1 && !o->workload.empty() && !o->work_dir.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  // The same test bench/bench_main.cc stamps: numbers from a build with
  // asserts on describe a different program.
  std::fprintf(stderr,
               "perfbench: refusing to report from a build with asserts on "
               "(NDEBUG is not defined); configure with "
               "-DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload closure|serve|ingest "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR "
                 "[--trace-out FILE] [--untraced NAME=VALUE,...]\n"
                 "--trace 1 needs --untraced with the untraced run's "
                 "setup_s, materialize_s, query_p50_us and update_p50_ms\n");
    return 2;
  }
  std::unique_ptr<perfbench::Workload> workload =
      perfbench::MakeWorkload(options.workload, options.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 options.workload.c_str());
    return 2;
  }
  perfbench::Run run(std::move(options), std::move(workload));
  return run.Execute();
}
