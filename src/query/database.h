// The user-facing PathLog database: parse programs, materialise rules,
// answer queries. This is the library's primary entry point; see
// examples/quickstart.cc.
//
//   Database db;
//   db.Load("p1 : employee. p1[salary->1000].") -> Status
//   db.Load("X[desc->>{Y}] <- X[kids->>{Y}].")  (rules trigger lazy
//                                                re-materialisation)
//   db.Query("?- X:employee[salary->S].")       -> ResultSet {X, S}
//   db.Eval("p1..assistants.salary")            -> objects denoted
//   db.Holds("p1[salary->1000]")                -> bool
//
// Concurrency contract (docs/IMPLEMENTATION.md "Concurrency contract"
// has the full statement): every public entry point serialises on one
// reader/writer snapshot guard, always on. Query, Eval and Holds run
// through one read path that takes the guard shared when the read is
// provably read-only — nothing to materialise, every name already
// interned, nothing pending for the WAL — so concurrent read-only
// reads evaluate in parallel and are safe against a concurrent
// mutator (Load/Materialize/Checkpoint/FireTriggers take the guard
// exclusively; a Load's lexing and parsing run inside that hold, since
// it reads, installs and drops one clause at a time); any other read
// restarts under the exclusive side.
// degraded() and Health() are safe from any thread (the stats
// server's health callback runs on the accept thread). Budgets are
// inside the contract: every call that can evaluate builds its own
// budget window on its stack from options.engine.limits, so readers
// share no budget state; cancel through a copy of limits.token from
// any thread, and inject only a clock that is safe to call from
// concurrent readers. NOT covered: the direct store()/rules()/
// engine_stats()/provenance()/trigger_stats() accessors return
// references into guarded state without holding the guard — callers
// own the quiescence there. Concurrent readers share the attached
// sinks, which are thread-safe: metrics counters and the flight ring
// record without blocking, the query log and profiler lock internally
// as leaves. SetObsSinks swaps sink pointers that lock-free readers
// consult; call it only while no other thread is inside the database.
//
// One call, one window: a read's limits cover its lazy
// materialisation as well as its own enumeration, a FireTriggers
// window covers every round of its cascade, and a rejection anywhere
// inside a call is counted once, by the call, in the query-log
// record's budget.rejected and in pathlog_budget_rejections_total.
//
// Admission at Load: every rule and trigger passes the engine's one
// admission (eval/engine.h AdmitClause) as it is read, and every rule
// must leave the installed rules stratifiable, so a clause that could
// never run is rejected by the Load that brings it, not by every later
// read.
//
// Durability: a database from Open() commits every mutation through a
// DurableLog (store/wal.h), the one owner of the log file, which
// retries transient write failures and latches the one that breaks
// it. The database decides what each commit holds and when to
// checkpoint, and serves degraded read-only while its log is broken.

#ifndef PATHLOG_QUERY_DATABASE_H_
#define PATHLOG_QUERY_DATABASE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "ast/program.h"
#include "base/mutex.h"
#include "base/result.h"
#include "base/thread_annotations.h"
#include "eval/engine.h"
#include "lint/lint.h"
#include "obs/query_log.h"
#include "query/planner.h"
#include "query/result_set.h"
#include "store/file_ops.h"
#include "store/object_store.h"
#include "store/wal.h"
#include "types/signature.h"
#include "types/type_check.h"

namespace pathlog {

/// A point-in-time health summary of a database (see Database::Health,
/// and the shell's \health command).
struct DatabaseHealth {
  bool durable = false;   ///< came from Open() and is (or was) logging
  bool degraded = false;  ///< serving read-only after a WAL failure
  /// Message of the WAL failure that caused degraded mode ("" if not
  /// degraded).
  std::string degraded_cause;
  uint64_t degraded_entries = 0;  ///< times degraded mode was entered
  uint64_t wal_retries = 0;       ///< transient WAL failures retried
  uint64_t wal_rotations = 0;     ///< size-triggered WAL rotations
  uint64_t wal_records = 0;       ///< records since the last checkpoint
  uint64_t wal_bytes = 0;         ///< known-good WAL length in bytes
  uint64_t store_bytes = 0;       ///< ObjectStore::ApproxBytes()
  uint64_t objects = 0;           ///< universe size
  uint64_t facts = 0;             ///< fact-log length
};

struct DatabaseOptions {
  /// Engine policy for rules and triggers, the cascade-round ceiling
  /// included; `engine.limits`, the limits of every call's budget
  /// window; and `engine.obs`, the database's one sink set. The
  /// engine, the store, the WAL and the database's own spans and
  /// counters all report to it.
  EngineOptions engine;
  /// Run the type checker over newly derived facts after every
  /// materialisation and fail on violations.
  bool type_check_after_materialize = false;
  /// Durability policy (store/wal.h); consulted only by databases from
  /// Open().
  DurabilityOptions durability;
};

class Database {
 public:
  Database();
  explicit Database(DatabaseOptions options);

  /// Parses and installs a program: facts are asserted immediately,
  /// rules, triggers and signatures are registered, and a `?-` query
  /// is an error (use Query()). Names are interned eagerly. A rule or
  /// trigger is installed only once admitted (eval/engine.h
  /// AdmitClause: well-formed, safe, range-restricted, a trigger's
  /// event literal able to run first) and, for a rule, only while the
  /// installed rules with it still stratify; otherwise the Load
  /// returns its kIllFormed, kUnsafeRule or kNotStratifiable.
  ///
  /// The load streams: it lexes and parses one clause, installs it and
  /// drops it before reading the next, so a bulk load never holds more
  /// than one clause's tokens and AST, and clauses take effect — and
  /// names get their oids — in text order. It stops at the first
  /// clause that fails to lex, parse or install and returns that
  /// clause's error (a syntax error names its line and column). The
  /// clauses before it stay installed: the database is marked for
  /// re-materialisation and, when durable, they are committed to the
  /// WAL.
  Status Load(std::string_view program_text);

  /// Answers a conjunctive query; variables are reported in name order.
  /// Re-materialises first if rules/facts changed since the last run.
  /// The query's fact-access sites execute in the order chosen by the
  /// cost planner (query/planner.h).
  Result<ResultSet> Query(std::string_view query_text);

  /// The execution plan for a query, without running it: one line per
  /// fact-access site in chosen order, with its route and the planner's
  /// estimate of its rows per input binding.
  Result<std::string> ExplainQuery(std::string_view query_text);

  /// Evaluates a reference (variables allowed but must be bindable from
  /// the reference itself); returns the denoted objects, in oid order.
  Result<std::vector<Oid>> Eval(std::string_view ref_text);

  /// Active-domain entailment of a reference used as a formula: true
  /// iff it denotes some object (Definition 5).
  Result<bool> Holds(std::string_view ref_text);

  /// Runs the deductive engine now (otherwise it runs lazily on the
  /// first Query/Eval/Holds after a change).
  Status Materialize();

  /// Fires active rules (`head <~ event, conditions.`) over every fact
  /// appended since the last firing, cascading to quiescence
  /// (Engine::Fire). The fact log is the event stream: extensional and
  /// derived facts alike. It never materialises: derived facts become
  /// events once a Materialize or a read has derived them.
  Status FireTriggers();

  const TriggerStats& trigger_stats() const { return trigger_stats_; }
  size_t num_triggers() const { return triggers_.size(); }

  /// Type-checks the whole store against the declared signatures.
  Status TypeCheck(std::vector<TypeViolation>* violations) const;

  /// Lints everything installed so far: rules, triggers, and declared
  /// signatures, with the semantic analyses (PL014-PL019) enabled.
  /// Methods with extensional facts in the store count as defined, so
  /// PL011/PL016 do not fire for them, and the observed sorts of the
  /// stored values seed the type-flow analysis.
  LintReport Lint() const;

  /// Explains how the fact with generation `gen` came to be:
  /// "extensional." for directly asserted facts; otherwise the deriving
  /// rule, or the trigger that asserted it, and the head bindings of
  /// the producing instance. Only meaningful when
  /// options.engine.trace_provenance is set.
  std::string ExplainFact(uint64_t gen) const;

  /// ExplainFact as one JSON object:
  ///   {"gen":N,"fact":"...","kind":"extensional"},
  ///   {"gen":N,"fact":"...","kind":"derived","rule":"...",
  ///    "rule_index":i,"bindings":{"X":"a1",...}} or
  ///   {"gen":N,"fact":"...","kind":"triggered","trigger":"...",
  ///    "trigger_index":i,"bindings":{...}}
  /// kNotFound when `gen` is not a fact generation.
  Result<std::string> ExplainFactJson(uint64_t gen) const;

  /// All derivation records accumulated across materialisations and
  /// trigger firings.
  const std::vector<DerivationRecord>& provenance() const {
    return provenance_;
  }

  /// Persists the whole database — object store (including anonymous
  /// virtual objects), rules, signatures and whether the store is at
  /// the rules' fixpoint — to a binary file.
  Status SaveSnapshotFile(const std::string& path) const;

  /// Restores a database saved with SaveSnapshotFile, with the saved
  /// database's materialisation state: one saved after a successful
  /// Materialize answers its first read without running the rules; one
  /// saved with work pending, or from a file older than that flag
  /// (PLGDB002, legacy), re-materialises on its first read.
  static Result<Database> LoadSnapshotFile(const std::string& path,
                                           DatabaseOptions options = {});

  /// Opens a crash-safe database rooted at directory `dir` (created if
  /// absent). Recovery runs first: the newest valid snapshot
  /// (`dir`/snapshot.plgdb) is loaded, the WAL (`dir`/wal.plgwal) is
  /// scanned and its valid prefix replayed, and a torn tail — the
  /// remains of an append interrupted by a crash — is truncated, not
  /// fatal. The database reopens with the materialisation state it
  /// closed with (the snapshot's flag and the WAL's marks): closed
  /// after a successful Materialize, its first read runs no rules;
  /// closed with work pending, or recovered from files that predate the
  /// flag, its first read materialises. A crash never recovers it clean
  /// over facts the rules have not seen. Thereafter every mutation is
  /// WAL-logged per `options.durability` before the mutating call
  /// returns. `fops` injects a file system (fault injection in tests);
  /// nullptr = real.
  static Result<Database> Open(const std::string& dir,
                               DatabaseOptions options = {},
                               FileOps* fops = nullptr)
      NO_THREAD_SAFETY_ANALYSIS;  // single-threaded construction

  /// Writes a full snapshot atomically and resets the WAL. Bounds
  /// recovery time; also the only way to resume logging after a WAL
  /// write error. No-op rules: safe to call at any commit boundary. A
  /// failure to write the snapshot leaves the log as it was; a failure
  /// to reset the log after the snapshot is in place degrades the
  /// database, as a failed commit does.
  Status Checkpoint();

  /// True when this database was produced by Open() (durable mode, its
  /// log broken or not). Reads a pointer set once before the database
  /// can be shared, so it is safe from any thread.
  bool durable() const { return fops_ != nullptr; }

  /// True while the database is serving degraded read-only: its log is
  /// broken — a WAL write failed persistently (or exhausted its
  /// transient retries), or a checkpoint failed to reset the log — so
  /// queries keep answering from the last consistent state while every
  /// mutation fails fast with kUnavailable. The next successful
  /// Checkpoint() — the recovery probe — restores read-write service.
  /// Safe from any thread: reads an atomic mirror of the log's failure
  /// latch, maintained by EnterDegradedMode() and CheckpointLocked()
  /// (the stats server's health callback calls this from its accept
  /// thread).
  bool degraded() const {
    return degraded_.load(std::memory_order_acquire);
  }

  /// Health summary: durability mode, degraded state and cause, WAL
  /// retry/rotation counters, and store size.
  DatabaseHealth Health() const;

  /// Attaches (or, with all-null sinks, detaches) observability at
  /// runtime by replacing options.engine.obs: the engine, store, log,
  /// and the database's own spans and counters all pick up the new
  /// sinks. The sink objects are
  /// borrowed; keep them alive until detached or the database is
  /// destroyed. Equivalent to setting DatabaseOptions::engine.obs
  /// before construction.
  void SetObsSinks(const ObsSinks& obs);
  const ObsSinks& obs() const { return options_.engine.obs; }

  /// The attached profiler's report (per-rule cumulative time table,
  /// index-route totals, planner estimate-vs-actual table), or a
  /// one-line note when no profiler is attached.
  std::string ProfileReport() const;

  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }
  const SignatureTable& signatures() const { return signatures_; }
  const EngineStats& engine_stats() const { return last_stats_; }
  size_t num_rules() const { return rules_.size(); }
  /// The installed (non-fact) rules, in load order.
  const std::vector<Rule>& rules() const { return rules_; }

  const std::string& DisplayName(Oid o) const { return store_.DisplayName(o); }

 private:
  // ---- The snapshot guard ------------------------------------------
  // RAII holds on state_mu_. Public entry points construct one of
  // these; private *Locked helpers are annotated REQUIRES and never
  // lock.
  class SCOPED_CAPABILITY ReadLock {
   public:
    explicit ReadLock(const Database& db) ACQUIRE_SHARED(db.state_mu_)
        : mu_(db.state_mu_.get()) {
      mu_->ReaderLock();
    }
    ~ReadLock() RELEASE() { mu_->ReaderUnlock(); }
    ReadLock(const ReadLock&) = delete;
    ReadLock& operator=(const ReadLock&) = delete;

   private:
    SharedMutex* mu_;
  };
  class SCOPED_CAPABILITY WriteLock {
   public:
    explicit WriteLock(const Database& db) ACQUIRE(db.state_mu_)
        : mu_(db.state_mu_.get()) {
      mu_->Lock();
    }
    ~WriteLock() RELEASE() { mu_->Unlock(); }
    WriteLock(const WriteLock&) = delete;
    WriteLock& operator=(const WriteLock&) = delete;

   private:
    SharedMutex* mu_;
  };

  /// Interns every name occurring in a reference so later evaluation
  /// can resolve it (queries may mention names no fact ever used).
  void InternNames(const Ref& t) REQUIRES(state_mu_);

  /// How far the log covers a database: the universe and fact-log
  /// prefixes, the trigger watermark, and dirty_ as recovery would
  /// restore it.
  struct LogPosition {
    uint64_t objects = 0;
    uint64_t facts = 0;
    uint64_t trigger_watermark = 0;
    bool dirty = false;
    bool operator==(const LogPosition&) const = default;
  };
  /// The database's own position; a commit brings logged_ up to it.
  LogPosition PositionLocked() const REQUIRES_SHARED(state_mu_);

  /// True when nothing is pending for the WAL: the logged position is
  /// the database's and no program text waits.
  bool NothingPendingLocked() const REQUIRES_SHARED(state_mu_);

  /// The read-only fast-path test: no materialisation due and nothing
  /// to commit. The read's compiled program adds the last condition,
  /// that every name it mentions is already interned.
  bool ReadOnlyReadyLocked() const REQUIRES_SHARED(state_mu_);

  /// The read path behind Query, Eval and Holds, which differ only in
  /// `Answer`: rows, the denoted objects, or a truth value. Once per
  /// call it parses `text` (an Eval/Holds reference becomes a
  /// one-literal query), builds the query-log record and the call's
  /// budget window, runs the core on the shared-lock fast path or
  /// after the exclusive-lock prepare step, and measures one latency
  /// that RecordQueryObs hands to every sink.
  template <typename Answer>
  Result<Answer> Read(std::string_view text);

  /// The slow path's prepare step, shared with ExplainQuery:
  /// materialise if dirty (under the call's `budget`), intern the
  /// query's names, commit them to the WAL. A degraded database skips
  /// the materialisation and the commit and keeps answering from its
  /// last consistent state.
  Status PrepareReadLocked(const struct Query& query, ResourceBudget* budget)
      REQUIRES(state_mu_);

  /// The evaluation core, under either lock: plans the read's compiled
  /// `program` (query/planner.h), runs it under the call's `budget`
  /// (eval/site_program.h), and ends in the answer's sink — rows
  /// deduplicated, objects sorted unique, or a stop at the first
  /// witness. It only reads database state; the sinks it touches are
  /// thread-safe.
  template <typename Answer>
  Result<Answer> ReadLocked(const SemanticStructure& I, SiteProgram* program,
                            ResourceBudget* budget, QueryLogRecord* rec)
      REQUIRES_SHARED(state_mu_);

  /// The derivation record covering fact `gen` (ExplainFact and
  /// ExplainFactJson), or null when the fact is extensional.
  const DerivationRecord* DerivationOfLocked(uint64_t gen) const
      REQUIRES_SHARED(state_mu_);

  /// Runs `fn` with a fresh budget window built from
  /// options_.engine.limits and counts the window's rejection, if any:
  /// once per call, here.
  template <typename Fn>
  auto Governed(Fn fn);

  /// Exclusive-lock bodies of the public mutators; the evaluating ones
  /// run under the calling operation's budget window. LoadLocked
  /// streams `text` clause by clause (see Load), skipping every rule,
  /// trigger and signature whose printed form is in `installed`, if
  /// given.
  Status LoadLocked(std::string_view text,
                    const std::set<std::string>* installed)
      REQUIRES(state_mu_);
  /// Installs one parsed clause (a query is an error), admitting each
  /// rule and trigger first; sets `*installed` once anything of it is
  /// in.
  Status InstallClauseLocked(const Program& clause, bool* installed)
      REQUIRES(state_mu_);
  Status MaterializeLocked(ResourceBudget* budget) REQUIRES(state_mu_);
  Status FireTriggersLocked(ResourceBudget* budget) REQUIRES(state_mu_);
  Status CheckpointLocked() REQUIRES(state_mu_);

  /// The whole database as one byte string (outer "PLGDB003" framing:
  /// store snapshot + rules/trigger text + signature text + trigger
  /// watermark + materialisation flag, checksummed).
  Result<std::string> SaveSnapshotBytes() const REQUIRES_SHARED(state_mu_);
  /// Builds a database from snapshot bytes. Single-threaded
  /// construction — nobody else can hold the new database yet, so it
  /// touches guarded fields lock-free.
  static Result<Database> LoadSnapshotBytes(const std::string& bytes,
                                            DatabaseOptions options,
                                            const std::string& origin)
      NO_THREAD_SAFETY_ANALYSIS;

  /// Commits everything not yet logged — new objects, installed
  /// program text, new facts, the trigger watermark, a change of the
  /// dirty flag — as one batch of the log (DurableLog::Commit retries
  /// transient failures), then checkpoints once the log has reached
  /// rotate_wal_bytes or checkpoint_every records. A failed commit
  /// degrades the database.
  Status CommitDurable() REQUIRES(state_mu_);
  /// Appends to `batch` everything past `logged_`, in the batch order
  /// store/wal.h documents: a stale mark, interns, program text, facts,
  /// the watermark, a materialised mark. It changes nothing, so each of
  /// the log's attempts re-runs it from the same state.
  Status WriteBatchLocked(DurableLog::Batch* batch) REQUIRES(state_mu_);
  /// Records that the log, with the snapshot under it, now covers the
  /// database as it stands.
  void MarkLoggedLocked() REQUIRES(state_mu_);
  /// Enters degraded mode once the log has broken: mutations then fail
  /// fast, the entry is counted and the flight ring dumped (a database
  /// already degraded only reports). Returns the kUnavailable error the
  /// failing call reports.
  Status EnterDegradedMode() REQUIRES(state_mu_);
  /// Mirrors the log's failure latch into degraded_ and the
  /// pathlog_db_degraded gauge.
  void MirrorLogLatchLocked() REQUIRES(state_mu_);
  /// The fail-fast error mutations get while degraded.
  Status DegradedError() const REQUIRES_SHARED(state_mu_);
  /// Wraps a mutating entry point: preserves `st`, commits the WAL.
  Status FinishMutation(Status st) REQUIRES(state_mu_);
  /// Loads program text from a WAL record, skipping rules, triggers
  /// and signatures that are already installed (replay after a crash
  /// between checkpoint and WAL reset sees both copies).
  Status ReplayProgramText(std::string_view text) REQUIRES(state_mu_);

  /// Refreshes the pathlog_store_* gauges (universe size, fact count);
  /// no-op without a metrics sink.
  void UpdateStoreGauges() REQUIRES_SHARED(state_mu_);

  /// Closes out one Query/Eval/Holds for observability: records a
  /// "db.<kind>" flight span from `flight_start_us` (the ring's clock
  /// when the call began) to now, so it covers the whole call,
  /// malformed reads included; auto-dumps the flight ring when the
  /// operation was budget-rejected; feeds an answered read's latency
  /// to pathlog_queries_total/pathlog_query_ms and its index routes
  /// to the profiler; and appends `rec` to the query-log sink. No-op
  /// without the corresponding sinks.
  void RecordQueryObs(QueryLogRecord rec, uint64_t flight_start_us);

  /// Best-effort dump of the flight-recorder ring to a timestamped
  /// trace file in the durable directory (durable databases with a
  /// flight sink only). Called on incident boundaries: degraded-mode
  /// entry and budget rejections.
  void MaybeDumpFlightRecorder(std::string_view reason);

  std::string SnapshotPath() const {
    return durable_dir_ + "/snapshot.plgdb";
  }

  /// The snapshot guard: shared for provably read-only entry points,
  /// exclusive for anything that may mutate. Behind a unique_ptr
  /// because Database is movable and std::shared_mutex is not; the
  /// pointer is set at construction and only reseated by move, which
  /// is single-threaded by contract (a moved-from Database may only be
  /// destroyed or assigned to).
  std::unique_ptr<SharedMutex> state_mu_ = std::make_unique<SharedMutex>();

  DatabaseOptions options_;
  // The core state below (store through last_stats_) is guarded by
  // state_mu_ in the same discipline as the annotated fields, but left
  // unannotated because the public store()/rules()/signatures()/...
  // accessors hand out references without the lock — that escape hatch
  // is part of the documented contract (callers own quiescence there),
  // and annotating the fields would force NO_THREAD_SAFETY_ANALYSIS
  // onto every accessor, silencing more than it checks.
  ObjectStore store_;
  SignatureTable signatures_;
  std::vector<Rule> rules_;
  /// The ends of rules_'s dependency edges: what Load needs to skip
  /// re-stratifying every rule when a new one cannot close a cycle.
  EdgeEnds rule_edge_ends_;
  std::vector<TriggerRule> triggers_;
  uint64_t trigger_watermark_ = 0;
  TriggerStats trigger_stats_;
  /// Declared signatures re-rendered as loadable text (for snapshots).
  std::string signature_text_;
  std::vector<DerivationRecord> provenance_;
  EngineStats last_stats_;
  /// True while the rules have not run over everything in the store:
  /// set by every Load that installs a clause, failed Loads included,
  /// cleared by a successful materialisation, and left alone by
  /// FireTriggers. Durable, via the WAL's marks and the snapshot's
  /// flag.
  bool dirty_ GUARDED_BY(state_mu_) = false;
  uint64_t type_check_watermark_ = 0;

  // Durability state (all inert unless the database came from Open()).
  // fops_ and durable_dir_ are set once in Open() before the database
  // can be shared and never change after — safe to read lock-free.
  FileOps* fops_ = nullptr;
  std::string durable_dir_;
  /// The log file, its retries and its failure latch.
  std::unique_ptr<DurableLog> log_ GUARDED_BY(state_mu_);
  /// What the log, with the snapshot under it, covers.
  LogPosition logged_ GUARDED_BY(state_mu_);
  uint64_t wal_rotations_ GUARDED_BY(state_mu_) = 0;  ///< rotations
  uint64_t degraded_entries_ GUARDED_BY(state_mu_) = 0;
  /// Rules/triggers/signatures installed since the last commit,
  /// re-rendered as loadable text.
  std::string pending_program_text_ GUARDED_BY(state_mu_);

  // lock-free: atomic mirrors readable from any thread without the
  // guard. degraded_ mirrors the log's latch (written under the
  // exclusive lock by MirrorLogLatchLocked, from EnterDegradedMode and
  // CheckpointLocked; read by degraded() — e.g. the stats server's
  // health callback);
  // flight_dumps_ counts incident dumps (bumped by
  // MaybeDumpFlightRecorder, which budget-rejected queries reach
  // outside the guard).
  MovableAtomic<bool> degraded_{false};
  MovableAtomic<uint64_t> flight_dumps_{0};
};

}  // namespace pathlog

#endif  // PATHLOG_QUERY_DATABASE_H_
