#include "query/database.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <set>
#include <type_traits>

#include "ast/analysis.h"
#include "ast/printer.h"
#include "base/coding.h"
#include "base/crc32.h"
#include "base/strings.h"
#include "eval/bindings.h"
#include "eval/dependency.h"
#include "eval/site_program.h"
#include "eval/stratify.h"
#include "lint/dataflow/domains.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "parser/parser.h"
#include "query/planner.h"
#include "semantics/structure.h"
#include "store/fact.h"
#include "store/snapshot.h"

namespace pathlog {

namespace {

/// Magic of the database-level snapshot file (store snapshot + program
/// text + signatures + trigger watermark + materialisation flag,
/// CRC-protected). PLGDB002 files (the same body without the flag) and
/// legacy files (no magic, raw length-prefixed blobs, no checksum)
/// remain readable; both reopen dirty.
constexpr char kDbMagic[] = "PLGDB003";
constexpr char kDbMagicV2[] = "PLGDB002";
constexpr size_t kDbMagicLen = 8;

/// The concrete sort of a stored value, for seeding the type-flow
/// analysis from extensional facts.
SortSet SortOfOid(const ObjectStore& store, Oid o) {
  switch (store.kind(o)) {
    case ObjectKind::kInt:
      return kSortInt;
    case ObjectKind::kString:
      return kSortString;
    default:
      return kSortObject;
  }
}

/// Every method with extensional facts, plus the observed sorts of its
/// stored values. Seeds for Lint().
void CollectStoreSeeds(const ObjectStore& store,
                       std::set<std::string>* defined,
                       std::map<std::string, SortSet>* sorts) {
  for (Oid m : store.ScalarMethods()) {
    const std::string& name = store.DisplayName(m);
    defined->insert(name);
    SortSet s = kSortBottom;
    for (const ScalarEntry& e : store.ScalarEntries(m)) {
      s = static_cast<SortSet>(s | SortOfOid(store, e.value));
    }
    if (s != kSortBottom) (*sorts)[name] = s;
  }
  for (Oid m : store.SetMethods()) {
    const std::string& name = store.DisplayName(m);
    defined->insert(name);
    SortSet s = kSortBottom;
    for (const SetGroup& g : store.SetGroups(m)) {
      for (Oid member : g.members) {
        s = static_cast<SortSet>(s | SortOfOid(store, member));
      }
    }
    if (s != kSortBottom) {
      auto [it, inserted] = sorts->try_emplace(name, s);
      if (!inserted) it->second = static_cast<SortSet>(it->second | s);
    }
  }
}

const char* StrategyName(EvalStrategy s) {
  switch (s) {
    case EvalStrategy::kNaive:
      return "naive";
    case EvalStrategy::kSemiNaiveRules:
      return "semi-naive-rules";
    case EvalStrategy::kSemiNaiveDelta:
      return "semi-naive-delta";
  }
  return "unknown";
}

uint64_t UnixMillis() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Hex CRC32 of the planned sites and their routes in execution order
/// — the plan fingerprint ExplainQuery prints and the query log
/// records, so a slow log record links straight to its plan.
std::string PlanFingerprint(const SiteProgram& program) {
  std::string printed;
  for (const Site& site : program.sites) {
    printed += program.SiteText(site);
    printed += " ";
    printed += SiteRouteName(site.route);
    printed += ";";
  }
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", Crc32(printed));
  return std::string(buf);
}

/// The query-log `kind` of a read, named by its answer type; its
/// flight span is "db.<kind>".
template <typename Answer>
constexpr std::string_view kReadKind =
    std::is_same_v<Answer, ResultSet> ? "query"
    : std::is_same_v<Answer, bool>    ? "holds"
                                      : "eval";

/// Parses a read into the conjunction the core evaluates — a `?-`
/// query's body, or an Eval/Holds reference as its one literal — and
/// checks every literal is well-formed.
Result<struct Query> ParseRead(std::string_view text, bool conjunctive) {
  Result<struct Query> query = [&]() -> Result<struct Query> {
    if (conjunctive) return ParseQuery(text);
    Result<RefPtr> ref = ParseRef(text);
    if (!ref.ok()) return ref.status();
    struct Query q;
    q.body.push_back(Literal{*std::move(ref)});
    return q;
  }();
  if (!query.ok()) return query;
  for (const Literal& lit : query->body) {
    PATHLOG_RETURN_IF_ERROR(CheckWellFormed(*lit.ref));
  }
  return query;
}

}  // namespace

Database::Database() : Database(DatabaseOptions{}) {}

Database::Database(DatabaseOptions options) : options_(options) {
  store_.set_metrics(options_.engine.obs.metrics);
  // The built-in method and the structural type names always exist.
  store_.InternSymbol(kSelfMethodName);
  store_.InternSymbol(kAnyTypeName);
  store_.InternSymbol(kIntTypeName);
  store_.InternSymbol(kStringTypeName);
}

void Database::SetObsSinks(const ObsSinks& obs) {
  // Quiesced-setup only (see the header): lock-free paths — metrics
  // counters, RecordQueryObs — read these sink pointers without the
  // guard, so no other thread may be inside the database during the
  // swap. The lock still orders the WAL re-attachment below.
  WriteLock lock(*this);
  options_.engine.obs = obs;
  store_.set_metrics(obs.metrics);
  if (log_) log_->set_obs(obs.metrics, obs.flight);
  UpdateStoreGauges();
}

std::string Database::ProfileReport() const {
  if (options_.engine.obs.profiler == nullptr) {
    return "profile: no profiler attached (enable profiling first)\n";
  }
  return options_.engine.obs.profiler->Report();
}

void Database::UpdateStoreGauges() {
  MetricsRegistry* m = options_.engine.obs.metrics;
  if (m == nullptr) return;
  if (Gauge* g = m->GetGauge("pathlog_store_objects", "universe size")) {
    g->Set(static_cast<double>(store_.UniverseSize()));
  }
  if (Gauge* g = m->GetGauge("pathlog_store_facts", "fact log length")) {
    g->Set(static_cast<double>(store_.generation()));
  }
}

void Database::RecordQueryObs(QueryLogRecord rec, uint64_t flight_start_us) {
  const ObsSinks& obs = options_.engine.obs;
  if (obs.flight != nullptr) {
    // kind and status are fixed tokens (no escaping needed); the query
    // text stays out of the args to keep the ring entry small.
    std::string args = StrCat("{\"kind\":\"", rec.kind, "\",\"status\":\"",
                              rec.status, "\",\"rows\":", rec.rows, "}");
    const uint64_t now = obs.flight->NowUs();
    obs.flight->RecordSpan(
        StrCat("db.", rec.kind), "database", flight_start_us,
        now > flight_start_us ? now - flight_start_us : 0, args);
  }
  if (rec.budget_rejected) MaybeDumpFlightRecorder("budget_rejection");
  if (rec.status == "ok") {
    if (obs.metrics != nullptr) {
      if (Counter* c = obs.metrics->GetCounter(
              "pathlog_queries_total",
              "reads answered (Query, Eval and Holds)")) {
        c->Inc();
      }
      if (Histogram* h = obs.metrics->GetHistogram(
              "pathlog_query_ms", DefaultLatencyBoundsMs(),
              "read wall time in milliseconds")) {
        h->Observe(rec.latency_ms);
      }
    }
    if (obs.profiler != nullptr) {
      Profiler::RouteTotals routes;
      routes.receiver_probes = rec.route_receiver_probes;
      routes.inverted_probes = rec.route_inverted_probes;
      routes.extent_scans = rec.route_extent_scans;
      routes.universe_scans = rec.route_universe_scans;
      routes.duplicates_suppressed = rec.route_duplicates_suppressed;
      obs.profiler->RecordRoutes(routes);
    }
  }
  if (QueryLog* log = obs.query_log; log != nullptr) {
    rec.ts_ms = UnixMillis();
    (void)log->Append(std::move(rec));  // latched error; keep serving
  }
}

void Database::MaybeDumpFlightRecorder(std::string_view reason) {
  FlightRecorder* flight = options_.engine.obs.flight;
  if (flight == nullptr || fops_ == nullptr || durable_dir_.empty()) return;
  const std::string path = StrCat(
      durable_dir_, "/flightrec-", UnixMillis(), "-",
      flight_dumps_.fetch_add(1, std::memory_order_relaxed) + 1,
      ".trace.json");
  flight->Record("flightrec.dump", "database", /*dur_us=*/0,
                 StrCat("{\"reason\":\"", reason, "\"}"));
  if (!flight->WriteTo(path, fops_).ok()) return;  // best-effort
  BumpCounter(options_.engine.obs.metrics, "pathlog_flightrec_dumps_total",
              "flight-recorder incident dumps written");
}

void Database::InternNames(const Ref& t) {
  ForEachLeaf(t, [&](const Ref& name) {
    if (name.kind == RefKind::kName) InternName(name, &store_);
  });
}

Database::LogPosition Database::PositionLocked() const {
  return {store_.UniverseSize(), store_.generation(), trigger_watermark_,
          dirty_};
}

bool Database::NothingPendingLocked() const {
  // CommitDurable's empty-batch test: true when a commit is a no-op.
  if (!durable()) return true;
  return PositionLocked() == logged_ && pending_program_text_.empty();
}

bool Database::ReadOnlyReadyLocked() const {
  // A degraded database skips materialisation and commit anyway, so
  // only the intern check gates its fast path.
  if (degraded()) return true;
  return !dirty_ && NothingPendingLocked();
}

Status Database::Load(std::string_view program_text) {
  WriteLock lock(*this);
  return LoadLocked(program_text, /*installed=*/nullptr);
}

namespace {

/// OK when `rules` stratify, else kNotStratifiable; they do without
/// their last rule, and `*ends` holds the other rules' edge ends and
/// takes in the last one's. The whole set is stratified only when the
/// last rule may close a cycle (MayCloseCycle), so rules loaded in
/// dependency order are checked in time linear in their number. The
/// method names go into a throwaway store: stratifiability depends
/// only on which names are equal, and a database's universe must not
/// grow by, or reorder, a clause it may yet reject.
Status Stratifies(const std::vector<Rule>& rules, HeadValueMode mode,
                  EdgeEnds* ends) {
  ObjectStore names;
  PATHLOG_ASSIGN_OR_RETURN(
      DependencyGraph last,
      DependencyGraph::Build({rules.back()}, &names, mode));
  EdgeEnds added;
  added.Add(last, 0);
  if (MayCloseCycle(*ends, added)) {
    PATHLOG_ASSIGN_OR_RETURN(DependencyGraph all,
                             DependencyGraph::Build(rules, &names, mode));
    PATHLOG_RETURN_IF_ERROR(Stratify(all, rules.size()).status());
  }
  ends->Add(last, 0);
  return Status::OK();
}

/// Drops from `clause` every rule, trigger and signature whose printed
/// form is in `installed`.
void DropInstalled(const std::set<std::string>& installed, Program* clause) {
  auto seen = [&installed](const auto& c) {
    return installed.count(ToString(c)) > 0;
  };
  std::erase_if(clause->signatures, seen);
  std::erase_if(clause->triggers, seen);
  std::erase_if(clause->rules, seen);
}

}  // namespace

Status Database::LoadLocked(std::string_view text,
                            const std::set<std::string>* installed) {
  if (degraded()) return DegradedError();
  FlightSpan load_span(options_.engine.obs.flight, "db.load", "database");
  // Each clause is installed and dropped before the next is read. Once
  // one is in, a later clause's error — lexing, parsing or installing —
  // must still mark the rules stale and commit what went in, or reads
  // would skip the rules over it; the Load's own error wins.
  ClauseReader reader(text);
  Program clause;
  bool any_installed = false;
  Status st;
  for (;;) {
    Result<bool> more = reader.Next(&clause);
    if (!more.ok()) st = more.status();
    if (!st.ok() || !*more) break;
    if (installed != nullptr) DropInstalled(*installed, &clause);
    st = InstallClauseLocked(clause, &any_installed);
    if (!st.ok()) break;
    clause.rules.clear();
    clause.triggers.clear();
    clause.signatures.clear();
  }
  if (!st.ok() && !any_installed) return st;
  dirty_ = true;
  return FinishMutation(st);
}

Status Database::InstallClauseLocked(const Program& clause, bool* installed) {
  if (!clause.queries.empty()) {
    return InvalidArgument(
        "programs loaded into a Database must not contain `?-` queries; "
        "run them with Database::Query");
  }
  // Installed signature, trigger and rule text waits for the next
  // commit; only a durable database logs it.
  auto queue_for_log = [this](const auto& c) NO_THREAD_SAFETY_ANALYSIS {
    if (durable()) pending_program_text_ += ToString(c) + "\n";
  };
  for (const SignatureDecl& sig : clause.signatures) {
    PATHLOG_RETURN_IF_ERROR(signatures_.Declare(sig, &store_));
    *installed = true;
    signature_text_ += ToString(sig) + "\n";
    queue_for_log(sig);
  }
  // A rule or trigger that fails admission, or a rule that would leave
  // the installed rules unstratifiable, could never run: every later
  // read or firing would fail on it. Neither it nor its names go in.
  for (const TriggerRule& trigger : clause.triggers) {
    PATHLOG_RETURN_IF_ERROR(AdmitClause(trigger.rule, /*trigger=*/true));
    *installed = true;
    InternNames(*trigger.rule.head);
    for (const Literal& lit : trigger.rule.body) InternNames(*lit.ref);
    triggers_.push_back(trigger);
    queue_for_log(trigger);
  }
  for (const Rule& rule : clause.rules) {
    PATHLOG_RETURN_IF_ERROR(AdmitClause(rule, /*trigger=*/false));
    if (!rule.IsFact()) {
      rules_.push_back(rule);
      Status st = Stratifies(rules_, options_.engine.head_value_mode,
                             &rule_edge_ends_);
      if (!st.ok()) {
        rules_.pop_back();
        return st;
      }
    }
    *installed = true;  // a fact failing part-way keeps its first facts
    InternNames(*rule.head);
    for (const Literal& lit : rule.body) InternNames(*lit.ref);
    if (rule.IsFact()) {
      HeadAsserter asserter(&store_, options_.engine.head_value_mode);
      Bindings empty;
      PATHLOG_RETURN_IF_ERROR(asserter.Assert(*rule.head, &empty));
    } else {
      queue_for_log(rule);
    }
  }
  return Status::OK();
}

template <typename Fn>
auto Database::Governed(Fn fn) {
  ResourceBudget budget(options_.engine.limits);
  auto result = fn(&budget);
  CountBudgetRejection(options_.engine.obs.metrics, budget);
  return result;
}

Status Database::Materialize() {
  return Governed([&](ResourceBudget* budget) {
    WriteLock lock(*this);
    return MaterializeLocked(budget);
  });
}

Status Database::MaterializeLocked(ResourceBudget* budget) {
  if (degraded()) return DegradedError();
  FlightSpan mat_span(options_.engine.obs.flight, "db.materialize",
                      "database");
  Engine engine(&store_, options_.engine);
  PATHLOG_RETURN_IF_ERROR(engine.AddRules(rules_));
  Status run_status = engine.Run(budget);
  // Stats are preserved even when Run() fails — a kDeadlineExceeded
  // with no elapsed time, stratum, or rule context is undiagnosable.
  last_stats_ = engine.stats();
  if (options_.engine.trace_provenance) {
    const std::vector<DerivationRecord>& records = engine.provenance();
    provenance_.insert(provenance_.end(), records.begin(), records.end());
  }
  UpdateStoreGauges();
  PATHLOG_RETURN_IF_ERROR(run_status);
  dirty_ = false;
  if (options_.type_check_after_materialize && !signatures_.empty()) {
    TypeChecker checker(store_, signatures_);
    std::vector<TypeViolation> violations;
    checker.CheckSince(type_check_watermark_, &violations);
    type_check_watermark_ = store_.generation();
    if (!violations.empty()) {
      return TypeError(StrCat(violations[0].message,
                              violations.size() > 1
                                  ? StrCat(" (and ", violations.size() - 1,
                                           " more violations)")
                                  : ""));
    }
  }
  return FinishMutation(Status::OK());
}

Result<ResultSet> Database::Query(std::string_view query_text) {
  return Read<ResultSet>(query_text);
}

Result<std::vector<Oid>> Database::Eval(std::string_view ref_text) {
  return Read<std::vector<Oid>>(ref_text);
}

Result<bool> Database::Holds(std::string_view ref_text) {
  return Read<bool>(ref_text);
}

template <typename Answer>
Result<Answer> Database::Read(std::string_view text) {
  constexpr bool kConjunctive = std::is_same_v<Answer, ResultSet>;
  const bool logged = options_.engine.obs.query_log != nullptr;
  QueryLogRecord rec;
  rec.kind = kReadKind<Answer>;
  rec.strategy = StrategyName(options_.engine.strategy);
  if (logged) rec.query = std::string(text);
  // The call's one window, armed here: its limits cover the lazy
  // materialisation as well as the enumeration, and a rejection
  // anywhere inside reaches the record (and so the flight-recorder
  // incident dump).
  ResourceBudget budget(options_.engine.limits);
  FlightRecorder* flight = options_.engine.obs.flight;
  const uint64_t flight_start_us = flight != nullptr ? flight->NowUs() : 0;
  const auto t0 = std::chrono::steady_clock::now();
  Result<Answer> answer = [&]() -> Result<Answer> {
    Result<struct Query> query = ParseRead(text, kConjunctive);
    if (!query.ok()) return query.status();
    if (kConjunctive && logged) rec.query = ToString(*query);
    {
      // Read-only fast path: nothing to materialise, intern or commit,
      // so evaluation runs under a shared hold of the snapshot guard,
      // concurrently with other readers. Compiling resolves every name
      // the read mentions, so it also tells whether one needs interning.
      ReadLock lock(*this);
      if (ReadOnlyReadyLocked()) {
        const SemanticStructure I(store_);
        SiteProgram program = CompileSites(query->body, I);
        if (program.names_interned) {
          return ReadLocked<Answer>(I, &program, &budget, &rec);
        }
      }
    }
    WriteLock lock(*this);
    PATHLOG_RETURN_IF_ERROR(PrepareReadLocked(*query, &budget));
    const SemanticStructure I(store_);
    SiteProgram program = CompileSites(query->body, I);
    return ReadLocked<Answer>(I, &program, &budget, &rec);
  }();
  rec.latency_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  rec.budget_wall_ms = rec.latency_ms;
  rec.budget_rejected = budget.rejected();
  rec.budget_derivations = budget.derivations();
  CountBudgetRejection(options_.engine.obs.metrics, budget);
  if (!answer.ok()) {
    // The core may never have run (parse, well-formedness or plan
    // error): sample the store size for the record under a shared hold.
    ReadLock lock(*this);
    rec.budget_store_bytes = store_.ApproxBytes();
    rec.status = StatusCodeName(answer.status().code());
  } else if constexpr (std::is_same_v<Answer, bool>) {
    rec.rows = *answer ? 1 : 0;
  } else {
    rec.rows = answer->size();
  }
  RecordQueryObs(std::move(rec), flight_start_us);
  return answer;
}

Status Database::PrepareReadLocked(const struct Query& query,
                                   ResourceBudget* budget) {
  // Degraded read-only mode keeps answering from the last consistent
  // state: no re-materialisation (it would grow the store past what
  // the broken log can persist) and no WAL commit.
  if (dirty_ && !degraded()) {
    PATHLOG_RETURN_IF_ERROR(MaterializeLocked(budget));
  }
  for (const Literal& lit : query.body) InternNames(*lit.ref);
  // Reads intern names; recovery replays oids densely, so even
  // fact-free universe growth must reach the log. (A degraded database
  // skips the commit — the checkpoint that recovers it snapshots the
  // whole store, interns included.)
  if (degraded()) return Status::OK();
  return CommitDurable();
}

template <typename Answer>
Result<Answer> Database::ReadLocked(const SemanticStructure& I,
                                    SiteProgram* program,
                                    ResourceBudget* budget,
                                    QueryLogRecord* rec) {
  constexpr bool kConjunctive = std::is_same_v<Answer, ResultSet>;
  // Sampled under the lock: the store cannot change while we hold it.
  rec->budget_store_bytes = store_.ApproxBytes();
  // Per-site estimates and actuals are a query's profile.
  Profiler* profiler = kConjunctive ? options_.engine.obs.profiler : nullptr;
  SitePlanOptions plan_options;
  plan_options.price_every_site = profiler != nullptr;
  PATHLOG_RETURN_IF_ERROR(PlanSites(program, store_, plan_options));
  if (options_.engine.obs.query_log != nullptr) {
    rec->plan_fingerprint = PlanFingerprint(*program);
  }
  Answer answer{};
  // A row reads the query's variables, in name order, from their slots.
  std::vector<uint32_t> row_slots;
  if constexpr (kConjunctive) {
    std::vector<std::string> vars;
    for (const auto& [name, slot] : program->vars) {
      vars.emplace_back(name);
      row_slots.push_back(slot);
    }
    answer = ResultSet(std::move(vars));
  }
  // The terminal sink, the only step that differs by kind.
  const uint32_t denoted = program->denoted;
  auto sink = [&](const Oid* slots) -> Result<bool> {
    if constexpr (kConjunctive) {
      std::vector<Oid> row(row_slots.size());
      for (size_t i = 0; i < row.size(); ++i) row[i] = slots[row_slots[i]];
      answer.AddRow(std::move(row));
      return true;
    } else if constexpr (std::is_same_v<Answer, bool>) {
      answer = true;
      return false;  // stop at the first witness
    } else {
      answer.push_back(slots[denoted]);
      return true;
    }
  };
  SiteCounters counters;
  counters.per_site = profiler != nullptr;
  Result<bool> r = RunSites(*program, I, budget, &counters, sink);
  rec->route_receiver_probes = counters.receiver_probes;
  rec->route_inverted_probes = counters.inverted_probes;
  rec->route_extent_scans = counters.extent_scans;
  rec->route_universe_scans = counters.universe_scans;
  if (!r.ok()) return r.status();

  if constexpr (kConjunctive) {
    const size_t produced = answer.size();
    answer.Dedup();
    rec->route_duplicates_suppressed = produced - answer.size();
  } else if constexpr (!std::is_same_v<Answer, bool>) {
    const size_t produced = answer.size();
    std::sort(answer.begin(), answer.end());
    answer.erase(std::unique(answer.begin(), answer.end()), answer.end());
    rec->route_duplicates_suppressed = produced - answer.size();
  }
  if (profiler != nullptr) {
    for (size_t i = 0; i < program->sites.size(); ++i) {
      const Site& site = program->sites[i];
      if (site.kind == SiteKind::kNegation) continue;
      profiler->RecordDriverLiteral(program->SiteText(site), site.estimate,
                                    counters.produced[i],
                                    counters.entered[i]);
    }
  }
  return answer;
}

Result<std::string> Database::ExplainQuery(std::string_view query_text) {
  Result<struct Query> q = ParseRead(query_text, /*conjunctive=*/true);
  if (!q.ok()) return q.status();
  return Governed([&](ResourceBudget* budget) -> Result<std::string> {
    WriteLock lock(*this);
    PATHLOG_RETURN_IF_ERROR(PrepareReadLocked(*q, budget));
    const SemanticStructure I(store_);
    SiteProgram program = CompileSites(q->body, I);
    PATHLOG_RETURN_IF_ERROR(PlanSites(&program, store_));
    std::string out = "plan:\n";
    for (size_t i = 0; i < program.sites.size(); ++i) {
      const Site& site = program.sites[i];
      out += StrCat("  ", i + 1, ". ", program.SiteText(site), "   (",
                    SiteRouteName(site.route), ", estimated rows ",
                    site.estimate, ")\n");
    }
    out += "planner statistics: skew-aware (top-k heavy-hitter buckets, "
           "residual-average floor)\n";
    // The same fingerprint the query log records, so a slow record's
    // plan can be looked up by hash.
    out += StrCat("plan fingerprint: ", PlanFingerprint(program), "\n");
    return out;
  });
}

Status Database::TypeCheck(std::vector<TypeViolation>* violations) const {
  ReadLock lock(*this);
  TypeChecker checker(store_, signatures_);
  checker.CheckAll(violations);
  return Status::OK();
}

LintReport Database::Lint() const {
  ReadLock lock(*this);
  Program program;
  program.rules = rules_;
  program.triggers = triggers_;
  // Facts were asserted at load time rather than kept as Rule objects,
  // and signatures live in the SignatureTable; recover the declaration
  // forms from the loadable signature text.
  if (!signature_text_.empty()) {
    Result<Program> sigs = ParseProgram(signature_text_);
    if (sigs.ok()) program.signatures = std::move(sigs->signatures);
  }
  LintOptions lint_options;
  lint_options.head_value_mode = options_.engine.head_value_mode;
  lint_options.analyze = true;
  CollectStoreSeeds(store_, &lint_options.assume_defined,
                    &lint_options.extensional_sorts);
  return ProgramLinter(std::move(lint_options)).Lint(program);
}

Status Database::FireTriggers() {
  return Governed([&](ResourceBudget* budget) {
    WriteLock lock(*this);
    return FireTriggersLocked(budget);
  });
}

Status Database::FireTriggersLocked(ResourceBudget* budget) {
  if (degraded()) return DegradedError();
  Engine engine(&store_, options_.engine);
  for (const TriggerRule& t : triggers_) {
    PATHLOG_RETURN_IF_ERROR(engine.AddTrigger(t));
  }
  Status st = engine.Fire(budget, &trigger_watermark_);
  trigger_stats_.rounds += engine.trigger_stats().rounds;
  trigger_stats_.firings += engine.trigger_stats().firings;
  trigger_stats_.facts_added += engine.trigger_stats().facts_added;
  const std::vector<DerivationRecord>& records = engine.provenance();
  provenance_.insert(provenance_.end(), records.begin(), records.end());
  return FinishMutation(st);
}

Result<std::string> Database::SaveSnapshotBytes() const {
  std::string program;
  {
    Program prog;
    prog.rules = rules_;
    prog.triggers = triggers_;
    program = ToString(prog);
  }
  // One buffer at its final size: the store image is serialised in
  // place and both checksums are patched in once what they cover is
  // written.
  const size_t store_size = SnapshotSize(store_);
  std::string out;
  out.reserve(kDbMagicLen + 4 + 8 + store_size + 8 + program.size() + 8 +
              signature_text_.size() + 8 + 1);
  out.append(kDbMagic, kDbMagicLen);
  PutU32(&out, 0);  // crc32(body), patched below
  const size_t store_at = out.size();
  PutU64(&out, 0);  // the store image's length, patched below
  PATHLOG_RETURN_IF_ERROR(AppendSnapshot(store_, &out));
  PatchU64(&out, store_at, out.size() - store_at - 8);
  PutU64(&out, program.size());
  out.append(program);
  PutU64(&out, signature_text_.size());
  out.append(signature_text_);
  PutU64(&out, trigger_watermark_);
  PutU8(&out, dirty_ ? 0 : 1);  // 1: the store is at the rules' fixpoint
  PatchU32(&out, kDbMagicLen,
           Crc32(std::string_view(out).substr(kDbMagicLen + 4)));
  return out;
}

Status Database::SaveSnapshotFile(const std::string& path) const {
  Result<std::string> bytes = [&]() -> Result<std::string> {
    ReadLock lock(*this);
    return SaveSnapshotBytes();
  }();
  if (!bytes.ok()) return bytes.status();
  return WriteFileAtomic(DefaultFileOps(), path, *bytes);
}

Result<Database> Database::LoadSnapshotBytes(const std::string& bytes,
                                             DatabaseOptions options,
                                             const std::string& origin) {
  std::string_view body(bytes);
  auto has_magic = [&bytes](const char* magic) {
    return bytes.size() >= kDbMagicLen &&
           std::memcmp(bytes.data(), magic, kDbMagicLen) == 0;
  };
  const bool with_flag = has_magic(kDbMagic);
  if (with_flag || has_magic(kDbMagicV2)) {
    ByteReader header(body.substr(kDbMagicLen));
    const uint32_t crc = header.U32();
    if (!header.Ok()) {
      return Status(InvalidArgument(
          StrCat(origin, ": corrupt database snapshot (truncated header)")));
    }
    body = body.substr(kDbMagicLen + 4);
    if (Crc32(body) != crc) {
      return Status(InvalidArgument(StrCat(
          origin, ": corrupt database snapshot (body checksum mismatch)")));
    }
  }
  // Legacy files carry the same body with no magic and no checksum.
  // The blobs are read in place: they are views into `bytes`.
  ByteReader r(body);
  auto get_blob = [&r](std::string_view* blob) {
    const uint64_t len = r.U64();
    if (!r.Ok() || len > r.remaining()) return false;
    *blob = r.Bytes(len);
    return r.Ok();
  };
  std::string_view store_bytes, rules_text, sig_text;
  bool blobs_ok =
      get_blob(&store_bytes) && get_blob(&rules_text) && get_blob(&sig_text);
  const uint64_t trigger_watermark = blobs_ok ? r.U64() : 0;
  // A file without the flag cannot say its store is at the fixpoint.
  const uint8_t materialised = with_flag ? r.U8() : 0;
  if (!blobs_ok || !r.Ok() || r.remaining() != 0 || materialised > 1) {
    return Status(
        InvalidArgument(StrCat(origin, ": corrupt database snapshot")));
  }

  Database db(options);
  Result<ObjectStore> store = DeserializeSnapshot(store_bytes);
  if (!store.ok()) return store.status();
  db.store_ = std::move(*store);
  // The deserialized store replaced the constructor's, so re-attach.
  db.store_.set_metrics(options.engine.obs.metrics);
  PATHLOG_RETURN_IF_ERROR(db.Load(sig_text));
  PATHLOG_RETURN_IF_ERROR(db.Load(rules_text));
  db.trigger_watermark_ =
      std::min(trigger_watermark, db.store_.generation());
  // The flag is the file's, not the side effect of the Loads above.
  db.dirty_ = materialised == 0;
  return db;
}

Result<Database> Database::LoadSnapshotFile(const std::string& path,
                                            DatabaseOptions options) {
  Result<std::string> bytes = DefaultFileOps()->ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return LoadSnapshotBytes(*bytes, options, path);
}

Result<Database> Database::Open(const std::string& dir,
                                DatabaseOptions options, FileOps* fops) {
  if (fops == nullptr) fops = DefaultFileOps();
  PATHLOG_RETURN_IF_ERROR(fops->CreateDir(dir));

  Database db(options);
  // Members are set after this assignment: the snapshot loader builds a
  // plain in-memory database and the assignment wipes durability state.
  const std::string snapshot_path = dir + "/snapshot.plgdb";
  const bool have_snapshot = fops->Exists(snapshot_path);
  if (have_snapshot) {
    Result<std::string> bytes = fops->ReadFile(snapshot_path);
    if (!bytes.ok()) return bytes.status();
    Result<Database> loaded = LoadSnapshotBytes(*bytes, options, snapshot_path);
    if (!loaded.ok()) return loaded.status();
    db = std::move(*loaded);
  }

  // An atomic write interrupted before its rename leaves a temp file;
  // it was never part of the committed state. Sweep every stale one,
  // whatever write produced it.
  if (Result<std::vector<std::string>> entries = fops->ListDir(dir);
      entries.ok()) {
    for (const std::string& name : *entries) {
      if (name.size() > 4 &&
          name.compare(name.size() - 4, 4, ".tmp") == 0) {
        (void)fops->Remove(dir + "/" + name);
      }
    }
  }

  // The log hands each record to `replay` as its scan decodes it; none
  // is kept. The database is not durable yet, so replayed program text
  // queues nothing for the log. The materialisation flag recovers from
  // the snapshot's flag and the log's marks, in log order, and from
  // nothing else: replaying program text dirties the database as a side
  // effect. Without a snapshot, a log with records starts dirty: one
  // written before the marks existed has none, and every later log
  // marks its first Load.
  const bool snapshot_dirty = db.dirty_;
  bool dirty = snapshot_dirty;
  bool replayed_any = false;
  auto footprint = [&db] {
    return std::array<uint64_t, 4>{db.store_.UniverseSize(),
                                   db.store_.generation(), db.rules_.size(),
                                   db.triggers_.size()};
  };
  const std::array<uint64_t, 4> snapshot_footprint = footprint();
  auto replay = [&](WalRecord& rec) NO_THREAD_SAFETY_ANALYSIS -> Status {
    // Single-threaded construction, as in the rest of Open.
    if (!have_snapshot && !replayed_any) dirty = true;
    replayed_any = true;
    switch (rec.type) {
      case WalRecordType::kIntern:
      case WalRecordType::kFact:
        return ApplyWalRecordToStore(rec, &db.store_);
      case WalRecordType::kProgram:
        return db.ReplayProgramText(rec.text);
      case WalRecordType::kTriggerWatermark:
        db.trigger_watermark_ = rec.watermark;
        return Status::OK();
      case WalRecordType::kMaterialisation:
        dirty = !rec.materialised;
        return Status::OK();
    }
    return Status::OK();
  };
  Result<std::unique_ptr<DurableLog>> log = DurableLog::Open(
      fops, dir + "/wal.plgwal", options.durability, replay);
  if (!log.ok()) return log.status();
  // A log that added nothing to the snapshot recovers exactly the
  // snapshot's state, and the snapshot's flag is the one for that
  // state. Its marks may predate the snapshot: a crash between a
  // checkpoint's rename and its log reset keeps the old log, and a
  // checkpoint that heals degraded mode snapshots a dirty state the
  // broken log never marked.
  if (have_snapshot && footprint() == snapshot_footprint) {
    dirty = snapshot_dirty;
  }
  db.dirty_ = dirty;
  db.trigger_watermark_ =
      std::min(db.trigger_watermark_, db.store_.generation());
  db.log_ = std::move(*log);
  db.log_->set_obs(options.engine.obs.metrics, options.engine.obs.flight);
  db.fops_ = fops;
  db.durable_dir_ = dir;
  db.MarkLoggedLocked();
  return db;
}

Status Database::WriteBatchLocked(DurableLog::Batch* batch) {
  // Interns first so replay never meets a fact or rule referencing an
  // object it has not seen; facts before the watermark so a recovered
  // watermark never exceeds the recovered generation. A batch that
  // dirties the database opens with a stale mark, and one that cleans
  // it closes with a materialised mark. A batch torn by a crash then
  // recovers "dirty", or the previous flag if none of its records
  // survived; "clean" takes the whole cleaning batch.
  const bool flag_moved = dirty_ != logged_.dirty;
  if (flag_moved && dirty_) {
    PATHLOG_RETURN_IF_ERROR(batch->Append(EncodeWalMaterialisation(false)));
  }
  for (Oid o = static_cast<Oid>(logged_.objects); o < store_.UniverseSize();
       ++o) {
    const ObjectKind kind = store_.kind(o);
    const int64_t int_value =
        kind == ObjectKind::kInt ? store_.IntValue(o) : 0;
    std::string name;
    if (kind != ObjectKind::kInt) {
      name = store_.DisplayName(o);
      if (kind == ObjectKind::kString) {
        // Strings display quoted; log the raw value.
        name = name.substr(1, name.size() - 2);
      }
    }
    PATHLOG_RETURN_IF_ERROR(
        batch->Append(EncodeWalIntern(o, kind, int_value, name)));
  }
  if (!pending_program_text_.empty()) {
    PATHLOG_RETURN_IF_ERROR(
        batch->Append(EncodeWalProgram(pending_program_text_)));
  }
  for (uint64_t g = logged_.facts; g < store_.generation(); ++g) {
    PATHLOG_RETURN_IF_ERROR(batch->Append(EncodeWalFact(g, store_.FactAt(g))));
  }
  if (trigger_watermark_ != logged_.trigger_watermark) {
    PATHLOG_RETURN_IF_ERROR(
        batch->Append(EncodeWalTriggerWatermark(trigger_watermark_)));
  }
  if (flag_moved && !dirty_) {
    PATHLOG_RETURN_IF_ERROR(batch->Append(EncodeWalMaterialisation(true)));
  }
  return Status::OK();
}

void Database::MarkLoggedLocked() {
  logged_ = PositionLocked();
  pending_program_text_.clear();
}

Status Database::DegradedError() const {
  return Unavailable(StrCat(
      "database is in degraded read-only mode (", log_->error().message(),
      "); queries serve the last consistent state, mutations are "
      "rejected until a checkpoint succeeds"));
}

void Database::MirrorLogLatchLocked() {
  const bool broken = !log_->error().ok();
  // Publish to unlocked readers of degraded() — the health callback
  // runs on the stats server's accept thread.
  degraded_.store(broken, std::memory_order_release);
  if (MetricsRegistry* m = options_.engine.obs.metrics; m != nullptr) {
    if (Gauge* g = m->GetGauge("pathlog_db_degraded",
                               "1 while serving degraded read-only")) {
      g->Set(broken ? 1 : 0);
    }
  }
}

Status Database::EnterDegradedMode() {
  if (degraded()) return DegradedError();
  MirrorLogLatchLocked();
  ++degraded_entries_;
  BumpCounter(options_.engine.obs.metrics,
              "pathlog_db_degraded_entries_total",
              "entries into degraded read-only mode");
  // Record the entry first so the incident dump below includes it.
  if (FlightRecorder* flight = options_.engine.obs.flight;
      flight != nullptr) {
    std::string args = "{\"cause\":";
    AppendJsonString(&args, log_->error().ToString());
    args += "}";
    flight->Record("db.degraded", "database", /*dur_us=*/0, args);
  }
  MaybeDumpFlightRecorder("degraded_mode");
  return DegradedError();
}

Status Database::CommitDurable() {
  if (degraded()) return DegradedError();
  if (NothingPendingLocked()) return Status::OK();
  Status st = log_->Commit(
      [this](DurableLog::Batch& batch) NO_THREAD_SAFETY_ANALYSIS {
        // Runs inside Commit, under this call's exclusive hold.
        return WriteBatchLocked(&batch);
      });
  if (!st.ok()) return EnterDegradedMode();
  MarkLoggedLocked();

  const DurabilityOptions& dur = options_.durability;
  const bool rotate =
      dur.rotate_wal_bytes > 0 && log_->good_bytes() >= dur.rotate_wal_bytes;
  if (rotate) {
    ++wal_rotations_;
    BumpCounter(options_.engine.obs.metrics, "pathlog_wal_rotations_total",
                "WAL segment rotations (size-triggered checkpoints)");
  }
  if (rotate ||
      (dur.checkpoint_every > 0 && log_->records() >= dur.checkpoint_every)) {
    return CheckpointLocked();
  }
  return Status::OK();
}

Status Database::FinishMutation(Status st) {
  UpdateStoreGauges();
  Status commit = CommitDurable();  // a no-op unless durable
  // The mutation's own error wins, but the commit still ran: whatever
  // the store gained before the failure is on disk either way.
  return st.ok() ? commit : st;
}

Status Database::Checkpoint() {
  WriteLock lock(*this);
  return CheckpointLocked();
}

Status Database::CheckpointLocked() {
  if (fops_ == nullptr) {
    return InvalidArgument(
        "Checkpoint() is only meaningful for a database from "
        "Database::Open");
  }
  FlightSpan span(options_.engine.obs.flight, "wal.checkpoint", "wal");
  BumpCounter(options_.engine.obs.metrics, "pathlog_checkpoints_total",
              "snapshot+WAL-reset checkpoints");
  Result<std::string> bytes = SaveSnapshotBytes();
  if (!bytes.ok()) return bytes.status();
  PATHLOG_RETURN_IF_ERROR(WriteFileAtomic(fops_, SnapshotPath(), *bytes));
  // A crash between the rename above and the reset below leaves a WAL
  // overlapping the snapshot; replay is idempotent, so that window is
  // safe. A reset that fails breaks the log: the old log may still be
  // in place, or no file be open, so nothing more can be logged until
  // a checkpoint resets it.
  if (!log_->Reset().ok()) return EnterDegradedMode();
  MarkLoggedLocked();  // the snapshot carries everything, the flag too
  // A successful checkpoint is the recovery probe: the snapshot holds
  // everything the broken WAL could not persist, so read-write service
  // resumes on a fresh log.
  MirrorLogLatchLocked();
  return Status::OK();
}

DatabaseHealth Database::Health() const {
  ReadLock lock(*this);
  DatabaseHealth h;
  h.durable = durable();
  h.degraded = degraded();
  if (h.degraded) h.degraded_cause = log_->error().message();
  h.degraded_entries = degraded_entries_;
  h.wal_rotations = wal_rotations_;
  if (log_) {
    h.wal_retries = log_->retries();
    h.wal_records = log_->records();
    h.wal_bytes = log_->good_bytes();
  }
  h.store_bytes = store_.ApproxBytes();
  h.objects = store_.UniverseSize();
  h.facts = store_.generation();
  return h;
}

Status Database::ReplayProgramText(std::string_view text) {
  // A crash between checkpoint and WAL reset leaves program records
  // that overlap the snapshot; skip anything already installed.
  std::set<std::string> have;
  for (const Rule& rule : rules_) have.insert(ToString(rule));
  for (const TriggerRule& trigger : triggers_) have.insert(ToString(trigger));
  ClauseReader declared(signature_text_);
  Program clause;
  while (declared.Next(&clause).value_or(false)) {
    for (const SignatureDecl& sig : clause.signatures) {
      have.insert(ToString(sig));
    }
    clause.signatures.clear();
  }
  return LoadLocked(text, &have);
}

const DerivationRecord* Database::DerivationOfLocked(uint64_t gen) const {
  // Records are ordered by first_gen; find the covering one.
  auto it = std::upper_bound(
      provenance_.begin(), provenance_.end(), gen,
      [](uint64_t g, const DerivationRecord& r) { return g < r.first_gen; });
  if (it == provenance_.begin()) return nullptr;
  const DerivationRecord& r = *std::prev(it);
  const size_t clauses = r.trigger ? triggers_.size() : rules_.size();
  return gen < r.end_gen && r.rule_index < clauses ? &r : nullptr;
}

std::string Database::ExplainFact(uint64_t gen) const {
  ReadLock lock(*this);
  if (gen >= store_.generation()) {
    return "no such fact.";
  }
  std::string out = FactToString(store_.FactAt(gen), store_);
  const DerivationRecord* r = DerivationOfLocked(gen);
  if (r == nullptr) return out + "\n  extensional (asserted directly).";
  out += r->trigger ? StrCat("\n  asserted by trigger: ",
                             ToString(triggers_[r->rule_index]))
                    : StrCat("\n  derived by rule: ",
                             ToString(rules_[r->rule_index]));
  if (!r->bindings.empty()) {
    out += "\n  with";
    for (const auto& [var, oid] : r->bindings) {
      out += StrCat(" ", var, "=", store_.DisplayName(oid));
    }
  }
  return out;
}

Result<std::string> Database::ExplainFactJson(uint64_t gen) const {
  ReadLock lock(*this);
  if (gen >= store_.generation()) {
    return Status(NotFound(StrCat("no fact with generation ", gen)));
  }
  std::string out = StrCat("{\"gen\":", gen, ",\"fact\":");
  AppendJsonString(&out, FactToString(store_.FactAt(gen), store_));
  const DerivationRecord* r = DerivationOfLocked(gen);
  if (r == nullptr) return out + ",\"kind\":\"extensional\"}";
  if (r->trigger) {
    out += ",\"kind\":\"triggered\",\"trigger\":";
    AppendJsonString(&out, ToString(triggers_[r->rule_index]));
    out += ",\"trigger_index\":";
  } else {
    out += ",\"kind\":\"derived\",\"rule\":";
    AppendJsonString(&out, ToString(rules_[r->rule_index]));
    out += ",\"rule_index\":";
  }
  out += StrCat(r->rule_index, ",\"bindings\":{");
  bool first = true;
  for (const auto& [var, oid] : r->bindings) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, var);
    out += ":";
    AppendJsonString(&out, store_.DisplayName(oid));
  }
  return out + "}}";
}

}  // namespace pathlog
