// pathlog: an interactive PathLog shell.
//
//   $ ./pathlog [--durable <dir>] [--trace-out=F] [--metrics-out=F]
//               [--stats-port=N] [--query-log=F] [file.plg ...]
//
// Loads the given program files, then reads clauses and queries from
// stdin. Input is buffered until a clause-terminating '.' (so clauses
// may span lines). Lines starting with '\' are shell commands — see
// \help.
//
// With --durable, the session is crash-safe: state recovers from
// <dir> on startup and every accepted clause is written ahead to
// <dir>/wal.plgwal before "ok." is printed.
//
// Observability: every session records metrics, a bounded ring of the
// most recent spans (the flight recorder, rendered as chrome://tracing
// JSON), and a per-query structured log. \metrics, \trace and
// \querylog expose them interactively; --metrics-out / --trace-out /
// --query-log write them to files; --stats-port=N (or \stats_server)
// serves them over HTTP on 127.0.0.1 (N=0 picks an ephemeral port).
// \trace, --trace-out and /tracez all read the same ring.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pathlog/pathlog.h"
#include "store/fact.h"
#include "store/file_ops.h"

namespace {

/// Events the session's span ring keeps: a few thousand reads with
/// their materialisations, under a megabyte.
constexpr size_t kSessionTraceCapacity = 4096;

constexpr const char* kHelp = R"(PathLog shell commands:
  fact or rule clauses end with '.', e.g.   mary[age->30].
  queries start with '?-':                  ?- X:employee[age->A].
  \help             this message
  \stats            store and engine statistics
  \metrics [file]   session metrics (Prometheus text; with file: JSON)
  \profile on|off   toggle the query/rule profiler; \profile to report
  \trace [file]     the session's bounded span ring: recorded, kept
                    and dropped counts and the newest events; with
                    file: write it as Chrome trace JSON
  \facts [n]        show the first n facts (default 20)
  \rules            show the loaded rules
  \explain <gen>    provenance of the fact with generation <gen>
  \explain ?- ...   the query's plan: one line per fact-access site
                    in run order, with its route and estimated rows
  \lint [file]      lint the loaded program, or a .plg file, with the
                    semantic analyses (PL014-PL019) enabled (:lint works too)
  \dump <file>      write all facts as a loadable program
  \save <file>      save a binary snapshot (facts, rules, signatures)
  \restore <file>   replace the session with a saved snapshot
  \checkpoint       durable sessions: snapshot now and reset the WAL
  \health           durability/degraded-mode health: WAL retries,
                    rotations, degraded state and cause, store size
  \why [--json] <gen>  provenance of a fact (--json: one JSON object)
  \querylog [n]     the last n structured query-log records (JSONL)
  \stats_server [port]  start the HTTP diagnostics server on
                    127.0.0.1 (default/0: ephemeral port); endpoints:
                    /metrics /varz /healthz /statusz /tracez /querylogz
  \quit             exit
)";

/// Session-lifetime observability sinks. One bundle per process: the
/// Database only borrows these, and \restore / --durable replace the
/// Database mid-session.
struct SessionObs {
  pathlog::MetricsRegistry metrics;
  pathlog::Profiler profiler;
  pathlog::FlightRecorder flight{kSessionTraceCapacity};
  /// Created at startup (in-memory only unless --query-log names a
  /// file), so /querylogz and \querylog always have recent records.
  std::unique_ptr<pathlog::QueryLog> query_log;
  /// Serialises the session's Database against the stats server's
  /// health/statusz callbacks, which run on the server thread. Lives
  /// here (not in Shell) so Shell stays move-assignable.
  std::mutex mu;
};

SessionObs& Obs() {
  static SessionObs obs;
  return obs;
}

class Shell {
 public:
  Shell() : db_(MakeOptions()) { AttachObs(); }
  explicit Shell(pathlog::Database db) : db_(std::move(db)) { AttachObs(); }

  static pathlog::DatabaseOptions MakeOptions() {
    pathlog::DatabaseOptions opts;
    opts.engine.trace_provenance = true;
    return opts;
  }

  /// (Re)attaches the session sinks; called after every Database
  /// replacement (\restore, durable open) so metrics/traces span the
  /// whole session. The profiler participates only while \profile on.
  void AttachObs() {
    pathlog::ObsSinks sinks;
    sinks.metrics = &Obs().metrics;
    sinks.profiler = profile_on_ ? &Obs().profiler : nullptr;
    sinks.flight = &Obs().flight;
    sinks.query_log = Obs().query_log.get();
    db_.SetObsSinks(sinks);
  }

  /// Starts the HTTP diagnostics server (port 0 = ephemeral) and
  /// prints the bound address. The health and statusz callbacks read
  /// the session Database under Obs().mu — the same mutex Handle()
  /// holds — so they are safe on the server thread.
  pathlog::Status StartStatsServer(uint16_t port) {
    if (stats_server_ != nullptr && stats_server_->running()) {
      printf("stats server already listening on 127.0.0.1:%u\n",
             stats_server_->port());
      return pathlog::Status::OK();
    }
    pathlog::StatsServerOptions opts;
    opts.port = port;
    opts.metrics = &Obs().metrics;
    opts.profiler = &Obs().profiler;
    opts.flight = &Obs().flight;
    opts.query_log = Obs().query_log.get();
    opts.health = [this]() {
      std::lock_guard<std::mutex> lock(Obs().mu);
      pathlog::DatabaseHealth h = db_.Health();
      pathlog::ServingHealth out;
      out.ok = !h.degraded;
      out.detail = h.degraded_cause;
      return out;
    };
    opts.statusz_info = [this]() {
      std::lock_guard<std::mutex> lock(Obs().mu);
      pathlog::DatabaseHealth h = db_.Health();
      std::ostringstream os;
      os << "durable:          " << (h.durable ? "yes" : "no") << "\n"
         << "degraded:         " << (h.degraded ? "yes" : "no") << "\n"
         << "store_generation: " << h.facts << "\n"
         << "objects:          " << h.objects << "\n"
         << "store_bytes:      " << h.store_bytes << "\n"
         << "rules:            " << db_.num_rules() << "\n";
      return os.str();
    };
    stats_server_ = std::make_unique<pathlog::StatsServer>(std::move(opts));
    pathlog::Status st = stats_server_->Start();
    if (st.ok()) {
      printf("stats server listening on 127.0.0.1:%u\n",
             stats_server_->port());
      fflush(stdout);
    }
    return st;
  }

  bool LoadFile(const std::string& path) {
    std::lock_guard<std::mutex> lock(Obs().mu);
    std::ifstream in(path);
    if (!in) {
      fprintf(stderr, "cannot open %s\n", path.c_str());
      return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    pathlog::Status st = db_.Load(buffer.str());
    if (!st.ok()) {
      fprintf(stderr, "%s: %s\n", path.c_str(), st.ToString().c_str());
      return false;
    }
    printf("loaded %s (%zu facts, %zu rules so far)\n", path.c_str(),
           db_.store().FactCount(), db_.num_rules());
    return true;
  }

  void Handle(const std::string& input) {
    // One session mutex around every interaction: the stats server's
    // health/statusz callbacks read db_ from the server thread.
    std::lock_guard<std::mutex> lock(Obs().mu);
    if (input.empty()) return;
    if (input[0] == '\\') {
      Command(input);
      return;
    }
    if (input.rfind(":lint", 0) == 0) {
      Command("\\lint" + input.substr(5));
      return;
    }
    if (input.rfind("?-", 0) == 0) {
      pathlog::Result<pathlog::ResultSet> rs = db_.Query(input);
      if (!rs.ok()) {
        printf("%s\n", rs.status().ToString().c_str());
        return;
      }
      printf("%s", rs->ToString(db_.store()).c_str());
      printf("(%zu answer%s)\n", rs->size(), rs->size() == 1 ? "" : "s");
      return;
    }
    pathlog::Status st = db_.Load(input);
    if (!st.ok()) {
      printf("%s\n", st.ToString().c_str());
      return;
    }
    printf("ok.\n");
  }

  void Command(const std::string& input) {
    std::istringstream iss(input);
    std::string cmd;
    iss >> cmd;
    if (cmd == "\\help") {
      printf("%s", kHelp);
    } else if (cmd == "\\stats") {
      if (db_.num_rules() > 0) {
        pathlog::Status st = db_.Materialize();
        if (!st.ok()) {
          printf("%s\n", st.ToString().c_str());
          return;
        }
      }
      pathlog::ObjectStore::Stats s = db_.store().ComputeStats();
      printf("objects: %zu\nisa facts: %zu\nscalar facts: %zu\n"
             "set facts: %zu\nrules: %zu\n",
             s.objects, s.isa_facts, s.scalar_facts, s.set_facts,
             db_.num_rules());
      const pathlog::EngineStats& es = db_.engine_stats();
      printf("last run: %llu iterations, %llu derivations, "
             "%llu virtual objects, %d strata, %.3f ms\n",
             static_cast<unsigned long long>(es.iterations),
             static_cast<unsigned long long>(es.derivations),
             static_cast<unsigned long long>(es.skolems_created),
             es.num_strata, es.elapsed_ms);
      printf("          %llu rule evaluations, %llu delta passes, "
             "%llu duplicates suppressed\n",
             static_cast<unsigned long long>(es.rule_evaluations),
             static_cast<unsigned long long>(es.delta_passes),
             static_cast<unsigned long long>(es.duplicates_suppressed));
      if (!es.stratum_iterations.empty()) {
        printf("iterations by stratum:");
        for (size_t si = 0; si < es.stratum_iterations.size(); ++si) {
          printf(" [%zu]=%llu", si,
                 static_cast<unsigned long long>(es.stratum_iterations[si]));
        }
        printf("\n");
      }
      if (es.limit_stratum >= 0) {
        printf("limit hit in stratum %d%s%s\n", es.limit_stratum,
               es.limit_rule.empty() ? "" : " while evaluating ",
               es.limit_rule.c_str());
      }
    } else if (cmd == "\\metrics") {
      std::string path;
      if (iss >> path) {
        pathlog::Status st = pathlog::WriteFileAtomic(
            pathlog::DefaultFileOps(), path, Obs().metrics.ToJson());
        if (st.ok()) {
          printf("wrote metrics JSON to %s\n", path.c_str());
        } else {
          printf("%s\n", st.ToString().c_str());
        }
      } else {
        printf("%s", Obs().metrics.ToPrometheusText().c_str());
        // Interpolated quantiles as comment lines: the parser ignores
        // comments, so the exposition above still round-trips.
        for (const auto& [name, h] : Obs().metrics.HistogramEntries()) {
          if (h->total_count() == 0) continue;
          printf("# quantiles %s p50=%.3f p95=%.3f p99=%.3f\n", name.c_str(),
                 h->Quantile(0.50), h->Quantile(0.95), h->Quantile(0.99));
        }
      }
    } else if (cmd == "\\profile") {
      std::string arg;
      if (iss >> arg) {
        if (arg == "on") {
          profile_on_ = true;
          AttachObs();
          printf("profiling on.\n");
        } else if (arg == "off") {
          profile_on_ = false;
          AttachObs();
          printf("profiling off.\n");
        } else {
          printf("usage: \\profile [on|off]\n");
        }
      } else {
        printf("%s", db_.ProfileReport().c_str());
      }
    } else if (cmd == "\\trace") {
      const pathlog::FlightRecorder& ring = Obs().flight;
      std::string path;
      if (iss >> path) {
        pathlog::Status st = ring.WriteTo(path);
        if (st.ok()) {
          printf("wrote trace to %s\n", path.c_str());
        } else {
          printf("%s\n", st.ToString().c_str());
        }
      } else {
        const uint64_t recorded = ring.recorded();
        const auto events = ring.Snapshot();
        const uint64_t kept = events.size();
        printf("trace ring: %llu recorded, %llu kept, %llu dropped "
               "(capacity %zu)\n",
               static_cast<unsigned long long>(recorded),
               static_cast<unsigned long long>(kept),
               static_cast<unsigned long long>(
                   recorded > kept ? recorded - kept : 0),
               ring.capacity());
        const size_t show = events.size() > 10 ? 10 : events.size();
        for (size_t i = events.size() - show; i < events.size(); ++i) {
          const pathlog::FlightEvent& e = events[i];
          printf("  [%llu] %s (%s) +%llums dur=%lluus\n",
                 static_cast<unsigned long long>(e.seq), e.name.c_str(),
                 e.category.c_str(),
                 static_cast<unsigned long long>(e.ts_us / 1000),
                 static_cast<unsigned long long>(e.dur_us));
        }
      }
    } else if (cmd == "\\facts") {
      size_t n = 20;
      iss >> n;
      const uint64_t end = db_.store().generation();
      for (uint64_t g = 0; g < end && g < n; ++g) {
        printf("%4llu  %s.\n", static_cast<unsigned long long>(g),
               pathlog::FactToString(db_.store().FactAt(g),
                                     db_.store()).c_str());
      }
      if (end > n) {
        printf("... (%llu more)\n", static_cast<unsigned long long>(end - n));
      }
    } else if (cmd == "\\rules") {
      for (size_t i = 0; i < db_.rules().size(); ++i) {
        printf("  [%zu] %s\n", i, pathlog::ToString(db_.rules()[i]).c_str());
      }
      if (db_.rules().empty()) printf("  (no rules loaded)\n");
    } else if (cmd == "\\explain") {
      std::string rest;
      std::getline(iss, rest);
      const size_t start = rest.find_first_not_of(" \t");
      rest = start == std::string::npos ? "" : rest.substr(start);
      if (rest.rfind("?-", 0) == 0) {
        // A query: show the planner's chosen literal order with its
        // cardinality estimates (skew-aware statistics by default)
        // instead of running it.
        pathlog::Result<std::string> plan = db_.ExplainQuery(rest);
        if (plan.ok()) {
          printf("%s", plan->c_str());
        } else {
          printf("%s\n", plan.status().ToString().c_str());
        }
      } else if (!rest.empty() &&
                 rest.find_first_not_of("0123456789") == std::string::npos) {
        printf("%s\n", db_.ExplainFact(std::stoull(rest)).c_str());
      } else {
        printf("usage: \\explain <generation> | \\explain ?- <query>\n");
      }
    } else if (cmd == "\\dump") {
      std::string path;
      if (iss >> path) {
        std::ofstream out(path);
        out << pathlog::StoreToProgramText(db_.store());
        printf("wrote %zu facts to %s\n", db_.store().FactCount(),
               path.c_str());
      } else {
        printf("usage: \\dump <file>\n");
      }
    } else if (cmd == "\\save") {
      std::string path;
      if (iss >> path) {
        pathlog::Status st = db_.SaveSnapshotFile(path);
        printf("%s\n", st.ok() ? "saved." : st.ToString().c_str());
      } else {
        printf("usage: \\save <file>\n");
      }
    } else if (cmd == "\\restore") {
      std::string path;
      if (iss >> path) {
        pathlog::Result<pathlog::Database> restored =
            pathlog::Database::LoadSnapshotFile(path, MakeOptions());
        if (!restored.ok()) {
          printf("%s\n", restored.status().ToString().c_str());
        } else {
          db_ = std::move(*restored);
          AttachObs();
          printf("restored %zu facts, %zu rules.\n",
                 db_.store().FactCount(), db_.num_rules());
        }
      } else {
        printf("usage: \\restore <file>\n");
      }
    } else if (cmd == "\\lint") {
      std::string path;
      if (iss >> path) {
        std::ifstream in(path);
        if (!in) {
          printf("cannot open %s\n", path.c_str());
          return;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();
        // File lints get the semantic analyses too, matching
        // Database::Lint() for the session form.
        pathlog::LintOptions lint_options;
        lint_options.analyze = true;
        pathlog::LintReport report =
            pathlog::ProgramLinter(std::move(lint_options))
                .LintSource(buffer.str());
        printf("%s", report.ToString(path).c_str());
        if (report.empty()) {
          printf("%s: clean\n", path.c_str());
        } else {
          printf("%s: %zu error(s), %zu warning(s)\n", path.c_str(),
                 report.errors(), report.warnings());
        }
      } else {
        pathlog::LintReport report = db_.Lint();
        printf("%s", report.ToString("<session>").c_str());
        if (report.empty()) {
          printf("lint: clean (%zu rules, %zu triggers)\n",
                 db_.num_rules(), db_.num_triggers());
        } else {
          printf("lint: %zu error(s), %zu warning(s)\n", report.errors(),
                 report.warnings());
        }
      }
    } else if (cmd == "\\checkpoint") {
      pathlog::Status st = db_.Checkpoint();
      printf("%s\n", st.ok() ? "checkpointed." : st.ToString().c_str());
    } else if (cmd == "\\health") {
      pathlog::DatabaseHealth h = db_.Health();
      printf("durable:          %s\n", h.durable ? "yes" : "no");
      printf("mode:             %s\n",
             h.degraded ? "DEGRADED (read-only)" : "read-write");
      if (h.degraded) {
        printf("degraded cause:   %s\n", h.degraded_cause.c_str());
      }
      printf("degraded entries: %llu\n",
             static_cast<unsigned long long>(h.degraded_entries));
      printf("wal retries:      %llu\n",
             static_cast<unsigned long long>(h.wal_retries));
      printf("wal rotations:    %llu\n",
             static_cast<unsigned long long>(h.wal_rotations));
      printf("wal records:      %llu\n",
             static_cast<unsigned long long>(h.wal_records));
      printf("wal bytes:        %llu\n",
             static_cast<unsigned long long>(h.wal_bytes));
      printf("store bytes:      ~%llu\n",
             static_cast<unsigned long long>(h.store_bytes));
      printf("objects:          %llu\n",
             static_cast<unsigned long long>(h.objects));
      printf("facts:            %llu\n",
             static_cast<unsigned long long>(h.facts));
    } else if (cmd == "\\why") {
      std::string arg;
      bool json = false;
      if (iss >> arg && arg == "--json") {
        json = true;
        if (!(iss >> arg)) arg.clear();
      }
      if (arg.empty() ||
          arg.find_first_not_of("0123456789") != std::string::npos) {
        printf("usage: \\why [--json] <generation>\n");
      } else if (json) {
        pathlog::Result<std::string> out =
            db_.ExplainFactJson(std::stoull(arg));
        if (out.ok()) {
          printf("%s\n", out->c_str());
        } else {
          printf("%s\n", out.status().ToString().c_str());
        }
      } else {
        printf("%s\n", db_.ExplainFact(std::stoull(arg)).c_str());
      }
    } else if (cmd == "\\querylog") {
      if (Obs().query_log == nullptr) {
        printf("query log not enabled\n");
      } else {
        size_t n = 10;
        iss >> n;
        for (const std::string& line : Obs().query_log->Recent(n)) {
          printf("%s\n", line.c_str());
        }
        printf("(%llu records this session%s%s)\n",
               static_cast<unsigned long long>(
                   Obs().query_log->records_written()),
               Obs().query_log->path().empty() ? "" : ", logging to ",
               Obs().query_log->path().c_str());
      }
    } else if (cmd == "\\stats_server") {
      uint16_t port = 0;
      unsigned parsed = 0;
      if (iss >> parsed) port = static_cast<uint16_t>(parsed);
      pathlog::Status st = StartStatsServer(port);
      if (!st.ok()) printf("%s\n", st.ToString().c_str());
    } else if (cmd == "\\quit" || cmd == "\\q") {
      done_ = true;
    } else {
      printf("unknown command %s — try \\help\n", cmd.c_str());
    }
  }

  int Run() {
    std::string pending;
    std::string line;
    printf("PathLog shell — \\help for help, \\quit to exit.\n");
    while (!done_) {
      printf("%s", pending.empty() ? "pathlog> " : "     ...> ");
      fflush(stdout);
      if (!std::getline(std::cin, line)) break;
      // Trim trailing whitespace.
      while (!line.empty() && isspace(static_cast<unsigned char>(line.back()))) {
        line.pop_back();
      }
      if (pending.empty() && !line.empty() &&
          (line[0] == '\\' || line.rfind(":lint", 0) == 0)) {
        Handle(line);
        continue;
      }
      pending += line;
      pending += "\n";
      // A clause is complete when the buffer ends with a terminator dot.
      std::string trimmed = pending;
      while (!trimmed.empty() &&
             isspace(static_cast<unsigned char>(trimmed.back()))) {
        trimmed.pop_back();
      }
      if (!trimmed.empty() && trimmed.back() == '.') {
        Handle(trimmed);
        pending.clear();
      }
    }
    return 0;
  }

 private:
  pathlog::Database db_;
  bool done_ = false;
  bool profile_on_ = false;
  std::unique_ptr<pathlog::StatsServer> stats_server_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string durable_dir;
  std::string trace_out;
  std::string metrics_out;
  std::string query_log_path;
  int stats_port = -1;  // -1 = no server
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--durable") {
      if (i + 1 >= argc) {
        fprintf(stderr, "--durable requires a directory argument\n");
        return 1;
      }
      durable_dir = argv[++i];
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(sizeof("--trace-out=") - 1);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(sizeof("--metrics-out=") - 1);
    } else if (arg.rfind("--query-log=", 0) == 0) {
      query_log_path = arg.substr(sizeof("--query-log=") - 1);
    } else if (arg.rfind("--stats-port=", 0) == 0) {
      stats_port = atoi(arg.c_str() + sizeof("--stats-port=") - 1);
      if (stats_port < 0 || stats_port > 65535) {
        fprintf(stderr, "--stats-port must be 0..65535\n");
        return 1;
      }
    } else {
      files.push_back(std::move(arg));
    }
  }

  // The query log exists for every session (the stats server and
  // \querylog read its in-memory ring); only --query-log makes it
  // write JSONL to disk.
  {
    pathlog::QueryLogOptions qopts;
    qopts.path = query_log_path;
    Obs().query_log = std::make_unique<pathlog::QueryLog>(std::move(qopts));
  }

  Shell shell;
  if (!durable_dir.empty()) {
    pathlog::Result<pathlog::Database> db =
        pathlog::Database::Open(durable_dir, Shell::MakeOptions());
    if (!db.ok()) {
      fprintf(stderr, "%s: %s\n", durable_dir.c_str(),
              db.status().ToString().c_str());
      return 1;
    }
    printf("durable session at %s (%zu facts, %zu rules recovered)\n",
           durable_dir.c_str(), db->store().FactCount(), db->num_rules());
    shell = Shell(std::move(*db));
  }
  for (const std::string& path : files) {
    if (!shell.LoadFile(path)) return 1;
  }
  // Start after the final `shell` assignment above: the server's
  // callbacks capture the Shell pointer, which must not move again.
  if (stats_port >= 0) {
    pathlog::Status st =
        shell.StartStatsServer(static_cast<uint16_t>(stats_port));
    if (!st.ok()) {
      fprintf(stderr, "--stats-port: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  int rc = shell.Run();
  if (!trace_out.empty()) {
    pathlog::Status st = Obs().flight.WriteTo(trace_out);
    if (!st.ok()) {
      fprintf(stderr, "--trace-out: %s\n", st.ToString().c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  if (!metrics_out.empty()) {
    pathlog::Status st = pathlog::WriteFileAtomic(
        pathlog::DefaultFileOps(), metrics_out, Obs().metrics.ToJson());
    if (!st.ok()) {
      fprintf(stderr, "--metrics-out: %s\n", st.ToString().c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  return rc;
}
