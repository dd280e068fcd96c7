// End-to-end tests of the `pathlog` shell binary: drive it through a
// pipe and check the transcript. PATHLOG_SHELL_PATH is injected by
// CMake as the built binary's location.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

namespace pathlog {
namespace {

std::string RunShell(const std::string& input,
                     const std::string& args = "") {
  // ctest runs each test of this binary as its own process, in
  // parallel; the script path must be per-process or one test's
  // cleanup deletes another's input mid-read.
  const std::string script_path = ::testing::TempDir() + "/shell_input." +
                                  std::to_string(::getpid()) + ".txt";
  {
    std::ofstream out(script_path);
    out << input;
  }
  std::string cmd = std::string(PATHLOG_SHELL_PATH) + " " + args + " < " +
                    script_path + " 2>&1";
  std::array<char, 4096> buffer;
  std::string output;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr) return output;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  int rc = pclose(pipe);
  EXPECT_EQ(rc, 0) << output;
  std::remove(script_path.c_str());
  return output;
}

TEST(ShellTest, FactsAndQueries) {
  std::string out = RunShell(
      "mary : employee[age->30].\n"
      "?- X:employee[age->A].\n"
      "\\quit\n");
  EXPECT_NE(out.find("ok."), std::string::npos);
  EXPECT_NE(out.find("mary"), std::string::npos);
  EXPECT_NE(out.find("(1 answer)"), std::string::npos);
}

TEST(ShellTest, MultiLineClause) {
  std::string out = RunShell(
      "X[desc->>{Y}] <-\n"
      "  X[kids->>{Y}].\n"
      "peter[kids->>{tim}].\n"
      "?- peter[desc->>{Z}].\n"
      "\\quit\n");
  EXPECT_NE(out.find("tim"), std::string::npos);
}

TEST(ShellTest, ErrorsAreReportedNotFatal) {
  std::string out = RunShell(
      "this is ! garbage.\n"
      "mary[age->30].\n"
      "?- mary[age->A].\n"
      "\\quit\n");
  EXPECT_NE(out.find("ParseError"), std::string::npos);
  EXPECT_NE(out.find("30"), std::string::npos);
}

TEST(ShellTest, CommandsWork) {
  std::string out = RunShell(
      "mary[age->30].\n"
      "\\stats\n"
      "\\facts 5\n"
      "\\explain 0\n"
      "\\rules\n"
      "\\help\n"
      "\\quit\n");
  EXPECT_NE(out.find("scalar facts: 1"), std::string::npos);
  EXPECT_NE(out.find("mary[age->30]."), std::string::npos);
  EXPECT_NE(out.find("extensional"), std::string::npos);
  EXPECT_NE(out.find("no rules loaded"), std::string::npos);
  EXPECT_NE(out.find("PathLog shell commands"), std::string::npos);
}

TEST(ShellTest, ExplainQueryPrintsThePlan) {
  std::string out = RunShell(
      "mary : employee[age->30].\n"
      "\\explain ?- X:employee[age->A].\n"
      "\\explain nonsense\n"
      "\\quit\n");
  EXPECT_NE(out.find("plan:"), std::string::npos);
  // One line per fact-access site, with its route and estimate.
  EXPECT_NE(out.find("1. X:employee   (class extent, estimated rows 1)"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("2. X[age->A]   (receiver probe, estimated rows 1)"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("planner statistics: skew-aware"), std::string::npos);
  EXPECT_NE(out.find("plan fingerprint: "), std::string::npos);
  EXPECT_NE(out.find("usage: \\explain <generation> | \\explain ?- <query>"),
            std::string::npos);
}

TEST(ShellTest, SaveAndRestoreRoundTrip) {
  const std::string snap = ::testing::TempDir() + "/shell_session.snap";
  std::string out = RunShell(
      "p1 : employee[worksFor->cs1].\n"
      "X.boss[worksFor->D] <- X:employee[worksFor->D].\n"
      "?- p1.boss[worksFor->W].\n"
      "\\save " + snap + "\n"
      "\\quit\n");
  EXPECT_NE(out.find("saved."), std::string::npos);
  EXPECT_NE(out.find("cs1"), std::string::npos);

  std::string out2 = RunShell(
      "\\restore " + snap + "\n"
      "?- p1.boss[worksFor->W].\n"
      "\\quit\n");
  EXPECT_NE(out2.find("restored"), std::string::npos);
  EXPECT_NE(out2.find("cs1"), std::string::npos);
  std::remove(snap.c_str());
}

TEST(ShellTest, DurableSessionSurvivesRestart) {
  const std::string dir = ::testing::TempDir() + "/shell_durable";
  // Session one: assert facts and a rule. No \save — durability comes
  // from the WAL written before each "ok.".
  std::string out = RunShell(
      "p1 : employee[worksFor->cs1].\n"
      "X.boss[worksFor->D] <- X:employee[worksFor->D].\n"
      "?- p1.boss[worksFor->W].\n"
      "\\quit\n",
      "--durable " + dir);
  EXPECT_NE(out.find("durable session at"), std::string::npos);
  EXPECT_NE(out.find("cs1"), std::string::npos);

  // Session two: everything is back, and \checkpoint compacts.
  std::string out2 = RunShell(
      "?- p1.boss[worksFor->W].\n"
      "p2 : employee[worksFor->ee1].\n"
      "\\checkpoint\n"
      "\\quit\n",
      "--durable " + dir);
  EXPECT_NE(out2.find("rules recovered"), std::string::npos);
  EXPECT_NE(out2.find("cs1"), std::string::npos);
  EXPECT_NE(out2.find("checkpointed."), std::string::npos);

  // Session three: the checkpointed snapshot + fresh WAL recover too.
  std::string out3 = RunShell(
      "?- p2.boss[worksFor->W].\n"
      "\\quit\n",
      "--durable " + dir);
  EXPECT_NE(out3.find("ee1"), std::string::npos);

  std::remove((dir + "/snapshot.plgdb").c_str());
  std::remove((dir + "/wal.plgwal").c_str());
  std::remove(dir.c_str());
}

TEST(ShellTest, DurableFlagRequiresADirectory) {
  std::string cmd = std::string(PATHLOG_SHELL_PATH) +
                    " --durable </dev/null 2>&1";
  std::array<char, 4096> buffer;
  std::string output;
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  int rc = pclose(pipe);
  EXPECT_NE(rc, 0);
  EXPECT_NE(output.find("--durable requires"), std::string::npos);
}

TEST(ShellTest, DurableOpenFailureExitsNonzeroWithAMessage) {
  // --durable pointing at a regular file cannot be opened as a
  // database directory: the shell must exit nonzero and say why on
  // stderr, not limp on with an in-memory session.
  const std::string not_a_dir = ::testing::TempDir() + "/shell_not_a_dir." +
                                std::to_string(::getpid());
  {
    std::ofstream out(not_a_dir);
    out << "just a file";
  }
  std::string cmd = std::string(PATHLOG_SHELL_PATH) + " --durable " +
                    not_a_dir + " </dev/null 2>&1";
  std::array<char, 4096> buffer;
  std::string output;
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  int rc = pclose(pipe);
  EXPECT_NE(rc, 0) << output;
  EXPECT_NE(output.find(not_a_dir), std::string::npos) << output;
  EXPECT_EQ(output.find("durable session at"), std::string::npos)
      << "no session banner on a failed open: " << output;
  std::remove(not_a_dir.c_str());
}

TEST(ShellTest, HealthCommandReportsInMemoryMode) {
  std::string out = RunShell(
      "mary : employee[age->30].\n"
      "\\health\n"
      "\\quit\n");
  EXPECT_NE(out.find("durable:          no"), std::string::npos) << out;
  EXPECT_NE(out.find("mode:             read-write"), std::string::npos)
      << out;
  EXPECT_NE(out.find("degraded entries: 0"), std::string::npos) << out;
  EXPECT_NE(out.find("objects:"), std::string::npos) << out;
}

TEST(ShellTest, HealthCommandReportsDurableSession) {
  const std::string dir = ::testing::TempDir() + "/shell_health_durable." +
                          std::to_string(::getpid());
  std::string out = RunShell(
      "p1 : employee.\n"
      "\\health\n"
      "\\quit\n",
      "--durable " + dir);
  EXPECT_NE(out.find("durable:          yes"), std::string::npos) << out;
  EXPECT_NE(out.find("mode:             read-write"), std::string::npos)
      << out;
  EXPECT_NE(out.find("wal retries:      0"), std::string::npos) << out;
  std::remove((dir + "/snapshot.plgdb").c_str());
  std::remove((dir + "/wal.plgwal").c_str());
  std::remove(dir.c_str());
}

TEST(ShellTest, MetricsCommandPrintsPrometheusText) {
  std::string out = RunShell(
      "mary : employee[age->30].\n"
      "?- mary[age->A].\n"
      "\\metrics\n"
      "\\quit\n");
  EXPECT_NE(out.find("# TYPE pathlog_queries_total counter"),
            std::string::npos);
  EXPECT_NE(out.find("pathlog_store_isa_facts_total 1"), std::string::npos);
}

TEST(ShellTest, ProfileToggleAndReport) {
  std::string out = RunShell(
      "peter[kids->>{tim,mary}].\n"
      "X[desc->>{Y}] <- X[kids->>{Y}].\n"
      "\\profile on\n"
      "?- peter[desc->>{Z}].\n"
      "\\profile\n"
      "\\profile off\n"
      "\\profile\n"
      "\\quit\n");
  EXPECT_NE(out.find("profiling on."), std::string::npos);
  EXPECT_NE(out.find("rule profile (1 rules"), std::string::npos);
  EXPECT_NE(out.find("X[desc->>{Y}] <- X[kids->>{Y}]."), std::string::npos);
  EXPECT_NE(out.find("driver literals"), std::string::npos);
  EXPECT_NE(out.find("profiling off."), std::string::npos);
  // After \profile off the database reports no attached profiler.
  EXPECT_NE(out.find("no profiler attached"), std::string::npos);
}

TEST(ShellTest, TraceCommandAndExitFlagsWriteValidJson) {
  const std::string base = ::testing::TempDir() + "/shell_obs." +
                           std::to_string(::getpid());
  const std::string trace1 = base + ".trace1.json";
  const std::string trace2 = base + ".trace2.json";
  const std::string metrics = base + ".metrics.json";
  std::string out = RunShell(
      "peter[kids->>{tim}].\n"
      "X[desc->>{Y}] <- X[kids->>{Y}].\n"
      "?- peter[desc->>{Z}].\n"
      "\\trace " + trace1 + "\n"
      "\\metrics " + metrics + "\n"
      "\\quit\n",
      "--trace-out=" + trace2);
  EXPECT_NE(out.find("wrote trace"), std::string::npos);
  EXPECT_NE(out.find("wrote metrics JSON"), std::string::npos);
  for (const std::string& path : {trace1, trace2}) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos) << path;
    EXPECT_NE(text.find("db.query"), std::string::npos) << path;
    std::remove(path.c_str());
  }
  std::ifstream in(metrics);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("pathlog_queries_total"), std::string::npos);
  std::remove(metrics.c_str());
}

TEST(ShellTest, StatsShowsElapsedAndStratumIterations) {
  std::string out = RunShell(
      "peter[kids->>{tim}].\n"
      "X[desc->>{Y}] <- X[kids->>{Y}].\n"
      "\\stats\n"
      "\\quit\n");
  EXPECT_NE(out.find(" ms\n"), std::string::npos);
  EXPECT_NE(out.find("rule evaluations"), std::string::npos);
  EXPECT_NE(out.find("iterations by stratum:"), std::string::npos);
}

TEST(ShellTest, LoadsProgramFileFromArgv) {
  const std::string prog = ::testing::TempDir() + "/shell_prog.plg";
  {
    std::ofstream out(prog);
    out << "peter[kids->>{tim,mary}].\n"
           "X[desc->>{Y}] <- X[kids->>{Y}].\n";
  }
  std::string out = RunShell(
      "?- peter[desc->>{Z}].\n"
      "\\quit\n",
      prog);
  EXPECT_NE(out.find("loaded"), std::string::npos);
  EXPECT_NE(out.find("(2 answers)"), std::string::npos);
  std::remove(prog.c_str());
}

// ---------------------------------------------------------------------------
// Serving diagnostics: stats server, flight recorder, query log, \why.

TEST(ShellTest, StatsPortZeroStartsTheServerOnAnEphemeralPort) {
  std::string out = RunShell(
      "a[v->1].\n"
      "\\quit\n",
      "--stats-port=0");
  EXPECT_NE(out.find("stats server listening on 127.0.0.1:"),
            std::string::npos);
}

TEST(ShellTest, StatsServerCommandStartsAndIsIdempotent) {
  std::string out = RunShell(
      "\\stats_server 0\n"
      "\\stats_server 0\n"
      "\\quit\n");
  EXPECT_NE(out.find("stats server listening on"), std::string::npos);
  EXPECT_NE(out.find("already listening"), std::string::npos);
}

TEST(ShellTest, FlightRecorderSummaryAndDump) {
  const std::string dump = ::testing::TempDir() + "/shell_flight." +
                           std::to_string(::getpid()) + ".trace.json";
  std::string out = RunShell(
      "a[v->1].\n"
      "?- a[v->V].\n"
      "\\trace\n"
      "\\trace " + dump + "\n"
      "\\quit\n");
  EXPECT_NE(out.find("trace ring: "), std::string::npos);
  EXPECT_NE(out.find(" dropped (capacity "), std::string::npos);
  EXPECT_NE(out.find("db.query"), std::string::npos);
  EXPECT_NE(out.find("wrote trace to"), std::string::npos);
  std::ifstream in(dump);
  ASSERT_TRUE(in.good()) << dump;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  EXPECT_NE(bytes.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(bytes.find("db.query"), std::string::npos);
  std::remove(dump.c_str());
}

TEST(ShellTest, SessionTraceStaysWithinItsCapacity) {
  // The shell's one span ring holds kSessionTraceCapacity events
  // (tools/pathlog_shell.cc), however long the session runs.
  constexpr size_t kCapacity = 4096;
  const std::string dump = ::testing::TempDir() + "/shell_bounded." +
                           std::to_string(::getpid()) + ".trace.json";
  std::string script = "a[v->1].\n";
  for (size_t i = 0; i < kCapacity + 100; ++i) script += "?- a[v->V].\n";
  script += "\\trace\n\\trace " + dump + "\n\\quit\n";
  std::string out = RunShell(script);
  EXPECT_NE(out.find("(capacity " + std::to_string(kCapacity) + ")"),
            std::string::npos);
  std::ifstream in(dump);
  ASSERT_TRUE(in.good()) << dump;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(dump.c_str());
  // Every rendered event carries exactly one "ph" key.
  size_t events = 0;
  for (size_t at = bytes.find("\"ph\":"); at != std::string::npos;
       at = bytes.find("\"ph\":", at + 1)) {
    ++events;
  }
  EXPECT_GT(events, 0u);
  EXPECT_LE(events, kCapacity);
  const std::string dropped_key = "\"dropped\":";
  const size_t dropped_at = bytes.find(dropped_key);
  ASSERT_NE(dropped_at, std::string::npos) << "the dump reports drops";
  EXPECT_GE(std::stoull(bytes.substr(dropped_at + dropped_key.size())), 100u)
      << "every read past the capacity displaces an older event";
}

TEST(ShellTest, QueryLogFlagWritesJsonlAndQuerylogShowsIt) {
  const std::string log_path = ::testing::TempDir() + "/shell_ql." +
                               std::to_string(::getpid()) + ".jsonl";
  std::string out = RunShell(
      "a[v->1].\n"
      "?- a[v->V].\n"
      "\\querylog\n"
      "\\quit\n",
      "--query-log=" + log_path);
  EXPECT_NE(out.find("\"kind\":\"query\""), std::string::npos);
  EXPECT_NE(out.find("records this session"), std::string::npos);
  std::ifstream in(log_path);
  ASSERT_TRUE(in.good()) << log_path;
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"plan_fingerprint\":"), std::string::npos);
  EXPECT_NE(line.find("\"budget\":{"), std::string::npos);
  EXPECT_NE(line.find("\"routes\":{"), std::string::npos);
  std::remove(log_path.c_str());
}

TEST(ShellTest, QuerylogWorksWithoutAFileViaTheInMemoryRing) {
  std::string out = RunShell(
      "a[v->1].\n"
      "?- a[v->V].\n"
      "\\querylog\n"
      "\\quit\n");
  EXPECT_NE(out.find("\"kind\":\"query\""), std::string::npos);
}

TEST(ShellTest, WhyJsonPrintsMachineReadableProvenance) {
  std::string out = RunShell(
      "mary[age->30].\n"
      "?- mary[age->A].\n"
      "\\why --json 0\n"
      "\\why --json abc\n"
      "\\quit\n");
  EXPECT_NE(out.find("{\"gen\":0,\"fact\":\"mary[age->30]\","
                     "\"kind\":\"extensional\"}"),
            std::string::npos);
  EXPECT_NE(out.find("usage: \\why"), std::string::npos);
}

TEST(ShellTest, MetricsSummaryIncludesQuantiles) {
  std::string out = RunShell(
      "a[v->1].\n"
      "?- a[v->V].\n"
      "\\metrics\n"
      "\\quit\n");
  EXPECT_NE(out.find("# quantiles pathlog_query_ms p50="),
            std::string::npos);
}

}  // namespace
}  // namespace pathlog
