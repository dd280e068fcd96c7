// StatsServer: an embedded HTTP diagnostics server.
//
// A minimal, dependency-free HTTP/1.0 server on one background
// thread: bind 127.0.0.1:<port> (port 0 = kernel-assigned ephemeral,
// read back with port()), blocking accept with a poll() timeout so
// Stop() is honoured promptly, one request per connection. It serves
// the process's observability surfaces:
//
//   /metrics    Prometheus text exposition (MetricsRegistry)
//   /varz       the same registry as one JSON object
//   /healthz    200 "ok" or 503 with the cause (health callback, or
//               the pathlog_db_degraded gauge when no callback is set)
//   /statusz    human HTML: build type, uptime, health, histogram
//               quantiles, top rules by wall time, budget rejections
//   /tracez     the flight recorder's ring — the one span sink, so the
//               engine's span tree too — as Chrome trace JSON
//   /querylogz  recent query-log records as a JSON array
//
// The server borrows its sinks (same discipline as ObsSinks) and
// never writes to them; every sink is independently optional. Request
// handling is pure — HandleRequest(path) maps a path to a response
// with no socket involved — so endpoint tests don't need networking,
// and the wire tests that do use HttpGet() below.
//
// Deliberately loopback-only and unauthenticated: this is an
// operator's window into one process, not a public API.

#ifndef PATHLOG_NET_STATS_SERVER_H_
#define PATHLOG_NET_STATS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "base/mutex.h"
#include "base/result.h"
#include "base/thread_annotations.h"
#include "obs/obs.h"

namespace pathlog {

class Profiler;

/// What /healthz reports: serving or not, and why not.
struct ServingHealth {
  bool ok = true;
  std::string detail;  ///< cause when !ok (e.g. the latched WAL error)
};

struct StatsServerOptions {
  /// TCP port on 127.0.0.1; 0 asks the kernel for an ephemeral port.
  uint16_t port = 0;
  /// Borrowed sinks; each endpoint degrades gracefully when its sink
  /// is null (404-free — it reports "not attached" instead).
  MetricsRegistry* metrics = nullptr;
  Profiler* profiler = nullptr;
  FlightRecorder* flight = nullptr;
  QueryLog* query_log = nullptr;
  /// Authoritative health answer (e.g. Database::Health()); called on
  /// the server thread, so it must be thread-safe. When unset,
  /// /healthz falls back to the pathlog_db_degraded gauge.
  std::function<ServingHealth()> health;
  /// Extra plain-text lines for /statusz (store generation, durable
  /// dir, ...). Called on the server thread; must be thread-safe.
  std::function<std::string()> statusz_info;
};

/// One HTTP response, before serialisation.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class StatsServer {
 public:
  explicit StatsServer(StatsServerOptions options);
  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;
  ~StatsServer();  ///< stops the server if still running

  /// Binds, listens, and starts the accept thread. kUnavailable when
  /// the bind fails (port taken, no loopback). Thread-safe: concurrent
  /// Start/Stop calls serialise on the lifecycle mutex.
  Status Start() EXCLUDES(lifecycle_mu_);

  /// Stops accepting, joins the accept thread, closes the socket.
  /// Idempotent and thread-safe. When Stop() returns, the server
  /// thread is gone — only then may the borrowed sinks in
  /// StatsServerOptions be destroyed (the destructor relies on this
  /// ordering too, so a StatsServer member declared after its sinks
  /// is destroyed — and therefore stopped — before them).
  void Stop() EXCLUDES(lifecycle_mu_);

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (the real one when options.port was 0); 0 before
  /// Start() succeeds.
  uint16_t port() const { return port_.load(std::memory_order_acquire); }
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Maps a request path to its response — the whole routing table,
  /// usable without a socket. Unknown paths get 404.
  HttpResponse HandleRequest(const std::string& path) const;

 private:
  /// Accept loop (server thread). Takes the listen fd as a parameter —
  /// captured at spawn time — so the thread never reads lifecycle
  /// state, and therefore never needs lifecycle_mu_ (Stop() joins the
  /// thread while holding it; the thread acquiring it would deadlock).
  void Serve(int listen_fd);
  void HandleConnection(int fd) const;

  HttpResponse HandleMetrics() const;
  HttpResponse HandleVarz() const;
  HttpResponse HandleHealthz() const;
  HttpResponse HandleStatusz() const;
  HttpResponse HandleTracez() const;
  HttpResponse HandleQuerylogz() const;
  HttpResponse HandleIndex() const;

  StatsServerOptions options_;  ///< immutable after construction

  /// Serialises Start/Stop/destruction. The server thread NEVER takes
  /// this lock (see Serve()); everything it reads is either immutable
  /// (options_), an atomic below, or a value captured at spawn.
  Mutex lifecycle_mu_;
  int listen_fd_ GUARDED_BY(lifecycle_mu_) = -1;
  std::thread thread_ GUARDED_BY(lifecycle_mu_);

  // lock-free: the flags below cross the lifecycle/server-thread
  // boundary without the lifecycle lock. running_ and port_ are
  // written in Start()/Stop() (release) and read anywhere (acquire);
  // stop_ is the shutdown signal the accept loop polls; requests_ and
  // started_us_ are plain monotonic stats.
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<uint16_t> port_{0};
  /// mutable: bumped from the const connection handler.
  mutable std::atomic<uint64_t> requests_{0};
  /// Start time as steady-clock microseconds (atomic: /statusz reads
  /// it from the server thread while a restart could rewrite it).
  std::atomic<int64_t> started_us_{0};
};

/// Blocking HTTP/1.0 GET against 127.0.0.1:port — the test client for
/// wire-level assertions. Returns the parsed status code and body.
Result<HttpResponse> HttpGet(uint16_t port, const std::string& path);

}  // namespace pathlog

#endif  // PATHLOG_NET_STATS_SERVER_H_
