// ObsSinks: the observability layer's plumbing type.
//
// A bundle of four optional, borrowed sinks — metrics registry,
// profiler, flight recorder (the one span sink), query log — threaded
// through EngineOptions (rules and triggers alike) and
// DatabaseOptions::engine into every subsystem. All null by default: the
// disabled cost at an instrumentation site is one pointer test. The
// caller owns the sink objects and keeps them alive for as long as any
// component holds the ObsSinks (the shell and benches own them for the
// session; tests own them on the stack).
//
// This header is deliberately tiny (forward declarations only) so the
// option structs that embed ObsSinks do not drag the exporters into
// every translation unit.

#ifndef PATHLOG_OBS_OBS_H_
#define PATHLOG_OBS_OBS_H_

namespace pathlog {

class MetricsRegistry;
class Profiler;
class FlightRecorder;
class QueryLog;

struct ObsSinks {
  MetricsRegistry* metrics = nullptr;
  Profiler* profiler = nullptr;
  /// Bounded ring of recent spans and events: the span tree, /tracez,
  /// trace files and incident dumps (obs/flight_recorder.h).
  FlightRecorder* flight = nullptr;
  /// Per-query structured JSONL log (obs/query_log.h).
  QueryLog* query_log = nullptr;
};

}  // namespace pathlog

#endif  // PATHLOG_OBS_OBS_H_
