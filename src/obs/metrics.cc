#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "base/budget.h"
#include "base/strings.h"
#include "obs/json.h"

namespace pathlog {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::Observe(double v) {
  size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::Quantile(double q) const {
  q = std::min(1.0, std::max(0.0, q));
  // Snapshot the buckets once; relaxed loads mean the rank and the
  // counts may be skewed by in-flight observations, which is fine for
  // a diagnostic estimate.
  std::vector<uint64_t> counts(bounds_.size() + 1);
  uint64_t total = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0;
  const double rank = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < bounds_.size(); ++i) {
    const uint64_t prev = cumulative;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= rank) {
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const double upper = bounds_[i];
      if (counts[i] == 0) return upper;
      const double frac =
          (rank - static_cast<double>(prev)) / static_cast<double>(counts[i]);
      return lower + (upper - lower) * std::min(1.0, std::max(0.0, frac));
    }
  }
  // Rank fell in the +Inf bucket: the highest finite bound is the best
  // bounded answer (Prometheus does the same).
  return bounds_.empty() ? 0 : bounds_.back();
}

std::vector<double> DefaultLatencyBoundsMs() {
  return {0.25, 1, 4, 16, 64, 256, 1024, 4096, 16384, 65536};
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help) {
  MutexLock lock(&mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.help = std::string(help);
    e.counter = std::make_unique<Counter>();
    it = entries_.emplace(std::string(name), std::move(e)).first;
  }
  return it->second.counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name,
                                 std::string_view help) {
  MutexLock lock(&mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.help = std::string(help);
    e.gauge = std::make_unique<Gauge>();
    it = entries_.emplace(std::string(name), std::move(e)).first;
  }
  return it->second.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> bounds,
                                         std::string_view help) {
  MutexLock lock(&mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.help = std::string(help);
    e.histogram = std::make_unique<Histogram>(std::move(bounds));
    it = entries_.emplace(std::string(name), std::move(e)).first;
  }
  return it->second.histogram.get();
}

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(&mu_);
  std::string counters, gauges, histograms;
  for (const auto& [name, e] : entries_) {
    if (e.counter) {
      if (!counters.empty()) counters += ",";
      AppendJsonString(&counters, name);
      counters += ":";
      AppendJsonNumber(&counters, static_cast<double>(e.counter->value()));
    } else if (e.gauge) {
      if (!gauges.empty()) gauges += ",";
      AppendJsonString(&gauges, name);
      gauges += ":";
      AppendJsonNumber(&gauges, e.gauge->value());
    } else if (e.histogram) {
      const Histogram& h = *e.histogram;
      if (!histograms.empty()) histograms += ",";
      AppendJsonString(&histograms, name);
      histograms += ":{\"buckets\":[";
      uint64_t cumulative = 0;
      for (size_t i = 0; i <= h.bounds().size(); ++i) {
        if (i > 0) histograms += ",";
        cumulative += h.bucket_count(i);
        histograms += "{\"le\":";
        if (i < h.bounds().size()) {
          AppendJsonNumber(&histograms, h.bounds()[i]);
        } else {
          histograms += "\"+Inf\"";
        }
        histograms += ",\"count\":";
        AppendJsonNumber(&histograms, static_cast<double>(cumulative));
        histograms += "}";
      }
      histograms += "],\"sum\":";
      AppendJsonNumber(&histograms, h.sum());
      histograms += ",\"count\":";
      AppendJsonNumber(&histograms, static_cast<double>(h.total_count()));
      histograms += "}";
    }
  }
  return StrCat("{\"counters\":{", counters, "},\"gauges\":{", gauges,
                "},\"histograms\":{", histograms, "}}");
}

namespace {

/// Renders a bucket bound the way Prometheus does: shortest form that
/// round-trips (our bounds are small decimals, %g is enough).
std::string LeLabel(double bound) {
  std::string out;
  AppendJsonNumber(&out, bound);
  return out;
}

}  // namespace

std::string MetricsRegistry::ToPrometheusText() const {
  MutexLock lock(&mu_);
  std::string out;
  for (const auto& [name, e] : entries_) {
    if (!e.help.empty()) {
      out += StrCat("# HELP ", name, " ", e.help, "\n");
    }
    if (e.counter) {
      out += StrCat("# TYPE ", name, " counter\n", name, " ",
                    e.counter->value(), "\n");
    } else if (e.gauge) {
      std::string v;
      AppendJsonNumber(&v, e.gauge->value());
      out += StrCat("# TYPE ", name, " gauge\n", name, " ", v, "\n");
    } else if (e.histogram) {
      const Histogram& h = *e.histogram;
      out += StrCat("# TYPE ", name, " histogram\n");
      uint64_t cumulative = 0;
      for (size_t i = 0; i < h.bounds().size(); ++i) {
        cumulative += h.bucket_count(i);
        out += StrCat(name, "_bucket{le=\"", LeLabel(h.bounds()[i]), "\"} ",
                      cumulative, "\n");
      }
      cumulative += h.bucket_count(h.bounds().size());
      out += StrCat(name, "_bucket{le=\"+Inf\"} ", cumulative, "\n");
      std::string sum;
      AppendJsonNumber(&sum, h.sum());
      out += StrCat(name, "_sum ", sum, "\n");
      out += StrCat(name, "_count ", h.total_count(), "\n");
    }
  }
  return out;
}

std::vector<std::pair<std::string, const Histogram*>>
MetricsRegistry::HistogramEntries() const {
  MutexLock lock(&mu_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  for (const auto& [name, e] : entries_) {
    if (e.histogram) out.emplace_back(name, e.histogram.get());
  }
  return out;
}

Result<MetricsSamples> ParseMetricsJson(std::string_view json) {
  PATHLOG_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  if (!root.is_object()) {
    return Status(InvalidArgument("metrics json: root is not an object"));
  }
  MetricsSamples samples;
  for (const char* section : {"counters", "gauges"}) {
    const JsonValue* sec = root.Find(section);
    if (sec == nullptr || !sec->is_object()) {
      return Status(InvalidArgument(
          StrCat("metrics json: missing \"", section, "\" object")));
    }
    for (const auto& [name, v] : sec->members()) {
      if (!v.is_number()) {
        return Status(InvalidArgument(
            StrCat("metrics json: non-numeric sample ", name)));
      }
      samples[name] = v.as_number();
    }
  }
  const JsonValue* hists = root.Find("histograms");
  if (hists == nullptr || !hists->is_object()) {
    return Status(InvalidArgument("metrics json: missing histograms"));
  }
  for (const auto& [name, h] : hists->members()) {
    const JsonValue* buckets = h.Find("buckets");
    const JsonValue* sum = h.Find("sum");
    const JsonValue* count = h.Find("count");
    if (buckets == nullptr || !buckets->is_array() || sum == nullptr ||
        !sum->is_number() || count == nullptr || !count->is_number()) {
      return Status(InvalidArgument(
          StrCat("metrics json: malformed histogram ", name)));
    }
    for (const JsonValue& b : buckets->items()) {
      const JsonValue* le = b.Find("le");
      const JsonValue* c = b.Find("count");
      if (le == nullptr || c == nullptr || !c->is_number()) {
        return Status(InvalidArgument(
            StrCat("metrics json: malformed bucket in ", name)));
      }
      std::string label =
          le->is_string() ? le->as_string() : LeLabel(le->as_number());
      samples[StrCat(name, "_bucket{le=\"", label, "\"}")] = c->as_number();
    }
    samples[name + "_sum"] = sum->as_number();
    samples[name + "_count"] = count->as_number();
  }
  return samples;
}

Result<MetricsSamples> ParseMetricsPrometheusText(std::string_view text) {
  MetricsSamples samples;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    if (line.empty() || line[0] == '#') continue;
    // `name{labels} value` or `name value`; the value is the suffix
    // after the last space (label values never contain spaces here).
    size_t space = line.rfind(' ');
    if (space == std::string_view::npos || space == 0 ||
        space + 1 >= line.size()) {
      return Status(InvalidArgument(
          StrCat("prometheus text: malformed sample line: ", line)));
    }
    std::string name(line.substr(0, space));
    std::string value_str(line.substr(space + 1));
    char* end = nullptr;
    double v = std::strtod(value_str.c_str(), &end);
    if (end != value_str.c_str() + value_str.size()) {
      return Status(InvalidArgument(
          StrCat("prometheus text: malformed value: ", line)));
    }
    samples[name] = v;
  }
  return samples;
}

void BumpCounter(MetricsRegistry* metrics, std::string_view name,
                 std::string_view help) {
  if (metrics == nullptr) return;
  if (Counter* c = metrics->GetCounter(name, help)) c->Inc();
}

void CountBudgetRejection(MetricsRegistry* metrics,
                          const ResourceBudget& budget) {
  if (!budget.rejected()) return;
  BumpCounter(metrics, "pathlog_budget_rejections_total",
              "operations rejected by a resource budget");
}

}  // namespace pathlog
