#include "obs/profile.h"

#include <algorithm>
#include <cstdio>

#include "base/strings.h"

namespace pathlog {

void Profiler::RecordRuleEvaluation(std::string_view rule, uint64_t wall_ns,
                                    uint64_t delta_passes,
                                    uint64_t derivations) {
  MutexLock lock(&mu_);
  auto it = rules_.find(rule);
  if (it == rules_.end()) {
    RuleProfile p;
    p.rule = std::string(rule);
    it = rules_.emplace(p.rule, std::move(p)).first;
  }
  RuleProfile& p = it->second;
  ++p.evaluations;
  p.wall_ns += wall_ns;
  p.delta_passes += delta_passes;
  p.derivations += derivations;
}

void Profiler::RecordDriverLiteral(std::string_view literal, double estimated,
                                   uint64_t actual, uint64_t invocations) {
  MutexLock lock(&mu_);
  auto it = literals_.find(literal);
  if (it == literals_.end()) {
    LiteralProfile p;
    p.literal = std::string(literal);
    it = literals_.emplace(p.literal, std::move(p)).first;
  }
  LiteralProfile& p = it->second;
  ++p.queries;
  p.estimated += estimated;
  p.actual += actual;
  p.invocations += invocations;
}

void Profiler::RecordRoutes(const RouteTotals& delta) {
  MutexLock lock(&mu_);
  routes_.receiver_probes += delta.receiver_probes;
  routes_.inverted_probes += delta.inverted_probes;
  routes_.extent_scans += delta.extent_scans;
  routes_.universe_scans += delta.universe_scans;
  routes_.duplicates_suppressed += delta.duplicates_suppressed;
}

std::vector<Profiler::RuleProfile> Profiler::RuleProfiles() const {
  MutexLock lock(&mu_);
  std::vector<RuleProfile> out;
  out.reserve(rules_.size());
  for (const auto& [_, p] : rules_) {
    if (p.evaluations > 0) out.push_back(p);
  }
  std::sort(out.begin(), out.end(),
            [](const RuleProfile& a, const RuleProfile& b) {
              if (a.wall_ns != b.wall_ns) return a.wall_ns > b.wall_ns;
              if (a.evaluations != b.evaluations) {
                return a.evaluations > b.evaluations;
              }
              return a.rule < b.rule;
            });
  return out;
}

std::vector<Profiler::LiteralProfile> Profiler::LiteralProfiles() const {
  MutexLock lock(&mu_);
  std::vector<LiteralProfile> out;
  out.reserve(literals_.size());
  for (const auto& [_, p] : literals_) out.push_back(p);
  return out;
}

Profiler::RouteTotals Profiler::routes() const {
  MutexLock lock(&mu_);
  return routes_;
}

std::string Profiler::Report() const {
  const std::vector<RuleProfile> rules = RuleProfiles();
  const std::vector<LiteralProfile> literals = LiteralProfiles();
  const RouteTotals r = routes();

  std::string out;
  if (rules.empty() && literals.empty() && r.inverted_probes == 0 &&
      r.extent_scans == 0 && r.universe_scans == 0) {
    return "profile: no activity recorded\n";
  }
  if (!rules.empty()) {
    out += StrCat("rule profile (", rules.size(),
                  " rules, sorted by cumulative time):\n");
    out += "      cum_ms     evals     delta    derivs  rule\n";
    for (const RuleProfile& p : rules) {
      char line[128];
      std::snprintf(line, sizeof(line), "  %10.3f %9llu %9llu %9llu  ",
                    static_cast<double>(p.wall_ns) / 1e6,
                    static_cast<unsigned long long>(p.evaluations),
                    static_cast<unsigned long long>(p.delta_passes),
                    static_cast<unsigned long long>(p.derivations));
      out += line;
      out += p.rule;
      out += "\n";
    }
  }
  out += StrCat("index routes: ", r.receiver_probes, " receiver probes, ",
                r.inverted_probes, " inverted probes, ",
                r.extent_scans, " extent scans, ", r.universe_scans,
                " universe scans, ", r.duplicates_suppressed,
                " duplicates suppressed\n");
  if (!literals.empty()) {
    out += "driver literals (planner estimate vs actual solutions; "
           "act/inv is per outer tuple, the estimate's unit):\n";
    out += "     queries  estimated     actual    act/inv  literal\n";
    for (const LiteralProfile& p : literals) {
      char line[112];
      std::snprintf(line, sizeof(line), "  %10llu %10.1f %10llu %10.1f  ",
                    static_cast<unsigned long long>(p.queries), p.estimated,
                    static_cast<unsigned long long>(p.actual),
                    p.ActualPerInvocation());
      out += line;
      out += p.literal;
      out += "\n";
    }
  }
  return out;
}

void Profiler::Reset() {
  MutexLock lock(&mu_);
  rules_.clear();
  literals_.clear();
  routes_ = RouteTotals{};
}

}  // namespace pathlog
