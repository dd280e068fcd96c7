#include "eval/engine.h"

#include <algorithm>
#include <chrono>

#include "ast/analysis.h"
#include "ast/printer.h"
#include "base/strings.h"
#include "eval/ref_eval.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "semantics/structure.h"

namespace pathlog {

namespace {

void CollectSetRefValueVars(const Ref& t, std::set<std::string>* out) {
  switch (t.kind) {
    case RefKind::kName:
    case RefKind::kVar:
      return;
    case RefKind::kParen:
      CollectSetRefValueVars(*t.base, out);
      return;
    case RefKind::kPath:
      CollectSetRefValueVars(*t.base, out);
      CollectSetRefValueVars(*t.method, out);
      for (const RefPtr& a : t.args) CollectSetRefValueVars(*a, out);
      return;
    case RefKind::kMolecule:
      CollectSetRefValueVars(*t.base, out);
      for (const Filter& f : t.filters) {
        if (f.kind == FilterKind::kClass) {
          CollectSetRefValueVars(*f.value, out);
          continue;
        }
        CollectSetRefValueVars(*f.method, out);
        for (const RefPtr& a : f.args) CollectSetRefValueVars(*a, out);
        if (f.kind == FilterKind::kSetRef) {
          CollectVars(*f.value, out);  // everything inside must be bound
        } else if (f.kind == FilterKind::kScalar) {
          CollectSetRefValueVars(*f.value, out);
        } else {
          for (const RefPtr& e : f.elems) CollectSetRefValueVars(*e, out);
        }
      }
      return;
  }
}

/// Puts the body in safety order and checks range restriction.
Status PlanBody(Rule* rule) {
  std::set<std::string> bound;
  Status st = OrderLiteralsForSafety(&rule->body, &bound);
  if (!st.ok()) {
    return UnsafeRule(StrCat("in rule `", ToString(*rule), "`: ",
                             st.message()));
  }
  for (const std::string& v : VarsOf(*rule->head)) {
    if (!bound.count(v)) {
      return UnsafeRule(StrCat("head variable ", v, " of rule `",
                               ToString(*rule),
                               "` is not bound by any positive body literal "
                               "(range restriction)"));
    }
  }
  return Status::OK();
}

}  // namespace

std::set<std::string> SetRefValueVars(const Ref& t) {
  std::set<std::string> out;
  CollectSetRefValueVars(t, &out);
  return out;
}

Status OrderLiteralsForSafety(std::vector<Literal>* body,
                              std::set<std::string>* bound_out,
                              const LiteralCost& cost,
                              std::vector<double>* costs) {
  std::vector<Literal> remaining = std::move(*body);
  std::vector<Literal> ordered;
  std::set<std::string> bound;

  // Variables occurring in more than one literal. A variable local to a
  // single negated literal is existentially quantified inside the
  // negation (not-exists) and need not be bound.
  std::map<std::string, int> occurrences;
  for (const Literal& lit : remaining) {
    for (const std::string& v : VarsOf(*lit.ref)) ++occurrences[v];
  }

  auto admissible = [&](const Literal& lit) {
    std::set<std::string> need;
    if (lit.negated) {
      for (const std::string& v : VarsOf(*lit.ref)) {
        if (occurrences[v] > 1) need.insert(v);
      }
    } else {
      need = SetRefValueVars(*lit.ref);
    }
    for (const std::string& v : need) {
      if (!bound.count(v)) return false;
    }
    return true;
  };

  while (!remaining.empty()) {
    size_t pick = remaining.size();
    double pick_cost = 0;
    for (size_t i = 0; i < remaining.size(); ++i) {
      if (!admissible(remaining[i])) continue;
      if (!cost) {
        pick = i;
        break;
      }
      const double c = cost(remaining[i], bound);
      if (pick == remaining.size() || c < pick_cost) {
        pick = i;
        pick_cost = c;
      }
    }
    if (pick == remaining.size()) {
      return UnsafeRule(
          "cannot order the conjunction: a negated literal or `->>` filter "
          "result needs variables no earlier literal can bind");
    }
    if (costs != nullptr) costs->push_back(pick_cost);
    if (!remaining[pick].negated) {
      // Negated literals are tests; they bind nothing.
      for (const std::string& v : VarsOf(*remaining[pick].ref)) {
        bound.insert(v);
      }
    }
    ordered.push_back(std::move(remaining[pick]));
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(pick));
  }
  *body = std::move(ordered);
  if (bound_out) *bound_out = std::move(bound);
  return Status::OK();
}

Status EnumerateBody(const std::vector<Literal>& body,
                     const std::set<std::string>& vars, RefEvaluator* eval,
                     std::set<VarValuation>* out, size_t delta_literal,
                     uint64_t delta_from) {
  Bindings b;
  std::function<Result<bool>(size_t)> go = [&](size_t i) -> Result<bool> {
    if (i == body.size()) {
      VarValuation v;
      for (const std::string& var : vars) v.emplace(var, *b.Get(var));
      out->insert(std::move(v));
      return true;
    }
    const Literal& lit = body[i];
    if (lit.negated) {
      Result<bool> sat = eval->Satisfiable(*lit.ref, &b);
      if (!sat.ok()) return sat.status();
      if (*sat) return true;  // negated literal fails: backtrack
      return go(i + 1);
    }
    if (i != delta_literal) {
      return eval->Enumerate(*lit.ref, &b, [&](Oid) { return go(i + 1); });
    }
    // The designated literal: delta counting is active only while this
    // literal matches.
    eval->EnterDelta(delta_from);
    Result<bool> res =
        eval->Enumerate(*lit.ref, &b, [&](Oid) -> Result<bool> {
          if (!eval->DeltaSeen()) return true;
          bool saved = eval->SuspendDelta();
          Result<bool> r = go(i + 1);
          eval->ResumeDelta(saved);
          return r;
        });
    eval->ExitDelta();
    return res;
  };
  Result<bool> r = go(0);
  return r.ok() ? Status::OK() : r.status();
}

Status Engine::AddRule(const Rule& rule) {
  PATHLOG_RETURN_IF_ERROR(CheckRuleWellFormed(rule));
  PlannedRule pr;
  pr.rule = rule;
  pr.index = rules_.size();
  PATHLOG_RETURN_IF_ERROR(PlanBody(&pr.rule));
  pr.head_vars = VarsOf(*pr.rule.head);
  rules_.push_back(std::move(pr));
  return Status::OK();
}

Status Engine::AddRules(const std::vector<Rule>& rules) {
  for (const Rule& r : rules) {
    PATHLOG_RETURN_IF_ERROR(AddRule(r));
  }
  return Status::OK();
}

void Engine::ScanNewFacts() {
  const uint64_t end = store_->generation();
  for (uint64_t g = scan_watermark_; g < end; ++g) {
    const Fact& f = store_->FactAt(g);
    if (f.kind == FactKind::kIsa) {
      isa_gen_ = g + 1;
    } else {
      uint64_t& mg = method_gen_[f.method];
      mg = std::max(mg, g + 1);
    }
    any_gen_ = g + 1;
  }
  scan_watermark_ = end;
}

bool Engine::RuleAffected(const PlannedRule& pr, const RuleDeps& deps) const {
  const uint64_t since = pr.last_eval_gen;
  if (deps.reads_any && any_gen_ > since) return true;
  if ((deps.reads_isa || deps.defines_isa) && isa_gen_ > since) return true;
  for (Oid m : deps.reads) {
    auto it = method_gen_.find(m);
    if (it != method_gen_.end() && it->second > since) return true;
  }
  for (Oid m : deps.reads_complete) {
    auto it = method_gen_.find(m);
    if (it != method_gen_.end() && it->second > since) return true;
  }
  return false;
}

bool Engine::HeadReadsChanged(const PlannedRule& pr,
                              const RuleDeps& deps) const {
  const uint64_t since = pr.last_eval_gen;
  if (deps.head_reads_any && any_gen_ > since) return true;
  // Class filters in heads interact with the hierarchy.
  if (deps.defines_isa && isa_gen_ > since) return true;
  for (Oid m : deps.head_reads) {
    auto it = method_gen_.find(m);
    if (it != method_gen_.end() && it->second > since) return true;
  }
  return false;
}

Status Engine::WithLimitContext(const Status& st) {
  // Without where evaluation stood, a tripped limit on a large program
  // gives no hint which rule was running away.
  stats_.limit_stratum = current_stratum_;
  stats_.limit_rule =
      current_rule_ != nullptr ? ToString(current_rule_->rule) : "";
  std::string where = StrCat(" in stratum ", stats_.limit_stratum);
  if (!stats_.limit_rule.empty()) {
    where += StrCat(" while evaluating rule `", stats_.limit_rule, "`");
  }
  return Status(st.code(), StrCat(st.message(), where));
}

Status Engine::EvaluateRule(PlannedRule* pr, HeadAsserter* asserter,
                            std::optional<uint64_t> delta_from) {
  SemanticStructure I(*store_);
  RefEvaluator eval(I, options_.use_inverted_indexes);
  eval.set_budget(budget_);
  Status st = EvaluateRuleBody(pr, asserter, delta_from, &eval);
  // Flush the evaluator's route counters on every path (including
  // errors — a tripped deadline still wants its profile).
  stats_.duplicates_suppressed += eval.duplicates_suppressed();
  if (options_.obs.profiler != nullptr) {
    Profiler::RouteTotals routes;
    routes.inverted_probes = eval.inverted_probes();
    routes.extent_scans = eval.extent_scans();
    routes.universe_scans = eval.universe_scans();
    routes.duplicates_suppressed = eval.duplicates_suppressed();
    options_.obs.profiler->RecordRoutes(routes);
  }
  return st;
}

Status Engine::EvaluateRuleBody(PlannedRule* pr, HeadAsserter* asserter,
                                std::optional<uint64_t> delta_from,
                                RefEvaluator* eval) {
  // Body enumeration must not mutate the store (iterator stability), so
  // solutions are batched — projected onto the head's variables and
  // deduplicated — and asserted afterwards.
  std::set<VarValuation> batch;
  const std::vector<Literal>& body = pr->rule.body;
  if (!delta_from.has_value()) {
    PATHLOG_RETURN_IF_ERROR(EnumerateBody(body, pr->head_vars, eval, &batch));
  } else {
    for (size_t p = 0; p < body.size(); ++p) {
      if (body[p].negated) continue;  // monotone store: no new matches
      ++stats_.delta_passes;
      FlightSpan delta_span(options_.obs.flight, "delta_pass", "engine",
                            "literal", p);
      PATHLOG_RETURN_IF_ERROR(EnumerateBody(body, pr->head_vars, eval,
                                            &batch, p, *delta_from));
    }
  }

  for (const VarValuation& v : batch) {
    Bindings hb;
    for (const auto& [var, oid] : v) hb.Bind(var, oid);
    const uint64_t before = store_->generation();
    PATHLOG_RETURN_IF_ERROR(asserter->Assert(*pr->rule.head, &hb));
    ++stats_.derivations;
    budget_->ChargeDerivations();
    // Poll mid-batch so a huge assertion batch cannot blow far past a
    // store or derivation ceiling before the per-rule check.
    if ((stats_.derivations & 0x3FF) == 0) {
      PATHLOG_RETURN_IF_ERROR(budget_->Check(*store_));
    }
    if (options_.trace_provenance && store_->generation() > before) {
      provenance_.push_back(
          DerivationRecord{before, store_->generation(), pr->index, v});
    }
  }
  return budget_->Check(*store_);
}

Status Engine::RunStratum(int stratum, const std::vector<size_t>& rule_idxs,
                          const std::vector<RuleDeps>& deps) {
  FlightSpan stratum_span(options_.obs.flight, "stratum", "engine",
                          "stratum", static_cast<uint64_t>(stratum));
  current_stratum_ = stratum;
  HeadAsserter asserter(store_, options_.head_value_mode);
  bool first = true;
  for (;;) {
    ++stats_.iterations;
    ++stats_.stratum_iterations[static_cast<size_t>(stratum)];
    if (stats_.iterations > options_.max_iterations) {
      return WithLimitContext(ResourceExhausted(
          StrCat("iteration limit exceeded (", options_.max_iterations, ")")));
    }
    FlightSpan iter_span(
        options_.obs.flight, "iteration", "engine", "n",
        stats_.stratum_iterations[static_cast<size_t>(stratum)]);
    const uint64_t start_gen = store_->generation();
    for (size_t idx : rule_idxs) {
      PlannedRule& pr = rules_[idx];
      const bool semi = options_.strategy != EvalStrategy::kNaive;
      if (semi && !first && !RuleAffected(pr, deps[idx])) {
        continue;
      }
      std::optional<uint64_t> delta_from;
      if (options_.strategy == EvalStrategy::kSemiNaiveDelta && !first &&
          !HeadReadsChanged(pr, deps[idx])) {
        delta_from = pr.last_eval_gen;
      }
      pr.last_eval_gen = store_->generation();
      ++stats_.rule_evaluations;
      current_rule_ = &pr;
      Profiler* profiler = options_.obs.profiler;
      const uint64_t delta_passes_before = stats_.delta_passes;
      const uint64_t derivations_before = stats_.derivations;
      std::chrono::steady_clock::time_point rule_t0;
      if (profiler != nullptr) rule_t0 = std::chrono::steady_clock::now();
      Status rule_status;
      {
        FlightSpan rule_span(options_.obs.flight, "rule.evaluate", "engine",
                             "rule", idx);
        rule_status = EvaluateRule(&pr, &asserter, delta_from);
      }
      if (profiler != nullptr) {
        const uint64_t wall_ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - rule_t0)
                .count());
        profiler->RecordRuleEvaluation(
            ToString(pr.rule), wall_ns,
            stats_.delta_passes - delta_passes_before,
            stats_.derivations - derivations_before);
      }
      // A trip inside the evaluator's enumeration polls or at the
      // per-rule check: either way the window says it was a limit.
      if (!rule_status.ok() && budget_->rejected()) {
        rule_status = WithLimitContext(rule_status);
      }
      current_rule_ = nullptr;
      PATHLOG_RETURN_IF_ERROR(rule_status);
    }
    ScanNewFacts();
    first = false;
    if (store_->generation() == start_gen) break;
  }
  stats_.skolems_created += asserter.skolems_created();
  return Status::OK();
}

Status Engine::Run() {
  ResourceBudget budget(options_.limits);
  Status st = Run(&budget);
  CountBudgetRejection(options_.obs.metrics, budget);
  return st;
}

Status Engine::Run(ResourceBudget* budget) {
  FlightSpan run_span(options_.obs.flight, "engine.run", "engine");
  const EngineStats before = stats_;
  budget_ = budget;
  const auto t0 = std::chrono::steady_clock::now();
  Status st = RunImpl();
  const double run_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  budget_ = nullptr;
  // Recorded even when RunImpl fails: a kDeadlineExceeded run with no
  // elapsed time would be undiagnosable.
  stats_.elapsed_ms += run_ms;
  PublishMetrics(before, run_ms);
  return st;
}

void Engine::PublishMetrics(const EngineStats& before, double run_ms) {
  MetricsRegistry* m = options_.obs.metrics;
  if (m == nullptr) return;
  auto bump = [&](const char* name, const char* help, uint64_t now_v,
                  uint64_t before_v) {
    Counter* c = m->GetCounter(name, help);
    if (c != nullptr && now_v > before_v) c->Inc(now_v - before_v);
  };
  Counter* runs = m->GetCounter("pathlog_engine_runs_total",
                                "materialisation runs started");
  if (runs != nullptr) runs->Inc();
  bump("pathlog_engine_iterations_total", "fixpoint rounds",
       stats_.iterations, before.iterations);
  bump("pathlog_engine_rule_evaluations_total", "rule body evaluations",
       stats_.rule_evaluations, before.rule_evaluations);
  bump("pathlog_engine_delta_passes_total",
       "delta-restricted literal passes", stats_.delta_passes,
       before.delta_passes);
  bump("pathlog_engine_derivations_total", "head instances asserted",
       stats_.derivations, before.derivations);
  bump("pathlog_engine_facts_added_total", "store growth from Run()",
       stats_.facts_added, before.facts_added);
  bump("pathlog_engine_skolems_total", "virtual objects created",
       stats_.skolems_created, before.skolems_created);
  bump("pathlog_engine_duplicates_suppressed_total",
       "duplicate path emissions suppressed", stats_.duplicates_suppressed,
       before.duplicates_suppressed);
  Histogram* h =
      m->GetHistogram("pathlog_engine_run_ms", DefaultLatencyBoundsMs(),
                      "Run() wall time in milliseconds");
  if (h != nullptr) h->Observe(run_ms);
}

Status Engine::RunImpl() {
  const uint64_t start_facts = store_->generation();
  std::vector<Rule> plain;
  plain.reserve(rules_.size());
  for (const PlannedRule& pr : rules_) plain.push_back(pr.rule);
  Result<DependencyGraph> graph_result = [&] {
    FlightSpan span(options_.obs.flight, "engine.stratify", "engine");
    return DependencyGraph::Build(plain, store_, options_.head_value_mode);
  }();
  PATHLOG_ASSIGN_OR_RETURN(DependencyGraph graph, std::move(graph_result));
  PATHLOG_ASSIGN_OR_RETURN(Stratification strata,
                           Stratify(graph, rules_.size()));
  stats_.num_strata = strata.num_strata;
  stats_.stratum_iterations.assign(
      static_cast<size_t>(strata.num_strata), 0);

  // Account for facts loaded before Run() in the change tracker.
  ScanNewFacts();

  for (int s = 0; s < strata.num_strata; ++s) {
    std::vector<size_t> idxs;
    for (size_t r = 0; r < rules_.size(); ++r) {
      if (strata.rule_stratum[r] == s) idxs.push_back(r);
    }
    if (idxs.empty()) continue;
    PATHLOG_RETURN_IF_ERROR(RunStratum(s, idxs, graph.rule_deps()));
  }
  stats_.facts_added += store_->generation() - start_facts;
  return Status::OK();
}

}  // namespace pathlog
