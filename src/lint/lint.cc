#include "lint/lint.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <vector>

#include "ast/analysis.h"
#include "ast/printer.h"
#include "base/strings.h"
#include "eval/dependency.h"
#include "eval/engine.h"
#include "eval/stratify.h"
#include "lint/dataflow/analyses.h"
#include "parser/parser.h"
#include "semantics/structure.h"
#include "store/object_store.h"

namespace pathlog {

namespace {

// ---- PL002: locating an ill-formed reference ------------------------

struct IllFormedSite {
  Span span;
  std::string message;
};

IllFormedSite LocateIllFormed(const Ref& t, Span fallback);

/// Blames a site inside `child` if it is itself ill-formed; the caller
/// keeps the blame otherwise.
std::optional<IllFormedSite> BlameIfIllFormed(const Ref& child,
                                              Span fallback) {
  if (CheckWellFormed(child).ok()) return std::nullopt;
  return LocateIllFormed(child, fallback);
}

/// Pre: CheckWellFormed(t) fails. Returns the smallest sub-reference
/// to blame, so the diagnostic points at the offending filter or
/// method rather than the whole clause.
IllFormedSite LocateIllFormed(const Ref& t, Span fallback) {
  Span here = SpanOf(t, fallback);
  switch (t.kind) {
    case RefKind::kName:
    case RefKind::kVar:
      break;  // leaves never fail
    case RefKind::kParen:
      if (auto site = BlameIfIllFormed(*t.base, here)) return *site;
      break;
    case RefKind::kPath: {
      if (auto site = BlameIfIllFormed(*t.base, here)) return *site;
      if (auto site = BlameIfIllFormed(*t.method, here)) return *site;
      for (const RefPtr& a : t.args) {
        if (auto site = BlameIfIllFormed(*a, here)) return *site;
      }
      // Sub-references are fine, so the path itself is at fault
      // (a non-simple method position): blame the method.
      return {SpanOf(*t.method, here), CheckWellFormed(t).message()};
    }
    case RefKind::kMolecule: {
      if (auto site = BlameIfIllFormed(*t.base, here)) return *site;
      for (const Filter& f : t.filters) {
        // Probe each filter on its own to pin the offending one.
        RefPtr probe = Ref::Molecule(t.base, {f});
        Status st = CheckWellFormed(*probe);
        if (st.ok()) continue;
        const RefPtr& anchor =
            f.kind == FilterKind::kClass ? f.value : f.method;
        Span fspan = anchor ? SpanOf(*anchor, here) : here;
        std::vector<const RefPtr*> parts;
        if (f.method) parts.push_back(&f.method);
        for (const RefPtr& a : f.args) parts.push_back(&a);
        if (f.value) parts.push_back(&f.value);
        for (const RefPtr& e : f.elems) parts.push_back(&e);
        for (const RefPtr* part : parts) {
          if (auto site = BlameIfIllFormed(**part, fspan)) return *site;
        }
        return {fspan, st.message()};
      }
      break;
    }
  }
  return {here, CheckWellFormed(t).message()};
}

// ---- method-use collection (PL008/PL009/PL011/PL012) ----------------

struct MethodUse {
  std::string name;
  bool set_use;   ///< `..m` path or `->>` filter (vs `.m` / `->`)
  bool defining;  ///< head position that asserts facts for the method
  Span span;
};

struct UseSink {
  std::vector<MethodUse> uses;
  /// A variable or complex reference at a defining (resp. reading)
  /// method position: the clause may define (read) *any* method.
  bool wildcard_define = false;
  bool wildcard_read = false;
};

/// Everything the linter gathers about one rule-like clause.
struct ClauseUses {
  UseSink head;
  std::vector<UseSink> body;  // parallel to the body literal vector
};

/// Records method *names* with source spans and a defining/reading
/// split: a head filter always defines, a head path on the spine and,
/// under kSkolemize, at value positions (eval/head_assert.h).
ClauseUses CollectUses(const Rule& rule, bool skolemize) {
  ClauseUses out;
  out.body.resize(rule.body.size());
  ForEachMethodSite(rule, [&](const MethodSite& site) {
    if (site.is_class()) return Descend::kNo;
    UseSink& sink = site.in_head() ? out.head : out.body[site.literal];
    const bool defining =
        site.in_asserted_head() &&
        (site.filter != nullptr || site.place == SitePlace::kHeadSpine ||
         skolemize);
    if (const Ref* m = site.name()) {
      const std::string name = site.name_text();
      if (!IsBuiltinMethodName(name)) {
        const bool set_use = site.filter == nullptr
                                 ? site.node->set_valued_path
                                 : site.filter->kind != FilterKind::kScalar;
        sink.uses.push_back({name, set_use, defining, SpanOf(*m, site.span)});
      }
      return Descend::kNo;
    }
    (defining ? sink.wildcard_define : sink.wildcard_read) = true;
    // A complex method (the generic `(M.tc)`) has uses of its own.
    return defining ? Descend::kDefine : Descend::kRead;
  });
  return out;
}

// ---- the linter -----------------------------------------------------

struct SigInfo {
  bool scalar = false;
  bool set = false;
};

class LintPass {
 public:
  LintPass(const LintOptions& options, LintReport* report)
      : options_(options), report_(report) {}

  void Run(const Program& program) {
    CheckSignatureDecls(program.signatures);
    for (const Rule& rule : program.rules) {
      CheckRuleLike(rule, /*is_trigger=*/false);
    }
    for (const TriggerRule& trigger : program.triggers) {
      CheckRuleLike(trigger.rule, /*is_trigger=*/true);
    }
    for (const struct Query& query : program.queries) {
      CheckQuery(query);
    }
    CheckStratifiable(program.rules);
    if (!options_.errors_only) {
      CheckAgainstSignatures(program);
      CheckReachability(program);
    }
    if (options_.analyze) AnalyzeProgram(program, options_, report_);
  }

 private:
  bool skolemize() const {
    return options_.head_value_mode == HeadValueMode::kSkolemize;
  }

  void Add(LintCode code, Severity severity, Span span, std::string message,
           std::vector<std::string> notes = {}) {
    if (options_.errors_only && severity != Severity::kError) return;
    report_->Add(code, severity, span.line, span.column, std::move(message),
                 std::move(notes));
  }

  // PL002 for bad declarations; fills sigs_ for the later checks.
  void CheckSignatureDecls(const std::vector<SignatureDecl>& decls) {
    for (const SignatureDecl& decl : decls) {
      Span span{decl.line, decl.column};
      bool usable = true;
      auto require_ground_name = [&](const RefPtr& r, const char* role) {
        const Ref* d = r ? &Deref(*r) : nullptr;
        if (d == nullptr || d->kind != RefKind::kName) {
          Add(LintCode::kIllFormed, Severity::kError,
              r ? SpanOf(*r, span) : span,
              StrCat("signature ", role, " must be a ground name",
                     r ? StrCat(", got: ", ToString(*r)) : ""));
          usable = false;
        }
      };
      require_ground_name(decl.klass, "class");
      require_ground_name(decl.method, "method");
      require_ground_name(decl.result_type, "result type");
      for (const RefPtr& a : decl.arg_types) {
        require_ground_name(a, "argument type");
      }
      if (!usable) continue;
      SigInfo& info = sigs_[Deref(*decl.method).text];
      (decl.set_valued ? info.set : info.scalar) = true;
    }
  }

  // PL002/PL003/PL004/PL005/PL006/PL010/PL013 for one rule or trigger.
  void CheckRuleLike(const Rule& rule, bool is_trigger) {
    Span clause{rule.line, rule.column};
    if (!rule.head) {
      Add(LintCode::kIllFormed, Severity::kError, clause,
          "rule has no head");
      return;
    }
    Status head_wf = CheckWellFormed(*rule.head);
    if (!head_wf.ok()) {
      IllFormedSite site = LocateIllFormed(*rule.head, clause);
      Add(LintCode::kIllFormed, Severity::kError, site.span, site.message);
    } else if (IsSetValued(*rule.head)) {
      Add(LintCode::kSetValuedHead, Severity::kError,
          SpanOf(*rule.head, clause),
          StrCat("set-valued reference cannot be a rule head (its "
                 "denotation is not uniquely determined, paper "
                 "section 6): ",
                 ToString(*rule.head)));
    } else {
      const Ref* h = &Deref(*rule.head);
      if (h->kind == RefKind::kName || h->kind == RefKind::kVar) {
        Add(LintCode::kTrivialHead, Severity::kError,
            SpanOf(*rule.head, clause),
            StrCat("rule head asserts nothing; it must be a path or "
                   "molecule, got: ",
                   ToString(*rule.head)));
      }
    }
    for (const Literal& lit : rule.body) {
      Span lspan{lit.line, lit.column};
      if (!lit.ref) {
        Add(LintCode::kIllFormed, Severity::kError, lspan,
            "rule body contains an empty literal");
        continue;
      }
      if (!CheckWellFormed(*lit.ref).ok()) {
        IllFormedSite site = LocateIllFormed(*lit.ref, lspan);
        Add(LintCode::kIllFormed, Severity::kError, site.span, site.message);
      }
    }
    CheckSafety(rule.head.get(), rule.body, clause, rule.IsFact());
    CheckVariableHygiene(rule.head.get(), rule.body, clause);
    if (is_trigger) {
      if (rule.body.empty()) {
        Add(LintCode::kIllFormedTrigger, Severity::kError, clause,
            "a trigger needs an event literal (head <~ event, ...)");
      } else if (rule.body.front().negated) {
        Add(LintCode::kIllFormedTrigger, Severity::kError,
            Span{rule.body.front().line, rule.body.front().column},
            "the event literal of a trigger must be positive (facts are "
            "monotone; there is no deletion event)");
      } else if (rule.body.front().ref) {
        // The engine's own admission check, so Load and lint agree.
        if (Status st = CheckEventRunsFirst(rule); !st.ok()) {
          Add(LintCode::kIllFormedTrigger, Severity::kError,
              Span{rule.body.front().line, rule.body.front().column},
              st.message());
        }
      }
    }
  }

  void CheckQuery(const struct Query& query) {
    Span clause{query.line, query.column};
    for (const Literal& lit : query.body) {
      Span lspan{lit.line, lit.column};
      if (!lit.ref) {
        Add(LintCode::kIllFormed, Severity::kError, lspan,
            "query contains an empty literal");
        continue;
      }
      if (!CheckWellFormed(*lit.ref).ok()) {
        IllFormedSite site = LocateIllFormed(*lit.ref, lspan);
        Add(LintCode::kIllFormed, Severity::kError, site.span, site.message);
      }
    }
    CheckSafety(nullptr, query.body, clause, /*is_fact=*/false);
    // No singleton check: one-off query variables are idiomatic.
    CheckNegationOnlyVars(nullptr, query.body, nullptr);
  }

  // PL005: unorderable conjunction, unbound head variables, non-ground
  // facts.
  void CheckSafety(const Ref* head, const std::vector<Literal>& body,
                   Span clause, bool is_fact) {
    for (const Literal& lit : body) {
      if (!lit.ref) return;  // already reported as PL002
    }
    std::vector<Literal> ordered = body;
    std::set<std::string> bound;
    Status st = OrderLiteralsForSafety(&ordered, &bound);
    if (!st.ok()) {
      Add(LintCode::kUnsafeRule, Severity::kError, clause, st.message());
      return;
    }
    if (head == nullptr) return;
    for (const std::string& v : VarsOf(*head)) {
      if (bound.count(v)) continue;
      Add(LintCode::kUnsafeRule, Severity::kError, SpanOf(*head, clause),
          is_fact
              ? StrCat("fact is not ground: variable ", v,
                       " has no binding occurrence")
              : StrCat("head variable ", v,
                       " is not bound by any positive body literal "
                       "(range restriction)"));
    }
  }

  // PL006 helper shared between rules and queries. `singleton_exempt`
  // (if non-null) receives the variables already reported, so the
  // singleton check can skip them.
  void CheckNegationOnlyVars(const Ref* head,
                             const std::vector<Literal>& body,
                             std::set<std::string>* singleton_exempt) {
    std::set<std::string> positive;
    if (head) CollectVars(*head, &positive);
    for (const Literal& lit : body) {
      if (!lit.negated && lit.ref) CollectVars(*lit.ref, &positive);
    }
    std::set<std::string> reported;
    for (const Literal& lit : body) {
      if (!lit.negated || !lit.ref) continue;
      for (const std::string& v : VarsOf(*lit.ref)) {
        if (positive.count(v) || reported.count(v)) continue;
        if (StartsWith(v, "_")) continue;
        reported.insert(v);
        Add(LintCode::kNegationOnlyVar, Severity::kWarning,
            Span{lit.line, lit.column},
            StrCat("variable ", v,
                   " occurs only under negation (existentially "
                   "quantified inside the `not`); rename it to _", v,
                   " if that is intended"));
      }
    }
    if (singleton_exempt) {
      singleton_exempt->insert(reported.begin(), reported.end());
    }
  }

  // PL006 + PL010 for one rule.
  void CheckVariableHygiene(const Ref* head,
                            const std::vector<Literal>& body, Span clause) {
    std::set<std::string> exempt;
    CheckNegationOnlyVars(head, body, &exempt);
    std::map<std::string, int> counts;
    if (head) CollectVarCounts(*head, &counts);
    for (const Literal& lit : body) {
      if (lit.ref) CollectVarCounts(*lit.ref, &counts);
    }
    for (const auto& [var, count] : counts) {
      if (count != 1 || StartsWith(var, "_") || exempt.count(var)) continue;
      Add(LintCode::kSingletonVar, Severity::kWarning, clause,
          StrCat("variable ", var,
                 " occurs only once in this rule; a singleton joins "
                 "nothing (use _", var, " to mark it intentional)"));
    }
  }

  // PL007 with the offending cycle spelled out.
  void CheckStratifiable(const std::vector<Rule>& rules) {
    ObjectStore store;
    Result<DependencyGraph> graph =
        DependencyGraph::Build(rules, &store, options_.head_value_mode);
    if (!graph.ok()) return;
    CycleExplanation cycle;
    Result<Stratification> strata = Stratify(*graph, rules.size(), &cycle);
    if (strata.ok()) return;

    std::vector<std::string> notes;
    Span span{0, 0};
    for (size_t i = 0; i < cycle.edges.size(); ++i) {
      const DependencyGraph::Edge& e = cycle.edges[i];
      std::string via;
      if (e.rule >= 0 && static_cast<size_t>(e.rule) < rules.size()) {
        const Rule& r = rules[static_cast<size_t>(e.rule)];
        if (span.line == 0 && r.line > 0) span = {r.line, r.column};
        via = StrCat("rule #", e.rule + 1, " (line ", r.line, "): ",
                     ToString(r));
      } else {
        via = "generic wildcard coupling (a variable or complex method "
              "position links all methods)";
      }
      if (i == 0) {
        notes.push_back(StrCat(
            "cycle closed by the needs-complete edge: deriving '",
            graph->NodeName(e.from), "' needs the *complete* result set of '",
            graph->NodeName(e.to),
            "' — a `->>` filter result or negated literal in ", via));
      } else {
        notes.push_back(StrCat("the cycle returns via '",
                               graph->NodeName(e.from), "' -> '",
                               graph->NodeName(e.to), "' in ", via));
      }
    }
    Add(LintCode::kNotStratifiable, Severity::kError, span,
        strata.status().message(), std::move(notes));
  }

  // PL008 / PL009 / PL012 against the declared signatures.
  void CheckAgainstSignatures(const Program& program) {
    if (sigs_.empty()) return;
    std::set<std::string> undeclared_read, undeclared_defined;
    std::set<std::string> flavour_reported;
    auto consider = [&](const MethodUse& use) {
      auto it = sigs_.find(use.name);
      if (it == sigs_.end()) {
        if (use.defining) {
          if (!undeclared_defined.insert(use.name).second) return;
          Add(LintCode::kUnsignedHeadPath, Severity::kWarning, use.span,
              StrCat("head defines objects through method ", use.name,
                     ", which no signature declares; virtual objects "
                     "should be signature-typed (section 6)"));
        } else {
          if (!undeclared_read.insert(use.name).second) return;
          Add(LintCode::kUndeclaredMethod, Severity::kWarning, use.span,
              StrCat("method ", use.name,
                     " is used but no signature declares it"));
        }
        return;
      }
      const SigInfo& info = it->second;
      if (use.set_use && !info.set) {
        if (flavour_reported.insert(StrCat(use.name, "/set")).second) {
          Add(LintCode::kFlavourMismatch, Severity::kWarning, use.span,
              StrCat("set-valued use of method ", use.name,
                     " but its signatures all declare a scalar (`=>`) "
                     "method"));
        }
      } else if (!use.set_use && !info.scalar) {
        if (flavour_reported.insert(StrCat(use.name, "/scalar")).second) {
          Add(LintCode::kFlavourMismatch, Severity::kWarning, use.span,
              StrCat("scalar use of method ", use.name,
                     " but its signatures all declare a set-valued "
                     "(`=>>`) method"));
        }
      }
    };
    auto consider_clause = [&](const Rule& rule) {
      ClauseUses uses = CollectUses(rule, skolemize());
      for (const MethodUse& use : uses.head.uses) consider(use);
      for (const UseSink& sink : uses.body) {
        for (const MethodUse& use : sink.uses) consider(use);
      }
    };
    for (const Rule& rule : program.rules) consider_clause(rule);
    for (const TriggerRule& trigger : program.triggers) {
      consider_clause(trigger.rule);
    }
    for (const struct Query& query : program.queries) {
      Rule as_rule;
      as_rule.body = query.body;
      as_rule.line = query.line;
      as_rule.column = query.column;
      consider_clause(as_rule);
    }
  }

  // PL011: a positive body literal reads a method nothing defines.
  void CheckReachability(const Program& program) {
    std::set<std::string> defined = options_.assume_defined;
    for (const auto& kv : sigs_) defined.insert(kv.first);
    std::vector<const Rule*> clauses;
    for (const Rule& rule : program.rules) clauses.push_back(&rule);
    for (const TriggerRule& trigger : program.triggers) {
      clauses.push_back(&trigger.rule);
    }
    std::vector<ClauseUses> all_uses;
    for (const Rule* rule : clauses) {
      all_uses.push_back(CollectUses(*rule, skolemize()));
      const ClauseUses& uses = all_uses.back();
      if (uses.head.wildcard_define) return;  // anything may be defined
      for (const MethodUse& use : uses.head.uses) {
        if (use.defining) defined.insert(use.name);
      }
    }
    for (size_t c = 0; c < clauses.size(); ++c) {
      const Rule& rule = *clauses[c];
      if (rule.IsFact()) continue;
      std::set<std::string> reported;
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (rule.body[i].negated) continue;
        for (const MethodUse& use : all_uses[c].body[i].uses) {
          if (defined.count(use.name) || !reported.insert(use.name).second) {
            continue;
          }
          Add(LintCode::kRuleNeverFires, Severity::kWarning, use.span,
              StrCat("this rule can never fire: its body reads method ",
                     use.name,
                     ", which no fact, rule head, or signature defines"));
        }
      }
    }
  }

  const LintOptions& options_;
  LintReport* report_;
  std::map<std::string, SigInfo> sigs_;
};

}  // namespace

LintReport ProgramLinter::Lint(const Program& program) const {
  LintReport report;
  LintPass pass(options_, &report);
  pass.Run(program);
  return report;
}

LintReport ProgramLinter::LintSource(std::string_view source) const {
  Result<Program> program = ParseProgram(source);
  if (!program.ok()) {
    LintReport report;
    // Parser messages lead with "line L, column C: ..."; recover the
    // span so PL001 is located like every other diagnostic.
    int line = 0, column = 0;
    const std::string& msg = program.status().message();
    (void)sscanf(msg.c_str(), "line %d, column %d", &line, &column);
    report.Add(LintCode::kParseError, Severity::kError, line, column, msg);
    return report;
  }
  return Lint(*program);
}

}  // namespace pathlog
