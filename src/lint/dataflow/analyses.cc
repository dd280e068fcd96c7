#include "lint/dataflow/analyses.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ast/analysis.h"
#include "ast/printer.h"
#include "base/strings.h"
#include "eval/dependency.h"
#include "eval/engine.h"
#include "lint/dataflow/dataflow.h"
#include "semantics/structure.h"
#include "store/object_store.h"

namespace pathlog {

namespace {

struct Span {
  int line = 0;
  int column = 0;
};

Span SpanOf(const Ref& t, Span fallback) {
  return t.line > 0 ? Span{t.line, t.column} : fallback;
}

bool IsGuardName(const std::string& name) {
  return name == kLtName || name == kLeqName || name == kGtName ||
         name == kGeqName || name == kIntEqName || name == kIntNeqName ||
         name == kBetweenName;
}

// ---- per-clause structure -------------------------------------------

/// One head assignment into a method: `value` is the asserted result
/// reference, or null when the head invents the result (a skolem).
struct Assignment {
  std::string method;
  const Ref* value = nullptr;
  Span span;
};

/// One comparison-guard application, head or body.
struct GuardUse {
  const Ref* receiver = nullptr;  ///< deref'd
  std::string guard;
  std::vector<const Ref*> args;  ///< deref'd
  Span span;
};

/// A grant (head) or requirement (body) on one receiver: a filter atom
/// or a bare path use.
struct Atom {
  FilterKind kind = FilterKind::kScalar;
  std::string name;  ///< method name; class name for kClass
  const Ref* value = nullptr;
  std::vector<const Ref*> elems;
  bool has_args = false;
  bool path_only = false;  ///< bare `X.m`: existence, no value constraint
  Span span;
};

/// How one positive body literal relates to the head's anchor variable.
enum class LiteralRole : uint8_t {
  kIgnoresAnchor,   ///< does not mention the anchor at all
  kAnchoredSimple,  ///< molecule/path directly over the anchor variable
  kAnchoredDeep,    ///< anchored on it through a longer chain
  kMentionsOnly,    ///< mentions it in a non-anchor position
};

struct BodyLiteralInfo {
  const Literal* lit = nullptr;
  Span span;
  /// Non-builtin method names this literal reads, with first spans.
  std::vector<std::pair<std::string, Span>> reads;
  bool reads_any = false;  ///< variable/complex method position
};

struct ClauseInfo {
  const Rule* rule = nullptr;
  size_t rule_index = 0;  ///< into Program::rules; SIZE_MAX for triggers
  bool is_trigger = false;
  Span span;

  // Sort flow.
  std::vector<Assignment> assignments;
  /// var -> methods whose result sorts flow into it (body bindings).
  std::map<std::string, std::vector<std::string>> var_sources;
  std::vector<GuardUse> guards;
  std::set<std::string> sort_reads;  ///< methods the transfer consults

  // Liveness.
  std::set<std::string> defines;  ///< head-defined methods
  bool defines_any = false;
  std::vector<BodyLiteralInfo> body;  ///< positive literals only

  // PL015: ground scalar bindings per (receiver key, method key).
  struct ScalarBinding {
    const Ref* value = nullptr;  ///< deref'd ground name or var
    Span span;
  };
  std::map<std::pair<std::string, std::string>, std::vector<ScalarBinding>>
      scalar_bindings;
};

/// Walks one clause and fills a ClauseInfo. Mirrors the traversal
/// split of eval/dependency.cc's Collector: head positions assert
/// (spine always creates, value positions create only under
/// kSkolemize), body positions read.
class ClauseWalker {
 public:
  ClauseWalker(ClauseInfo* out, bool skolemize)
      : out_(out), skolemize_(skolemize) {}

  void WalkHead(const Ref& t, Span fallback) { Head(t, /*spine=*/true, fallback); }

  void WalkBodyLiteral(const Literal& lit, Span fallback) {
    current_ = nullptr;
    if (!lit.negated) {
      out_->body.push_back({});
      current_ = &out_->body.back();
      current_->lit = &lit;
      current_->span = fallback;
    }
    if (lit.ref) Body(*lit.ref, fallback);
    current_ = nullptr;
  }

 private:
  void Head(const Ref& t, bool spine, Span fallback) {
    Span here = SpanOf(t, fallback);
    switch (t.kind) {
      case RefKind::kName:
      case RefKind::kVar:
        return;
      case RefKind::kParen:
        Head(*t.base, spine, here);
        return;
      case RefKind::kPath: {
        const Ref& m = Deref(*t.method);
        if (m.kind == RefKind::kName && m.name_kind == NameKind::kSymbol &&
            !IsBuiltinMethodName(m.text)) {
          if (spine || skolemize_) {
            out_->defines.insert(m.text);
            // The created result is a fresh object; spine inventions
            // are kept out of the sort conflict (the spine may equally
            // denote an existing value — see analyses.h), value-path
            // inventions under kSkolemize always produce objects.
            if (!spine && skolemize_) {
              out_->assignments.push_back({m.text, nullptr, here});
            }
          }
        } else if (m.kind != RefKind::kName) {
          out_->defines_any = true;
        }
        Head(*t.base, spine, here);
        for (const RefPtr& a : t.args) Head(*a, /*spine=*/false, here);
        return;
      }
      case RefKind::kMolecule:
        Head(*t.base, spine, here);
        for (const Filter& f : t.filters) {
          if (f.kind == FilterKind::kClass) {
            Head(*f.value, /*spine=*/false, here);
            continue;
          }
          const Ref& m = Deref(*f.method);
          std::string name;
          if (m.kind == RefKind::kName && m.name_kind == NameKind::kSymbol) {
            if (IsBuiltinMethodName(m.text)) {
              name.clear();
            } else {
              name = m.text;
              out_->defines.insert(name);
            }
          } else {
            out_->defines_any = true;
          }
          for (const RefPtr& a : f.args) Head(*a, /*spine=*/false, here);
          auto assign = [&](const Ref& value) {
            if (!name.empty()) {
              out_->assignments.push_back({name, &value, SpanOf(value, here)});
              RecordSortReads(value);
            }
            Head(value, /*spine=*/false, here);
          };
          switch (f.kind) {
            case FilterKind::kScalar:
              assign(*f.value);
              break;
            case FilterKind::kSetRef:
              // Referenced objects become members: their sorts flow in,
              // but the reference itself is a body-style read.
              if (!name.empty()) {
                out_->assignments.push_back(
                    {name, f.value.get(), SpanOf(*f.value, here)});
                RecordSortReads(*f.value);
              }
              Body(*f.value, here);
              break;
            case FilterKind::kSetEnum:
              for (const RefPtr& e : f.elems) assign(*e);
              break;
            case FilterKind::kClass:
              break;
          }
        }
        return;
    }
  }

  void Body(const Ref& t, Span fallback) {
    Span here = SpanOf(t, fallback);
    switch (t.kind) {
      case RefKind::kName:
      case RefKind::kVar:
        return;
      case RefKind::kPath: {
        const Ref& m = Deref(*t.method);
        if (m.kind == RefKind::kName && m.name_kind == NameKind::kSymbol) {
          if (IsGuardName(m.text)) {
            GuardUse g;
            g.receiver = &Deref(*t.base);
            g.guard = m.text;
            for (const RefPtr& a : t.args) g.args.push_back(&Deref(*a));
            g.span = here;
            out_->guards.push_back(std::move(g));
          } else if (!IsBuiltinMethodName(m.text)) {
            AddRead(m.text, here);
          }
        } else if (m.kind != RefKind::kName) {
          if (current_) current_->reads_any = true;
          Body(m, here);
        }
        Body(*t.base, here);
        for (const RefPtr& a : t.args) Body(*a, here);
        return;
      }
      case RefKind::kParen:
        Body(*t.base, here);
        return;
      case RefKind::kMolecule: {
        Body(*t.base, here);
        const std::string receiver_key = ReceiverKey(*t.base);
        for (const Filter& f : t.filters) {
          if (f.kind == FilterKind::kClass) {
            Body(*f.value, here);
            continue;
          }
          const Ref& m = Deref(*f.method);
          std::string name;
          if (m.kind == RefKind::kName && m.name_kind == NameKind::kSymbol) {
            if (!IsBuiltinMethodName(m.text)) {
              name = m.text;
              AddRead(name, here);
            }
          } else {
            if (current_) current_->reads_any = true;
            Body(m, here);
          }
          for (const RefPtr& a : f.args) Body(*a, here);
          // Variable bindings: the method's result sorts flow into the
          // bound variable.
          auto bind = [&](const Ref& value) {
            const Ref& v = Deref(value);
            if (!name.empty() && v.kind == RefKind::kVar && current_) {
              out_->var_sources[v.text].push_back(name);
              out_->sort_reads.insert(name);
            }
            Body(value, here);
          };
          switch (f.kind) {
            case FilterKind::kScalar: {
              bind(*f.value);
              if (!name.empty() && !receiver_key.empty() && current_) {
                const Ref& v = Deref(*f.value);
                if (v.kind == RefKind::kName || v.kind == RefKind::kVar) {
                  std::string mkey = name;
                  for (const RefPtr& a : f.args) mkey += "@" + ToString(*a);
                  out_->scalar_bindings[{receiver_key, mkey}].push_back(
                      {&v, SpanOf(v, here)});
                }
              }
              break;
            }
            case FilterKind::kSetRef:
              Body(*f.value, here);
              break;
            case FilterKind::kSetEnum:
              for (const RefPtr& e : f.elems) bind(*e);
              break;
            case FilterKind::kClass:
              break;
          }
        }
        return;
      }
    }
  }

  /// Anchor identity for the same-receiver scalar consistency check;
  /// empty when the receiver is not a plain variable or symbol.
  static std::string ReceiverKey(const Ref& base) {
    const Ref& d = Deref(base);
    if (d.kind == RefKind::kVar) return StrCat("V:", d.text);
    if (d.kind == RefKind::kName && d.name_kind == NameKind::kSymbol) {
      return StrCat("N:", d.text);
    }
    return "";
  }

  void AddRead(const std::string& name, Span span) {
    if (current_ == nullptr) return;  // negated literal: no liveness read
    for (const auto& [existing, s] : current_->reads) {
      if (existing == name) return;
    }
    current_->reads.push_back({name, span});
  }

  void RecordSortReads(const Ref& value) {
    const Ref& d = Deref(value);
    switch (d.kind) {
      case RefKind::kName:
      case RefKind::kVar:
        return;
      case RefKind::kPath: {
        const Ref& m = Deref(*d.method);
        if (m.kind == RefKind::kName && m.name_kind == NameKind::kSymbol &&
            !IsBuiltinMethodName(m.text)) {
          out_->sort_reads.insert(m.text);
        }
        RecordSortReads(*d.base);
        return;
      }
      case RefKind::kParen:
      case RefKind::kMolecule:
        if (d.base) RecordSortReads(*d.base);
        return;
    }
  }

  ClauseInfo* out_;
  bool skolemize_;
  BodyLiteralInfo* current_ = nullptr;
};

// ---- the analyzer ----------------------------------------------------

class Analyzer {
 public:
  Analyzer(const Program& program, const AnalysisOptions& options,
           LintReport* report)
      : program_(program), options_(options), report_(report) {}

  AnalysisSummary Run() {
    Collect();
    SortFlow();
    Reachability();
    Termination();
    Adornments();
    return std::move(summary_);
  }

 private:
  bool skolemize() const {
    return options_.head_value_mode == HeadValueMode::kSkolemize;
  }

  void Add(LintCode code, Severity severity, Span span, std::string message,
           std::vector<std::string> notes = {}) {
    if (report_ == nullptr) return;
    if (options_.errors_only && severity != Severity::kError) return;
    report_->Add(code, severity, span.line, span.column, std::move(message),
                 std::move(notes));
  }

  // ---- collection ----------------------------------------------------

  void Collect() {
    auto collect = [&](const Rule& rule, size_t index, bool is_trigger) {
      ClauseInfo info;
      info.rule = &rule;
      info.rule_index = index;
      info.is_trigger = is_trigger;
      info.span = {rule.line, rule.column};
      ClauseWalker walker(&info, skolemize());
      if (rule.head) walker.WalkHead(*rule.head, info.span);
      for (const Literal& lit : rule.body) {
        walker.WalkBodyLiteral(lit, Span{lit.line, lit.column});
      }
      clauses_.push_back(std::move(info));
    };
    for (size_t i = 0; i < program_.rules.size(); ++i) {
      collect(program_.rules[i], i, /*is_trigger=*/false);
    }
    for (const TriggerRule& trigger : program_.triggers) {
      collect(trigger.rule, static_cast<size_t>(-1), /*is_trigger=*/true);
    }

    // The method universe: everything defined, read, or known
    // extensionally.
    for (const ClauseInfo& c : clauses_) {
      for (const std::string& m : c.defines) Intern(m);
      for (const std::string& m : c.sort_reads) Intern(m);
      for (const BodyLiteralInfo& b : c.body) {
        for (const auto& [m, span] : b.reads) Intern(m);
      }
    }
    for (const std::string& m : options_.assume_defined) Intern(m);
    for (const auto& [m, sorts] : options_.extensional_sorts) Intern(m);
    for (const SignatureDecl& sig : program_.signatures) {
      const Ref* m = sig.method ? &Deref(*sig.method) : nullptr;
      if (m != nullptr && m->kind == RefKind::kName) {
        Intern(m->text);
        sig_methods_.insert(m->text);
      }
    }
  }

  uint32_t Intern(const std::string& name) {
    auto [it, inserted] = node_of_.try_emplace(
        name, static_cast<uint32_t>(node_names_.size()));
    if (inserted) node_names_.push_back(name);
    return it->second;
  }

  std::optional<uint32_t> NodeOf(const std::string& name) const {
    auto it = node_of_.find(name);
    if (it == node_of_.end()) return std::nullopt;
    return it->second;
  }

  // ---- analysis 1: type flow (PL014, PL015) --------------------------

  /// Sorts a signature result type contributes: the distinguished type
  /// names `integer` and `string` mean those sorts, everything else is
  /// a class of objects.
  static SortSet SigSort(const Ref& result_type) {
    const Ref& d = Deref(result_type);
    if (d.kind != RefKind::kName) return kSortBottom;
    if (d.name_kind != NameKind::kSymbol) return kSortBottom;
    if (d.text == "integer") return kSortInt;
    if (d.text == "string") return kSortString;
    return kSortObject;
  }

  SortSet ResolveSort(const Ref& value,
                      const std::map<std::string, SortSet>& var_sorts,
                      const std::vector<SortSet>& node_sorts) const {
    const Ref& d = Deref(value);
    switch (d.kind) {
      case RefKind::kName:
        switch (d.name_kind) {
          case NameKind::kInt: return kSortInt;
          case NameKind::kString: return kSortString;
          case NameKind::kSymbol: return kSortObject;
        }
        return kSortBottom;
      case RefKind::kVar: {
        auto it = var_sorts.find(d.text);
        return it == var_sorts.end() ? kSortBottom : it->second;
      }
      case RefKind::kPath: {
        const Ref& m = Deref(*d.method);
        if (m.kind == RefKind::kName && m.name_kind == NameKind::kSymbol) {
          if (m.text == kSelfMethodName) {
            return ResolveSort(*d.base, var_sorts, node_sorts);
          }
          if (IsGuardName(m.text)) return kSortInt;
          if (std::optional<uint32_t> n = NodeOf(m.text)) {
            return node_sorts[*n];
          }
          return kSortBottom;
        }
        return kSortTop;  // generic method: could be anything
      }
      case RefKind::kMolecule:
        return ResolveSort(*d.base, var_sorts, node_sorts);
      case RefKind::kParen:
        break;  // stripped by Deref
    }
    return kSortBottom;
  }

  std::map<std::string, SortSet> VarSorts(
      const ClauseInfo& c, const std::vector<SortSet>& node_sorts) const {
    std::map<std::string, SortSet> out;
    for (const auto& [var, sources] : c.var_sources) {
      SortSet s = kSortBottom;
      for (const std::string& m : sources) {
        if (std::optional<uint32_t> n = NodeOf(m)) {
          s = static_cast<SortSet>(s | node_sorts[*n]);
        }
      }
      out[var] = s;
    }
    return out;
  }

  void SortFlow() {
    std::vector<TransferIO> io(clauses_.size());
    for (size_t i = 0; i < clauses_.size(); ++i) {
      for (const std::string& m : clauses_[i].sort_reads) {
        io[i].reads.push_back(*NodeOf(m));
      }
      for (const Assignment& a : clauses_[i].assignments) {
        io[i].defines.push_back(*NodeOf(a.method));
      }
    }
    FixpointSolver<SortDomain> solver(node_names_.size(), std::move(io));
    for (const auto& [m, sorts] : options_.extensional_sorts) {
      solver.Seed(*NodeOf(m), sorts);
    }
    for (const SignatureDecl& sig : program_.signatures) {
      const Ref* m = sig.method ? &Deref(*sig.method) : nullptr;
      if (m == nullptr || m->kind != RefKind::kName) continue;
      if (sig.result_type) solver.Seed(*NodeOf(m->text), SigSort(*sig.result_type));
    }
    summary_.sort_applications =
        solver.Solve([&](size_t t, FixpointSolver<SortDomain>& s) {
          const ClauseInfo& c = clauses_[t];
          std::map<std::string, SortSet> vars = VarSorts(c, s.values());
          for (const Assignment& a : c.assignments) {
            SortSet v = a.value == nullptr
                            ? static_cast<SortSet>(kSortObject)
                            : ResolveSort(*a.value, vars, s.values());
            if (v != kSortBottom) s.Update(*NodeOf(a.method), v);
          }
        });

    for (size_t n = 0; n < node_names_.size(); ++n) {
      if (solver.value(static_cast<uint32_t>(n)) != kSortBottom) {
        summary_.method_sorts[node_names_[n]] =
            solver.value(static_cast<uint32_t>(n));
      }
    }

    ReportSortConflicts(solver.values());
    ReportGuardSorts(solver.values());
    ReportContradictions(solver.values());
  }

  // PL014, first form: one method, two concrete result sorts.
  void ReportSortConflicts(const std::vector<SortSet>& node_sorts) {
    // Witnesses per (method, sort): the first assignment whose resolved
    // sort contains the bit, or a seed description.
    struct Witness {
      Span span;
      std::string what;
    };
    std::map<std::pair<std::string, SortSet>, Witness> witnesses;
    for (const ClauseInfo& c : clauses_) {
      std::map<std::string, SortSet> vars = VarSorts(c, node_sorts);
      for (const Assignment& a : c.assignments) {
        SortSet v = a.value == nullptr
                        ? static_cast<SortSet>(kSortObject)
                        : ResolveSort(*a.value, vars, node_sorts);
        for (SortSet bit : {kSortInt, kSortString, kSortObject}) {
          if (!(v & bit)) continue;
          witnesses.try_emplace(
              {a.method, bit},
              Witness{a.span,
                      a.value == nullptr
                          ? "an invented (skolem) object"
                          : StrCat("`", ToString(*a.value), "`")});
        }
      }
    }
    for (size_t n = 0; n < node_names_.size(); ++n) {
      SortSet s = node_sorts[n];
      if (SortCount(s) < 2) continue;
      const std::string& method = node_names_[n];
      Span span{0, 0};
      std::vector<std::string> notes;
      for (SortSet bit : {kSortInt, kSortString, kSortObject}) {
        if (!(s & bit)) continue;
        auto it = witnesses.find({method, bit});
        if (it != witnesses.end()) {
          if (span.line == 0) span = it->second.span;
          notes.push_back(StrCat(SortSetName(bit), " from ", it->second.what,
                                 " (line ", it->second.span.line, ")"));
        } else if (auto ext = options_.extensional_sorts.find(method);
                   ext != options_.extensional_sorts.end() &&
                   (ext->second & bit)) {
          notes.push_back(
              StrCat(SortSetName(bit), " from extensional facts in the store"));
        } else {
          notes.push_back(StrCat(SortSetName(bit),
                                 " from a declared signature result type"));
        }
      }
      Add(LintCode::kSortConflict, Severity::kWarning, span,
          StrCat("method ", method, " derives results of conflicting sorts (",
                 SortSetName(s),
                 "); comparisons and joins over it are type-confused"),
          std::move(notes));
    }
  }

  // PL014, second form: a comparison guard whose receiver or argument
  // can never be an integer.
  void ReportGuardSorts(const std::vector<SortSet>& node_sorts) {
    for (const ClauseInfo& c : clauses_) {
      std::map<std::string, SortSet> vars = VarSorts(c, node_sorts);
      for (const GuardUse& g : c.guards) {
        auto check = [&](const Ref& r, const char* role) {
          SortSet s = ResolveSort(r, vars, node_sorts);
          if (s == kSortBottom || (s & kSortInt)) return false;
          Add(LintCode::kSortConflict, Severity::kWarning, g.span,
              StrCat("comparison guard ", g.guard, " can never hold: its ",
                     role, " `", ToString(r), "` is ", SortSetName(s),
                     "-sorted, and guards are partial identities on "
                     "integers"));
          return true;
        };
        if (check(*g.receiver, "receiver")) continue;
        for (const Ref* a : g.args) {
          if (check(*a, "argument")) break;
        }
      }
    }
  }

  // PL015: contradictory in-body constraints — the guard intervals on a
  // variable meet to nothing, or one scalar method is pinned to two
  // different ground values for the same receiver.
  void ReportContradictions(const std::vector<SortSet>& node_sorts) {
    for (const ClauseInfo& c : clauses_) {
      if (ReportClauseContradiction(c)) continue;
    }
    (void)node_sorts;
  }

  struct VarConstraint {
    IntInterval interval;
    std::vector<int64_t> neq;
    bool guarded = false;
    Span span{0, 0};
  };

  /// Guard semantics as interval meets; `interval` is narrowed.
  static void ApplyGuard(const GuardUse& g, int64_t y, int64_t y2,
                         VarConstraint* vc) {
    vc->guarded = true;
    if (vc->span.line == 0) vc->span = g.span;
    if (g.guard == kLtName) vc->interval.Meet(INT64_MIN, y - 1);
    else if (g.guard == kLeqName) vc->interval.Meet(INT64_MIN, y);
    else if (g.guard == kGtName) vc->interval.Meet(y + 1, INT64_MAX);
    else if (g.guard == kGeqName) vc->interval.Meet(y, INT64_MAX);
    else if (g.guard == kIntEqName) vc->interval.Meet(y, y);
    else if (g.guard == kIntNeqName) vc->neq.push_back(y);
    else if (g.guard == kBetweenName) vc->interval.Meet(y, y2);
  }

  bool ReportClauseContradiction(const ClauseInfo& c) {
    std::map<std::string, VarConstraint> constraints;
    for (const GuardUse& g : c.guards) {
      // Argument values must be ground integers to constrain anything.
      std::vector<int64_t> args;
      bool ground_args = true;
      for (const Ref* a : g.args) {
        if (a->kind == RefKind::kName && a->name_kind == NameKind::kInt) {
          args.push_back(a->int_value);
        } else {
          ground_args = false;
        }
      }
      size_t need = g.guard == kBetweenName ? 2 : 1;
      if (!ground_args || args.size() != need) continue;
      int64_t y = args[0];
      int64_t y2 = args.size() > 1 ? args[1] : args[0];

      if (g.receiver->kind == RefKind::kName) {
        if (g.receiver->name_kind != NameKind::kInt) continue;  // PL014's case
        VarConstraint ground;
        ground.interval.Meet(g.receiver->int_value, g.receiver->int_value);
        ApplyGuard(g, y, y2, &ground);
        bool neq_hit = false;
        for (int64_t p : ground.neq) {
          neq_hit |= p == g.receiver->int_value;
        }
        if (ground.interval.empty() || neq_hit) {
          Add(LintCode::kContradiction, Severity::kWarning, g.span,
              StrCat("guard ", g.guard, " on the constant ",
                     g.receiver->int_value,
                     " is statically false; this body can never be "
                     "satisfied"));
          return true;
        }
        continue;
      }
      if (g.receiver->kind == RefKind::kVar) {
        ApplyGuard(g, y, y2, &constraints[g.receiver->text]);
      }
    }

    for (auto& [var, vc] : constraints) {
      if (vc.interval.empty()) {
        Add(LintCode::kContradiction, Severity::kWarning, vc.span,
            StrCat("the comparison guards on ", var,
                   " are contradictory: together they require ", var,
                   " in ", vc.interval.ToString(),
                   " — this body can never be satisfied"));
        return true;
      }
    }

    // Scalar methods are single-valued per (receiver, args): two
    // distinct ground values, or a ground value outside the variable's
    // guard interval, are unsatisfiable.
    for (const auto& [key, bindings] : c.scalar_bindings) {
      const Ref* ground = nullptr;
      Span ground_span{0, 0};
      for (const ClauseInfo::ScalarBinding& b : bindings) {
        if (b.value->kind != RefKind::kName) continue;
        if (ground != nullptr && !RefEquals(*ground, *b.value)) {
          Add(LintCode::kContradiction, Severity::kWarning, b.span,
              StrCat("scalar method ", key.second,
                     " cannot yield both `", ToString(*ground), "` (line ",
                     ground_span.line, ") and `", ToString(*b.value),
                     "` for the same receiver; this body can never be "
                     "satisfied"));
          return true;
        }
        if (ground == nullptr) {
          ground = b.value;
          ground_span = b.span;
        }
      }
      if (ground == nullptr) continue;
      for (const ClauseInfo::ScalarBinding& b : bindings) {
        if (b.value->kind != RefKind::kVar) continue;
        auto it = constraints.find(b.value->text);
        if (it == constraints.end() || !it->second.guarded) continue;
        bool out = false;
        std::string why;
        if (ground->name_kind == NameKind::kInt) {
          int64_t v = ground->int_value;
          out = !it->second.interval.Contains(v);
          for (int64_t p : it->second.neq) out |= p == v;
          why = StrCat("the guards require ", b.value->text, " in ",
                       it->second.interval.ToString());
        } else {
          out = true;
          why = StrCat(b.value->text,
                       " is guarded as an integer but bound to `",
                       ToString(*ground), "`");
        }
        if (out) {
          Add(LintCode::kContradiction, Severity::kWarning, b.span,
              StrCat("variable ", b.value->text, " is bound to `",
                     ToString(*ground), "` through scalar method ",
                     key.second, ", but ", why,
                     " — this body can never be satisfied"));
          return true;
        }
      }
    }
    return false;
  }

  // ---- analysis 2: fixpoint reachability (PL016) ---------------------

  void Reachability() {
    // One extra pseudo-node: "some method holds a tuple", read by
    // wildcard-reading clauses and updated by every definition.
    const uint32_t any_node = static_cast<uint32_t>(node_names_.size());
    std::vector<TransferIO> io(clauses_.size());
    for (size_t i = 0; i < clauses_.size(); ++i) {
      if (clauses_[i].rule->IsFact()) continue;  // facts seed, not transfer
      for (const BodyLiteralInfo& b : clauses_[i].body) {
        for (const auto& [m, span] : b.reads) io[i].reads.push_back(*NodeOf(m));
        if (b.reads_any) io[i].reads.push_back(any_node);
      }
    }
    FixpointSolver<LiveDomain> solver(node_names_.size() + 1, std::move(io));

    auto seed = [&](const std::string& m) {
      solver.Seed(*NodeOf(m), true);
      solver.Seed(any_node, true);
    };
    for (const ClauseInfo& c : clauses_) {
      if (!c.rule->IsFact()) continue;
      for (const std::string& m : c.defines) seed(m);
      if (c.defines_any) {
        for (uint32_t n = 0; n < node_names_.size(); ++n) solver.Seed(n, true);
        solver.Seed(any_node, true);
      }
    }
    for (const std::string& m : options_.assume_defined) seed(m);
    for (const std::string& m : sig_methods_) seed(m);

    auto fires = [&](const ClauseInfo& c,
                     const FixpointSolver<LiveDomain>& s) {
      for (const BodyLiteralInfo& b : c.body) {
        for (const auto& [m, span] : b.reads) {
          if (!s.value(*NodeOf(m))) return false;
        }
        if (b.reads_any && !s.value(any_node)) return false;
      }
      return true;
    };
    summary_.live_applications =
        solver.Solve([&](size_t t, FixpointSolver<LiveDomain>& s) {
          const ClauseInfo& c = clauses_[t];
          if (c.rule->IsFact() || !fires(c, s)) return;
          for (const std::string& m : c.defines) {
            s.Update(*NodeOf(m), true);
            s.Update(any_node, true);
          }
          if (c.defines_any) {
            for (uint32_t n = 0; n < node_names_.size(); ++n) s.Update(n, true);
            s.Update(any_node, true);
          }
        });

    for (uint32_t n = 0; n < node_names_.size(); ++n) {
      (solver.value(n) ? summary_.live_methods : summary_.empty_methods)
          .insert(node_names_[n]);
    }

    // PL011 reports rules whose body reads a method *nothing* defines;
    // PL016 is the transitive extension, so suppress it where PL011
    // already spoke (or where a wildcard define silenced PL011).
    std::set<std::string> syntactic = options_.assume_defined;
    syntactic.insert(sig_methods_.begin(), sig_methods_.end());
    bool wildcard_define = false;
    for (const ClauseInfo& c : clauses_) {
      syntactic.insert(c.defines.begin(), c.defines.end());
      wildcard_define |= c.defines_any;
    }

    for (const ClauseInfo& c : clauses_) {
      if (c.rule->IsFact() || fires(c, solver)) continue;
      const std::string* dead = nullptr;
      Span dead_span = c.span;
      bool pl011_would_fire = false;
      for (const BodyLiteralInfo& b : c.body) {
        for (const auto& [m, span] : b.reads) {
          if (!wildcard_define && !syntactic.count(m)) pl011_would_fire = true;
          if (dead == nullptr && !solver.value(*NodeOf(m))) {
            dead = &m;
            dead_span = span;
          }
        }
      }
      if (dead == nullptr || pl011_would_fire) continue;
      std::vector<std::string> notes;
      for (const ClauseInfo& d : clauses_) {
        if (d.rule->IsFact() || !d.defines.count(*dead)) continue;
        notes.push_back(StrCat(
            "method ", *dead, " is defined only by `", ToString(*d.rule),
            "` (line ", d.span.line, "), which itself can never fire"));
        if (notes.size() >= 3) break;
      }
      Add(LintCode::kDeadRule, Severity::kWarning, dead_span,
          StrCat("this rule can never fire: no chain of rules starting "
                 "from the seeded facts and signatures ever derives a "
                 "tuple for method ", *dead),
          std::move(notes));
    }
  }

  // ---- analysis 3: termination / bounded invention (PL017, PL018) ----

  /// The head's invention structure: the outermost spine path, the
  /// grants attached to the invented object, and the anchor variable.
  struct Invention {
    std::string anchor;  ///< innermost spine base variable
    std::vector<std::string> spine_methods;
    std::vector<Atom> granted;
    std::set<std::string> granted_methods;
    std::set<std::string> granted_classes;
    Span span;
  };

  static std::optional<Atom> FilterAtom(const Filter& f, Span fallback) {
    Atom a;
    a.kind = f.kind;
    a.span = fallback;
    a.has_args = !f.args.empty();
    if (f.kind == FilterKind::kClass) {
      const Ref& c = Deref(*f.value);
      a.value = &c;
      if (c.kind == RefKind::kName && c.name_kind == NameKind::kSymbol) {
        a.name = c.text;
      }
      return a;
    }
    const Ref& m = Deref(*f.method);
    if (m.kind != RefKind::kName || m.name_kind != NameKind::kSymbol) {
      return std::nullopt;  // generic method position: not analysable
    }
    a.name = m.text;
    if (f.value) a.value = &Deref(*f.value);
    for (const RefPtr& e : f.elems) a.elems.push_back(&Deref(*e));
    return a;
  }

  std::optional<Invention> FindInvention(const Ref& head, Span fallback) const {
    Invention inv;
    const Ref* t = &Deref(head);
    // Outermost molecule layers: grants to the invented object.
    while (t->kind == RefKind::kMolecule) {
      for (const Filter& f : t->filters) {
        std::optional<Atom> a = FilterAtom(f, SpanOf(*t, fallback));
        if (!a) return std::nullopt;
        if (a->kind == FilterKind::kClass) {
          if (a->name.empty()) return std::nullopt;
          inv.granted_classes.insert(a->name);
        } else {
          inv.granted_methods.insert(a->name);
        }
        inv.granted.push_back(std::move(*a));
      }
      t = &Deref(*t->base);
    }
    if (t->kind != RefKind::kPath) return std::nullopt;  // no spine invention
    inv.span = SpanOf(*t, fallback);
    // The spine: paths (possibly through inner molecules) down to the
    // anchor. Inner molecule grants attach to inner skolems, which is
    // sound to ignore (fewer grants can only under-approve PL017).
    while (true) {
      if (t->kind == RefKind::kPath) {
        const Ref& m = Deref(*t->method);
        if (m.kind != RefKind::kName || m.name_kind != NameKind::kSymbol ||
            IsBuiltinMethodName(m.text)) {
          return std::nullopt;
        }
        inv.spine_methods.push_back(m.text);
        t = &Deref(*t->base);
      } else if (t->kind == RefKind::kMolecule) {
        t = &Deref(*t->base);
      } else {
        break;
      }
    }
    if (t->kind != RefKind::kVar) return std::nullopt;  // ground anchor: bounded
    inv.anchor = t->text;
    // A spine method that the head also grants would stop inventing on
    // the second round; require genuinely fresh paths.
    for (const std::string& m : inv.spine_methods) {
      if (inv.granted_methods.count(m)) return std::nullopt;
    }
    return inv;
  }

  /// Decomposes one positive literal relative to the anchor variable.
  struct AnchoredLiteral {
    LiteralRole role = LiteralRole::kIgnoresAnchor;
    std::vector<Atom> atoms;   ///< requirements (kAnchoredSimple only)
    bool guard_on_anchor = false;
    std::set<std::string> methods;  ///< all non-builtin methods mentioned
  };

  static void CollectMethods(const Ref& t, std::set<std::string>* out) {
    switch (t.kind) {
      case RefKind::kName:
      case RefKind::kVar:
        return;
      case RefKind::kParen:
        CollectMethods(*t.base, out);
        return;
      case RefKind::kPath: {
        const Ref& m = Deref(*t.method);
        if (m.kind == RefKind::kName && m.name_kind == NameKind::kSymbol) {
          if (!IsBuiltinMethodName(m.text)) out->insert(m.text);
        } else {
          CollectMethods(m, out);
        }
        CollectMethods(*t.base, out);
        for (const RefPtr& a : t.args) CollectMethods(*a, out);
        return;
      }
      case RefKind::kMolecule:
        CollectMethods(*t.base, out);
        for (const Filter& f : t.filters) {
          if (f.kind == FilterKind::kClass) {
            CollectMethods(*f.value, out);
            continue;
          }
          const Ref& m = Deref(*f.method);
          if (m.kind == RefKind::kName && m.name_kind == NameKind::kSymbol) {
            if (!IsBuiltinMethodName(m.text)) out->insert(m.text);
          } else {
            CollectMethods(m, out);
          }
          for (const RefPtr& a : f.args) CollectMethods(*a, out);
          if (f.value) CollectMethods(*f.value, out);
          for (const RefPtr& e : f.elems) CollectMethods(*e, out);
        }
        return;
    }
  }

  AnchoredLiteral Classify(const Literal& lit, const std::string& anchor,
                           Span fallback) const {
    AnchoredLiteral out;
    CollectMethods(*lit.ref, &out.methods);
    if (!VarsOf(*lit.ref).count(anchor)) {
      out.role = LiteralRole::kIgnoresAnchor;
      return out;
    }
    const Ref* t = &Deref(*lit.ref);
    // Innermost base of the chain.
    const Ref* base = t;
    while (base->kind == RefKind::kMolecule || base->kind == RefKind::kPath) {
      base = &Deref(*base->base);
    }
    if (base->kind != RefKind::kVar || base->text != anchor) {
      out.role = LiteralRole::kMentionsOnly;
      return out;
    }
    // One-level shapes: molecules stacked directly on the variable, or
    // a single path over it.
    if (t->kind == RefKind::kPath) {
      const Ref& inner = Deref(*t->base);
      if (inner.kind != RefKind::kVar) {
        out.role = LiteralRole::kAnchoredDeep;
        return out;
      }
      const Ref& m = Deref(*t->method);
      if (m.kind == RefKind::kName && m.name_kind == NameKind::kSymbol) {
        if (IsGuardName(m.text)) {
          out.guard_on_anchor = true;
          out.role = LiteralRole::kAnchoredSimple;
          return out;
        }
        if (!IsBuiltinMethodName(m.text)) {
          Atom a;
          a.path_only = true;
          a.name = m.text;
          a.span = SpanOf(*t, fallback);
          out.atoms.push_back(std::move(a));
          out.role = LiteralRole::kAnchoredSimple;
          return out;
        }
      }
      out.role = LiteralRole::kAnchoredDeep;
      return out;
    }
    while (t->kind == RefKind::kMolecule) {
      for (const Filter& f : t->filters) {
        std::optional<Atom> a = FilterAtom(f, SpanOf(*t, fallback));
        if (!a) {
          out.role = LiteralRole::kAnchoredDeep;
          return out;
        }
        out.atoms.push_back(std::move(*a));
      }
      t = &Deref(*t->base);
    }
    out.role = t->kind == RefKind::kVar ? LiteralRole::kAnchoredSimple
                                        : LiteralRole::kAnchoredDeep;
    return out;
  }

  /// Can a requirement value be met by a granted value, for the
  /// *invented* object of the next round? `forbidden_vars` are
  /// variables whose bindings the head does not control.
  static bool ValueMatches(const Ref* req, const Ref* granted,
                           const std::string& anchor,
                           const std::set<std::string>& forbidden_vars,
                           const std::map<std::string, VarConstraint>& guards) {
    if (req == nullptr || granted == nullptr) return false;
    if (VarsOf(*req).count(anchor)) return false;  // refers to the old anchor
    if (RefEquals(*req, *granted)) return true;
    // A requirement variable matches a ground grant when nothing else
    // constrains it: not used outside the anchored literals, and any
    // guards admit the granted value.
    if (req->kind != RefKind::kVar) return false;
    if (forbidden_vars.count(req->text)) return false;
    if (granted->kind != RefKind::kName) return false;
    auto it = guards.find(req->text);
    if (it != guards.end() && it->second.guarded) {
      if (granted->name_kind != NameKind::kInt) return false;
      if (!it->second.interval.Contains(granted->int_value)) return false;
      for (int64_t p : it->second.neq) {
        if (p == granted->int_value) return false;
      }
    }
    return true;
  }

  void Termination() {
    // SCC structure of the method dependency graph, wildcard coupling
    // included, shared across clauses.
    std::vector<Rule> all_rules;
    for (const ClauseInfo& c : clauses_) all_rules.push_back(*c.rule);
    ObjectStore dep_store;
    Result<DependencyGraph> graph =
        DependencyGraph::Build(all_rules, &dep_store, options_.head_value_mode);
    if (!graph.ok()) return;  // ill-formed clauses: structural lint reports

    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (const DependencyGraph::Edge& e : graph->edges()) {
      edges.push_back({e.from, e.to});
    }
    std::vector<uint32_t> scc =
        StronglyConnectedComponents(graph->num_nodes(), edges);
    std::map<std::string, uint32_t> dep_node;
    for (uint32_t n = 0; n < graph->num_nodes(); ++n) {
      dep_node[graph->NodeName(n)] = n;
    }

    // What the program can derive intensionally, for the PL018
    // derivability test.
    std::set<std::string> rule_defined, rule_classes;
    bool rule_defines_any = false, rule_any_class = false;
    for (const ClauseInfo& c : clauses_) {
      if (c.rule->IsFact()) continue;
      rule_defined.insert(c.defines.begin(), c.defines.end());
      rule_defines_any |= c.defines_any;
      CollectHeadClasses(*c.rule->head, &rule_classes, &rule_any_class);
    }

    for (const ClauseInfo& c : clauses_) {
      if (c.rule->IsFact() || !c.rule->head) continue;
      std::optional<Invention> inv = FindInvention(*c.rule->head, c.span);
      if (!inv) continue;
      AnalyzeInvention(c, *inv, scc, dep_node, rule_defined, rule_classes,
                       rule_defines_any, rule_any_class);
    }
  }

  static void CollectHeadClasses(const Ref& head, std::set<std::string>* out,
                                 bool* any_class) {
    switch (head.kind) {
      case RefKind::kName:
      case RefKind::kVar:
        return;
      case RefKind::kParen:
      case RefKind::kPath:
        if (head.base) CollectHeadClasses(*head.base, out, any_class);
        return;
      case RefKind::kMolecule:
        CollectHeadClasses(*head.base, out, any_class);
        for (const Filter& f : head.filters) {
          if (f.kind != FilterKind::kClass) continue;
          const Ref& cls = Deref(*f.value);
          if (cls.kind == RefKind::kName && cls.name_kind == NameKind::kSymbol) {
            out->insert(cls.text);
          } else {
            *any_class = true;
          }
        }
        return;
    }
  }

  void AnalyzeInvention(const ClauseInfo& c, const Invention& inv,
                        const std::vector<uint32_t>& scc,
                        const std::map<std::string, uint32_t>& dep_node,
                        const std::set<std::string>& rule_defined,
                        const std::set<std::string>& rule_classes,
                        bool rule_defines_any, bool rule_any_class) {
    // Per-variable guard constraints (for value matching).
    std::map<std::string, VarConstraint> guards;
    for (const GuardUse& g : c.guards) {
      std::vector<int64_t> args;
      for (const Ref* a : g.args) {
        if (a->kind == RefKind::kName && a->name_kind == NameKind::kInt) {
          args.push_back(a->int_value);
        }
      }
      if (g.receiver->kind != RefKind::kVar) continue;
      size_t need = g.guard == kBetweenName ? 2 : 1;
      VarConstraint& vc = guards[g.receiver->text];
      if (args.size() == need) {
        ApplyGuard(g, args[0], args.size() > 1 ? args[1] : args[0], &vc);
      } else {
        vc.guarded = true;  // unknown bound: be conservative
        vc.interval.Meet(1, 0);  // empty: nothing provably matches
      }
    }

    // Classify every positive literal; collect the variables that the
    // non-anchored parts of the body constrain.
    std::vector<std::pair<const Literal*, AnchoredLiteral>> anchored;
    std::set<std::string> forbidden_vars;
    bool provable = true;          // PL017 still possible
    bool blocked = false;          // re-entry provably impossible
    std::set<std::string> outside_methods;  // PL018 candidates from
                                            // non-anchored mentions
    size_t anchored_count = 0;
    for (const Literal& lit : c.rule->body) {
      if (!lit.ref) return;
      Span lspan{lit.line, lit.column};
      AnchoredLiteral al = Classify(lit, inv.anchor, lspan);
      if (lit.negated) {
        if (al.role == LiteralRole::kIgnoresAnchor) continue;
        // A negated literal over the anchor is satisfied by a fresh
        // object exactly when it cannot touch anything granted.
        bool disjoint = al.role == LiteralRole::kAnchoredSimple;
        for (const Atom& a : al.atoms) {
          if (a.kind == FilterKind::kClass
                  ? inv.granted_classes.count(a.name) > 0
                  : inv.granted_methods.count(a.name) > 0) {
            disjoint = false;
          }
        }
        if (!disjoint) provable = false;
        continue;
      }
      switch (al.role) {
        case LiteralRole::kIgnoresAnchor:
          for (const std::string& v : VarsOf(*lit.ref)) {
            forbidden_vars.insert(v);
          }
          continue;
        case LiteralRole::kAnchoredSimple:
          if (al.guard_on_anchor) {
            // Fresh skolems are not integers: the loop cannot close.
            blocked = true;
            continue;
          }
          ++anchored_count;
          anchored.push_back({&lit, std::move(al)});
          continue;
        case LiteralRole::kAnchoredDeep:
        case LiteralRole::kMentionsOnly:
          provable = false;
          outside_methods.insert(al.methods.begin(), al.methods.end());
          continue;
      }
    }
    if (blocked || anchored_count == 0) return;

    // Match every requirement against the grants.
    std::vector<Atom> missing;
    bool value_uncertain = false;
    for (const auto& [lit, al] : anchored) {
      for (const Atom& req : al.atoms) {
        if (req.kind == FilterKind::kClass) {
          if (!req.name.empty() && inv.granted_classes.count(req.name)) {
            continue;
          }
          missing.push_back(req);
          continue;
        }
        if (req.path_only) {
          if (inv.granted_methods.count(req.name)) continue;
          missing.push_back(req);
          continue;
        }
        if (!inv.granted_methods.count(req.name)) {
          missing.push_back(req);
          continue;
        }
        // The method is granted: does the value provably match?
        bool matched = false;
        for (const Atom& g : inv.granted) {
          if (g.kind == FilterKind::kClass || g.name != req.name) continue;
          if (g.has_args || req.has_args) continue;
          if (req.kind == FilterKind::kScalar &&
              g.kind == FilterKind::kScalar) {
            matched |= ValueMatches(req.value, g.value, inv.anchor,
                                    forbidden_vars, guards);
          } else if (req.kind == FilterKind::kSetEnum &&
                     g.kind == FilterKind::kSetEnum) {
            bool all = true;
            for (const Ref* e : req.elems) {
              bool one = false;
              for (const Ref* ge : g.elems) {
                one |= ValueMatches(e, ge, inv.anchor, forbidden_vars, guards);
              }
              all &= one;
            }
            matched |= all;
          }
        }
        if (!matched) value_uncertain = true;
      }
    }

    const std::string& mint = inv.spine_methods.front();
    if (provable && missing.empty() && !value_uncertain &&
        outside_methods.empty()) {
      std::vector<std::string> notes;
      notes.push_back(StrCat(
          "the head grants the invented object ", DescribeGrants(inv),
          ", which satisfies everything the body requires of ", inv.anchor));
      notes.push_back(StrCat(
          "each invented object re-enters the rule as ", inv.anchor,
          " and mints another through method ", mint,
          "; add a bounding guard or restrict the anchor to a base class"));
      Add(LintCode::kNonTermination, Severity::kError, inv.span,
          StrCat("materialisation of this ",
                 c.is_trigger ? "trigger" : "rule",
                 " cannot terminate: it invents a fresh object through "
                 "method ", mint, " for every binding of ", inv.anchor,
                 " and re-derives its own premise for the new object"),
          std::move(notes));
      return;
    }

    // Not self-sustaining. Possibly unbounded when every missing
    // requirement is derivable by rules coupled into the same
    // dependency cycle.
    std::set<std::string> needed(outside_methods);
    for (const Atom& a : missing) {
      if (a.kind == FilterKind::kClass) {
        if (a.name.empty()) return;
        if (!rule_any_class && !rule_classes.count(a.name)) return;
      } else {
        needed.insert(a.name);
      }
    }
    if (needed.empty() && missing.empty()) return;  // only value mismatches
    auto coupled = [&](const std::string& m) {
      auto mn = dep_node.find(m);
      if (mn == dep_node.end()) return false;
      for (const std::string& d : c.defines) {
        auto dn = dep_node.find(d);
        if (dn != dep_node.end() && scc[dn->second] == scc[mn->second]) {
          return true;
        }
      }
      return false;
    };
    for (const std::string& m : needed) {
      if (!rule_defines_any && !rule_defined.count(m)) return;
      if (!coupled(m) && !rule_defines_any) return;
    }

    std::vector<std::string> notes;
    notes.push_back(StrCat("the head grants the invented object ",
                           DescribeGrants(inv)));
    std::string need_list;
    for (const Atom& a : missing) {
      if (!need_list.empty()) need_list += ", ";
      need_list += a.kind == FilterKind::kClass ? StrCat(": ", a.name) : a.name;
    }
    for (const std::string& m : needed) {
      if (missing.empty() || !need_list.empty()) {
        if (need_list.find(m) != std::string::npos) continue;
      }
      if (!need_list.empty()) need_list += ", ";
      need_list += m;
    }
    notes.push_back(StrCat(
        "re-entry additionally needs { ", need_list,
        " }, which other rules in the same dependency cycle can derive "
        "for the invented objects"));
    notes.push_back(
        "if they ever do, every round invents another object; consider a "
        "bounding guard, or verify the cycle cannot reach the skolems");
    Add(LintCode::kUnboundedInvention, Severity::kWarning, inv.span,
        StrCat("recursive object invention through method ", mint,
               " may be unbounded: the invented objects can re-enter "
               "this ", c.is_trigger ? "trigger" : "rule",
               " through the rule cycle"),
        std::move(notes));
  }

  static std::string DescribeGrants(const Invention& inv) {
    if (inv.granted.empty()) return "nothing";
    std::string out = "{ ";
    for (size_t i = 0; i < inv.granted.size(); ++i) {
      if (i > 0) out += "; ";
      const Atom& a = inv.granted[i];
      if (a.kind == FilterKind::kClass) {
        out += StrCat(": ", a.name);
      } else if (a.kind == FilterKind::kScalar && a.value != nullptr) {
        out += StrCat(a.name, "->", ToString(*a.value));
      } else {
        out += a.name;
      }
    }
    return out + " }";
  }

  // ---- analysis 4: adornments (PL019) --------------------------------

  /// True when the literal, evaluated with `bound` variables, probes an
  /// index: bound/ground anchor, ground class, or a ground/bound filter
  /// value on a simple method.
  static void Modes(const Ref& t, const std::set<std::string>& bound,
                    bool* anchor_bound, bool* index_driven) {
    const Ref& d = Deref(t);
    // The anchor: innermost base of the chain.
    const Ref* base = &d;
    while (base->kind == RefKind::kMolecule || base->kind == RefKind::kPath) {
      base = &Deref(*base->base);
    }
    *anchor_bound = base->kind == RefKind::kName ||
                    (base->kind == RefKind::kVar && bound.count(base->text));
    if (*anchor_bound) {
      *index_driven = true;
      return;
    }
    auto value_known = [&](const Ref& v) {
      const Ref& dv = Deref(v);
      if (dv.kind == RefKind::kName) return true;
      if (dv.kind == RefKind::kVar) return bound.count(dv.text) > 0;
      // A composite value: known when all its variables are bound.
      for (const std::string& var : VarsOf(dv)) {
        if (!bound.count(var)) return false;
      }
      return true;
    };
    // Molecule layers along the chain can drive the enumeration.
    for (const Ref* m = &d; m->kind == RefKind::kMolecule ||
                            m->kind == RefKind::kPath;
         m = &Deref(*m->base)) {
      if (m->kind != RefKind::kMolecule) continue;
      for (const Filter& f : m->filters) {
        if (f.kind == FilterKind::kClass) {
          const Ref& cls = Deref(*f.value);
          if (cls.kind == RefKind::kName) {
            *index_driven = true;
            return;
          }
          continue;
        }
        const Ref& method = Deref(*f.method);
        bool guard = method.kind == RefKind::kName &&
                     method.name_kind == NameKind::kSymbol &&
                     IsGuardName(method.text);
        if (guard) continue;  // guards have no extent to probe
        switch (f.kind) {
          case FilterKind::kScalar:
            if (value_known(*f.value)) {
              *index_driven = true;
              return;
            }
            break;
          case FilterKind::kSetRef:
            if (value_known(*f.value)) {
              *index_driven = true;
              return;
            }
            break;
          case FilterKind::kSetEnum:
            for (const RefPtr& e : f.elems) {
              if (value_known(*e)) {
                *index_driven = true;
                return;
              }
            }
            break;
          case FilterKind::kClass:
            break;
        }
      }
    }
  }

  void Adornments() {
    for (const ClauseInfo& c : clauses_) {
      if (c.rule->IsFact() || c.is_trigger) continue;
      std::vector<Literal> engine_order = c.rule->body;
      if (!OrderLiteralsForSafety(&engine_order, nullptr).ok()) continue;

      RuleAdornment ad;
      ad.rule_index = c.rule_index;
      std::set<std::string> bound;
      size_t engine_scans = 0;
      Span first_scan{0, 0};
      std::string first_scan_text;
      for (const Literal& lit : engine_order) {
        LiteralMode mode;
        mode.literal = ToString(lit);
        mode.negated = lit.negated;
        Modes(*lit.ref, bound, &mode.anchor_bound, &mode.index_driven);
        if (!lit.negated && !mode.index_driven) {
          ++engine_scans;
          if (first_scan.line == 0) {
            first_scan = SpanOf(*lit.ref, Span{lit.line, lit.column});
            first_scan_text = mode.literal;
          }
        }
        if (!lit.negated) {
          for (const std::string& v : VarsOf(*lit.ref)) bound.insert(v);
        }
        ad.literals.push_back(std::move(mode));
      }
      summary_.adornments.push_back(std::move(ad));
      if (engine_scans == 0) continue;

      // Is there an admissible order with fewer unbound-target scans?
      // Greedily: the earliest admissible literal that scans nothing
      // (cost 0), else the earliest admissible one (cost 1).
      std::vector<Literal> better = c.rule->body;
      std::vector<double> scans;
      Status ordered = OrderLiteralsForSafety(
          &better, nullptr,
          [](const Literal& lit, const std::set<std::string>& bound_so_far) {
            bool anchor_bound = false, driven = false;
            Modes(*lit.ref, bound_so_far, &anchor_bound, &driven);
            return lit.negated || driven ? 0.0 : 1.0;
          },
          &scans);
      if (!ordered.ok() || std::count(scans.begin(), scans.end(), 1.0) >=
                               static_cast<ptrdiff_t>(engine_scans)) {
        continue;
      }

      std::string suggestion;
      for (size_t i = 0; i < better.size(); ++i) {
        if (i > 0) suggestion += ", ";
        suggestion += ToString(better[i]);
      }
      Add(LintCode::kUnboundTarget, Severity::kWarning, first_scan,
          StrCat("this rule always evaluates `", first_scan_text,
                 "` with an unbound target: no anchor, class, or filter "
                 "value is bound when it runs, so it scans instead of "
                 "probing the inverted value->receiver indexes"),
          {StrCat("an admissible order avoids the scan: ", suggestion),
           "rule bodies follow safety order only; queries reorder "
           "automatically"});
    }
  }

  const Program& program_;
  const AnalysisOptions& options_;
  LintReport* report_;
  AnalysisSummary summary_;

  std::vector<ClauseInfo> clauses_;
  std::map<std::string, uint32_t> node_of_;
  std::vector<std::string> node_names_;
  std::set<std::string> sig_methods_;
};

}  // namespace

AnalysisSummary AnalyzeProgram(const Program& program,
                               const AnalysisOptions& options,
                               LintReport* report) {
  Analyzer analyzer(program, options, report);
  return analyzer.Run();
}

}  // namespace pathlog
