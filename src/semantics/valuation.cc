#include "semantics/valuation.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

#include "base/strings.h"

namespace pathlog {

namespace {

using OidVec = std::vector<Oid>;

void SortUnique(OidVec* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

class Valuator {
 public:
  Valuator(const SemanticStructure& I, const VarValuation& nu)
      : I_(I), nu_(nu) {}

  Result<OidVec> Eval(const Ref& t) {
    switch (t.kind) {
      case RefKind::kName:
        return EvalName(t);
      case RefKind::kVar: {
        auto it = nu_.find(t.text);
        if (it == nu_.end()) {
          return Status(InvalidArgument(
              StrCat("Definition 4 requires a total valuation; variable ",
                     t.text, " is unassigned")));
        }
        return OidVec{it->second};
      }
      case RefKind::kParen:
        return Eval(*t.base);
      case RefKind::kPath:
        return EvalPath(t);
      case RefKind::kMolecule:
        return EvalMolecule(t);
    }
    return Status(Internal("Valuate: unknown reference kind"));
  }

 private:
  Result<OidVec> EvalName(const Ref& t) {
    std::optional<Oid> o = I_.FindName(t);
    if (!o) {
      return Status(NotFound(
          StrCat("name '", t.text, "' has never been interned in this store "
                 "(load it via Database to intern query names)")));
    }
    return OidVec{*o};
  }

  /// Evaluates each argument reference and invokes `fn` once per element
  /// of the cartesian product of their valuations.
  Status ForEachArgCombo(const std::vector<RefPtr>& args,
                         const std::function<Status(const OidVec&)>& fn) {
    std::vector<OidVec> vals;
    vals.reserve(args.size());
    for (const RefPtr& a : args) {
      Result<OidVec> v = Eval(*a);
      if (!v.ok()) return v.status();
      if (v->empty()) return Status::OK();  // product is empty
      vals.push_back(std::move(*v));
    }
    OidVec combo(args.size());
    std::vector<size_t> idx(args.size(), 0);
    for (;;) {
      for (size_t i = 0; i < args.size(); ++i) combo[i] = vals[i][idx[i]];
      PATHLOG_RETURN_IF_ERROR(fn(combo));
      size_t i = 0;
      for (; i < args.size(); ++i) {
        if (++idx[i] < vals[i].size()) break;
        idx[i] = 0;
      }
      if (i == args.size()) return Status::OK();
      if (args.empty()) return Status::OK();
    }
  }

  Result<OidVec> EvalPath(const Ref& t) {
    PATHLOG_ASSIGN_OR_RETURN(OidVec methods, Eval(*t.method));
    PATHLOG_ASSIGN_OR_RETURN(OidVec bases, Eval(*t.base));
    OidVec out;
    Status st = ForEachArgCombo(t.args, [&](const OidVec& argv) -> Status {
      for (Oid um : methods) {
        for (Oid u0 : bases) {
          if (!t.set_valued_path) {
            if (std::optional<Oid> r = I_.Scalar(um, u0, argv)) {
              out.push_back(*r);
            }
          } else if (std::optional<SetGroup> g = I_.SetVal(um, u0, argv)) {
            out.insert(out.end(), g->members.begin(), g->members.end());
          }
        }
      }
      return Status::OK();
    });
    if (!st.ok()) return st;
    SortUnique(&out);
    return out;
  }

  /// True iff some (method, arg-combo) invocation on u0 satisfies the
  /// filter's condition.
  Result<bool> FilterHolds(const Filter& f, Oid u0) {
    if (f.kind == FilterKind::kClass) {
      PATHLOG_ASSIGN_OR_RETURN(OidVec classes, Eval(*f.value));
      for (Oid uc : classes) {
        if (I_.IsA(u0, uc)) return true;
      }
      return false;
    }
    PATHLOG_ASSIGN_OR_RETURN(OidVec methods, Eval(*f.method));

    OidVec spec;  // kSetRef / kSetEnum: the specified set
    if (f.kind == FilterKind::kSetRef) {
      PATHLOG_ASSIGN_OR_RETURN(spec, Eval(*f.value));
    } else if (f.kind == FilterKind::kSetEnum) {
      for (const RefPtr& e : f.elems) {
        PATHLOG_ASSIGN_OR_RETURN(OidVec ev, Eval(*e));
        spec.insert(spec.end(), ev.begin(), ev.end());
      }
      SortUnique(&spec);
    }
    OidVec results;  // kScalar: admissible results
    if (f.kind == FilterKind::kScalar) {
      PATHLOG_ASSIGN_OR_RETURN(results, Eval(*f.value));
    }

    bool holds = false;
    Status st = ForEachArgCombo(f.args, [&](const OidVec& argv) -> Status {
      if (holds) return Status::OK();
      for (Oid um : methods) {
        switch (f.kind) {
          case FilterKind::kScalar: {
            std::optional<Oid> r = I_.Scalar(um, u0, argv);
            if (r && std::binary_search(results.begin(), results.end(), *r)) {
              holds = true;
            }
            break;
          }
          case FilterKind::kSetRef:
          case FilterKind::kSetEnum: {
            // Definition 4, cases 7/8: the specified set must be
            // contained in the method's result set. An empty specified
            // set is trivially contained (the documented vacuous
            // corner of the literal definition).
            const std::optional<SetGroup> g = I_.SetVal(um, u0, argv);
            bool subset = true;
            for (Oid s : spec) {
              if (!g || !g->Contains(s)) {
                subset = false;
                break;
              }
            }
            if (subset) holds = true;
            break;
          }
          case FilterKind::kClass:
            break;  // unreachable
        }
        if (holds) break;
      }
      return Status::OK();
    });
    if (!st.ok()) return st;
    return holds;
  }

  Result<OidVec> EvalMolecule(const Ref& t) {
    PATHLOG_ASSIGN_OR_RETURN(OidVec candidates, Eval(*t.base));
    for (const Filter& f : t.filters) {
      OidVec kept;
      for (Oid u0 : candidates) {
        PATHLOG_ASSIGN_OR_RETURN(bool ok, FilterHolds(f, u0));
        if (ok) kept.push_back(u0);
      }
      candidates = std::move(kept);
      if (candidates.empty()) break;
    }
    return candidates;
  }

  const SemanticStructure& I_;
  const VarValuation& nu_;
};

}  // namespace

Result<std::vector<Oid>> Valuate(const SemanticStructure& I, const Ref& t,
                                 const VarValuation& nu) {
  return Valuator(I, nu).Eval(t);
}

Result<bool> Entails(const SemanticStructure& I, const Ref& t,
                     const VarValuation& nu) {
  PATHLOG_ASSIGN_OR_RETURN(std::vector<Oid> v, Valuate(I, t, nu));
  return !v.empty();
}

}  // namespace pathlog
