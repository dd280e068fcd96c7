#include "baseline/translate.h"

#include <set>

#include "ast/analysis.h"
#include "ast/printer.h"
#include "base/strings.h"
#include "semantics/structure.h"

namespace pathlog {

namespace {

class Flattener {
 public:
  explicit Flattener(ObjectStore* store) : store_(store) {}

  Result<FlatQuery> Run(const std::vector<Literal>& body) {
    for (const Literal& lit : body) {
      if (lit.negated) {
        return Status(InvalidArgument(
            "negation has no counterpart in the flat baseline fragment"));
      }
      Result<BTerm> t = Flatten(*lit.ref);
      if (!t.ok()) return t.status();
    }
    std::set<std::string> user_vars;
    for (const Literal& lit : body) {
      for (const std::string& v : VarsOf(*lit.ref)) user_vars.insert(v);
    }
    query_.select.assign(user_vars.begin(), user_vars.end());
    return std::move(query_);
  }

 private:
  BTerm Fresh() { return BTerm::Var(StrCat("$p", fresh_counter_++)); }

  Result<Oid> GroundName(const Ref& r, const char* role) {
    const Ref* d = &r;
    while (d->kind == RefKind::kParen) d = d->base.get();
    if (d->kind != RefKind::kName) {
      return Status(InvalidArgument(
          StrCat("flat baseline requires a ground name at ", role,
                 " position, got: ", ToString(r))));
    }
    return InternName(*d, store_);
  }

  /// Emits atoms constraining a term to denote `t`; returns the term.
  Result<BTerm> Flatten(const Ref& t) {
    switch (t.kind) {
      case RefKind::kName: {
        PATHLOG_ASSIGN_OR_RETURN(Oid o, GroundName(t, "object"));
        return BTerm::Const(o);
      }
      case RefKind::kVar:
        return BTerm::Var(t.text);
      case RefKind::kParen:
        return Flatten(*t.base);
      case RefKind::kPath: {
        if (!t.args.empty()) {
          return Status(InvalidArgument(
              "method arguments have no flat binary-relation counterpart"));
        }
        PATHLOG_ASSIGN_OR_RETURN(BTerm base, Flatten(*t.base));
        PATHLOG_ASSIGN_OR_RETURN(Oid m, GroundName(*t.method, "method"));
        BTerm result = Fresh();
        BAtom atom;
        atom.kind = t.set_valued_path ? BAtom::Kind::kSetMember
                                      : BAtom::Kind::kScalar;
        atom.method_or_class = m;
        atom.recv = base;
        atom.value = result;
        query_.atoms.push_back(std::move(atom));
        return result;
      }
      case RefKind::kMolecule: {
        PATHLOG_ASSIGN_OR_RETURN(BTerm base, Flatten(*t.base));
        for (const Filter& f : t.filters) {
          if (f.kind == FilterKind::kClass) {
            PATHLOG_ASSIGN_OR_RETURN(Oid c, GroundName(*f.value, "class"));
            BAtom atom;
            atom.kind = BAtom::Kind::kMember;
            atom.method_or_class = c;
            atom.recv = base;
            query_.atoms.push_back(std::move(atom));
            continue;
          }
          if (!f.args.empty()) {
            return Status(InvalidArgument(
                "filter arguments have no flat counterpart"));
          }
          PATHLOG_ASSIGN_OR_RETURN(Oid m, GroundName(*f.method, "method"));
          std::optional<Oid> self = store_->FindSymbol(kSelfMethodName);
          const bool is_self = self.has_value() && *self == m;
          switch (f.kind) {
            case FilterKind::kScalar: {
              PATHLOG_ASSIGN_OR_RETURN(BTerm v, Flatten(*f.value));
              BAtom atom;
              atom.kind = is_self ? BAtom::Kind::kEq : BAtom::Kind::kScalar;
              atom.method_or_class = m;
              atom.recv = base;
              atom.value = v;
              query_.atoms.push_back(std::move(atom));
              break;
            }
            case FilterKind::kSetEnum: {
              for (const RefPtr& e : f.elems) {
                PATHLOG_ASSIGN_OR_RETURN(BTerm v, Flatten(*e));
                BAtom atom;
                atom.kind = BAtom::Kind::kSetMember;
                atom.method_or_class = m;
                atom.recv = base;
                atom.value = v;
                query_.atoms.push_back(std::move(atom));
              }
              break;
            }
            case FilterKind::kSetRef:
              return Status(InvalidArgument(
                  "set-reference filters have no flat counterpart"));
            case FilterKind::kClass:
              break;  // unreachable
          }
        }
        return base;
      }
    }
    return Status(Internal("Flatten: unknown reference kind"));
  }

  ObjectStore* store_;
  FlatQuery query_;
  int fresh_counter_ = 0;
};

}  // namespace

Result<FlatQuery> FlattenLiterals(const std::vector<Literal>& body,
                                  ObjectStore* store) {
  return Flattener(store).Run(body);
}

Result<FlatQuery> FlattenRef(const RefPtr& ref, ObjectStore* store) {
  std::vector<Literal> body;
  body.push_back(Literal{ref, false});
  return FlattenLiterals(body, store);
}

}  // namespace pathlog
