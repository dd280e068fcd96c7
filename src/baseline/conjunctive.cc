#include "baseline/conjunctive.h"

#include <functional>
#include <unordered_map>

#include "base/strings.h"
#include "baseline/operators.h"

namespace pathlog {

namespace {

/// Builds the relation of one non-kEq atom, with variable names as
/// columns (constants selected away, duplicate variables equated).
Relation AtomRelation(const ObjectStore& store, const BAtom& atom) {
  Relation raw;
  switch (atom.kind) {
    case BAtom::Kind::kMember:
      raw = ScanClass(store, atom.method_or_class, "$0");
      break;
    case BAtom::Kind::kScalar:
      raw = ScanScalar(store, atom.method_or_class, "$0", "$1");
      break;
    case BAtom::Kind::kSetMember:
      raw = ScanSet(store, atom.method_or_class, "$0", "$1");
      break;
    case BAtom::Kind::kEq:
      return Relation();  // handled separately
  }
  const bool binary = atom.kind != BAtom::Kind::kMember;

  if (!atom.recv.is_var) raw = Select(raw, "$0", atom.recv.constant);
  if (binary && !atom.value.is_var) {
    raw = Select(raw, "$1", atom.value.constant);
  }
  if (binary && atom.recv.is_var && atom.value.is_var &&
      atom.recv.var == atom.value.var) {
    Relation eq(raw.columns());
    for (const std::vector<Oid>& row : raw.rows()) {
      if (row[0] == row[1]) eq.AddRow(row);
    }
    raw = std::move(eq);
  }

  std::vector<std::string> keep;
  std::vector<std::string> renamed;
  if (atom.recv.is_var) {
    keep.push_back("$0");
    renamed.push_back(atom.recv.var);
  }
  if (binary && atom.value.is_var && atom.value.var != atom.recv.var) {
    keep.push_back("$1");
    renamed.push_back(atom.value.var);
  }
  Relation out(renamed);
  std::vector<size_t> idxs;
  for (const std::string& c : keep) idxs.push_back(*raw.ColumnIndex(c));
  for (const std::vector<Oid>& row : raw.rows()) {
    std::vector<Oid> out_row;
    for (size_t i : idxs) out_row.push_back(row[i]);
    out.AddRow(std::move(out_row));
  }
  out.Dedup();
  return out;
}

}  // namespace

Result<Relation> EvalJoinPlan(const ObjectStore& store, const FlatQuery& q) {
  Relation acc(std::vector<std::string>{});
  acc.AddRow({});  // unit relation
  std::vector<const BAtom*> eqs;
  for (const BAtom& atom : q.atoms) {
    if (atom.kind == BAtom::Kind::kEq) {
      eqs.push_back(&atom);
      continue;
    }
    acc = HashJoin(acc, AtomRelation(store, atom));
  }
  // Equality constraints: filter when both sides are bound, extend the
  // relation with a new column when exactly one side is an unbound
  // variable (the `[Z]` selector shape: Z := value of the path).
  for (const BAtom* eq : eqs) {
    auto col_of = [&](const BTerm& t) -> std::optional<size_t> {
      if (!t.is_var) return std::nullopt;
      return acc.ColumnIndex(t.var);
    };
    std::optional<size_t> lcol = col_of(eq->recv);
    std::optional<size_t> rcol = col_of(eq->value);
    const bool l_free = eq->recv.is_var && !lcol;
    const bool r_free = eq->value.is_var && !rcol;
    if (l_free && r_free) {
      return Status(InvalidArgument(
          "kEq between two variables not bound by any atom"));
    }
    if (l_free || r_free) {
      const BTerm& free_term = l_free ? eq->recv : eq->value;
      const BTerm& bound_term = l_free ? eq->value : eq->recv;
      std::optional<size_t> bcol = col_of(bound_term);
      std::vector<std::string> cols = acc.columns();
      cols.push_back(free_term.var);
      Relation extended(std::move(cols));
      for (const std::vector<Oid>& row : acc.rows()) {
        std::vector<Oid> out_row = row;
        out_row.push_back(bound_term.is_var ? row[*bcol]
                                            : bound_term.constant);
        extended.AddRow(std::move(out_row));
      }
      acc = std::move(extended);
      continue;
    }
    Relation kept(acc.columns());
    for (const std::vector<Oid>& row : acc.rows()) {
      Oid a = eq->recv.is_var ? row[*lcol] : eq->recv.constant;
      Oid b = eq->value.is_var ? row[*rcol] : eq->value.constant;
      if (a == b) kept.AddRow(row);
    }
    acc = std::move(kept);
  }
  return Project(acc, q.select);
}

Result<Relation> EvalNestedLoop(const ObjectStore& store, const FlatQuery& q) {
  std::unordered_map<std::string, Oid> bindings;
  Relation out(q.select);
  Status failure;

  auto value_of = [&](const BTerm& t) -> std::optional<Oid> {
    if (!t.is_var) return t.constant;
    auto it = bindings.find(t.var);
    if (it == bindings.end()) return std::nullopt;
    return it->second;
  };
  // Binds `t` to `o` if possible; returns whether consistent, and
  // whether a new binding was made (for undo).
  auto bind = [&](const BTerm& t, Oid o, std::vector<std::string>* trail) {
    if (!t.is_var) return t.constant == o;
    auto it = bindings.find(t.var);
    if (it != bindings.end()) return it->second == o;
    bindings.emplace(t.var, o);
    trail->push_back(t.var);
    return true;
  };

  std::function<void(size_t)> go = [&](size_t i) {
    if (i == q.atoms.size()) {
      std::vector<Oid> row;
      for (const std::string& v : q.select) {
        auto it = bindings.find(v);
        if (it == bindings.end()) {
          failure = InvalidArgument(
              StrCat("select variable ", v, " not bound by any atom"));
          return;
        }
        row.push_back(it->second);
      }
      out.AddRow(std::move(row));
      return;
    }
    const BAtom& atom = q.atoms[i];
    std::vector<std::string> trail;
    auto undo = [&]() {
      for (const std::string& v : trail) bindings.erase(v);
      trail.clear();
    };
    switch (atom.kind) {
      case BAtom::Kind::kEq: {
        std::optional<Oid> a = value_of(atom.recv);
        if (a && bind(atom.value, *a, &trail)) {
          go(i + 1);
        } else if (!a) {
          std::optional<Oid> v = value_of(atom.value);
          if (v && bind(atom.recv, *v, &trail)) go(i + 1);
        }
        undo();
        return;
      }
      case BAtom::Kind::kMember: {
        std::optional<Oid> r = value_of(atom.recv);
        if (r) {
          if (store.IsA(*r, atom.method_or_class)) go(i + 1);
          return;
        }
        for (Oid o : store.Members(atom.method_or_class)) {
          if (bind(atom.recv, o, &trail)) go(i + 1);
          undo();
          if (!failure.ok()) return;
        }
        return;
      }
      case BAtom::Kind::kScalar: {
        std::optional<Oid> r = value_of(atom.recv);
        if (r) {
          std::optional<Oid> v = store.GetScalar(atom.method_or_class, *r, {});
          if (v && bind(atom.value, *v, &trail)) go(i + 1);
          undo();
          return;
        }
        for (const ScalarEntry& e :
             store.ScalarEntries(atom.method_or_class)) {
          if (!e.args.empty()) continue;
          if (bind(atom.recv, e.recv, &trail) &&
              bind(atom.value, e.value, &trail)) {
            go(i + 1);
          }
          undo();
          if (!failure.ok()) return;
        }
        return;
      }
      case BAtom::Kind::kSetMember: {
        std::optional<Oid> r = value_of(atom.recv);
        if (r) {
          const std::optional<SetGroup> g =
              store.GetSetGroup(atom.method_or_class, *r, {});
          if (!g) return;
          std::optional<Oid> v = value_of(atom.value);
          if (v) {
            if (g->Contains(*v)) go(i + 1);
            return;
          }
          for (Oid m : g->members) {
            if (bind(atom.value, m, &trail)) go(i + 1);
            undo();
            if (!failure.ok()) return;
          }
          return;
        }
        for (const SetGroup& g : store.SetGroups(atom.method_or_class)) {
          if (!g.args.empty()) continue;
          for (Oid m : g.members) {
            if (bind(atom.recv, g.recv, &trail) &&
                bind(atom.value, m, &trail)) {
              go(i + 1);
            }
            undo();
            if (!failure.ok()) return;
          }
        }
        return;
      }
    }
  };
  go(0);
  if (!failure.ok()) return failure;
  out.Dedup();
  return out;
}

}  // namespace pathlog
