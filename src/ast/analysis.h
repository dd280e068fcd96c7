// Static analysis of references: scalarity (Definition 2),
// well-formedness (Definition 3), simplicity, and variable collection.

#ifndef PATHLOG_AST_ANALYSIS_H_
#define PATHLOG_AST_ANALYSIS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ast/ref.h"
#include "base/status.h"

namespace pathlog {

/// Strips grouping brackets; they affect parsing, not denotation.
inline const Ref& Deref(const Ref& t) {
  const Ref* p = &t;
  while (p->kind == RefKind::kParen) p = p->base.get();
  return *p;
}

/// True iff `t` is a *simple* reference (name, variable, or bracketed
/// reference) — the only forms admitted at method and class positions
/// by Definition 1.
bool IsSimpleRef(const Ref& t);

/// Definition 2: a reference is set-valued iff it is a `..` path; a `.`
/// path one of whose sub-references (base, method, or argument) is
/// set-valued; a molecule with set-valued base; or a bracketed
/// set-valued reference. Otherwise it is scalar.
bool IsSetValued(const Ref& t);

/// Definition 3: checks that every sub-reference is well-formed and
/// that molecules respect scalarity: scalar filters take scalar
/// methods, arguments and results; `->>` filters take a set-valued
/// reference or an explicit set of scalar references; classes are
/// scalar. Paths are unrestricted ("well-formedness only restricts the
/// usage of set valued references in molecules, but not in paths").
/// Additionally enforces Definition 1's requirement that method and
/// class positions hold simple references, which matters for
/// programmatically built ASTs that bypassed the parser.
Status CheckWellFormed(const Ref& t);

/// Adds every occurrence of every variable in `t` to `out`, counting
/// multiplicity (a variable occurring twice adds 2). This is the
/// primary variable walk; the set-valued forms below are wrappers.
void CollectVarCounts(const Ref& t, std::map<std::string, int>* out);

/// Convenience: variable -> number of occurrences in `t`.
std::map<std::string, int> VarCountsOf(const Ref& t);

/// Adds every variable occurring in `t` to `out` (occurrence counts
/// discarded).
void CollectVars(const Ref& t, std::set<std::string>* out);

/// Convenience: the set of variables of `t`.
std::set<std::string> VarsOf(const Ref& t);

/// True iff `t` contains no variables.
bool IsGround(const Ref& t);

/// Calls `fn` on every name and variable node of `t`, in source order.
template <typename Fn>
void ForEachLeaf(const Ref& t, const Fn& fn) {
  auto each = [&](const std::vector<RefPtr>& refs) {
    for (const RefPtr& r : refs) ForEachLeaf(*r, fn);
  };
  switch (t.kind) {
    case RefKind::kName:
    case RefKind::kVar:
      fn(t);
      return;
    case RefKind::kParen:
      ForEachLeaf(*t.base, fn);
      return;
    case RefKind::kPath:
      ForEachLeaf(*t.base, fn);
      ForEachLeaf(*t.method, fn);
      each(t.args);
      return;
    case RefKind::kMolecule:
      ForEachLeaf(*t.base, fn);
      for (const Filter& f : t.filters) {
        if (f.method) ForEachLeaf(*f.method, fn);
        each(f.args);
        if (f.value) ForEachLeaf(*f.value, fn);
        each(f.elems);
      }
      return;
  }
}

}  // namespace pathlog

#endif  // PATHLOG_AST_ANALYSIS_H_
