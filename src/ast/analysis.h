// Static analysis of references: scalarity (Definition 2),
// well-formedness (Definition 3), simplicity, variable collection, and
// the one walk over a rule's method and class positions.

#ifndef PATHLOG_AST_ANALYSIS_H_
#define PATHLOG_AST_ANALYSIS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ast/program.h"
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

/// A source position, 1-based; {0, 0} when unknown.
struct Span {
  int line = 0;
  int column = 0;
};

/// `t`'s own position, or `fallback` when `t` was built without one.
inline Span SpanOf(const Ref& t, Span fallback) {
  return t.line > 0 ? Span{t.line, t.column} : fallback;
}

/// Where a method or class position sits in a rule (head assertion:
/// eval/head_assert.h; the completeness condition: paper section 6).
enum class SitePlace : uint8_t {
  /// On the head's spine: the head and the base of every spine path or
  /// molecule. A path here invents an object; a filter asserts.
  kHeadSpine,
  /// In a head argument, scalar result, set element or class. A path
  /// here is looked up, and invents only under kSkolemize.
  kHeadValue,
  /// Read by the head when it asserts: the result of a head `->>`
  /// filter, and a complex head method walked as a read.
  kHeadRead,
  /// In a body literal.
  kBody,
};

/// The name `ref` is, as written: a symbol's text, an integer's digits,
/// a string in its quotes (so it never meets the symbol of the same
/// text); empty when `ref` (brackets stripped) is not a name. The key
/// the linter gives a method, a class or a ground receiver.
std::string NameText(const Ref& ref);

/// One method or class position, as ForEachMethodSite reports it.
struct MethodSite {
  SitePlace place = SitePlace::kBody;
  /// Inside the result reference of a `->>` filter.
  bool in_set_result = false;
  /// Inside a negated body literal.
  bool negated = false;
  /// Index of the body literal; -1 in the head and in a bare reference.
  int literal = -1;
  /// The kPath node of a `.`/`..` step (set_valued_path tells which),
  /// or the kMolecule node of a filter.
  const Ref* node = nullptr;
  /// The filter; null for a path step.
  const Filter* filter = nullptr;
  /// Position of `node`, else of the nearest enclosing reference,
  /// literal or clause that has one.
  Span span{};

  bool is_class() const {
    return filter != nullptr && filter->kind == FilterKind::kClass;
  }
  bool in_head() const { return place != SitePlace::kBody; }
  /// On the head's spine or at a head value: the part of the head that
  /// is asserted rather than read.
  bool in_asserted_head() const {
    return place == SitePlace::kHeadSpine || place == SitePlace::kHeadValue;
  }
  /// The method, or the class of a class filter, brackets stripped.
  const Ref& position() const {
    if (filter == nullptr) return Deref(*node->method);
    return Deref(is_class() ? *filter->value : *filter->method);
  }
  /// The name at the position; null for a variable or a complex
  /// reference. Every name is the one method (or class) it denotes,
  /// an integer or a string name as much as a symbol: the store interns
  /// it (InternSymbol, InternInt, InternString) and files facts under
  /// it. So no name is a wildcard, and none is ignored.
  const Ref* name() const {
    const Ref& p = position();
    return p.kind == RefKind::kName ? &p : nullptr;
  }
  /// NameText of the position: the key the linter gives a method.
  std::string name_text() const { return NameText(position()); }
};

/// How ForEachMethodSite continues into a complex method (a path or
/// molecule, such as the generic `(M.tc)`) after reporting it. Ignored
/// at every other position; a class is always walked as a value.
enum class Descend : uint8_t {
  kNo,
  /// Walk it as a read in the site's own context (a head site's
  /// becomes kHeadRead).
  kRead,
  /// Walk it as a head spine: its paths and filters define.
  kDefine,
  /// kDefine, then kRead.
  kDefineAndRead,
};

using MethodSiteFn = std::function<Descend(const MethodSite&)>;
/// Called with a filter's site just before each of its result
/// references is walked: the scalar result, the `->>` result, each set
/// element.
using FilterResultFn = std::function<void(const MethodSite&, const Ref&)>;

/// Calls `fn` once for every method and class position of `rule`: the
/// head (if any), then each body literal in order. Within a reference a
/// path step's method comes before its base and arguments, and a
/// molecule's base before its filters; a filter's method or class comes
/// before its arguments and results. The positions inside a complex
/// method follow it, once for each walk `fn` asked for. Every site of a
/// program is found here, so callers decide only what a site means to
/// them.
void ForEachMethodSite(const Rule& rule, const MethodSiteFn& fn,
                       const FilterResultFn& on_result = nullptr);

/// The same over `t` read as a positive body literal.
void ForEachMethodSite(const Ref& t, const MethodSiteFn& fn);

}  // namespace pathlog

#endif  // PATHLOG_AST_ANALYSIS_H_
