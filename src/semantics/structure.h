// The semantic structure I = (U, <=_U, I_N, I_->, I_->>) of paper
// section 3, as a thin read-only view over an ObjectStore plus the
// built-in methods:
//
//   self : for every object u, I_->(self)(u) = u  (paper section 4.1;
//          the XSQL-style selector `[X]` expands to `[self->X]`);
//
// and — an extension beyond the paper, in the same "everything is a
// method" spirit — *comparison guards* on integers: partial identity
// methods defined exactly when the comparison holds, e.g.
//
//   I_->(lt)(x, y)          = x   iff x, y integers and x <  y
//   I_->(geq)(x, y)         = x   iff x, y integers and x >= y
//   I_->(between)(x, lo, hi)= x   iff lo <= x <= hi
//
// A guard used as a path is a filter: `S.lt@(1000)` denotes S when
// S < 1000 and nothing otherwise, so `X[salary->S], S.lt@(1000)` reads
// "X's salary S is below 1000". Because guards are identity-preserving
// partial functions over existing objects, they need no new objects
// and fit Definition 4 unchanged (which is why arithmetic — whose
// results may be objects outside the store — is deliberately absent).

#ifndef PATHLOG_SEMANTICS_STRUCTURE_H_
#define PATHLOG_SEMANTICS_STRUCTURE_H_

#include <optional>
#include <string_view>
#include <vector>

#include "ast/ref.h"  // kSelfMethodName
#include "store/object_store.h"

namespace pathlog {

/// Built-in comparison guard names (all take integer receivers).
inline constexpr std::string_view kLtName = "lt";        ///< @(y): recv <  y
inline constexpr std::string_view kLeqName = "leq";      ///< @(y): recv <= y
inline constexpr std::string_view kGtName = "gt";        ///< @(y): recv >  y
inline constexpr std::string_view kGeqName = "geq";      ///< @(y): recv >= y
inline constexpr std::string_view kIntEqName = "intEq";  ///< @(y): recv == y
inline constexpr std::string_view kIntNeqName = "intNeq";
inline constexpr std::string_view kBetweenName = "between";  ///< @(lo,hi)

/// True iff `name` is reserved for a built-in method (`self` or a
/// comparison guard); built-ins cannot be (re)defined by rules.
bool IsBuiltinMethodName(std::string_view name);

/// Interns the object a name denotes (I_N): symbols, integers and
/// strings each have their own name space. SemanticStructure::FindName
/// is the lookup that interns nothing.
Oid InternName(const Ref& name, ObjectStore* store);

class SemanticStructure {
 public:
  /// The store must outlive the structure. Built-in method names are
  /// resolved if the store has interned them (the Database front end
  /// always interns `self`; guard names are interned on first use in
  /// a loaded program or query).
  explicit SemanticStructure(const ObjectStore& store)
      : store_(store),
        self_(store.FindSymbol(kSelfMethodName)),
        lt_(store.FindSymbol(kLtName)),
        leq_(store.FindSymbol(kLeqName)),
        gt_(store.FindSymbol(kGtName)),
        geq_(store.FindSymbol(kGeqName)),
        int_eq_(store.FindSymbol(kIntEqName)),
        int_neq_(store.FindSymbol(kIntNeqName)),
        between_(store.FindSymbol(kBetweenName)) {}

  const ObjectStore& store() const { return store_; }

  /// The object a name denotes (I_N); nullopt when the store has never
  /// interned it.
  std::optional<Oid> FindName(const Ref& name) const {
    switch (name.name_kind) {
      case NameKind::kSymbol:
        return store_.FindSymbol(name.text);
      case NameKind::kInt:
        return store_.FindInt(name.int_value);
      case NameKind::kString:
        return store_.FindString(name.text);
    }
    return std::nullopt;
  }

  /// The oid of the built-in `self` method, if interned.
  std::optional<Oid> self_oid() const { return self_; }
  bool IsSelf(Oid m) const { return self_ && *self_ == m; }

  /// True iff m is any built-in scalar method (self or a guard).
  bool IsBuiltinScalar(Oid m) const {
    return IsSelf(m) || IsGuard(m);
  }
  bool IsGuard(Oid m) const {
    return Is(m, lt_) || Is(m, leq_) || Is(m, gt_) || Is(m, geq_) ||
           Is(m, int_eq_) || Is(m, int_neq_) || Is(m, between_);
  }

  /// I_->(m)(recv, args...): stored facts, `self`, and guards.
  std::optional<Oid> Scalar(Oid m, Oid recv,
                            const std::vector<Oid>& args) const {
    if (IsSelf(m) && args.empty()) return recv;
    if (IsGuard(m)) return Guard(m, recv, args);
    return store_.GetScalar(m, recv, args);
  }

  /// I_->>(m)(recv, args...): nullopt when the set is empty.
  std::optional<SetGroup> SetVal(Oid m, Oid recv,
                                 const std::vector<Oid>& args) const {
    return store_.GetSetGroup(m, recv, args);
  }

  bool IsA(Oid sub, Oid super) const { return store_.IsA(sub, super); }

 private:
  static bool Is(Oid m, std::optional<Oid> o) { return o && *o == m; }

  std::optional<Oid> Guard(Oid m, Oid recv,
                           const std::vector<Oid>& args) const {
    if (store_.kind(recv) != ObjectKind::kInt) return std::nullopt;
    const int64_t x = store_.IntValue(recv);
    if (Is(m, between_)) {
      if (args.size() != 2 || store_.kind(args[0]) != ObjectKind::kInt ||
          store_.kind(args[1]) != ObjectKind::kInt) {
        return std::nullopt;
      }
      return (store_.IntValue(args[0]) <= x && x <= store_.IntValue(args[1]))
                 ? std::optional<Oid>(recv)
                 : std::nullopt;
    }
    if (args.size() != 1 || store_.kind(args[0]) != ObjectKind::kInt) {
      return std::nullopt;
    }
    const int64_t y = store_.IntValue(args[0]);
    bool holds = false;
    if (Is(m, lt_)) holds = x < y;
    else if (Is(m, leq_)) holds = x <= y;
    else if (Is(m, gt_)) holds = x > y;
    else if (Is(m, geq_)) holds = x >= y;
    else if (Is(m, int_eq_)) holds = x == y;
    else if (Is(m, int_neq_)) holds = x != y;
    return holds ? std::optional<Oid>(recv) : std::nullopt;
  }

  const ObjectStore& store_;
  std::optional<Oid> self_;
  std::optional<Oid> lt_, leq_, gt_, geq_, int_eq_, int_neq_, between_;
};

}  // namespace pathlog

#endif  // PATHLOG_SEMANTICS_STRUCTURE_H_
