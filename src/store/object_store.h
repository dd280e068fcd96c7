// The object store: PathLog's OODB substrate.
//
// Realises the semantic structure I = (U, <=_U, I_N, I_->, I_->>) of
// the paper (section 3) as a mutable, indexed store:
//
//   U      the universe: every interned name, value, and anonymous
//          (virtual) object gets a dense Oid;
//   I_N    name interpretation: interning is injective, so names map
//          one-to-one onto their objects; integers and strings are
//          names too ("we don't distinguish between objects and
//          values");
//   <=_U   the class hierarchy: a DAG of isa edges whose reachability
//          relation is the partial order; classes and methods are
//          ordinary objects, so any object may appear on either side;
//   I_->   scalar methods: per method, a partial function from
//          (receiver, args...) to one object;
//   I_->>  set-valued methods: per method, a function from
//          (receiver, args...) to a set of objects.
//
// Every mutation appends to a fact log; the log index is the
// *generation*, which the deductive engine uses for semi-naive deltas
// and which snapshots/rollback use as a watermark.
//
// Deviation note (documented in DESIGN.md): the paper calls <=_U a
// partial order, hence reflexive. We expose reachability through
// explicit edges only (irreflexive unless an explicit self-edge is
// added), because reflexive membership would make every class a member
// of itself and pollute every class-extent query in the paper's
// examples.

#ifndef PATHLOG_STORE_OBJECT_STORE_H_
#define PATHLOG_STORE_OBJECT_STORE_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "store/fact.h"
#include "store/method_stats.h"
#include "store/oid.h"

namespace pathlog {

class Counter;
class MetricsRegistry;

/// What kind of denotation an object carries.
enum class ObjectKind : uint8_t {
  /// A symbolic name from N (e.g. `mary`, `employee`, `color`).
  kSymbol,
  /// An integer value (integers are names too, paper section 3).
  kInt,
  /// A string literal value.
  kString,
  /// An anonymous object created for a virtual-object definition; it
  /// has a synthetic display name such as `_boss(p1)` but no entry in
  /// the user-visible name space N.
  kAnonymous,
};

/// One scalar-method fact: I_->(m)(recv, args...) = value.
struct ScalarEntry {
  Oid recv;
  std::vector<Oid> args;
  Oid value;
  /// Generation at which this fact was asserted.
  uint64_t gen;
};

/// One set-valued group: I_->>(m)(recv, args...) = {members...}.
struct SetGroup {
  Oid recv;
  std::vector<Oid> args;
  /// Members in insertion order; `member_gens[i]` stamps `members[i]`.
  std::vector<Oid> members;
  std::vector<uint64_t> member_gens;
  /// member -> generation of its membership fact.
  std::unordered_map<Oid, uint64_t> member_set;

  bool Contains(Oid o) const { return member_set.count(o) > 0; }
  /// Generation of o's membership fact; UINT64_MAX if not a member.
  uint64_t MemberGen(Oid o) const {
    auto it = member_set.find(o);
    return it == member_set.end() ? UINT64_MAX : it->second;
  }
};

/// Address of one membership fact inside a method's group list: the
/// group's index in SetGroups(m) and the member's position within that
/// group (indexes members and member_gens alike).
struct SetMemberRef {
  uint32_t group;
  uint32_t pos;
};

/// The mutable object store. Copyable: a copy is an independent
/// snapshot (used by the engine to run naive/semi-naive as oracles
/// against each other and by tests for rollback).
class ObjectStore {
 public:
  ObjectStore();

  // --- Universe and names (I_N) -------------------------------------

  /// Interns a symbolic name, returning its (stable) object.
  Oid InternSymbol(std::string_view name);
  /// Interns an integer value.
  Oid InternInt(int64_t value);
  /// Interns a string literal (distinct from the symbol of same text).
  Oid InternString(std::string_view text);
  /// Creates a fresh anonymous object with a synthetic display name.
  Oid NewAnonymous(std::string display_name);

  /// Finds an existing symbol without creating it.
  std::optional<Oid> FindSymbol(std::string_view name) const;
  std::optional<Oid> FindInt(int64_t value) const;
  std::optional<Oid> FindString(std::string_view text) const;

  ObjectKind kind(Oid o) const {
    assert(Valid(o) && "kind: oid out of range");
    return objects_[o].kind;
  }
  /// The display form: symbol text, decimal digits, quoted string, or
  /// the synthetic `_m(recv)` name of an anonymous object.
  const std::string& DisplayName(Oid o) const {
    assert(Valid(o) && "DisplayName: oid out of range");
    return objects_[o].name;
  }
  /// Integer value of a kInt object. The value field is meaningless for
  /// any other kind, so reading it through a wrong-kind Oid is a bug.
  int64_t IntValue(Oid o) const {
    assert(ValidAs(o, ObjectKind::kInt) && "IntValue: not an integer oid");
    return objects_[o].int_value;
  }

  /// Number of objects in the universe.
  size_t UniverseSize() const { return objects_.size(); }
  bool Valid(Oid o) const { return o < objects_.size(); }
  /// Valid() plus a kind check — use before kind-specific reads such as
  /// IntValue().
  bool ValidAs(Oid o, ObjectKind k) const {
    return Valid(o) && objects_[o].kind == k;
  }

  // --- Class hierarchy (<=_U) ---------------------------------------

  /// Adds sub <=_U super. Rejects cycles (the hierarchy must remain a
  /// partial order). Idempotent for existing edges.
  Status AddIsa(Oid sub, Oid super);

  /// True iff sub <=_U super via one or more explicit edges.
  bool IsA(Oid sub, Oid super) const;

  /// Generation of the explicit isa fact that established sub <=_U
  /// super (for closure pairs: the fact whose edge completed the
  /// path); UINT64_MAX when the pair does not hold. Used by the
  /// delta-restricted evaluator.
  uint64_t IsaGen(Oid sub, Oid super) const;

  /// All objects u with u <=_U c (the extent of c), insertion order.
  const std::vector<Oid>& Members(Oid c) const;

  /// Generations parallel to Members(c).
  const std::vector<uint64_t>& MemberGens(Oid c) const;

  /// All direct and transitive superclasses of o.
  const std::vector<Oid>& Ancestors(Oid o) const;

  /// Generations parallel to Ancestors(o).
  const std::vector<uint64_t>& AncestorGens(Oid o) const;

  // --- Scalar methods (I_->) ----------------------------------------

  /// Asserts I_->(m)(recv, args...) = value. Returns OK and records a
  /// fact if new; OK without a record if identical; kScalarConflict if
  /// a *different* value is already recorded (scalar methods are
  /// partial functions).
  Status SetScalar(Oid m, Oid recv, const std::vector<Oid>& args, Oid value);

  /// Looks up I_->(m)(recv, args...); nullopt where undefined.
  std::optional<Oid> GetScalar(Oid m, Oid recv,
                               const std::vector<Oid>& args) const;

  /// All facts of scalar method m (empty if m has none).
  const std::vector<ScalarEntry>& ScalarEntries(Oid m) const;

  /// Indexes of entries in ScalarEntries(m) whose receiver is recv.
  const std::vector<uint32_t>& ScalarEntriesByRecv(Oid m, Oid recv) const;

  /// Indexes of entries in ScalarEntries(m) whose *value* is value —
  /// the inverted value→receiver index. Maintained incrementally by
  /// SetScalar, so entry order (and thus generation order) is
  /// preserved within each bucket.
  const std::vector<uint32_t>& ScalarEntriesByValue(Oid m, Oid value) const;

  /// Number of distinct values among the facts of scalar method m (the
  /// inverted index's bucket count). The planner's runtime-bound
  /// estimate reads ScalarValueStats instead (SkewAwareBucketEstimate:
  /// upper quantile of the exact top-k heavy hitters, floored by the
  /// residual-mass average).
  size_t ScalarDistinctValues(Oid m) const;

  /// Incrementally-maintained statistics over m's inverted value
  /// index: total/distinct counters, exact top-k heavy-hitter buckets,
  /// and the generation of the last updating fact. Rebuilt on
  /// snapshot/WAL replay exactly like the index itself (replay re-runs
  /// SetScalar).
  const MethodStats& ScalarValueStats(Oid m) const;

  /// All methods with at least one scalar fact.
  std::vector<Oid> ScalarMethods() const;

  // --- Set-valued methods (I_->>) -----------------------------------

  /// Asserts value in I_->>(m)(recv, args...). Returns true if the
  /// membership is new.
  bool AddSetMember(Oid m, Oid recv, const std::vector<Oid>& args, Oid value);

  /// The group for (m, recv, args), or nullptr where the set is empty.
  const SetGroup* GetSetGroup(Oid m, Oid recv,
                              const std::vector<Oid>& args) const;

  /// All groups of set-valued method m.
  const std::vector<SetGroup>& SetGroups(Oid m) const;

  /// Indexes of groups in SetGroups(m) whose receiver is recv.
  const std::vector<uint32_t>& SetGroupsByRecv(Oid m, Oid recv) const;

  /// Positions of membership facts of m whose member is `member` —
  /// the inverted member→receiver index. Each SetMemberRef addresses
  /// one membership fact: `SetGroups(m)[r.group]` is the group and
  /// `r.pos` indexes its members/member_gens arrays.
  const std::vector<SetMemberRef>& SetGroupsByMember(Oid m, Oid member) const;

  /// Number of distinct members among the facts of set method m (the
  /// inverted index's bucket count).
  size_t SetDistinctMembers(Oid m) const;

  /// Incrementally-maintained statistics over m's inverted member
  /// index; the set-valued twin of ScalarValueStats.
  const MethodStats& SetMemberStats(Oid m) const;

  /// All methods with at least one set-valued fact.
  std::vector<Oid> SetMethods() const;

  // --- Fact log / generations ---------------------------------------

  /// Number of facts ever asserted; also the next generation stamp.
  uint64_t generation() const { return log_.size(); }

  /// The fact with generation g (0 <= g < generation()).
  const Fact& FactAt(uint64_t g) const { return log_[g]; }

  /// Total number of stored facts (== generation()).
  size_t FactCount() const { return log_.size(); }

  /// Statistics used by benchmarks and the README examples.
  struct Stats {
    size_t objects = 0;
    size_t isa_facts = 0;
    size_t scalar_facts = 0;
    size_t set_facts = 0;
  };
  Stats ComputeStats() const;

  /// Approximate heap bytes retained by the store: object table +
  /// intern maps, hierarchy closure pairs, method tables with their
  /// inverted-index buckets, and the fact log. Maintained
  /// incrementally by every mutator (flat per-slot estimates plus
  /// string payloads), so reads are free and snapshot/WAL replay
  /// rebuilds the figure exactly (replay re-runs the mutators). This
  /// is the quantity ResourceBudget's byte dimension governs.
  uint64_t ApproxBytes() const { return approx_bytes_; }

  // --- Observability -------------------------------------------------

  /// Attaches a metrics registry (nullptr detaches). From this point
  /// on, every new object and every asserted fact bumps the
  /// pathlog_store_* counters. Disabled cost per mutation is one
  /// branch. A copy of the store inherits the attachment — mutations
  /// to the copy are real mutations and count too; callers that copy
  /// for oracle runs should detach on the copy.
  void set_metrics(MetricsRegistry* metrics);

 private:
  struct ObjectInfo {
    ObjectKind kind;
    std::string name;
    int64_t int_value = 0;
  };

  struct ScalarTable {
    std::unordered_map<InvocationKey, uint32_t, InvocationKeyHash> index;
    std::vector<ScalarEntry> entries;
    std::unordered_map<Oid, std::vector<uint32_t>> by_recv;
    /// Inverted index: value -> entry indexes, in insertion order.
    std::unordered_map<Oid, std::vector<uint32_t>> by_value;
    /// Counters + exact top-k heavy hitters over by_value.
    MethodStats stats;
  };

  struct SetTable {
    std::unordered_map<InvocationKey, uint32_t, InvocationKeyHash> index;
    std::vector<SetGroup> groups;
    std::unordered_map<Oid, std::vector<uint32_t>> by_recv;
    /// Inverted index: member -> membership facts, in insertion order.
    std::unordered_map<Oid, std::vector<SetMemberRef>> by_member;
    /// Counters + exact top-k heavy hitters over by_member.
    MethodStats stats;
  };

  Oid AddObject(ObjectInfo info);

  /// Cached metric handles (borrowed from the attached registry; all
  /// null when metrics are detached).
  struct MetricsHooks {
    Counter* objects = nullptr;
    Counter* isa_facts = nullptr;
    Counter* scalar_facts = nullptr;
    Counter* set_facts = nullptr;
  };
  MetricsHooks metrics_;

  std::vector<ObjectInfo> objects_;
  std::unordered_map<std::string, Oid> symbols_;
  std::unordered_map<int64_t, Oid> ints_;
  std::unordered_map<std::string, Oid> strings_;

  // Hierarchy: direct edges plus eagerly-maintained reachability, with
  // the generation of the establishing fact per closure pair.
  std::unordered_map<Oid, std::vector<Oid>> up_edges_;
  std::unordered_map<Oid, std::vector<Oid>> ancestors_;  // closure
  std::unordered_map<Oid, std::vector<uint64_t>> ancestor_gens_;
  std::unordered_map<Oid, std::unordered_map<Oid, uint64_t>> anc_set_;
  std::unordered_map<Oid, std::vector<Oid>> members_;  // extent
  std::unordered_map<Oid, std::vector<uint64_t>> member_gens_;

  std::unordered_map<Oid, ScalarTable> scalar_;
  std::unordered_map<Oid, SetTable> setval_;

  std::vector<Fact> log_;

  uint64_t approx_bytes_ = 0;
};

}  // namespace pathlog

#endif  // PATHLOG_STORE_OBJECT_STORE_H_
