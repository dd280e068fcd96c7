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
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "store/fact.h"
#include "store/flat_tables.h"
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

/// One scalar-method fact: I_->(m)(recv, args...) = value. A view
/// into the store: `args` is valid until the next mutation.
struct ScalarEntry {
  Oid recv;
  std::span<const Oid> args;
  Oid value;
  /// Generation at which this fact was asserted.
  uint64_t gen;
};

/// Address of one membership fact inside a method's group list: the
/// group's index in SetGroups(m) and the member's position within that
/// group (indexes members and member_gens alike).
struct SetMemberRef {
  uint32_t group;
  uint32_t pos;
};

namespace store_detail {

/// A scalar entry as stored: its args are a slice of the table's
/// `args` vector.
struct ScalarRecord {
  Oid recv;
  Oid value;
  uint64_t gen;
  uint32_t args_off;
  uint32_t argc;
};

/// A set group as stored: its args are a slice of the table's `args`
/// vector, its members (with their generations) a list in `members`.
struct GroupRecord {
  Oid recv;
  uint32_t args_off;
  uint32_t argc;
  ListRef members;
};

/// The facts of one scalar method.
struct ScalarTable {
  std::vector<ScalarRecord> entries;
  /// Every entry's args, back to back.
  std::vector<Oid> args;
  /// (recv, args) -> entry.
  IndexSet index;
  /// recv -> entries, and the inverted value -> entries, in insertion
  /// order.
  PostingMap<uint32_t> by_recv;
  PostingMap<uint32_t> by_value;
  /// Counters + exact top-k heavy hitters over by_value.
  MethodStats stats;

  std::span<const Oid> Args(const ScalarRecord& e) const {
    return {args.data() + e.args_off, e.argc};
  }
};

/// The facts of one set-valued method.
struct SetTable {
  std::vector<GroupRecord> groups;
  /// Every group's args, back to back.
  std::vector<Oid> args;
  /// (recv, args) -> group.
  IndexSet index;
  /// recv -> groups, and the inverted member -> membership facts, in
  /// insertion order.
  PostingMap<uint32_t> by_recv;
  PostingMap<SetMemberRef> by_member;
  /// Each group's members and their generations, in insertion order.
  ListArena<Oid, uint64_t> members;
  /// (group, member) -> position, for groups too large to scan.
  PairMap positions;
  /// Counters + exact top-k heavy hitters over by_member.
  MethodStats stats;

  std::span<const Oid> Args(const GroupRecord& g) const {
    return {args.data() + g.args_off, g.argc};
  }
};

}  // namespace store_detail

/// One set-valued group: I_->>(m)(recv, args...) = {members...}. A view
/// into the store, valid until the next mutation.
class SetGroup {
 public:
  Oid recv;
  std::span<const Oid> args;
  /// Members in insertion order; `member_gens[i]` stamps `members[i]`.
  std::span<const Oid> members;
  std::span<const uint64_t> member_gens;

  bool Contains(Oid o) const { return MemberGen(o) != UINT64_MAX; }
  /// Generation of o's membership fact; UINT64_MAX if not a member.
  uint64_t MemberGen(Oid o) const;

 private:
  friend class SetGroupList;
  friend class ObjectStore;
  SetGroup(const store_detail::SetTable& t, uint32_t index);

  const PairMap* positions_;
  uint32_t index_;
};

/// Iterates a random-access view by index, yielding elements by value.
template <typename List, typename Elem>
class IndexIterator {
 public:
  IndexIterator(const List* list, size_t i) : list_(list), i_(i) {}
  Elem operator*() const { return (*list_)[i_]; }
  IndexIterator& operator++() {
    ++i_;
    return *this;
  }
  bool operator==(const IndexIterator& o) const { return i_ == o.i_; }

 private:
  const List* list_;
  size_t i_;
};

/// The facts of one scalar method in generation order, as a view valid
/// until the next mutation of the store.
class ScalarEntryList {
 public:
  ScalarEntryList() = default;
  explicit ScalarEntryList(const store_detail::ScalarTable* t) : t_(t) {}
  size_t size() const { return t_ == nullptr ? 0 : t_->entries.size(); }
  bool empty() const { return size() == 0; }
  ScalarEntry operator[](size_t i) const {
    const store_detail::ScalarRecord& e = t_->entries[i];
    return ScalarEntry{e.recv, t_->Args(e), e.value, e.gen};
  }
  IndexIterator<ScalarEntryList, ScalarEntry> begin() const {
    return {this, 0};
  }
  IndexIterator<ScalarEntryList, ScalarEntry> end() const {
    return {this, size()};
  }

 private:
  const store_detail::ScalarTable* t_ = nullptr;
};

/// The groups of one set-valued method in creation order, as a view
/// valid until the next mutation of the store.
class SetGroupList {
 public:
  SetGroupList() = default;
  explicit SetGroupList(const store_detail::SetTable* t) : t_(t) {}
  size_t size() const { return t_ == nullptr ? 0 : t_->groups.size(); }
  bool empty() const { return size() == 0; }
  SetGroup operator[](size_t i) const {
    return SetGroup(*t_, static_cast<uint32_t>(i));
  }
  IndexIterator<SetGroupList, SetGroup> begin() const { return {this, 0}; }
  IndexIterator<SetGroupList, SetGroup> end() const { return {this, size()}; }

 private:
  const store_detail::SetTable* t_ = nullptr;
};

inline SetGroup::SetGroup(const store_detail::SetTable& t, uint32_t index)
    : recv(t.groups[index].recv),
      args(t.Args(t.groups[index])),
      members(t.members.Get<0>(t.groups[index].members)),
      member_gens(t.members.Get<1>(t.groups[index].members)),
      positions_(&t.positions),
      index_(index) {}

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
  std::span<const Oid> Members(Oid c) const {
    return c < members_.size() ? closure_.Get<0>(members_[c])
                               : std::span<const Oid>();
  }

  /// Generations parallel to Members(c).
  std::span<const uint64_t> MemberGens(Oid c) const {
    return c < members_.size() ? closure_.Get<1>(members_[c])
                               : std::span<const uint64_t>();
  }

  /// All direct and transitive superclasses of o, insertion order.
  std::span<const Oid> Ancestors(Oid o) const {
    return o < ancestors_.size() ? closure_.Get<0>(ancestors_[o])
                                 : std::span<const Oid>();
  }

  /// Generations parallel to Ancestors(o).
  std::span<const uint64_t> AncestorGens(Oid o) const {
    return o < ancestors_.size() ? closure_.Get<1>(ancestors_[o])
                                 : std::span<const uint64_t>();
  }

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
  ScalarEntryList ScalarEntries(Oid m) const;

  /// Indexes of entries in ScalarEntries(m) whose receiver is recv, in
  /// insertion order.
  std::span<const uint32_t> ScalarEntriesByRecv(Oid m, Oid recv) const;

  /// Indexes of entries in ScalarEntries(m) whose *value* is value —
  /// the inverted value→receiver index. Maintained incrementally by
  /// SetScalar, so entry order (and thus generation order) is
  /// preserved within each bucket.
  std::span<const uint32_t> ScalarEntriesByValue(Oid m, Oid value) const;

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

  /// The group for (m, recv, args), or nullopt where the set is empty.
  std::optional<SetGroup> GetSetGroup(Oid m, Oid recv,
                                      const std::vector<Oid>& args) const;

  /// All groups of set-valued method m.
  SetGroupList SetGroups(Oid m) const;

  /// Indexes of groups in SetGroups(m) whose receiver is recv, in
  /// insertion order.
  std::span<const uint32_t> SetGroupsByRecv(Oid m, Oid recv) const;

  /// Positions of membership facts of m whose member is `member` —
  /// the inverted member→receiver index, in insertion order. Each
  /// SetMemberRef addresses one membership fact:
  /// `SetGroups(m)[r.group]` is the group and `r.pos` indexes its
  /// members/member_gens arrays.
  std::span<const SetMemberRef> SetGroupsByMember(Oid m, Oid member) const;

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

  /// Approximate heap bytes retained by the store: the object table
  /// and intern maps, the hierarchy closure, the method tables with
  /// their indexes and posting lists, and the fact log. Derived from
  /// the containers' capacities plus the heap strings and fact
  /// arguments the mutators count, with the allocator's chunk rounding;
  /// O(number of methods). This is the quantity ResourceBudget's byte
  /// dimension governs.
  uint64_t ApproxBytes() const;

  // --- Observability -------------------------------------------------

  /// Attaches a metrics registry (nullptr detaches). From this point
  /// on, every new object and every asserted fact bumps the
  /// pathlog_store_* counters. Disabled cost per mutation is one
  /// branch. A copy of the store inherits the attachment — mutations
  /// to the copy are real mutations and count too; callers that copy
  /// for oracle runs should detach on the copy.
  void set_metrics(MetricsRegistry* metrics);

  class Builder;

 private:
  struct ObjectInfo {
    ObjectKind kind;
    std::string name;
    int64_t int_value = 0;
  };

  Oid AddObject(ObjectInfo info);
  /// The interned object of this kind and payload (the text of a symbol
  /// or string, the value of an integer), or kNilOid.
  Oid FindInterned(ObjectKind kind, std::string_view text,
                   int64_t value) const;
  /// Adds `info` as a new interned object.
  Oid AddInterned(ObjectInfo info, std::string_view text);
  /// The interned payload hash of object o.
  uint64_t InternHashOf(Oid o) const;
  /// The text an object is interned by: a symbol's name, a string's
  /// text without its quotes; empty for other kinds.
  static std::string_view InternText(const ObjectInfo& info);

  /// AddIsa's closure step for the fact with generation `gen`: true if
  /// the edge is new, false if the closure already has it.
  Result<bool> LinkIsa(Oid sub, Oid super, uint64_t gen);
  /// The error of a scalar fact that contradicts an existing one.
  Status ConflictError(Oid m, Oid recv, Oid existing, Oid value) const;

  // Builder steps: fill one method's table from its facts (generations
  // `gens`, ascending) as the mutators would, in one pass per index.
  // A fact the mutators would accept without logging counts in
  // `*repeats`; `count` is PostingMap::Build's zeroed counts.
  Status BuildScalarTable(Oid m, std::span<const uint32_t> gens,
                          std::vector<uint32_t>* count, uint64_t* repeats,
                          uint64_t* error_gen);
  void BuildSetTable(Oid m, std::span<const uint32_t> gens,
                     std::vector<uint32_t>* count, uint64_t* repeats);

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
  /// The interned symbols, integers and strings, keyed by kind and
  /// payload (anonymous objects are not interned).
  IndexSet interned_;

  // Hierarchy: the reachability closure, eagerly maintained. Each
  // closure pair (x, y) is one isa_gen_ slot, one item of x's ancestor
  // list and one of y's member list, all stamped with the generation
  // of the fact that established it.
  PairMap isa_gen_;
  std::vector<ListRef> ancestors_;  // per oid, into closure_
  std::vector<ListRef> members_;    // per oid, into closure_
  ListArena<Oid, uint64_t> closure_;

  std::unordered_map<Oid, store_detail::ScalarTable> scalar_;
  std::unordered_map<Oid, store_detail::SetTable> setval_;

  std::vector<Fact> log_;

  /// Heap bytes of long object names and of fact arguments in the log
  /// (ApproxBytes).
  uint64_t string_bytes_ = 0;
  uint64_t fact_arg_bytes_ = 0;
};

/// Builds a store in bulk from an object table and a fact log, as a
/// snapshot holds them: objects are added in oid order and facts in
/// generation order, and Finish indexes them in one pass per table
/// instead of one mutator call per fact. The store answers every
/// accessor as replaying the same objects and facts through the
/// mutators would, list order, generation stamps and MethodStats
/// included. Isa facts do take AddIsa's closure step, in log order,
/// because the closure lists keep insertion order.
class ObjectStore::Builder {
 public:
  /// A builder sized for `objects` objects and `facts` facts. The fact
  /// log gets an eighth more room: a reopened store takes the log's
  /// facts right after its snapshot, and that keeps the first of them
  /// from doubling the log, the store's largest vector, while both
  /// copies are live.
  Builder(size_t objects, size_t facts);

  /// Adds the next object: `text` is a symbol's name, a string's text
  /// (unquoted) or an anonymous object's display name; `value` is an
  /// integer's value. Every object comes before the first fact.
  void AddObject(ObjectKind kind, std::string_view text, int64_t value);

  /// Adds the fact with the next generation. Its oids must name objects
  /// already added. An isa fact is logged as AddIsa logs it, without
  /// args or value.
  void AddFact(Fact fact);

  /// Indexes what was added and hands over the store. Fails as a replay
  /// through the mutators would stop first: on an interned object that
  /// repeats an earlier one (kInternal), then on the earliest fact the
  /// mutators reject: an isa edge that would close a cycle
  /// (kInvalidArgument) or a second value for a scalar
  /// (kScalarConflict). Facts the mutators would accept without logging
  /// them (a repeated fact, an isa edge the closure already implies)
  /// are not errors here; `*repeats` counts them, and a store with any
  /// does not match its log.
  Result<ObjectStore> Finish(uint64_t* repeats);

 private:
  /// The table a non-isa fact belongs to: 2m for method m's scalars,
  /// 2m + 1 for its set members.
  static size_t TableOf(const Fact& f) {
    return 2 * size_t{f.method} + (f.kind == FactKind::kSetMember);
  }

  ObjectStore store_;
  /// Generations of the isa facts.
  std::vector<uint32_t> isa_;
  /// Facts per table, at index table + 1 (a counting sort's counts).
  std::vector<uint32_t> tables_;
};

}  // namespace pathlog

#endif  // PATHLOG_STORE_OBJECT_STORE_H_
