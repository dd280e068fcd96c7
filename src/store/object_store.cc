#include "store/object_store.h"

#include <algorithm>

#include "base/strings.h"
#include "obs/metrics.h"

namespace pathlog {

namespace {

using store_detail::GroupRecord;
using store_detail::ScalarRecord;
using store_detail::ScalarTable;
using store_detail::SetTable;

// Groups of more members than this answer membership tests through
// their method's (group, member) position table; smaller groups (the
// common case: 2.1 members on average on the company store) are
// scanned.
constexpr uint32_t kScanMembers = 16;

// The heap block of a string past the small-string buffer.
uint64_t StringHeapBytes(const std::string& s) {
  return s.capacity() > 15 ? ChunkBytes(s.capacity() + 1) : 0;
}

uint64_t ArgBytes(size_t argc) {
  return argc == 0 ? 0 : ChunkBytes(argc * sizeof(Oid));
}

// A node-based map: one node per key plus the bucket array.
template <typename Map>
uint64_t MapBytes(const Map& map, size_t node_bytes) {
  return map.size() * ChunkBytes(node_bytes) +
         map.bucket_count() * sizeof(void*);
}

uint64_t InternHash(ObjectKind kind, std::string_view text, int64_t value) {
  const uint64_t h = kind == ObjectKind::kInt
                         ? static_cast<uint64_t>(value)
                         : std::hash<std::string_view>{}(text);
  return h ^ (static_cast<uint64_t>(kind) << 59);
}

uint64_t HashInvocation(Oid recv, std::span<const Oid> args) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  uint64_t h = (recv + uint64_t{1}) * kMul;
  for (Oid a : args) h = (h ^ (a + uint64_t{1})) * kMul;
  return h ^ (h >> 29);
}

bool SameArgs(std::span<const Oid> a, std::span<const Oid> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

template <typename Table, typename Record>
uint64_t RecordHash(const Table& t, const Record& r) {
  return HashInvocation(r.recv, t.Args(r));
}

/// The position of `o` among a group's members, or UINT32_MAX: a scan
/// for small groups, the method's position table past kScanMembers.
uint32_t MemberPos(std::span<const Oid> members, const PairMap& positions,
                   uint32_t group, Oid o) {
  if (members.size() <= kScanMembers) {
    for (size_t i = 0; i < members.size(); ++i) {
      if (members[i] == o) return static_cast<uint32_t>(i);
    }
    return UINT32_MAX;
  }
  const uint64_t pos = positions.Find(group, o);
  return pos == PairMap::kAbsent ? UINT32_MAX : static_cast<uint32_t>(pos);
}

}  // namespace

uint64_t SetGroup::MemberGen(Oid o) const {
  const uint32_t pos = MemberPos(members, *positions_, index_, o);
  return pos == UINT32_MAX ? UINT64_MAX : member_gens[pos];
}

ObjectStore::ObjectStore() = default;

Oid ObjectStore::AddObject(ObjectInfo info) {
  string_bytes_ += StringHeapBytes(info.name);
  objects_.push_back(std::move(info));
  if (metrics_.objects != nullptr) metrics_.objects->Inc();
  return static_cast<Oid>(objects_.size() - 1);
}

void ObjectStore::set_metrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    metrics_ = MetricsHooks{};
    return;
  }
  metrics_.objects = metrics->GetCounter(
      "pathlog_store_objects_total", "objects added to the universe");
  metrics_.isa_facts = metrics->GetCounter("pathlog_store_isa_facts_total",
                                           "isa facts asserted");
  metrics_.scalar_facts = metrics->GetCounter(
      "pathlog_store_scalar_facts_total", "scalar method facts asserted");
  metrics_.set_facts = metrics->GetCounter(
      "pathlog_store_set_facts_total", "set membership facts asserted");
}

std::string_view ObjectStore::InternText(const ObjectInfo& info) {
  switch (info.kind) {
    case ObjectKind::kSymbol:
      return info.name;
    case ObjectKind::kString:
      return std::string_view(info.name).substr(1, info.name.size() - 2);
    default:
      return {};
  }
}

Oid ObjectStore::FindInterned(ObjectKind kind, std::string_view text,
                              int64_t value) const {
  const uint32_t o =
      interned_.Find(InternHash(kind, text, value), [&](uint32_t i) {
        const ObjectInfo& info = objects_[i];
        return info.kind == kind &&
               (kind == ObjectKind::kInt ? info.int_value == value
                                         : InternText(info) == text);
      });
  return o == IndexSet::kNone ? kNilOid : o;
}

uint64_t ObjectStore::InternHashOf(Oid o) const {
  const ObjectInfo& info = objects_[o];
  return InternHash(info.kind, InternText(info), info.int_value);
}

Oid ObjectStore::AddInterned(ObjectInfo info, std::string_view text) {
  const uint64_t hash = InternHash(info.kind, text, info.int_value);
  const Oid o = AddObject(std::move(info));
  interned_.Insert(o, hash, [&](uint32_t i) { return InternHashOf(i); });
  return o;
}

Oid ObjectStore::InternSymbol(std::string_view name) {
  const Oid o = FindInterned(ObjectKind::kSymbol, name, 0);
  if (o != kNilOid) return o;
  return AddInterned({ObjectKind::kSymbol, std::string(name), 0}, name);
}

Oid ObjectStore::InternInt(int64_t value) {
  const Oid o = FindInterned(ObjectKind::kInt, {}, value);
  if (o != kNilOid) return o;
  return AddInterned({ObjectKind::kInt, std::to_string(value), value}, {});
}

Oid ObjectStore::InternString(std::string_view text) {
  const Oid o = FindInterned(ObjectKind::kString, text, 0);
  if (o != kNilOid) return o;
  return AddInterned({ObjectKind::kString, StrCat("\"", text, "\""), 0},
                     text);
}

Oid ObjectStore::NewAnonymous(std::string display_name) {
  return AddObject({ObjectKind::kAnonymous, std::move(display_name), 0});
}

std::optional<Oid> ObjectStore::FindSymbol(std::string_view name) const {
  const Oid o = FindInterned(ObjectKind::kSymbol, name, 0);
  if (o == kNilOid) return std::nullopt;
  return o;
}

std::optional<Oid> ObjectStore::FindInt(int64_t value) const {
  const Oid o = FindInterned(ObjectKind::kInt, {}, value);
  if (o == kNilOid) return std::nullopt;
  return o;
}

std::optional<Oid> ObjectStore::FindString(std::string_view text) const {
  const Oid o = FindInterned(ObjectKind::kString, text, 0);
  if (o == kNilOid) return std::nullopt;
  return o;
}

Status ObjectStore::AddIsa(Oid sub, Oid super) {
  if (!Valid(sub) || !Valid(super)) {
    return InvalidArgument("AddIsa: invalid oid");
  }
  if (sub == super || IsA(super, sub)) {
    return InvalidArgument(
        StrCat("AddIsa: edge ", DisplayName(sub), " <= ", DisplayName(super),
               " would create a cycle; the hierarchy must stay a partial "
               "order"));
  }
  // Already reachable: the closure is unchanged and no fact is new.
  if (IsA(sub, super)) return Status::OK();

  // Incrementally extend the reachability closure: every x <= sub
  // (including sub) now reaches every y >= super (including super).
  // Copied out first: the appends below move the arena's lists.
  std::vector<Oid> below;
  below.push_back(sub);
  const std::span<const Oid> sub_members = Members(sub);
  below.insert(below.end(), sub_members.begin(), sub_members.end());
  std::vector<Oid> above;
  above.push_back(super);
  const std::span<const Oid> super_ancestors = Ancestors(super);
  above.insert(above.end(), super_ancestors.begin(), super_ancestors.end());
  if (ancestors_.size() < objects_.size()) {
    ancestors_.resize(objects_.size());
    members_.resize(objects_.size());
  }
  const uint64_t gen = log_.size();
  for (Oid x : below) {
    for (Oid y : above) {
      // A new pair is new on both sides: isa_gen_ is the one set.
      if (isa_gen_.Insert(x, y, gen)) {
        closure_.Append(&ancestors_[x], y, gen);
        closure_.Append(&members_[y], x, gen);
      }
    }
  }

  log_.push_back(Fact{FactKind::kIsa, super, sub, {}, kNilOid});
  if (metrics_.isa_facts != nullptr) metrics_.isa_facts->Inc();
  return Status::OK();
}

bool ObjectStore::IsA(Oid sub, Oid super) const {
  return isa_gen_.Find(sub, super) != PairMap::kAbsent;
}

uint64_t ObjectStore::IsaGen(Oid sub, Oid super) const {
  return isa_gen_.Find(sub, super);
}

Status ObjectStore::SetScalar(Oid m, Oid recv, const std::vector<Oid>& args,
                              Oid value) {
  if (!Valid(m) || !Valid(recv) || !Valid(value)) {
    return InvalidArgument("SetScalar: invalid oid");
  }
  ScalarTable& t = scalar_[m];
  const uint64_t hash = HashInvocation(recv, args);
  const uint32_t found = t.index.Find(hash, [&](uint32_t i) {
    return t.entries[i].recv == recv && SameArgs(t.Args(t.entries[i]), args);
  });
  if (found != IndexSet::kNone) {
    Oid existing = t.entries[found].value;
    if (existing == value) return Status::OK();
    std::string call = DisplayName(recv);
    return ScalarConflict(StrCat(
        "scalar method ", DisplayName(m), " on ", call,
        " already yields ", DisplayName(existing), "; cannot also yield ",
        DisplayName(value)));
  }
  const uint64_t gen = log_.size();
  // The table copies the args from the log's copy, made before the log
  // grows, so args may be a logged fact's own.
  log_.push_back(Fact{FactKind::kScalar, m, recv,
                      std::vector<Oid>(args.begin(), args.end()), value});
  const std::vector<Oid>& own = log_.back().args;
  fact_arg_bytes_ += ArgBytes(own.size());
  const uint32_t idx = static_cast<uint32_t>(t.entries.size());
  t.entries.push_back(ScalarRecord{recv, value, gen,
                                   static_cast<uint32_t>(t.args.size()),
                                   static_cast<uint32_t>(own.size())});
  t.args.insert(t.args.end(), own.begin(), own.end());
  t.index.Insert(idx, hash,
                 [&](uint32_t i) { return RecordHash(t, t.entries[i]); });
  t.by_recv.Append(recv, idx);
  const uint32_t bucket = t.by_value.Append(value, idx);
  t.stats.Update(value, bucket, /*is_new_value=*/bucket == 1, gen);
  if (metrics_.scalar_facts != nullptr) metrics_.scalar_facts->Inc();
  return Status::OK();
}

std::optional<Oid> ObjectStore::GetScalar(
    Oid m, Oid recv, const std::vector<Oid>& args) const {
  auto mt = scalar_.find(m);
  if (mt == scalar_.end()) return std::nullopt;
  const ScalarTable& t = mt->second;
  const uint32_t found =
      t.index.Find(HashInvocation(recv, args), [&](uint32_t i) {
        return t.entries[i].recv == recv &&
               SameArgs(t.Args(t.entries[i]), args);
      });
  if (found == IndexSet::kNone) return std::nullopt;
  return t.entries[found].value;
}

ScalarEntryList ObjectStore::ScalarEntries(Oid m) const {
  auto mt = scalar_.find(m);
  return mt == scalar_.end() ? ScalarEntryList() : ScalarEntryList(&mt->second);
}

std::span<const uint32_t> ObjectStore::ScalarEntriesByRecv(Oid m,
                                                           Oid recv) const {
  auto mt = scalar_.find(m);
  if (mt == scalar_.end()) return {};
  return mt->second.by_recv.Find(recv);
}

std::span<const uint32_t> ObjectStore::ScalarEntriesByValue(Oid m,
                                                            Oid value) const {
  auto mt = scalar_.find(m);
  if (mt == scalar_.end()) return {};
  return mt->second.by_value.Find(value);
}

size_t ObjectStore::ScalarDistinctValues(Oid m) const {
  auto mt = scalar_.find(m);
  return mt == scalar_.end() ? 0 : mt->second.by_value.keys();
}

const MethodStats& ObjectStore::ScalarValueStats(Oid m) const {
  static const MethodStats kEmptyStats;
  auto mt = scalar_.find(m);
  return mt == scalar_.end() ? kEmptyStats : mt->second.stats;
}

std::vector<Oid> ObjectStore::ScalarMethods() const {
  std::vector<Oid> out;
  out.reserve(scalar_.size());
  for (const auto& [m, t] : scalar_) {
    if (!t.entries.empty()) out.push_back(m);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool ObjectStore::AddSetMember(Oid m, Oid recv, const std::vector<Oid>& args,
                               Oid value) {
  assert(Valid(m) && Valid(recv) && Valid(value) &&
         "AddSetMember: invalid oid");
  SetTable& t = setval_[m];
  const uint64_t hash = HashInvocation(recv, args);
  uint32_t gi = t.index.Find(hash, [&](uint32_t i) {
    return t.groups[i].recv == recv && SameArgs(t.Args(t.groups[i]), args);
  });
  if (gi != IndexSet::kNone &&
      MemberPos(t.members.Get<0>(t.groups[gi].members), t.positions, gi,
                value) != UINT32_MAX) {
    return false;
  }
  const uint64_t gen = log_.size();
  // A new group copies the args from the log's copy, made before the
  // log grows, so args may be a logged fact's own.
  log_.push_back(Fact{FactKind::kSetMember, m, recv,
                      std::vector<Oid>(args.begin(), args.end()), value});
  const std::vector<Oid>& own = log_.back().args;
  fact_arg_bytes_ += ArgBytes(own.size());
  if (gi == IndexSet::kNone) {
    gi = static_cast<uint32_t>(t.groups.size());
    t.groups.push_back(GroupRecord{recv, static_cast<uint32_t>(t.args.size()),
                                   static_cast<uint32_t>(own.size()), {}});
    t.args.insert(t.args.end(), own.begin(), own.end());
    t.index.Insert(gi, hash,
                   [&](uint32_t i) { return RecordHash(t, t.groups[i]); });
    t.by_recv.Append(recv, gi);
  }
  ListRef& members = t.groups[gi].members;
  const uint32_t pos = members.len;
  t.members.Append(&members, value, gen);
  if (members.len == kScanMembers + 1) {
    // The group outgrew scanning: index every member so far.
    const std::span<const Oid> all = t.members.Get<0>(members);
    for (uint32_t i = 0; i < all.size(); ++i) t.positions.Insert(gi, all[i], i);
  } else if (members.len > kScanMembers) {
    t.positions.Insert(gi, value, pos);
  }
  const uint32_t bucket = t.by_member.Append(value, SetMemberRef{gi, pos});
  t.stats.Update(value, bucket, /*is_new_value=*/bucket == 1, gen);
  if (metrics_.set_facts != nullptr) metrics_.set_facts->Inc();
  return true;
}

std::optional<SetGroup> ObjectStore::GetSetGroup(
    Oid m, Oid recv, const std::vector<Oid>& args) const {
  auto mt = setval_.find(m);
  if (mt == setval_.end()) return std::nullopt;
  const SetTable& t = mt->second;
  const uint32_t gi = t.index.Find(HashInvocation(recv, args), [&](uint32_t i) {
    return t.groups[i].recv == recv && SameArgs(t.Args(t.groups[i]), args);
  });
  if (gi == IndexSet::kNone) return std::nullopt;
  return SetGroup(t, gi);
}

SetGroupList ObjectStore::SetGroups(Oid m) const {
  auto mt = setval_.find(m);
  return mt == setval_.end() ? SetGroupList() : SetGroupList(&mt->second);
}

std::span<const uint32_t> ObjectStore::SetGroupsByRecv(Oid m,
                                                       Oid recv) const {
  auto mt = setval_.find(m);
  if (mt == setval_.end()) return {};
  return mt->second.by_recv.Find(recv);
}

std::span<const SetMemberRef> ObjectStore::SetGroupsByMember(
    Oid m, Oid member) const {
  auto mt = setval_.find(m);
  if (mt == setval_.end()) return {};
  return mt->second.by_member.Find(member);
}

size_t ObjectStore::SetDistinctMembers(Oid m) const {
  auto mt = setval_.find(m);
  return mt == setval_.end() ? 0 : mt->second.by_member.keys();
}

const MethodStats& ObjectStore::SetMemberStats(Oid m) const {
  static const MethodStats kEmptyStats;
  auto mt = setval_.find(m);
  return mt == setval_.end() ? kEmptyStats : mt->second.stats;
}

std::vector<Oid> ObjectStore::SetMethods() const {
  std::vector<Oid> out;
  out.reserve(setval_.size());
  for (const auto& [m, t] : setval_) {
    if (!t.groups.empty()) out.push_back(m);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ObjectStore::Reserve(size_t objects, size_t facts, size_t isa_facts) {
  objects_.reserve(objects);
  interned_.Reserve(objects, [&](uint32_t i) { return InternHashOf(i); });
  // A reopened store takes the log's facts right after its snapshot:
  // an eighth more room keeps the first of them from doubling the fact
  // log, the store's largest vector, while both copies are live.
  log_.reserve(facts + facts / 8);
  isa_gen_.Reserve(isa_facts);
}

void ObjectStore::ReserveScalar(Oid m, size_t facts, size_t no_args) {
  ScalarTable& t = scalar_[m];
  t.entries.reserve(facts);
  t.index.Reserve(facts,
                  [&](uint32_t i) { return RecordHash(t, t.entries[i]); });
  t.by_recv.Reserve(no_args);
}

uint64_t ObjectStore::ApproxBytes() const {
  uint64_t bytes =
      VectorBytes(objects_) + string_bytes_ + interned_.Bytes();
  bytes += isa_gen_.Bytes() + VectorBytes(ancestors_) +
           VectorBytes(members_) + closure_.Bytes();
  bytes += MapBytes(scalar_, 16 + sizeof(ScalarTable));
  for (const auto& [m, t] : scalar_) {
    bytes += VectorBytes(t.entries) + VectorBytes(t.args) + t.index.Bytes() +
             t.by_recv.Bytes() + t.by_value.Bytes() +
             VectorBytes(t.stats.heavy);
  }
  bytes += MapBytes(setval_, 16 + sizeof(SetTable));
  for (const auto& [m, t] : setval_) {
    bytes += VectorBytes(t.groups) + VectorBytes(t.args) + t.index.Bytes() +
             t.by_recv.Bytes() + t.by_member.Bytes() + t.members.Bytes() +
             t.positions.Bytes() + VectorBytes(t.stats.heavy);
  }
  return bytes + VectorBytes(log_) + fact_arg_bytes_;
}

ObjectStore::Stats ObjectStore::ComputeStats() const {
  Stats s;
  s.objects = objects_.size();
  for (const Fact& f : log_) {
    switch (f.kind) {
      case FactKind::kIsa:
        ++s.isa_facts;
        break;
      case FactKind::kScalar:
        ++s.scalar_facts;
        break;
      case FactKind::kSetMember:
        ++s.set_facts;
        break;
    }
  }
  return s;
}

}  // namespace pathlog
