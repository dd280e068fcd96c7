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

/// The entry of (recv, args), whose hash is `hash`, or IndexSet::kNone.
uint32_t FindEntry(const ScalarTable& t, Oid recv, std::span<const Oid> args,
                   uint64_t hash) {
  return t.index.Find(hash, [&](uint32_t i) {
    return t.entries[i].recv == recv && SameArgs(t.Args(t.entries[i]), args);
  });
}

/// The group of (recv, args), whose hash is `hash`, or IndexSet::kNone.
uint32_t FindGroup(const SetTable& t, Oid recv, std::span<const Oid> args,
                   uint64_t hash) {
  return t.index.Find(hash, [&](uint32_t i) {
    return t.groups[i].recv == recv && SameArgs(t.Args(t.groups[i]), args);
  });
}

/// The stats of a finished inverted index.
template <typename T>
MethodStats StatsOf(const PostingMap<T>& index, uint64_t last_gen) {
  MethodStats stats;
  index.ForEach([&stats](Oid value, std::span<const T> bucket) {
    stats.AddBucket(value, bucket.size());
  });
  stats.last_gen = last_gen;
  return stats;
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
  Result<bool> added = LinkIsa(sub, super, log_.size());
  if (!added.ok() || !*added) return added.status();
  log_.push_back(Fact{FactKind::kIsa, super, sub, {}, kNilOid});
  if (metrics_.isa_facts != nullptr) metrics_.isa_facts->Inc();
  return Status::OK();
}

Result<bool> ObjectStore::LinkIsa(Oid sub, Oid super, uint64_t gen) {
  if (sub == super || IsA(super, sub)) {
    return Status(InvalidArgument(
        StrCat("AddIsa: edge ", DisplayName(sub), " <= ", DisplayName(super),
               " would create a cycle; the hierarchy must stay a partial "
               "order")));
  }
  // Already reachable: the closure is unchanged and no fact is new.
  if (IsA(sub, super)) return false;

  // Incrementally extend the reachability closure: every x <= sub
  // (sub, then its members) now reaches every y >= super (super, then
  // its ancestors). Neither of those two lists gains an item here (that
  // would close a cycle), but the appends below may move them, so they
  // are read by position.
  if (ancestors_.size() < objects_.size()) {
    ancestors_.resize(objects_.size());
    members_.resize(objects_.size());
  }
  const uint32_t below = members_[sub].len;
  const uint32_t above = ancestors_[super].len;
  for (uint32_t i = 0; i <= below; ++i) {
    const Oid x = i == 0 ? sub : closure_.Get<0>(members_[sub])[i - 1];
    for (uint32_t j = 0; j <= above; ++j) {
      const Oid y =
          j == 0 ? super : closure_.Get<0>(ancestors_[super])[j - 1];
      // A new pair is new on both sides: isa_gen_ is the one set.
      if (isa_gen_.Insert(x, y, gen)) {
        closure_.Append(&ancestors_[x], y, gen);
        closure_.Append(&members_[y], x, gen);
      }
    }
  }
  return true;
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
  const uint32_t found = FindEntry(t, recv, args, hash);
  if (found != IndexSet::kNone) {
    const Oid existing = t.entries[found].value;
    return existing == value ? Status::OK()
                             : ConflictError(m, recv, existing, value);
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

Status ObjectStore::ConflictError(Oid m, Oid recv, Oid existing,
                                  Oid value) const {
  return ScalarConflict(StrCat("scalar method ", DisplayName(m), " on ",
                               DisplayName(recv), " already yields ",
                               DisplayName(existing), "; cannot also yield ",
                               DisplayName(value)));
}

std::optional<Oid> ObjectStore::GetScalar(
    Oid m, Oid recv, const std::vector<Oid>& args) const {
  auto mt = scalar_.find(m);
  if (mt == scalar_.end()) return std::nullopt;
  const ScalarTable& t = mt->second;
  const uint32_t found = FindEntry(t, recv, args, HashInvocation(recv, args));
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
  uint32_t gi = FindGroup(t, recv, args, hash);
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
  const uint32_t gi = FindGroup(t, recv, args, HashInvocation(recv, args));
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

// --- Bulk build --------------------------------------------------------

Status ObjectStore::BuildScalarTable(Oid m, std::span<const uint32_t> gens,
                                     std::vector<uint32_t>* count,
                                     uint64_t* repeats, uint64_t* error_gen) {
  ScalarTable& t = scalar_[m];
  size_t argc = 0;
  for (uint32_t g : gens) argc += log_[g].args.size();
  t.entries.reserve(gens.size());
  t.args.reserve(argc);
  auto hash_of = [&t](uint32_t i) { return RecordHash(t, t.entries[i]); };
  t.index.Reserve(gens.size(), hash_of);
  for (uint32_t g : gens) {
    const Fact& f = log_[g];
    const uint32_t idx = static_cast<uint32_t>(t.entries.size());
    const uint32_t found = t.index.FindOrInsert(
        idx, HashInvocation(f.recv, f.args),
        [&](uint32_t i) {
          return t.entries[i].recv == f.recv &&
                 SameArgs(t.Args(t.entries[i]), f.args);
        },
        hash_of);
    if (found == IndexSet::kNone) {
      t.entries.push_back(ScalarRecord{f.recv, f.value, g,
                                       static_cast<uint32_t>(t.args.size()),
                                       static_cast<uint32_t>(f.args.size())});
      t.args.insert(t.args.end(), f.args.begin(), f.args.end());
      continue;
    }
    const Oid existing = t.entries[found].value;
    if (existing != f.value) {
      *error_gen = g;
      return ConflictError(m, f.recv, existing, f.value);
    }
    ++*repeats;
  }
  const auto item = [](size_t i) { return static_cast<uint32_t>(i); };
  t.by_recv.Build(
      t.entries.size(), [&t](size_t i) { return t.entries[i].recv; }, item,
      count);
  t.by_value.Build(
      t.entries.size(), [&t](size_t i) { return t.entries[i].value; }, item,
      count);
  t.stats = StatsOf(t.by_value, t.entries.back().gen);
  return Status::OK();
}

void ObjectStore::BuildSetTable(Oid m, std::span<const uint32_t> gens,
                                std::vector<uint32_t>* count,
                                uint64_t* repeats) {
  SetTable& t = setval_[m];
  auto hash_of = [&t](uint32_t i) { return RecordHash(t, t.groups[i]); };
  // Each fact's group, the groups made in order of first use, and each
  // group's fact count, which sizes its block of the member lists.
  std::vector<uint32_t> group_of(gens.size());
  std::vector<uint32_t> group_facts;
  for (size_t i = 0; i < gens.size(); ++i) {
    const Fact& f = log_[gens[i]];
    uint32_t gi = static_cast<uint32_t>(t.groups.size());
    const uint32_t found = t.index.FindOrInsert(
        gi, HashInvocation(f.recv, f.args),
        [&](uint32_t j) {
          return t.groups[j].recv == f.recv &&
                 SameArgs(t.Args(t.groups[j]), f.args);
        },
        hash_of);
    if (found == IndexSet::kNone) {
      t.groups.push_back(GroupRecord{f.recv,
                                     static_cast<uint32_t>(t.args.size()),
                                     static_cast<uint32_t>(f.args.size()),
                                     {}});
      t.args.insert(t.args.end(), f.args.begin(), f.args.end());
      group_facts.push_back(0);
    } else {
      gi = found;
    }
    group_of[i] = gi;
    ++group_facts[gi];
  }
  size_t slots = 0, positioned = 0;
  for (uint32_t n : group_facts) {
    slots += ListArena<Oid, uint64_t>::BlockSize(n);
    if (n > kScanMembers) positioned += n;
  }
  uint32_t block = t.members.AddSlots(slots);
  for (uint32_t gi = 0; gi < t.groups.size(); ++gi) {
    t.groups[gi].members = {block, 0};
    block += ListArena<Oid, uint64_t>::BlockSize(group_facts[gi]);
  }
  t.positions.Reserve(positioned);
  // The membership facts in log order, as the member index lists them.
  struct Membership {
    Oid member;
    SetMemberRef ref;
  };
  std::vector<Membership> added;
  added.reserve(gens.size());
  uint64_t last_gen = 0;
  for (size_t i = 0; i < gens.size(); ++i) {
    const uint32_t gi = group_of[i];
    const Oid value = log_[gens[i]].value;
    ListRef& members = t.groups[gi].members;
    if (MemberPos(t.members.Get<0>(members), t.positions, gi, value) !=
        UINT32_MAX) {
      ++*repeats;
      continue;
    }
    // A group past kScanMembers indexes every member, as AddSetMember's
    // does once it outgrows scanning.
    if (group_facts[gi] > kScanMembers) {
      t.positions.Insert(gi, value, members.len);
    }
    added.push_back({value, SetMemberRef{gi, members.len}});
    t.members.Fill(&members, value, gens[i]);
    last_gen = gens[i];
  }
  t.by_recv.Build(
      t.groups.size(), [&t](size_t i) { return t.groups[i].recv; },
      [](size_t i) { return static_cast<uint32_t>(i); }, count);
  t.by_member.Build(
      added.size(), [&added](size_t i) { return added[i].member; },
      [&added](size_t i) { return added[i].ref; }, count);
  t.stats = StatsOf(t.by_member, last_gen);
}

ObjectStore::Builder::Builder(size_t objects, size_t facts) {
  store_.objects_.reserve(objects);
  store_.log_.reserve(facts + facts / 8);
}

void ObjectStore::Builder::AddObject(ObjectKind kind, std::string_view text,
                                     int64_t value) {
  switch (kind) {
    case ObjectKind::kInt:
      store_.AddObject({kind, std::to_string(value), value});
      break;
    case ObjectKind::kString:
      store_.AddObject({kind, StrCat("\"", text, "\""), 0});
      break;
    default:
      store_.AddObject({kind, std::string(text), 0});
      break;
  }
}

void ObjectStore::Builder::AddFact(Fact fact) {
  const uint32_t gen = static_cast<uint32_t>(store_.log_.size());
  if (fact.kind == FactKind::kIsa) {
    fact = {FactKind::kIsa, fact.method, fact.recv, {}, kNilOid};
    isa_.push_back(gen);
  } else {
    if (tables_.empty()) tables_.assign(2 * store_.objects_.size() + 2, 0);
    ++tables_[TableOf(fact) + 1];
  }
  store_.fact_arg_bytes_ += ArgBytes(fact.args.size());
  store_.log_.push_back(std::move(fact));
}

Result<ObjectStore> ObjectStore::Builder::Finish(uint64_t* repeats) {
  ObjectStore& s = store_;
  *repeats = 0;
  // The intern index, built once.
  size_t interned = 0;
  for (const ObjectInfo& info : s.objects_) {
    interned += info.kind != ObjectKind::kAnonymous;
  }
  auto hash_of = [&s](uint32_t i) { return s.InternHashOf(i); };
  s.interned_.Reserve(interned, hash_of);
  for (Oid o = 0; o < s.objects_.size(); ++o) {
    const ObjectInfo& info = s.objects_[o];
    if (info.kind == ObjectKind::kAnonymous) continue;
    const std::string_view text = InternText(info);
    const uint32_t first = s.interned_.FindOrInsert(
        o, hash_of(o),
        [&](uint32_t i) {
          const ObjectInfo& other = s.objects_[i];
          return other.kind == info.kind && InternText(other) == text &&
                 other.int_value == info.int_value;
        },
        hash_of);
    if (first != IndexSet::kNone) {
      return Status(Internal(StrCat("object ", o, " repeats object ", first,
                                    " (duplicate table entry?)")));
    }
  }

  // Isa facts take AddIsa's closure step in log order. The first one it
  // rejects ends the facts that count: a replay stops there.
  uint64_t end = s.log_.size();
  Status error;
  s.isa_gen_.Reserve(isa_.size());
  for (uint32_t g : isa_) {
    const Fact& f = s.log_[g];
    Result<bool> added = s.LinkIsa(f.recv, f.method, g);
    if (!added.ok()) {
      error = added.status();
      end = g;
      break;
    }
    if (!*added) ++*repeats;
  }

  // The other facts before `end`, grouped by table (a counting sort).
  for (size_t k = 1; k < tables_.size(); ++k) tables_[k] += tables_[k - 1];
  std::vector<uint32_t> gens(tables_.empty() ? 0 : tables_.back());
  std::vector<uint32_t> filled(tables_.begin(),
                               tables_.end() - (tables_.empty() ? 0 : 1));
  for (uint64_t g = 0; g < end; ++g) {
    const Fact& f = s.log_[g];
    if (f.kind != FactKind::kIsa) {
      gens[filled[TableOf(f)]++] = static_cast<uint32_t>(g);
    }
  }
  // Each scalar table stops at its first conflict; the earliest of
  // those is where a replay stops, so later tables look only before
  // it.
  std::vector<uint32_t> count(s.objects_.size(), 0);
  for (size_t k = 0; k < filled.size(); ++k) {
    const uint32_t* first = gens.data() + tables_[k];
    const uint32_t* last = gens.data() + filled[k];
    const std::span<const uint32_t> table(first,
                                          std::lower_bound(first, last, end));
    if (table.empty()) continue;
    const Oid m = static_cast<Oid>(k / 2);
    if (k % 2 == 1) {
      s.BuildSetTable(m, table, &count, repeats);
      continue;
    }
    uint64_t at = end;
    Status st = s.BuildScalarTable(m, table, &count, repeats, &at);
    if (!st.ok()) {
      error = st;
      end = at;
    }
  }
  if (!error.ok()) return error;
  return std::move(store_);
}

}  // namespace pathlog
