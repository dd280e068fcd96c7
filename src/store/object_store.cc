#include "store/object_store.h"

#include <algorithm>
#include <deque>

#include "base/strings.h"
#include "obs/metrics.h"

namespace pathlog {

namespace {
const std::vector<Oid> kEmptyOids;
const std::vector<uint32_t> kEmptyIdx;
const std::vector<ScalarEntry> kEmptyScalar;
const std::vector<SetGroup> kEmptySet;

// ApproxBytes() charges a flat overhead per container slot (hash node,
// vector slack, bookkeeping) instead of walking containers — the
// estimate must be monotone and O(1) per mutation, not exact.
constexpr uint64_t kSlotOverhead = 48;

uint64_t FactBytes(const Fact& f) {
  return sizeof(Fact) + f.args.size() * sizeof(Oid);
}
}  // namespace

ObjectStore::ObjectStore() = default;

Oid ObjectStore::AddObject(ObjectInfo info) {
  // ObjectInfo in the table plus the intern-map node most objects get.
  approx_bytes_ += sizeof(ObjectInfo) + info.name.size() + kSlotOverhead;
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

Oid ObjectStore::InternSymbol(std::string_view name) {
  auto it = symbols_.find(std::string(name));
  if (it != symbols_.end()) return it->second;
  Oid o = AddObject({ObjectKind::kSymbol, std::string(name), 0});
  symbols_.emplace(std::string(name), o);
  return o;
}

Oid ObjectStore::InternInt(int64_t value) {
  auto it = ints_.find(value);
  if (it != ints_.end()) return it->second;
  Oid o = AddObject({ObjectKind::kInt, std::to_string(value), value});
  ints_.emplace(value, o);
  return o;
}

Oid ObjectStore::InternString(std::string_view text) {
  auto it = strings_.find(std::string(text));
  if (it != strings_.end()) return it->second;
  Oid o = AddObject(
      {ObjectKind::kString, StrCat("\"", text, "\""), 0});
  strings_.emplace(std::string(text), o);
  return o;
}

Oid ObjectStore::NewAnonymous(std::string display_name) {
  return AddObject({ObjectKind::kAnonymous, std::move(display_name), 0});
}

std::optional<Oid> ObjectStore::FindSymbol(std::string_view name) const {
  auto it = symbols_.find(std::string(name));
  if (it == symbols_.end()) return std::nullopt;
  return it->second;
}

std::optional<Oid> ObjectStore::FindInt(int64_t value) const {
  auto it = ints_.find(value);
  if (it == ints_.end()) return std::nullopt;
  return it->second;
}

std::optional<Oid> ObjectStore::FindString(std::string_view text) const {
  auto it = strings_.find(std::string(text));
  if (it == strings_.end()) return std::nullopt;
  return it->second;
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
  if (IsA(sub, super)) {
    // Already reachable. Record a direct edge only if absent, without a
    // new fact (closure unchanged).
    auto& ups = up_edges_[sub];
    if (std::find(ups.begin(), ups.end(), super) == ups.end()) {
      ups.push_back(super);
    }
    return Status::OK();
  }

  up_edges_[sub].push_back(super);
  approx_bytes_ += sizeof(Oid) + kSlotOverhead;

  // Incrementally extend the reachability closure: every x <= sub
  // (including sub) now reaches every y >= super (including super).
  std::vector<Oid> below;
  below.push_back(sub);
  if (auto mit = members_.find(sub); mit != members_.end()) {
    below.insert(below.end(), mit->second.begin(), mit->second.end());
  }
  std::vector<Oid> above;
  above.push_back(super);
  if (auto ait = ancestors_.find(super); ait != ancestors_.end()) {
    above.insert(above.end(), ait->second.begin(), ait->second.end());
  }
  const uint64_t gen = log_.size();
  for (Oid x : below) {
    auto& xs = anc_set_[x];
    for (Oid y : above) {
      if (xs.emplace(y, gen).second) {
        // A new pair is new on both sides: anc_set_ is the one set.
        ancestors_[x].push_back(y);
        ancestor_gens_[x].push_back(gen);
        members_[y].push_back(x);
        member_gens_[y].push_back(gen);
        // Closure pair: the anc_set node, plus an Oid and generation
        // slot on the ancestor side and again on the member side.
        approx_bytes_ += kSlotOverhead + 2 * (sizeof(Oid) + sizeof(uint64_t));
      }
    }
  }

  log_.push_back(Fact{FactKind::kIsa, super, sub, {}, kNilOid});
  approx_bytes_ += FactBytes(log_.back());
  if (metrics_.isa_facts != nullptr) metrics_.isa_facts->Inc();
  return Status::OK();
}

bool ObjectStore::IsA(Oid sub, Oid super) const {
  auto it = anc_set_.find(sub);
  return it != anc_set_.end() && it->second.count(super) > 0;
}

uint64_t ObjectStore::IsaGen(Oid sub, Oid super) const {
  auto it = anc_set_.find(sub);
  if (it == anc_set_.end()) return UINT64_MAX;
  auto jt = it->second.find(super);
  return jt == it->second.end() ? UINT64_MAX : jt->second;
}

const std::vector<Oid>& ObjectStore::Members(Oid c) const {
  auto it = members_.find(c);
  return it == members_.end() ? kEmptyOids : it->second;
}

const std::vector<uint64_t>& ObjectStore::MemberGens(Oid c) const {
  static const std::vector<uint64_t> kEmptyGens;
  auto it = member_gens_.find(c);
  return it == member_gens_.end() ? kEmptyGens : it->second;
}

const std::vector<Oid>& ObjectStore::Ancestors(Oid o) const {
  auto it = ancestors_.find(o);
  return it == ancestors_.end() ? kEmptyOids : it->second;
}

const std::vector<uint64_t>& ObjectStore::AncestorGens(Oid o) const {
  static const std::vector<uint64_t> kEmptyGens;
  auto it = ancestor_gens_.find(o);
  return it == ancestor_gens_.end() ? kEmptyGens : it->second;
}

Status ObjectStore::SetScalar(Oid m, Oid recv, const std::vector<Oid>& args,
                              Oid value) {
  if (!Valid(m) || !Valid(recv) || !Valid(value)) {
    return InvalidArgument("SetScalar: invalid oid");
  }
  ScalarTable& t = scalar_[m];
  InvocationKey key{recv, args};
  auto it = t.index.find(key);
  if (it != t.index.end()) {
    Oid existing = t.entries[it->second].value;
    if (existing == value) return Status::OK();
    std::string call = DisplayName(recv);
    return ScalarConflict(StrCat(
        "scalar method ", DisplayName(m), " on ", call,
        " already yields ", DisplayName(existing), "; cannot also yield ",
        DisplayName(value)));
  }
  uint32_t idx = static_cast<uint32_t>(t.entries.size());
  t.entries.push_back(ScalarEntry{recv, args, value, log_.size()});
  t.index.emplace(std::move(key), idx);
  t.by_recv[recv].push_back(idx);
  std::vector<uint32_t>& bucket = t.by_value[value];
  bucket.push_back(idx);
  t.stats.Update(value, bucket.size(), /*is_new_value=*/bucket.size() == 1,
                 log_.size());
  log_.push_back(Fact{FactKind::kScalar, m, recv, args, value});
  // Entry + key copy of the args, plus index/by_recv/by_value slots.
  approx_bytes_ += sizeof(ScalarEntry) +
                   2 * args.size() * sizeof(Oid) + 3 * kSlotOverhead +
                   FactBytes(log_.back());
  if (metrics_.scalar_facts != nullptr) metrics_.scalar_facts->Inc();
  return Status::OK();
}

std::optional<Oid> ObjectStore::GetScalar(
    Oid m, Oid recv, const std::vector<Oid>& args) const {
  auto mt = scalar_.find(m);
  if (mt == scalar_.end()) return std::nullopt;
  auto it = mt->second.index.find(InvocationKey{recv, args});
  if (it == mt->second.index.end()) return std::nullopt;
  return mt->second.entries[it->second].value;
}

const std::vector<ScalarEntry>& ObjectStore::ScalarEntries(Oid m) const {
  auto mt = scalar_.find(m);
  return mt == scalar_.end() ? kEmptyScalar : mt->second.entries;
}

const std::vector<uint32_t>& ObjectStore::ScalarEntriesByRecv(Oid m,
                                                              Oid recv) const {
  auto mt = scalar_.find(m);
  if (mt == scalar_.end()) return kEmptyIdx;
  auto it = mt->second.by_recv.find(recv);
  return it == mt->second.by_recv.end() ? kEmptyIdx : it->second;
}

const std::vector<uint32_t>& ObjectStore::ScalarEntriesByValue(
    Oid m, Oid value) const {
  auto mt = scalar_.find(m);
  if (mt == scalar_.end()) return kEmptyIdx;
  auto it = mt->second.by_value.find(value);
  return it == mt->second.by_value.end() ? kEmptyIdx : it->second;
}

size_t ObjectStore::ScalarDistinctValues(Oid m) const {
  auto mt = scalar_.find(m);
  return mt == scalar_.end() ? 0 : mt->second.by_value.size();
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
  InvocationKey key{recv, args};
  auto it = t.index.find(key);
  uint32_t gi;
  if (it == t.index.end()) {
    gi = static_cast<uint32_t>(t.groups.size());
    SetGroup g;
    g.recv = recv;
    g.args = args;
    t.groups.push_back(std::move(g));
    t.index.emplace(std::move(key), gi);
    t.by_recv[recv].push_back(gi);
    // Group + key copy of the args, plus index/by_recv slots.
    approx_bytes_ += sizeof(SetGroup) + 2 * args.size() * sizeof(Oid) +
                     2 * kSlotOverhead;
  } else {
    gi = it->second;
  }
  SetGroup& g = t.groups[gi];
  if (!g.member_set.emplace(value, log_.size()).second) return false;
  std::vector<SetMemberRef>& bucket = t.by_member[value];
  bucket.push_back(SetMemberRef{gi, static_cast<uint32_t>(g.members.size())});
  t.stats.Update(value, bucket.size(), /*is_new_value=*/bucket.size() == 1,
                 log_.size());
  g.members.push_back(value);
  g.member_gens.push_back(log_.size());
  log_.push_back(Fact{FactKind::kSetMember, m, recv, args, value});
  // Membership: member_set node + members/gens slots + by_member ref.
  approx_bytes_ += kSlotOverhead + sizeof(Oid) + sizeof(uint64_t) +
                   sizeof(SetMemberRef) + kSlotOverhead +
                   FactBytes(log_.back());
  if (metrics_.set_facts != nullptr) metrics_.set_facts->Inc();
  return true;
}

const SetGroup* ObjectStore::GetSetGroup(Oid m, Oid recv,
                                         const std::vector<Oid>& args) const {
  auto mt = setval_.find(m);
  if (mt == setval_.end()) return nullptr;
  auto it = mt->second.index.find(InvocationKey{recv, args});
  if (it == mt->second.index.end()) return nullptr;
  return &mt->second.groups[it->second];
}

const std::vector<SetGroup>& ObjectStore::SetGroups(Oid m) const {
  auto mt = setval_.find(m);
  return mt == setval_.end() ? kEmptySet : mt->second.groups;
}

const std::vector<uint32_t>& ObjectStore::SetGroupsByRecv(Oid m,
                                                          Oid recv) const {
  auto mt = setval_.find(m);
  if (mt == setval_.end()) return kEmptyIdx;
  auto it = mt->second.by_recv.find(recv);
  return it == mt->second.by_recv.end() ? kEmptyIdx : it->second;
}

const std::vector<SetMemberRef>& ObjectStore::SetGroupsByMember(
    Oid m, Oid member) const {
  static const std::vector<SetMemberRef> kEmptyRefs;
  auto mt = setval_.find(m);
  if (mt == setval_.end()) return kEmptyRefs;
  auto it = mt->second.by_member.find(member);
  return it == mt->second.by_member.end() ? kEmptyRefs : it->second;
}

size_t ObjectStore::SetDistinctMembers(Oid m) const {
  auto mt = setval_.find(m);
  return mt == setval_.end() ? 0 : mt->second.by_member.size();
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
