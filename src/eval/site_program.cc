#include "eval/site_program.h"

#include <algorithm>

#include "ast/analysis.h"
#include "ast/printer.h"
#include "base/strings.h"
#include "eval/bindings.h"
#include "eval/ref_eval.h"

namespace pathlog {

namespace {

/// The distinct variable names of `t`, viewing into the reference.
std::vector<std::string_view> VarNames(const Ref& t) {
  std::vector<std::string_view> out;
  ForEachLeaf(t, [&](const Ref& leaf) {
    if (leaf.kind == RefKind::kVar &&
        std::find(out.begin(), out.end(), leaf.text) == out.end()) {
      out.push_back(leaf.text);
    }
  });
  return out;
}

class SiteCompiler {
 public:
  SiteCompiler(const SemanticStructure& I, SiteProgram* p) : I_(I), p_(*p) {}

  void Run(const std::vector<Literal>& body) {
    // Typical reads need a handful of slots and sites.
    p_.slots.reserve(8);
    parent_.reserve(8);
    p_.sites.reserve(4);
    for (const Literal& lit : body) {
      if (!lit.negated) p_.denoted = Compile(*lit.ref);
    }
    for (const Literal& lit : body) {
      if (lit.negated) CompileNegation(*lit.ref, body);
    }
    Finish();
  }

 private:
  uint32_t NewSlot() {
    p_.slots.emplace_back();
    parent_.push_back(static_cast<uint32_t>(parent_.size()));
    return static_cast<uint32_t>(p_.slots.size() - 1);
  }

  uint32_t Find(uint32_t s) {
    while (parent_[s] != s) s = parent_[s] = parent_[parent_[s]];
    return s;
  }

  /// `self`: the two slots hold one object.
  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (p_.slots[b].constant) std::swap(a, b);
    Slot& root = p_.slots[a];
    const Slot& other = p_.slots[b];
    if (root.constant && other.constant &&
        (root.value != other.value || root.value == kNilOid)) {
      p_.empty = true;
    }
    if (root.var.empty()) root.var = other.var;
    parent_[b] = a;
  }

  std::optional<Oid> ConstOid(uint32_t s) {
    const Slot& slot = p_.slots[Find(s)];
    if (!slot.constant || slot.value == kNilOid) return std::nullopt;
    return slot.value;
  }

  /// Resolves a name a RefEvaluator call will look up itself.
  void NoteNames(const Ref& t) {
    ForEachLeaf(t, [&](const Ref& leaf) {
      if (leaf.kind == RefKind::kName && !I_.FindName(leaf)) {
        p_.names_interned = false;
      }
    });
  }

  uint32_t Compile(const Ref& t) {
    switch (t.kind) {
      case RefKind::kName: {
        const uint32_t s = NewSlot();
        Slot& slot = p_.slots[s];
        slot.constant = true;
        slot.name = &t;
        if (std::optional<Oid> o = I_.FindName(t)) {
          slot.value = *o;
        } else {
          p_.empty = true;
          p_.names_interned = false;
        }
        return s;
      }
      case RefKind::kVar: {
        for (const auto& [name, slot] : vars_) {
          if (name == t.text) return slot;
        }
        const uint32_t s = NewSlot();
        p_.slots[s].var = t.text;
        vars_.emplace_back(t.text, s);
        return s;
      }
      case RefKind::kParen:
        return Compile(*t.base);
      case RefKind::kPath: {
        const uint32_t base = Compile(*t.base);
        const bool method_var = Deref(*t.method).kind == RefKind::kVar;
        const uint32_t m = Compile(*t.method);
        const std::optional<Oid> mc = ConstOid(m);
        if (!t.set_valued_path && mc && I_.IsSelf(*mc) && t.args.empty()) {
          return base;  // base.self denotes what base denotes
        }
        std::vector<uint32_t> args = CompileAll(t.args);
        if (!t.set_valued_path && mc && I_.IsGuard(*mc)) {
          // Identity on the receiver where the comparison holds.
          AddSite(SiteKind::kGuard, base, m, kNoSlot, std::move(args), false);
          return base;
        }
        const uint32_t out = NewSlot();
        AddSite(t.set_valued_path ? SiteKind::kMember : SiteKind::kScalar,
                base, m, out, std::move(args), method_var);
        return out;
      }
      case RefKind::kMolecule: {
        const uint32_t base = Compile(*t.base);
        for (const Filter& f : t.filters) CompileFilter(f, base);
        return base;
      }
    }
    return NewSlot();
  }

  std::vector<uint32_t> CompileAll(const std::vector<RefPtr>& refs) {
    std::vector<uint32_t> out;
    out.reserve(refs.size());
    for (const RefPtr& r : refs) out.push_back(Compile(*r));
    return out;
  }

  void CompileFilter(const Filter& f, uint32_t recv) {
    if (f.kind == FilterKind::kClass) {
      const uint32_t c = Compile(*f.value);
      AddSite(SiteKind::kIsa, recv, c, kNoSlot, {}, false);
      return;
    }
    const bool method_var = Deref(*f.method).kind == RefKind::kVar;
    const uint32_t m = Compile(*f.method);
    const std::optional<Oid> mc = ConstOid(m);
    switch (f.kind) {
      case FilterKind::kScalar: {
        if (mc && I_.IsSelf(*mc) && f.args.empty()) {
          Union(recv, Compile(*f.value));
          return;
        }
        std::vector<uint32_t> args = CompileAll(f.args);
        if (mc && I_.IsGuard(*mc)) {
          AddSite(SiteKind::kGuard, recv, m, kNoSlot, std::move(args), false);
          Union(recv, Compile(*f.value));
          return;
        }
        const uint32_t v = Compile(*f.value);
        AddSite(SiteKind::kScalar, recv, m, v, std::move(args), method_var);
        return;
      }
      case FilterKind::kSetEnum: {
        std::vector<uint32_t> args = CompileAll(f.args);
        if (f.elems.empty()) {
          AddSite(SiteKind::kMember, recv, m, NewSlot(), args, method_var);
        }
        for (const RefPtr& e : f.elems) {
          // One site per element; they share the receiver and argument
          // slots, so all elements land in the same group.
          const uint32_t v = Compile(*e);
          AddSite(SiteKind::kMember, recv, m, v, args, method_var);
        }
        return;
      }
      case FilterKind::kSetRef: {
        std::vector<uint32_t> args = CompileAll(f.args);
        AddSite(SiteKind::kSubset, recv, m, kNoSlot, std::move(args),
                method_var);
        Site& site = p_.sites.back();
        site.ref = f.value.get();
        for (std::string_view v : VarNames(*f.value)) {
          site.reads.emplace_back(v, kNoSlot);
        }
        NoteNames(*f.value);
        return;
      }
      case FilterKind::kClass:
        return;  // handled above
    }
  }

  void CompileNegation(const Ref& t, const std::vector<Literal>& body) {
    Site site;
    site.kind = SiteKind::kNegation;
    site.ref = &t;
    // Only variables shared with another literal are read from slots;
    // the rest are existential inside the negation.
    for (std::string_view v : VarNames(t)) {
      int literals = 0;
      for (const Literal& lit : body) {
        const std::vector<std::string_view> names = VarNames(*lit.ref);
        if (std::find(names.begin(), names.end(), v) != names.end()) {
          ++literals;
        }
      }
      if (literals > 1) site.reads.emplace_back(v, kNoSlot);
    }
    NoteNames(t);
    p_.sites.push_back(std::move(site));
  }

  void AddSite(SiteKind kind, uint32_t recv, uint32_t method, uint32_t value,
               std::vector<uint32_t> args, bool method_var) {
    Site site;
    site.kind = kind;
    site.recv = recv;
    site.method = method;
    site.value = value;
    site.args = std::move(args);
    site.method_var = method_var;
    p_.sites.push_back(std::move(site));
  }

  /// Resolves aliases and the RefEvaluator sites' variable slots.
  void Finish() {
    auto find = [&](uint32_t& s) {
      if (s != kNoSlot) s = Find(s);
    };
    for (Site& site : p_.sites) {
      find(site.recv);
      find(site.method);
      find(site.value);
      for (uint32_t& a : site.args) find(a);
      for (auto& [name, slot] : site.reads) {
        for (const auto& [var, s] : vars_) {
          if (var == name) slot = Find(s);
        }
      }
    }
    find(p_.denoted);
    for (auto& [name, slot] : vars_) p_.vars.emplace_back(name, Find(slot));
    std::sort(p_.vars.begin(), p_.vars.end());
  }

  const SemanticStructure& I_;
  SiteProgram& p_;
  std::vector<uint32_t> parent_;
  std::vector<std::pair<std::string_view, uint32_t>> vars_;
};

}  // namespace

std::string_view SiteRouteName(SiteRoute route) {
  switch (route) {
    case SiteRoute::kReceiverProbe:
      return "receiver probe";
    case SiteRoute::kInverted:
      return "inverted probe";
    case SiteRoute::kExtent:
      return "extent";
    case SiteRoute::kClassExtent:
      return "class extent";
    case SiteRoute::kUniverse:
      return "universe";
    case SiteRoute::kTest:
      return "test";
  }
  return "unknown";
}

SiteProgram CompileSites(const std::vector<Literal>& body,
                         const SemanticStructure& I) {
  SiteProgram p;
  SiteCompiler(I, &p).Run(body);
  return p;
}

uint32_t SiteProgram::VarSlot(std::string_view var) const {
  for (const auto& [name, slot] : vars) {
    if (name == var) return slot;
  }
  return kNoSlot;
}

std::string SiteProgram::SiteText(const Site& site) const {
  auto slot = [&](uint32_t s) -> std::string {
    const Slot& info = slots[s];
    if (info.constant) return ToString(*info.name);
    if (!info.var.empty()) return std::string(info.var);
    // Intermediates are numbered densely in slot order.
    uint32_t n = 1;
    for (uint32_t i = 0; i < s; ++i) {
      if (!slots[i].constant && slots[i].var.empty()) ++n;
    }
    return StrCat("$", n);
  };
  auto invocation = [&]() {
    std::string out = slot(site.method);
    if (!site.args.empty()) {
      out += "@(";
      for (size_t i = 0; i < site.args.size(); ++i) {
        if (i > 0) out += ",";
        out += slot(site.args[i]);
      }
      out += ")";
    }
    return out;
  };
  switch (site.kind) {
    case SiteKind::kIsa:
      return StrCat(slot(site.recv), ":", slot(site.method));
    case SiteKind::kScalar:
      return StrCat(slot(site.recv), "[", invocation(), "->",
                    slot(site.value), "]");
    case SiteKind::kMember:
      return StrCat(slot(site.recv), "[", invocation(), "->>{",
                    slot(site.value), "}]");
    case SiteKind::kSubset:
      return StrCat(slot(site.recv), "[", invocation(), "->>",
                    ToString(*site.ref), "]");
    case SiteKind::kGuard:
      return StrCat(slot(site.recv), ".", invocation());
    case SiteKind::kNegation:
      return StrCat("not ", ToString(*site.ref));
    case SiteKind::kMethods:
      return StrCat("_[", slot(site.method), site.set_flavor ? "->>_]" : "->_]");
    case SiteKind::kUniverse:
      return slot(site.recv);
  }
  return "";
}

namespace {

/// The executor: one loop over the planned sites. Each site keeps a
/// cursor over its candidates (an index bucket, an oid list, a group's
/// members); Advance moves a site's cursor to its next candidate that
/// passes, writing the site's output slots.
class SiteRunner {
 public:
  SiteRunner(const SiteProgram& p, const SemanticStructure& I,
             ResourceBudget* budget, SiteCounters* c)
      : p_(p),
        I_(I),
        store_(I.store()),
        budget_(budget),
        counters_(c),
        slots_(p.slots.size(), kNilOid),
        frames_(p.sites.size()) {
    for (size_t i = 0; i < p.slots.size(); ++i) {
      if (p.slots[i].constant) slots_[i] = p.slots[i].value;
    }
  }

  Result<bool> Run(SolutionSink sink) {
    const size_t n = p_.sites.size();
    if (counters_->per_site) {
      counters_->entered.assign(n, 0);
      counters_->produced.assign(n, 0);
    }
    if (p_.empty) return true;
    if (n == 0) return sink(slots_.data());
    size_t k = 0;
    Enter(0);
    while (true) {
      if (Advance(k)) {
        if (counters_->per_site) ++counters_->produced[k];
        if (k + 1 == n) {
          Result<bool> r = sink(slots_.data());
          if (!r.ok() || !*r) return r;
          continue;
        }
        Enter(++k);
        continue;
      }
      if (!status_.ok()) return status_;
      if (k == 0) return true;
      --k;
    }
  }

 private:
  struct Frame {
    uint32_t pos = 0, end = 0;      // outer cursor
    uint32_t sub = 0, sub_end = 0;  // member cursor inside one group
    const Oid* members = nullptr;   // that group's members
    const uint32_t* idx = nullptr;  // bucket; null: positions are indexes
    const SetMemberRef* refs = nullptr;
    const Oid* oids = nullptr;  // null with kUniverse: positions are oids
    Oid m = kNilOid;
    // The method's table, looked up once per entry into the site.
    ScalarEntryList entries;
    SetGroupList groups;
    bool builtin = false;  // a runtime `self` or guard at method position
    std::vector<Oid> list;  // methods, a `->>` result, builtin outputs
  };

  /// Binds operand `i` of `site` to `o`, or checks it against its slot.
  bool Put(const Site& site, size_t i, uint32_t slot, Oid o) {
    if (site.Output(i)) {
      slots_[slot] = o;
      return true;
    }
    return slots_[slot] == o;
  }

  bool PutArgs(const Site& site, std::span<const Oid> args) {
    if (args.size() != site.args.size()) return false;
    for (size_t i = 0; i < args.size(); ++i) {
      if (!Put(site, i + 1, site.args[i], args[i])) return false;
    }
    return true;
  }

  void CountRoute(SiteRoute route) {
    switch (route) {
      case SiteRoute::kReceiverProbe:
      case SiteRoute::kTest:
        ++counters_->receiver_probes;
        break;
      case SiteRoute::kInverted:
        ++counters_->inverted_probes;
        break;
      case SiteRoute::kExtent:
      case SiteRoute::kClassExtent:
        ++counters_->extent_scans;
        break;
      case SiteRoute::kUniverse:
        ++counters_->universe_scans;
        break;
    }
  }

  void Enter(size_t k) {
    const Site& site = p_.sites[k];
    Frame& f = frames_[k];
    if (counters_->per_site) ++counters_->entered[k];
    CountRoute(site.route);
    f.pos = 0;
    f.end = 0;
    f.sub = f.sub_end = 0;
    f.idx = nullptr;
    f.refs = nullptr;
    f.oids = nullptr;
    f.builtin = false;
    switch (site.kind) {
      case SiteKind::kIsa: {
        const Oid obj = slots_[site.recv];
        if (site.route == SiteRoute::kTest) {
          f.end = store_.IsA(obj, slots_[site.method]) ? 1 : 0;
        } else if (site.Output(1)) {
          const std::span<const Oid> up = store_.Ancestors(obj);
          f.oids = up.data();
          f.end = static_cast<uint32_t>(up.size());
        } else {
          const std::span<const Oid> members =
              store_.Members(slots_[site.method]);
          f.oids = members.data();
          f.end = static_cast<uint32_t>(members.size());
        }
        return;
      }
      case SiteKind::kScalar: {
        f.m = slots_[site.method];
        if (I_.IsBuiltinScalar(f.m)) return EnterBuiltin(site, &f);
        f.entries = store_.ScalarEntries(f.m);
        if (!site.Output(0) || site.route == SiteRoute::kInverted) {
          const std::span<const uint32_t> bucket =
              !site.Output(0)
                  ? store_.ScalarEntriesByRecv(f.m, slots_[site.recv])
                  : store_.ScalarEntriesByValue(f.m, slots_[site.value]);
          f.idx = bucket.data();
          f.end = static_cast<uint32_t>(bucket.size());
        } else {
          f.end = static_cast<uint32_t>(f.entries.size());
        }
        return;
      }
      case SiteKind::kMember:
      case SiteKind::kSubset: {
        f.m = slots_[site.method];
        if (site.kind == SiteKind::kSubset && !EvalSubset(site, &f)) return;
        f.groups = store_.SetGroups(f.m);
        if (!site.Output(0)) {
          const std::span<const uint32_t> g =
              store_.SetGroupsByRecv(f.m, slots_[site.recv]);
          f.idx = g.data();
          f.end = static_cast<uint32_t>(g.size());
        } else if (site.route == SiteRoute::kInverted) {
          const std::span<const SetMemberRef> r =
              store_.SetGroupsByMember(f.m, slots_[site.value]);
          f.refs = r.data();
          f.end = static_cast<uint32_t>(r.size());
        } else {
          f.end = static_cast<uint32_t>(f.groups.size());
        }
        return;
      }
      case SiteKind::kGuard: {
        std::vector<Oid>& argv = f.list;
        argv.resize(site.args.size());
        for (size_t i = 0; i < argv.size(); ++i) argv[i] = slots_[site.args[i]];
        f.end = I_.Scalar(slots_[site.method], slots_[site.recv], argv) ? 1 : 0;
        return;
      }
      case SiteKind::kNegation: {
        Bindings b = ReadBindings(site);
        RefEvaluator eval(I_);
        eval.set_budget(budget_);
        Result<bool> sat = eval.Satisfiable(*site.ref, &b);
        if (!sat.ok()) {
          status_ = sat.status();
          return;
        }
        f.end = *sat ? 0 : 1;
        return;
      }
      case SiteKind::kMethods: {
        f.list = site.set_flavor ? store_.SetMethods() : store_.ScalarMethods();
        // Never the built-ins and never anonymous derived method
        // objects such as `_tc(kids)` (RefEvaluator::EnumMethod).
        f.list.erase(std::remove_if(f.list.begin(), f.list.end(),
                                    [&](Oid m) {
                                      return store_.kind(m) ==
                                             ObjectKind::kAnonymous;
                                    }),
                     f.list.end());
        f.oids = f.list.data();
        f.end = static_cast<uint32_t>(f.list.size());
        return;
      }
      case SiteKind::kUniverse:
        f.end = static_cast<uint32_t>(store_.UniverseSize());
        return;
    }
  }

  /// A `self` or guard reached through a method slot bound at run
  /// time: unbound receiver and argument operands range over the
  /// universe, and the built-in computes the value.
  void EnterBuiltin(const Site& site, Frame* f) {
    f->builtin = true;
    f->list.clear();
    uint64_t combos = 1;
    for (size_t i = 0; i <= site.args.size(); ++i) {
      if (!site.Output(i)) continue;
      f->list.push_back(static_cast<Oid>(i));
      combos *= store_.UniverseSize();
    }
    f->end = static_cast<uint32_t>(std::min<uint64_t>(combos, UINT32_MAX));
  }

  bool EvalSubset(const Site& site, Frame* f) {
    Bindings b = ReadBindings(site);
    RefEvaluator eval(I_);
    eval.set_budget(budget_);
    Result<std::vector<Oid>> spec = eval.EvalGround(*site.ref, &b);
    if (!spec.ok()) {
      status_ = spec.status();
      return false;
    }
    // Active domain: an empty specified set is no witness.
    f->list = std::move(*spec);
    return !f->list.empty();
  }

  Bindings ReadBindings(const Site& site) const {
    Bindings b;
    for (const auto& [name, slot] : site.reads) {
      b.Bind(std::string(name), slots_[slot]);
    }
    return b;
  }

  bool Tick() {
    if (budget_ == nullptr || (steps_++ & 0x3FF) != 0) return true;
    status_ = budget_->CheckControl();
    return status_.ok();
  }

  bool Advance(size_t k) {
    if (!Tick()) return false;
    const Site& site = p_.sites[k];
    Frame& f = frames_[k];
    switch (site.kind) {
      case SiteKind::kIsa:
        if (site.route == SiteRoute::kTest) return f.pos++ < f.end;
        while (f.pos < f.end) {
          const Oid o = f.oids[f.pos++];
          if (site.Output(1) ? Put(site, 1, site.method, o)
                             : Put(site, 0, site.recv, o)) {
            return true;
          }
        }
        return false;
      case SiteKind::kScalar: {
        if (f.builtin) return AdvanceBuiltin(site, &f);
        while (f.pos < f.end) {
          const uint32_t i = f.idx != nullptr ? f.idx[f.pos] : f.pos;
          ++f.pos;
          const ScalarEntry& e = f.entries[i];
          if (Put(site, 0, site.recv, e.recv) && PutArgs(site, e.args) &&
              Put(site, site.args.size() + 1, site.value, e.value)) {
            return true;
          }
        }
        return false;
      }
      case SiteKind::kMember:
        return AdvanceMember(site, &f);
      case SiteKind::kSubset: {
        while (f.pos < f.end) {
          const uint32_t i = f.idx != nullptr ? f.idx[f.pos] : f.pos;
          ++f.pos;
          const SetGroup& g = f.groups[i];
          if (!Put(site, 0, site.recv, g.recv) || !PutArgs(site, g.args)) {
            continue;
          }
          bool all = true;
          for (Oid s : f.list) all = all && g.Contains(s);
          if (all) return true;
        }
        return false;
      }
      case SiteKind::kGuard:
      case SiteKind::kNegation:
        return f.pos++ < f.end;
      case SiteKind::kMethods:
      case SiteKind::kUniverse: {
        if (f.pos >= f.end) return false;
        const Oid o = f.oids != nullptr ? f.oids[f.pos] : f.pos;
        ++f.pos;
        slots_[site.kind == SiteKind::kMethods ? site.method : site.recv] = o;
        return true;
      }
    }
    return false;
  }

  bool AdvanceMember(const Site& site, Frame* fp) {
    Frame& f = *fp;
    const SetGroupList& groups = f.groups;
    const size_t member_op = site.args.size() + 1;
    if (f.refs != nullptr) {
      // Inverted: one membership fact per candidate.
      while (f.pos < f.end) {
        const SetMemberRef& r = f.refs[f.pos++];
        const SetGroup& g = groups[r.group];
        if (Put(site, 0, site.recv, g.recv) && PutArgs(site, g.args)) {
          return true;
        }
      }
      return false;
    }
    while (true) {
      if (f.sub < f.sub_end) {
        slots_[site.value] = f.members[f.sub++];
        return true;
      }
      if (f.pos >= f.end) return false;
      const uint32_t i = f.idx != nullptr ? f.idx[f.pos] : f.pos;
      ++f.pos;
      const SetGroup& g = groups[i];
      if (!Put(site, 0, site.recv, g.recv) || !PutArgs(site, g.args)) {
        continue;
      }
      if (!site.Output(member_op)) {
        if (g.Contains(slots_[site.value])) return true;
        continue;
      }
      f.sub = 0;
      f.sub_end = static_cast<uint32_t>(g.members.size());
      f.members = g.members.data();
    }
  }

  bool AdvanceBuiltin(const Site& site, Frame* fp) {
    Frame& f = *fp;
    const uint64_t n = store_.UniverseSize();
    std::vector<Oid> argv(site.args.size());
    while (f.pos < f.end) {
      uint64_t code = f.pos++;
      for (Oid operand : f.list) {
        const uint32_t slot = operand == 0 ? site.recv : site.args[operand - 1];
        slots_[slot] = static_cast<Oid>(code % n);
        code /= n;
      }
      for (size_t i = 0; i < argv.size(); ++i) argv[i] = slots_[site.args[i]];
      const std::optional<Oid> r = I_.Scalar(f.m, slots_[site.recv], argv);
      if (r && Put(site, site.args.size() + 1, site.value, *r)) return true;
    }
    return false;
  }

  const SiteProgram& p_;
  const SemanticStructure& I_;
  const ObjectStore& store_;
  ResourceBudget* budget_;
  SiteCounters* counters_;
  std::vector<Oid> slots_;
  std::vector<Frame> frames_;
  Status status_;
  uint64_t steps_ = 0;
};

}  // namespace

Result<bool> RunSites(const SiteProgram& program, const SemanticStructure& I,
                      ResourceBudget* budget, SiteCounters* counters,
                      SolutionSink sink) {
  SiteCounters local;
  SiteRunner runner(program, I, budget,
                    counters != nullptr ? counters : &local);
  return runner.Run(sink);
}

}  // namespace pathlog
