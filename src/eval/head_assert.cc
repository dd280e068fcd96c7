#include "eval/head_assert.h"

#include <unordered_map>

#include "ast/analysis.h"
#include "ast/printer.h"
#include "base/strings.h"
#include "eval/ref_eval.h"
#include "semantics/structure.h"

namespace pathlog {

namespace {
/// Skip marker: this head instance derives nothing (kRequireDefined
/// mode hit an undefined value path).
constexpr Oid kSkip = kNilOid;

struct PendingKey {
  Oid method;
  Oid recv;
  std::vector<Oid> args;
  friend bool operator==(const PendingKey&, const PendingKey&) = default;
};
struct PendingKeyHash {
  size_t operator()(const PendingKey& k) const {
    size_t h = HashCombine(HashCombine(14695981039346656037ull, k.method),
                           k.recv);
    return HashOidSpan(k.args.data(), k.args.size(), h);
  }
};
}  // namespace

/// Assertion is two-phase so that a skipped head instance leaves no
/// partial side effects: Resolve stages facts (consulting an overlay so
/// later steps of the same instance see earlier skolems), and Assert
/// applies the staged facts only when nothing skipped. The only
/// store-visible effect of a skipped instance is possibly-unused
/// anonymous oids, which carry no facts.
class HeadAsserter::Txn {
 public:
  explicit Txn(ObjectStore* store) : store_(store) {}

  std::optional<Oid> GetScalar(Oid m, Oid recv, const std::vector<Oid>& args) {
    auto it = overlay_.find(PendingKey{m, recv, args});
    if (it != overlay_.end()) return it->second;
    return store_->GetScalar(m, recv, args);
  }

  void StageScalar(Oid m, Oid recv, std::vector<Oid> args, Oid value) {
    overlay_.emplace(PendingKey{m, recv, args}, value);
    facts_.push_back(Fact{FactKind::kScalar, m, recv, std::move(args), value});
  }

  void StageSetMember(Oid m, Oid recv, const std::vector<Oid>& args,
                      Oid value) {
    facts_.push_back(Fact{FactKind::kSetMember, m, recv, args, value});
  }

  void StageIsa(Oid sub, Oid super) {
    facts_.push_back(Fact{FactKind::kIsa, super, sub, {}, kNilOid});
  }

  void CountSkolem() { ++skolems_; }
  uint64_t skolems() const { return skolems_; }

  Status Apply() {
    for (const Fact& f : facts_) {
      switch (f.kind) {
        case FactKind::kIsa:
          PATHLOG_RETURN_IF_ERROR(store_->AddIsa(f.recv, f.method));
          break;
        case FactKind::kScalar:
          PATHLOG_RETURN_IF_ERROR(
              store_->SetScalar(f.method, f.recv, f.args, f.value));
          break;
        case FactKind::kSetMember:
          store_->AddSetMember(f.method, f.recv, f.args, f.value);
          break;
      }
    }
    return Status::OK();
  }

 private:
  ObjectStore* store_;
  std::vector<Fact> facts_;
  std::unordered_map<PendingKey, Oid, PendingKeyHash> overlay_;
  uint64_t skolems_ = 0;
};

Result<Oid> HeadAsserter::ResolveFilterPart(const RefPtr& r, Bindings* b,
                                            Txn* txn) {
  return Resolve(*r, mode_ == HeadValueMode::kSkolemize, b, txn);
}

Result<Oid> HeadAsserter::Resolve(const Ref& t, bool create, Bindings* b,
                                  Txn* txn) {
  switch (t.kind) {
    case RefKind::kName:
      return InternName(t, store_);
    case RefKind::kVar: {
      std::optional<Oid> v = b->Get(t.text);
      if (!v) {
        return Status(UnsafeRule(StrCat(
            "head variable ", t.text,
            " is not bound by the rule body (range restriction)")));
      }
      return *v;
    }
    case RefKind::kParen:
      return Resolve(*t.base, create, b, txn);
    case RefKind::kPath: {
      if (t.set_valued_path) {
        return Status(IllFormed(StrCat(
            "set-valued path cannot be asserted in a rule head: ",
            ToString(t))));
      }
      // Method position: always in create mode — paths at method
      // position define virtual method objects (generic tc).
      PATHLOG_ASSIGN_OR_RETURN(Oid um, Resolve(*t.method, true, b, txn));
      if (um == kSkip) return kSkip;
      PATHLOG_ASSIGN_OR_RETURN(Oid u0, Resolve(*t.base, create, b, txn));
      if (u0 == kSkip) return kSkip;
      std::vector<Oid> argv;
      argv.reserve(t.args.size());
      for (const RefPtr& a : t.args) {
        PATHLOG_ASSIGN_OR_RETURN(Oid ua, ResolveFilterPart(a, b, txn));
        if (ua == kSkip) return kSkip;
        argv.push_back(ua);
      }
      if (std::optional<Oid> r = txn->GetScalar(um, u0, argv)) {
        return *r;
      }
      if (!create) return kSkip;
      // Define a virtual object; the stored fact is the skolem cache.
      std::string name =
          StrCat("_", store_->DisplayName(um), "(", store_->DisplayName(u0));
      for (Oid a : argv) name = StrCat(name, ",", store_->DisplayName(a));
      name += ")";
      Oid fresh = store_->NewAnonymous(std::move(name));
      txn->StageScalar(um, u0, std::move(argv), fresh);
      txn->CountSkolem();
      return fresh;
    }
    case RefKind::kMolecule: {
      PATHLOG_ASSIGN_OR_RETURN(Oid u0, Resolve(*t.base, create, b, txn));
      if (u0 == kSkip) return kSkip;
      for (const Filter& f : t.filters) {
        if (f.kind == FilterKind::kClass) {
          PATHLOG_ASSIGN_OR_RETURN(Oid c, ResolveFilterPart(f.value, b, txn));
          if (c == kSkip) return kSkip;
          txn->StageIsa(u0, c);
          continue;
        }
        // Method position: create mode (virtual method objects).
        PATHLOG_ASSIGN_OR_RETURN(Oid um, Resolve(*f.method, true, b, txn));
        if (um == kSkip) return kSkip;
        if (store_->kind(um) == ObjectKind::kSymbol &&
            IsBuiltinMethodName(store_->DisplayName(um))) {
          return Status(IllFormed(
              StrCat("the built-in method ", store_->DisplayName(um),
                     " cannot be defined in a rule head")));
        }
        std::vector<Oid> argv;
        argv.reserve(f.args.size());
        for (const RefPtr& a : f.args) {
          PATHLOG_ASSIGN_OR_RETURN(Oid ua, ResolveFilterPart(a, b, txn));
          if (ua == kSkip) return kSkip;
          argv.push_back(ua);
        }
        switch (f.kind) {
          case FilterKind::kScalar: {
            PATHLOG_ASSIGN_OR_RETURN(Oid v, ResolveFilterPart(f.value, b, txn));
            if (v == kSkip) return kSkip;
            txn->StageScalar(um, u0, std::move(argv), v);
            break;
          }
          case FilterKind::kSetRef: {
            // The specified set is *referenced*, not asserted into:
            // evaluate it against the current store and insert its
            // members (paper example 4.4: the assistants of p1 become
            // friends of p2). Stratification guarantees the producing
            // methods are complete by now.
            SemanticStructure I(*store_);
            RefEvaluator eval(I);
            Result<std::vector<Oid>> members = eval.EvalGround(*f.value, b);
            if (!members.ok()) return members.status();
            for (Oid mo : *members) {
              txn->StageSetMember(um, u0, argv, mo);
            }
            break;
          }
          case FilterKind::kSetEnum: {
            for (const RefPtr& e : f.elems) {
              PATHLOG_ASSIGN_OR_RETURN(Oid eo, ResolveFilterPart(e, b, txn));
              if (eo == kSkip) return kSkip;
              txn->StageSetMember(um, u0, argv, eo);
            }
            break;
          }
          case FilterKind::kClass:
            break;  // unreachable
        }
      }
      return u0;
    }
  }
  return Status(Internal("Resolve: unknown reference kind"));
}

Status HeadAsserter::Assert(const Ref& head, Bindings* b) {
  Txn txn(store_);
  Result<Oid> r = Resolve(head, /*create=*/true, b, &txn);
  if (!r.ok()) return r.status();
  if (*r == kSkip) return Status::OK();  // derives nothing, no effects
  PATHLOG_RETURN_IF_ERROR(txn.Apply());
  // Skolems count only when their defining facts were committed —
  // skipped instances may have allocated (orphan) anonymous oids, but
  // they define nothing.
  skolems_created_ += txn.skolems();
  return Status::OK();
}

}  // namespace pathlog
