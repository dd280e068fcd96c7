#include "types/signature.h"

#include "ast/printer.h"
#include "base/strings.h"
#include "semantics/structure.h"

namespace pathlog {

namespace {

Result<Oid> InternGroundName(const RefPtr& r, ObjectStore* store,
                             const char* role) {
  const Ref* d = r.get();
  while (d->kind == RefKind::kParen) d = d->base.get();
  if (d->kind != RefKind::kName) {
    return Status(IllFormed(StrCat("signature ", role,
                                   " must be a ground name, got: ",
                                   ToString(*r))));
  }
  return InternName(*d, store);
}

}  // namespace

Status SignatureTable::Declare(const SignatureDecl& decl, ObjectStore* store) {
  Signature sig;
  PATHLOG_ASSIGN_OR_RETURN(sig.klass,
                           InternGroundName(decl.klass, store, "class"));
  PATHLOG_ASSIGN_OR_RETURN(sig.method,
                           InternGroundName(decl.method, store, "method"));
  for (const RefPtr& a : decl.arg_types) {
    PATHLOG_ASSIGN_OR_RETURN(Oid t,
                             InternGroundName(a, store, "argument type"));
    sig.arg_types.push_back(t);
  }
  PATHLOG_ASSIGN_OR_RETURN(
      sig.result_type, InternGroundName(decl.result_type, store, "result type"));
  sig.set_valued = decl.set_valued;
  by_method_[sig.method].push_back(std::move(sig));
  ++count_;
  return Status::OK();
}

const std::vector<Signature>& SignatureTable::ForMethod(Oid method) const {
  static const std::vector<Signature> kEmpty;
  auto it = by_method_.find(method);
  return it == by_method_.end() ? kEmpty : it->second;
}

bool SignatureTable::Conforms(const ObjectStore& store, Oid x, Oid type) {
  const std::string& tn = store.DisplayName(type);
  if (store.kind(type) == ObjectKind::kSymbol) {
    if (tn == kAnyTypeName) return true;
    if (tn == kIntTypeName) return store.kind(x) == ObjectKind::kInt;
    if (tn == kStringTypeName) return store.kind(x) == ObjectKind::kString;
  }
  return x == type || store.IsA(x, type);
}

}  // namespace pathlog
