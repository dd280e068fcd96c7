#include "semantics/structure.h"

namespace pathlog {

bool IsBuiltinMethodName(std::string_view name) {
  return name == kSelfMethodName || name == kLtName || name == kLeqName ||
         name == kGtName || name == kGeqName || name == kIntEqName ||
         name == kIntNeqName || name == kBetweenName;
}

Oid InternName(const Ref& name, ObjectStore* store) {
  switch (name.name_kind) {
    case NameKind::kInt:
      return store->InternInt(name.int_value);
    case NameKind::kString:
      return store->InternString(name.text);
    case NameKind::kSymbol:
      break;
  }
  return store->InternSymbol(name.text);
}

}  // namespace pathlog
