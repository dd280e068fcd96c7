#include "ast/analysis.h"

#include "ast/printer.h"
#include "base/strings.h"

namespace pathlog {

bool IsSimpleRef(const Ref& t) {
  return t.kind == RefKind::kName || t.kind == RefKind::kVar ||
         t.kind == RefKind::kParen;
}

bool IsSetValued(const Ref& t) {
  switch (t.kind) {
    case RefKind::kName:
    case RefKind::kVar:
      return false;
    case RefKind::kParen:
      return IsSetValued(*t.base);
    case RefKind::kPath: {
      if (t.set_valued_path) return true;
      if (IsSetValued(*t.base)) return true;
      if (IsSetValued(*t.method)) return true;
      for (const RefPtr& a : t.args) {
        if (IsSetValued(*a)) return true;
      }
      return false;
    }
    case RefKind::kMolecule:
      // Only the first sub-reference determines the scalarity of the
      // entire molecule (paper section 4.2).
      return IsSetValued(*t.base);
  }
  return false;
}

namespace {

Status CheckMethodPosition(const Ref& m, const char* role) {
  if (!IsSimpleRef(m)) {
    return IllFormed(StrCat(role, " position must hold a simple reference "
                            "(name, variable, or bracketed reference), got: ",
                            ToString(m)));
  }
  return CheckWellFormed(m);
}

Status CheckScalarPosition(const Ref& t, const char* role) {
  PATHLOG_RETURN_IF_ERROR(CheckWellFormed(t));
  if (IsSetValued(t)) {
    return IllFormed(StrCat("set-valued reference not allowed at ", role,
                            " position: ", ToString(t)));
  }
  return Status::OK();
}

Status CheckFilter(const Filter& f) {
  if (f.kind == FilterKind::kClass) {
    PATHLOG_RETURN_IF_ERROR(CheckMethodPosition(*f.value, "class"));
    return CheckScalarPosition(*f.value, "class");
  }
  PATHLOG_RETURN_IF_ERROR(CheckMethodPosition(*f.method, "method"));
  PATHLOG_RETURN_IF_ERROR(CheckScalarPosition(*f.method, "method"));
  for (const RefPtr& a : f.args) {
    PATHLOG_RETURN_IF_ERROR(CheckScalarPosition(*a, "filter-argument"));
  }
  switch (f.kind) {
    case FilterKind::kScalar:
      return CheckScalarPosition(*f.value, "scalar-result");
    case FilterKind::kSetRef:
      PATHLOG_RETURN_IF_ERROR(CheckWellFormed(*f.value));
      if (!IsSetValued(*f.value)) {
        return IllFormed(StrCat(
            "the result of a `->>` filter must be a set-valued reference "
            "or an explicit set; ",
            ToString(*f.value),
            " is scalar (write it inside braces: ->>{...})"));
      }
      return Status::OK();
    case FilterKind::kSetEnum:
      for (const RefPtr& e : f.elems) {
        PATHLOG_RETURN_IF_ERROR(CheckScalarPosition(*e, "set-element"));
      }
      if (f.elems.empty()) {
        return IllFormed("explicit set in a `->>` filter must not be empty");
      }
      return Status::OK();
    case FilterKind::kClass:
      break;  // handled above
  }
  return Status::OK();
}

}  // namespace

Status CheckWellFormed(const Ref& t) {
  switch (t.kind) {
    case RefKind::kName:
    case RefKind::kVar:
      return Status::OK();
    case RefKind::kParen:
      return CheckWellFormed(*t.base);
    case RefKind::kPath: {
      PATHLOG_RETURN_IF_ERROR(CheckWellFormed(*t.base));
      PATHLOG_RETURN_IF_ERROR(CheckMethodPosition(*t.method, "method"));
      // Paths are deliberately liberal: base, method and arguments may
      // be set-valued (e.g. p1.paidFor@(p1..vehicles)).
      for (const RefPtr& a : t.args) {
        PATHLOG_RETURN_IF_ERROR(CheckWellFormed(*a));
      }
      return Status::OK();
    }
    case RefKind::kMolecule: {
      PATHLOG_RETURN_IF_ERROR(CheckWellFormed(*t.base));
      for (const Filter& f : t.filters) {
        PATHLOG_RETURN_IF_ERROR(CheckFilter(f));
      }
      return Status::OK();
    }
  }
  return Internal("CheckWellFormed: unknown reference kind");
}

void CollectVarCounts(const Ref& t, std::map<std::string, int>* out) {
  ForEachLeaf(t, [&](const Ref& leaf) {
    if (leaf.kind == RefKind::kVar) ++(*out)[leaf.text];
  });
}

std::map<std::string, int> VarCountsOf(const Ref& t) {
  std::map<std::string, int> out;
  CollectVarCounts(t, &out);
  return out;
}

void CollectVars(const Ref& t, std::set<std::string>* out) {
  std::map<std::string, int> counts;
  CollectVarCounts(t, &counts);
  for (const auto& kv : counts) out->insert(kv.first);
}

std::set<std::string> VarsOf(const Ref& t) {
  std::set<std::string> out;
  CollectVars(t, &out);
  return out;
}

bool IsGround(const Ref& t) { return VarsOf(t).empty(); }

}  // namespace pathlog
