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

namespace {

/// The walk behind both ForEachMethodSite overloads. A context is a
/// MethodSite whose place and flags hold for everything below it; its
/// node, filter and span are filled in per site.
class SiteWalker {
 public:
  SiteWalker(const MethodSiteFn& fn, const FilterResultFn& on_result)
      : fn_(fn), on_result_(on_result) {}

  void Walk(const Ref& t, const MethodSite& ctx, Span fallback) {
    const Span here = SpanOf(t, fallback);
    switch (t.kind) {
      case RefKind::kName:
      case RefKind::kVar:
        return;
      case RefKind::kParen:
        Walk(*t.base, ctx, here);
        return;
      case RefKind::kPath:
        Visit(ctx, t, nullptr, here);
        Walk(*t.base, ctx, here);
        for (const RefPtr& a : t.args) Walk(*a, ValueOf(ctx), here);
        return;
      case RefKind::kMolecule:
        Walk(*t.base, ctx, here);
        for (const Filter& f : t.filters) {
          const MethodSite site = Visit(ctx, t, &f, here);
          if (f.kind == FilterKind::kClass) {
            Walk(*f.value, ValueOf(ctx), here);
            continue;
          }
          for (const RefPtr& a : f.args) Walk(*a, ValueOf(ctx), here);
          switch (f.kind) {
            case FilterKind::kScalar:
              Result(site, *f.value, ValueOf(ctx), here);
              break;
            case FilterKind::kSetRef: {
              MethodSite set_result = ReadOf(ctx);
              set_result.in_set_result = true;
              Result(site, *f.value, set_result, here);
              break;
            }
            case FilterKind::kSetEnum:
              for (const RefPtr& e : f.elems) {
                Result(site, *e, ValueOf(ctx), here);
              }
              break;
            case FilterKind::kClass:
              break;
          }
        }
        return;
    }
  }

 private:
  /// A head spine position's arguments and results are head values.
  static MethodSite ValueOf(MethodSite ctx) {
    if (ctx.place == SitePlace::kHeadSpine) ctx.place = SitePlace::kHeadValue;
    return ctx;
  }

  /// What the head reads is kHeadRead; a body read stays a body read.
  static MethodSite ReadOf(MethodSite ctx) {
    if (ctx.place != SitePlace::kBody) ctx.place = SitePlace::kHeadRead;
    return ctx;
  }

  /// Reports one site, then walks a complex method as the caller asks.
  MethodSite Visit(const MethodSite& ctx, const Ref& node,
                   const Filter* filter, Span here) {
    MethodSite site = ctx;
    site.node = &node;
    site.filter = filter;
    site.span = here;
    const Descend how = fn_(site);
    const Ref& m = site.position();
    if (site.is_class() ||
        (m.kind != RefKind::kPath && m.kind != RefKind::kMolecule)) {
      return site;
    }
    if (how == Descend::kDefine || how == Descend::kDefineAndRead) {
      MethodSite spine = ctx;
      spine.place = SitePlace::kHeadSpine;
      spine.in_set_result = false;
      Walk(m, spine, here);
    }
    if (how == Descend::kRead || how == Descend::kDefineAndRead) {
      Walk(m, ReadOf(ctx), here);
    }
    return site;
  }

  void Result(const MethodSite& site, const Ref& result,
              const MethodSite& ctx, Span here) {
    if (on_result_) on_result_(site, result);
    Walk(result, ctx, here);
  }

  const MethodSiteFn& fn_;
  const FilterResultFn& on_result_;
};

}  // namespace

std::string NameText(const Ref& ref) {
  const Ref& d = Deref(ref);
  return d.kind == RefKind::kName ? ToString(d) : "";
}

void ForEachMethodSite(const Rule& rule, const MethodSiteFn& fn,
                       const FilterResultFn& on_result) {
  SiteWalker walker(fn, on_result);
  if (rule.head) {
    MethodSite head;
    head.place = SitePlace::kHeadSpine;
    walker.Walk(*rule.head, head, Span{rule.line, rule.column});
  }
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Literal& lit = rule.body[i];
    if (!lit.ref) continue;
    MethodSite body;
    body.negated = lit.negated;
    body.literal = static_cast<int>(i);
    walker.Walk(*lit.ref, body, Span{lit.line, lit.column});
  }
}

void ForEachMethodSite(const Ref& t, const MethodSiteFn& fn) {
  const FilterResultFn no_results;
  SiteWalker(fn, no_results).Walk(t, MethodSite{}, Span{});
}

}  // namespace pathlog
