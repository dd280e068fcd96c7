#include "eval/dependency.h"

#include "ast/analysis.h"
#include "semantics/structure.h"

namespace pathlog {

namespace {

/// Fills `deps` from one rule's method and class positions.
void CollectDeps(const Rule& rule, ObjectStore* store, HeadValueMode mode,
                 RuleDeps* deps) {
  const bool value_creates = mode == HeadValueMode::kSkolemize;
  auto define = [&](const MethodSite& site) {
    if (const Ref* name = site.name()) {
      deps->defines.insert(InternName(*name, store));
    } else {
      // A variable or complex method may define any method.
      deps->defines_any = true;
    }
  };
  // Every read in the head, the assert-time lookups included, is a
  // head read (RuleDeps::head_reads). A read is needs-complete inside a
  // `->>` result or a negated literal (paper section 6, [NT89]).
  auto read = [&](const MethodSite& site) {
    const bool complete = site.in_set_result || site.negated;
    if (const Ref* name = site.name()) {
      Oid o = InternName(*name, store);
      deps->reads.insert(o);
      if (complete) deps->reads_complete.insert(o);
      if (site.in_head()) deps->head_reads.insert(o);
      return;
    }
    deps->reads_any = true;
    if (complete) deps->reads_any_complete = true;
    if (site.in_head()) deps->head_reads_any = true;
  };
  ForEachMethodSite(rule, [&](const MethodSite& site) {
    if (site.is_class()) {
      if (site.in_asserted_head()) {
        deps->defines_isa = true;
      } else {
        deps->reads_isa = true;
        if (site.in_set_result || site.negated) deps->reads_isa_complete = true;
      }
      return Descend::kNo;
    }
    if (!site.in_asserted_head()) {
      read(site);
      return Descend::kRead;
    }
    if (site.filter != nullptr) {
      define(site);
      return Descend::kDefine;
    }
    // A head path always defines on the spine, and at value positions
    // under kSkolemize; its assert-time lookup is a read either way. A
    // complex method's own steps define virtual method objects.
    if (site.place == SitePlace::kHeadSpine || value_creates) {
      define(site);
      read(site);
      return Descend::kDefineAndRead;
    }
    read(site);
    return Descend::kRead;
  });
}

}  // namespace

uint32_t DependencyGraph::NodeOf(Oid method, const ObjectStore& store) {
  auto it = method_nodes_.find(method);
  if (it != method_nodes_.end()) return it->second;
  uint32_t node = static_cast<uint32_t>(node_names_.size());
  node_names_.push_back(store.DisplayName(method));
  method_nodes_.emplace(method, node);
  return node;
}

Result<DependencyGraph> DependencyGraph::Build(const std::vector<Rule>& rules,
                                               ObjectStore* store,
                                               HeadValueMode mode) {
  DependencyGraph g;
  g.node_names_ = {"<any-method>", "<hierarchy>"};

  bool any_defines_any = false;
  bool any_reads_any = false;
  for (const Rule& rule : rules) {
    RuleDeps deps;
    CollectDeps(rule, store, mode, &deps);
    any_defines_any |= deps.defines_any;
    any_reads_any |= deps.reads_any;
    g.rule_deps_.push_back(std::move(deps));
  }

  // Materialise nodes and per-rule define-node lists.
  for (size_t r = 0; r < rules.size(); ++r) {
    const RuleDeps& deps = g.rule_deps_[r];
    std::vector<uint32_t> defs;
    if (deps.defines_any) defs.push_back(kAnyNode);
    if (deps.defines_isa) defs.push_back(kIsaNode);
    for (Oid m : deps.defines) defs.push_back(g.NodeOf(m, *store));
    for (Oid m : deps.reads) g.NodeOf(m, *store);
    for (Oid m : deps.reads_complete) g.NodeOf(m, *store);
    g.rule_define_nodes_.push_back(std::move(defs));
  }

  // A molecule head may define several symbols at once; the rule must
  // run in one stratum, so co-defined symbols are cycle-linked to force
  // them into the same SCC (hence the same stratum).
  for (size_t r = 0; r < g.rule_define_nodes_.size(); ++r) {
    const std::vector<uint32_t>& defs = g.rule_define_nodes_[r];
    for (size_t i = 0; defs.size() > 1 && i < defs.size(); ++i) {
      g.edges_.push_back(Edge{defs[i], defs[(i + 1) % defs.size()], false,
                              static_cast<int32_t>(r)});
    }
  }

  // Edges: every defined symbol depends on every read symbol.
  for (size_t r = 0; r < rules.size(); ++r) {
    const RuleDeps& deps = g.rule_deps_[r];
    std::vector<std::pair<uint32_t, bool>> read_nodes;
    for (Oid m : deps.reads) {
      bool complete = deps.reads_complete.count(m) > 0;
      read_nodes.push_back({g.NodeOf(m, *store), complete});
    }
    if (deps.reads_isa) {
      read_nodes.push_back({kIsaNode, deps.reads_isa_complete});
    }
    if (deps.reads_any) {
      read_nodes.push_back({kAnyNode, deps.reads_any_complete});
    }
    for (uint32_t d : g.rule_define_nodes_[r]) {
      for (auto [to, complete] : read_nodes) {
        g.edges_.push_back(Edge{d, to, complete, static_cast<int32_t>(r)});
      }
    }
  }

  // Wildcard coupling: a rule that may define any method makes every
  // method's derivation depend on the wildcard node; a rule that may
  // read any method makes the wildcard depend on every method.
  if (any_defines_any || any_reads_any) {
    for (uint32_t n = 2; n < g.node_names_.size(); ++n) {
      if (any_defines_any) g.edges_.push_back(Edge{n, kAnyNode, false, -1});
      if (any_reads_any) g.edges_.push_back(Edge{kAnyNode, n, false, -1});
    }
  }
  return g;
}

}  // namespace pathlog
