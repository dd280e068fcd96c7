#include "eval/stratify.h"

#include <algorithm>

#include "base/strings.h"

namespace pathlog {

std::vector<int> TarjanScc(size_t n,
                           const std::vector<std::vector<uint32_t>>& adj,
                           int* num_sccs) {
  std::vector<int> index(n, -1), low(n, 0), scc(n, -1);
  std::vector<bool> on_stack(n, false);
  std::vector<uint32_t> stack;
  int next_index = 0;
  int next_scc = 0;

  struct Frame {
    uint32_t node;
    size_t child;
  };
  for (uint32_t root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    std::vector<Frame> frames{{root, 0}};
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      uint32_t u = f.node;
      if (f.child < adj[u].size()) {
        uint32_t v = adj[u][f.child++];
        if (index[v] == -1) {
          index[v] = low[v] = next_index++;
          stack.push_back(v);
          on_stack[v] = true;
          frames.push_back({v, 0});
        } else if (on_stack[v]) {
          low[u] = std::min(low[u], index[v]);
        }
      } else {
        if (low[u] == index[u]) {
          for (;;) {
            uint32_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc[w] = next_scc;
            if (w == u) break;
          }
          ++next_scc;
        }
        frames.pop_back();
        if (!frames.empty()) {
          uint32_t parent = frames.back().node;
          low[parent] = std::min(low[parent], low[u]);
        }
      }
    }
  }
  if (num_sccs != nullptr) *num_sccs = next_scc;
  return scc;
}

namespace {

/// BFS from `from` to `to` over edges whose endpoints both lie in SCC
/// `component`, returning the traversed edge chain (empty when from ==
/// to and no self-edge is needed). All nodes of one SCC are mutually
/// reachable, so the search always succeeds.
std::vector<DependencyGraph::Edge> FindPathInScc(
    const DependencyGraph& graph, const std::vector<int>& scc, int component,
    uint32_t from, uint32_t to) {
  std::vector<std::vector<const DependencyGraph::Edge*>> out(
      graph.num_nodes());
  for (const DependencyGraph::Edge& e : graph.edges()) {
    if (scc[e.from] == component && scc[e.to] == component) {
      out[e.from].push_back(&e);
    }
  }
  std::vector<const DependencyGraph::Edge*> via(graph.num_nodes(), nullptr);
  std::vector<bool> seen(graph.num_nodes(), false);
  std::vector<uint32_t> queue{from};
  seen[from] = true;
  for (size_t i = 0; i < queue.size(); ++i) {
    uint32_t u = queue[i];
    if (u == to && i > 0) break;
    for (const DependencyGraph::Edge* e : out[u]) {
      if (seen[e->to]) continue;
      seen[e->to] = true;
      via[e->to] = e;
      queue.push_back(e->to);
    }
  }
  std::vector<DependencyGraph::Edge> path;
  for (uint32_t u = to; via[u] != nullptr; u = via[u]->from) {
    path.push_back(*via[u]);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

Result<Stratification> Stratify(const DependencyGraph& graph,
                                size_t num_rules,
                                CycleExplanation* cycle) {
  const size_t n = graph.num_nodes();
  std::vector<std::vector<uint32_t>> adj(n);
  for (const DependencyGraph::Edge& e : graph.edges()) {
    adj[e.from].push_back(e.to);
  }
  int num_sccs = 0;
  std::vector<int> scc = TarjanScc(n, adj, &num_sccs);

  // Reject needs-complete edges inside an SCC.
  for (const DependencyGraph::Edge& e : graph.edges()) {
    if (e.needs_complete && scc[e.from] == scc[e.to]) {
      if (cycle != nullptr) {
        cycle->edges.clear();
        cycle->edges.push_back(e);
        std::vector<DependencyGraph::Edge> back =
            FindPathInScc(graph, scc, scc[e.from], e.to, e.from);
        cycle->edges.insert(cycle->edges.end(), back.begin(), back.end());
      }
      return Status(NotStratifiable(StrCat(
          "method '", graph.NodeName(e.from),
          "' recursively depends on the *complete* result set of '",
          graph.NodeName(e.to),
          "' (a set-valued reference or negation in a recursive cycle); "
          "the program cannot be stratified")));
    }
  }

  // Node strata via longest paths over the condensation. Tarjan's
  // numbering is reverse-topological, so ascending SCC order visits
  // successors first.
  std::vector<int> scc_stratum(num_sccs, 0);
  std::vector<std::vector<const DependencyGraph::Edge*>> by_from_scc(num_sccs);
  for (const DependencyGraph::Edge& e : graph.edges()) {
    if (scc[e.from] != scc[e.to]) {
      by_from_scc[scc[e.from]].push_back(&e);
    }
  }
  for (int s = 0; s < num_sccs; ++s) {
    for (const DependencyGraph::Edge* e : by_from_scc[s]) {
      int need = scc_stratum[scc[e->to]] + (e->needs_complete ? 1 : 0);
      scc_stratum[s] = std::max(scc_stratum[s], need);
    }
  }

  Stratification out;
  out.rule_stratum.resize(num_rules, 0);
  int max_stratum = 0;
  for (size_t r = 0; r < num_rules; ++r) {
    int stratum = 0;
    for (uint32_t d : graph.rule_define_nodes()[r]) {
      stratum = std::max(stratum, scc_stratum[scc[d]]);
    }
    out.rule_stratum[r] = stratum;
    max_stratum = std::max(max_stratum, stratum);
  }
  out.num_strata = max_stratum + 1;
  return out;
}

void EdgeEnds::Add(const DependencyGraph& graph, size_t rule) {
  const RuleDeps& deps = graph.rule_deps()[rule];
  wildcard |= deps.defines_any || deps.reads_any;
  for (const DependencyGraph::Edge& e : graph.edges()) {
    if (e.rule != static_cast<int32_t>(rule)) continue;
    from.insert(graph.NodeName(e.from));
    to.insert(graph.NodeName(e.to));
    complete |= e.needs_complete;
    self_loop |= e.from == e.to;
  }
}

bool MayCloseCycle(const EdgeEnds& installed, const EdgeEnds& rule) {
  auto meet = [](const std::unordered_set<std::string>& a,
                 const std::unordered_set<std::string>& b) {
    return std::any_of(a.begin(), a.end(),
                       [&b](const std::string& n) { return b.count(n) > 0; });
  };
  return (installed.complete || rule.complete) &&
         (installed.wildcard || rule.wildcard || rule.self_loop ||
          (meet(rule.from, installed.to) && meet(rule.to, installed.from)));
}

}  // namespace pathlog
