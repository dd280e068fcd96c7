#include "oracles.h"

#include <algorithm>
#include <deque>
#include <map>
#include <utility>

#include "baseline/conjunctive.h"
#include "baseline/translate.h"

namespace perfbench {

using pathlog::Internal;
using pathlog::Oid;
using pathlog::Result;
using pathlog::Status;

namespace {

Status WrongAnswer(std::string_view what, const std::string& detail) {
  return Internal("wrong answer for " + std::string(what) + ": " + detail);
}

}  // namespace

uint32_t DagOracle::AddNode() {
  out_.emplace_back();
  in_.emplace_back();
  return static_cast<uint32_t>(out_.size() - 1);
}

void DagOracle::AddEdge(uint32_t from, uint32_t to) {
  out_[from].push_back(to);
  in_[to].push_back(from);
}

std::vector<uint32_t> DagOracle::Search(
    const std::vector<std::vector<uint32_t>>& adj, uint32_t start) {
  std::vector<bool> seen(adj.size(), false);
  std::deque<uint32_t> frontier(adj[start].begin(), adj[start].end());
  std::vector<uint32_t> found;
  while (!frontier.empty()) {
    const uint32_t u = frontier.front();
    frontier.pop_front();
    if (seen[u]) continue;
    seen[u] = true;
    found.push_back(u);
    for (uint32_t v : adj[u]) {
      if (!seen[v]) frontier.push_back(v);
    }
  }
  std::sort(found.begin(), found.end());
  return found;
}

std::vector<uint32_t> DagOracle::Descendants(uint32_t u) const {
  return Search(out_, u);
}

std::vector<uint32_t> DagOracle::Ancestors(uint32_t v) const {
  return Search(in_, v);
}

bool DagOracle::Reaches(uint32_t a, uint32_t b) const {
  const std::vector<uint32_t> d = Descendants(a);
  return std::binary_search(d.begin(), d.end(), b);
}

Status ExpectSameNames(std::vector<std::string> got,
                       std::vector<std::string> want, std::string_view what) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got == want) return Status::OK();
  return WrongAnswer(what, std::to_string(got.size()) + " names, expected " +
                               std::to_string(want.size()));
}

Status ExpectSameBool(bool got, bool want, std::string_view what) {
  if (got == want) return Status::OK();
  return WrongAnswer(what, got ? "true, expected false"
                               : "false, expected true");
}

Result<Rows> JoinPlanRows(pathlog::ObjectStore* store,
                          const std::vector<pathlog::Literal>& body,
                          const std::vector<std::string>& vars) {
  Result<pathlog::FlatQuery> flat = pathlog::FlattenLiterals(body, store);
  if (!flat.ok()) return flat.status();
  Result<pathlog::Relation> rel = pathlog::EvalJoinPlan(*store, *flat);
  if (!rel.ok()) return rel.status();
  std::vector<size_t> cols;
  for (const std::string& v : vars) {
    std::optional<size_t> c = rel->ColumnIndex(v);
    if (!c) return Status(Internal("join plan lacks column " + v));
    cols.push_back(*c);
  }
  Rows rows;
  rows.reserve(rel->NumRows());
  for (const std::vector<Oid>& r : rel->rows()) {
    std::vector<Oid> projected;
    projected.reserve(cols.size());
    for (size_t c : cols) projected.push_back(r[c]);
    rows.push_back(std::move(projected));
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

Status ExpectSameRows(Rows got, Rows want, std::string_view what) {
  std::sort(got.begin(), got.end());
  got.erase(std::unique(got.begin(), got.end()), got.end());
  std::sort(want.begin(), want.end());
  if (got == want) return Status::OK();
  return WrongAnswer(what, std::to_string(got.size()) + " rows, expected " +
                               std::to_string(want.size()));
}

Status CheckRecovered(pathlog::Database* db,
                      const std::vector<AckedPerson>& acked,
                      uint64_t facts_before) {
  const uint64_t facts = db->store().FactCount();
  if (facts != facts_before) {
    return WrongAnswer("recovered fact count",
                       std::to_string(facts) + ", expected " +
                           std::to_string(facts_before));
  }
  Result<pathlog::ResultSet> rs =
      db->Query("?- X:person.address[street->S; city->C].");
  if (!rs.ok()) return rs.status();
  // vars() is in name order: C, S, X.
  std::map<std::string, std::pair<std::string, std::string>> address;
  for (const std::vector<Oid>& row : rs->rows()) {
    address[db->DisplayName(row[2])] = {db->DisplayName(row[1]),
                                        db->DisplayName(row[0])};
  }
  for (const AckedPerson& p : acked) {
    auto it = address.find(p.name);
    if (it == address.end()) {
      return WrongAnswer("recovered person " + p.name, "no address answers");
    }
    if (it->second != std::make_pair(p.street, p.city)) {
      return WrongAnswer("recovered person " + p.name,
                         "address " + it->second.first + "/" +
                             it->second.second + ", expected " + p.street +
                             "/" + p.city);
    }
  }
  return Status::OK();
}

}  // namespace perfbench
