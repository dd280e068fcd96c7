// The stores and rule programs the differential suites share: five
// generated workloads and the eleven programs of kCases, each run over
// one of them (differential_test.cc, site_differential_test.cc).

#ifndef PATHLOG_TESTS_DIFFERENTIAL_CASES_H_
#define PATHLOG_TESTS_DIFFERENTIAL_CASES_H_

#include <ostream>

#include "store/object_store.h"
#include "workload/company.h"
#include "workload/kinship.h"
#include "workload/people.h"

namespace pathlog {

enum class Workload { kChain, kTree, kDag, kCompany, kPeople };

inline void Generate(ObjectStore* store, Workload w) {
  switch (w) {
    case Workload::kChain:
      GenerateChain(store, 60);
      break;
    case Workload::kTree:
      GenerateTree(store, 80, 3);
      break;
    case Workload::kDag:
      GenerateRandomDag(store, 70, 2.0, 1234);
      break;
    case Workload::kCompany: {
      CompanyConfig cfg;
      cfg.num_employees = 60;
      cfg.num_companies = 5;
      GenerateCompany(store, cfg);
      break;
    }
    case Workload::kPeople: {
      PeopleConfig cfg;
      cfg.num_persons = 60;
      cfg.has_street_fraction = 0.6;
      GeneratePeople(store, cfg);
      break;
    }
  }
}

struct Case {
  const char* name;
  Workload workload;
  const char* rules;
};

// gtest prints the parameter into each test's ctest name; the default
// printer would dump the struct's bytes, name pointer included.
inline void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

inline const Case kCases[] = {
    {"desc_chain", Workload::kChain, R"(
       X[desc->>{Y}] <- X[kids->>{Y}].
       X[desc->>{Y}] <- X..desc[kids->>{Y}].
     )"},
    {"desc_tree", Workload::kTree, R"(
       X[desc->>{Y}] <- X[kids->>{Y}].
       X[desc->>{Y}] <- X..desc[kids->>{Y}].
     )"},
    {"desc_dag_leftrec", Workload::kDag, R"(
       X[desc->>{Y}] <- X[kids->>{Y}].
       X[desc->>{Y}] <- X[kids->>{Z}], Z[desc->>{Y}].
     )"},
    {"generic_tc_tree", Workload::kTree, R"(
       X[(M.tc)->>{Y}] <- X[M->>{Y}].
       X[(M.tc)->>{Y}] <- X..(M.tc)[M->>{Y}].
     )"},
    {"same_dept_pairs", Workload::kCompany, R"(
       X[colleague->>{Y}] <- X:employee[worksFor->D], Y:employee[worksFor->D].
     )"},
    {"virtual_boss", Workload::kCompany, R"(
       X.deputy[assists->X; inDept->D] <- X:manager, X[worksFor->D].
     )"},
    {"virtual_addresses", Workload::kPeople, R"(
       X.address[street->X.street; city->X.city] <- X:person.
     )"},
    {"stratified_sets", Workload::kChain, R"(
       X[reach->>{Y}] <- X[kids->>{Y}].
       X[reach->>{Y}] <- X..reach[kids->>{Y}].
       X[frontier->>p0..reach] <- X[self->p0].
     )"},
    {"negation_childless", Workload::kTree, R"(
       X[hasKid->1] <- X[kids->>{Y}].
       X[childless->1] <- X:thing, not X[hasKid->1].
       t0 : thing. t1 : thing.
     )"},
    // Bound-target path matching in a rule body: X.boss is matched
    // against the already-bound B, exercising the inverted
    // value→receiver route (and its enumerate-and-compare fallback).
    {"inverted_reports", Workload::kCompany, R"(
       B[reports->>{X}] <- B[self->X.boss].
     )"},
    // Same for the member→receiver route: V is bound when the second
    // literal runs, so the owner X is found through the inverted
    // member index of `vehicles` (or a group scan without indexes).
    {"inverted_ownership", Workload::kCompany, R"(
       V[ownedBy->>{X}] <- V:automobile, X[vehicles->>{V}].
     )"},
};

}  // namespace pathlog

#endif  // PATHLOG_TESTS_DIFFERENTIAL_CASES_H_
