// Sanity of the synthetic workload generators.

#include <gtest/gtest.h>

#include "store/fact.h"
#include "parser/parser.h"
#include "workload/company.h"
#include "workload/kinship.h"
#include "workload/people.h"

namespace pathlog {
namespace {

TEST(CompanyGenTest, SizesMatchConfig) {
  ObjectStore s;
  CompanyConfig cfg;
  cfg.num_employees = 200;
  cfg.manager_fraction = 0.1;
  CompanyData data = GenerateCompany(&s, cfg);
  EXPECT_EQ(data.employees.size(), 200u);
  EXPECT_EQ(data.managers.size(), 20u);
  EXPECT_EQ(data.companies.size(), cfg.num_companies);
  EXPECT_EQ(s.Members(data.employee_class).size(),
            201u);  // 200 employees + the manager class object
  EXPECT_EQ(s.Members(data.manager_class).size(), 20u);
  EXPECT_FALSE(data.vehicles.empty());
  EXPECT_GT(data.automobiles.size(), data.vehicles.size() / 3);
}

TEST(CompanyGenTest, PaperNamesPresent) {
  ObjectStore s;
  CompanyConfig cfg;
  cfg.num_employees = 10;
  GenerateCompany(&s, cfg);
  EXPECT_TRUE(s.FindSymbol("newYork").has_value());
  EXPECT_TRUE(s.FindSymbol("detroit").has_value());
  EXPECT_TRUE(s.FindSymbol("red").has_value());
}

TEST(CompanyGenTest, DeterministicInSeed) {
  ObjectStore s1, s2, s3;
  CompanyConfig cfg;
  cfg.num_employees = 50;
  GenerateCompany(&s1, cfg);
  GenerateCompany(&s2, cfg);
  cfg.seed = 43;
  GenerateCompany(&s3, cfg);
  EXPECT_EQ(s1.FactCount(), s2.FactCount());
  for (uint64_t g = 0; g < s1.generation(); ++g) {
    ASSERT_EQ(s1.FactAt(g), s2.FactAt(g)) << g;
  }
  EXPECT_NE(s1.FactCount(), s3.FactCount());
}

TEST(CompanyGenTest, EveryVehicleHasColorAndProducer) {
  ObjectStore s;
  CompanyConfig cfg;
  cfg.num_employees = 100;
  CompanyData data = GenerateCompany(&s, cfg);
  Oid color = *s.FindSymbol("color");
  Oid produced_by = *s.FindSymbol("producedBy");
  Oid cylinders = *s.FindSymbol("cylinders");
  for (Oid v : data.vehicles) {
    EXPECT_TRUE(s.GetScalar(color, v, {}).has_value());
    EXPECT_TRUE(s.GetScalar(produced_by, v, {}).has_value());
  }
  for (Oid a : data.automobiles) {
    std::optional<Oid> cyl = s.GetScalar(cylinders, a, {});
    ASSERT_TRUE(cyl.has_value());
    int64_t value = s.IntValue(*cyl);
    EXPECT_TRUE(value == 4 || value == 6 || value == 8);
  }
}

TEST(PeopleGenTest, StreetFractionRespected) {
  ObjectStore s;
  PeopleConfig cfg;
  cfg.num_persons = 400;
  cfg.has_street_fraction = 0.5;
  PeopleData data = GeneratePeople(&s, cfg);
  Oid street = *s.FindSymbol("street");
  size_t with_street = 0;
  for (Oid p : data.persons) {
    with_street += s.GetScalar(street, p, {}).has_value() ? 1 : 0;
  }
  EXPECT_GT(with_street, 120u);
  EXPECT_LT(with_street, 280u);
}

TEST(PeopleGenTest, SpousesAreSymmetric) {
  ObjectStore s;
  PeopleConfig cfg;
  cfg.num_persons = 100;
  cfg.married_fraction = 1.0;
  PeopleData data = GeneratePeople(&s, cfg);
  Oid spouse = *s.FindSymbol("spouse");
  for (Oid p : data.persons) {
    std::optional<Oid> sp = s.GetScalar(spouse, p, {});
    ASSERT_TRUE(sp.has_value());
    EXPECT_EQ(s.GetScalar(spouse, *sp, {}), p);
  }
}

TEST(KinshipGenTest, ChainShape) {
  ObjectStore s;
  KinshipData data = GenerateChain(&s, 10);
  EXPECT_EQ(data.people.size(), 10u);
  EXPECT_EQ(data.num_edges, 9u);
  Oid kids = *s.FindSymbol("kids");
  const std::optional<SetGroup> g = s.GetSetGroup(kids, data.people[3], {});
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(std::vector<Oid>(g->members.begin(), g->members.end()),
            std::vector<Oid>{data.people[4]});
  EXPECT_FALSE(s.GetSetGroup(kids, data.people[9], {}).has_value());
}

TEST(KinshipGenTest, TreeShape) {
  ObjectStore s;
  KinshipData data = GenerateTree(&s, 15, 2);  // perfect binary tree
  EXPECT_EQ(data.num_edges, 14u);
  Oid kids = *s.FindSymbol("kids");
  const std::optional<SetGroup> root = s.GetSetGroup(kids, data.people[0], {});
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(root->members.size(), 2u);
  // Leaves have no kids.
  EXPECT_FALSE(s.GetSetGroup(kids, data.people[14], {}).has_value());
}

TEST(KinshipGenTest, RandomDagIsAcyclicByConstruction) {
  ObjectStore s;
  KinshipData data = GenerateRandomDag(&s, 100, 2.5, 11);
  EXPECT_GT(data.num_edges, 100u);
  Oid kids = *s.FindSymbol("kids");
  // Every edge goes to a strictly later node (indices encode order).
  for (const SetGroup& g : s.SetGroups(kids)) {
    for (Oid m : g.members) {
      EXPECT_GT(m, g.recv);
    }
  }
}

TEST(StoreToProgramTextTest, RoundTripsThroughParser) {
  ObjectStore s;
  CompanyConfig cfg;
  cfg.num_employees = 20;
  GenerateCompany(&s, cfg);
  std::string text = StoreToProgramText(s);
  Result<Program> p = ParseProgram(text);
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->rules.size(), s.FactCount());
  for (const Rule& r : p->rules) {
    EXPECT_TRUE(r.IsFact());
  }
}

}  // namespace
}  // namespace pathlog
