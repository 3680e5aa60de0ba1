#include <gtest/gtest.h>

#include <set>

#include "workload/directory_gen.h"
#include "workload/update_gen.h"
#include "workload/workload_gen.h"
#include "workload/zipf.h"

#include "filter_eval.h"

namespace fbdr::workload {
namespace {

using ldap::Dn;

TEST(Zipf, PmfSumsToOneAndIsMonotone) {
  ZipfSampler zipf(100, 1.0);
  double total = 0.0;
  for (std::size_t k = 0; k < 100; ++k) {
    total += zipf.pmf(k);
    if (k > 0) {
      EXPECT_LE(zipf.pmf(k), zipf.pmf(k - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, SamplesAreSkewed) {
  ZipfSampler zipf(1000, 1.0);
  std::mt19937 rng(7);
  std::size_t top10 = 0;
  const std::size_t n = 20000;
  for (std::size_t i = 0; i < n; ++i) {
    if (zipf.sample(rng) < 10) ++top10;
  }
  // Under s=1 the top-10 ranks carry ~39% of the mass over 1000 items.
  EXPECT_GT(top10, n / 4);
  EXPECT_LT(top10, n / 2);
}

TEST(Zipf, UniformWhenSkewZero) {
  ZipfSampler zipf(10, 0.0);
  EXPECT_NEAR(zipf.pmf(0), 0.1, 1e-9);
  EXPECT_NEAR(zipf.pmf(9), 0.1, 1e-9);
}

TEST(Zipf, EmptyDomainThrows) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
}

class DirectoryTest : public ::testing::Test {
 protected:
  static const EnterpriseDirectory& dir() {
    static const EnterpriseDirectory directory = [] {
      DirectoryConfig config;
      config.employees = 3000;
      config.countries = 8;
      config.divisions = 10;
      config.depts_per_division = 10;
      config.locations = 20;
      return generate_directory(config);
    }();
    return directory;
  }
};

TEST_F(DirectoryTest, PopulationAndStructure) {
  EXPECT_EQ(dir().employees.size(), 3000u);
  EXPECT_EQ(dir().country_codes.size(), 8u);
  EXPECT_EQ(dir().division_names.size(), 10u);
  EXPECT_EQ(dir().location_names.size(), 20u);
  // DIT: root + countries + divisions + depts + locations container +
  // locations + employees.
  const std::size_t expected =
      1 + 8 + 10 + 10 * 10 + 1 + 20 + 3000;
  EXPECT_EQ(dir().master->dit().size(), expected);
}

TEST_F(DirectoryTest, EmployeesAreFlatUnderCountries) {
  // §3.3: flat namespace — every employee is a direct child of its country.
  for (std::size_t i = 0; i < 50; ++i) {
    const EmployeeInfo& info = dir().employees[i * 60];
    EXPECT_EQ(info.dn.depth(), 3u);
    EXPECT_EQ(info.dn.parent(),
              Dn::parse("c=" + dir().country_codes[info.country] + ",o=ibm"));
  }
}

TEST_F(DirectoryTest, GeographyFractionRoughlyHolds) {
  std::size_t in_geo = 0;
  for (const EmployeeInfo& info : dir().employees) {
    if (info.country < dir().config.geo_countries) ++in_geo;
  }
  const double fraction =
      static_cast<double>(in_geo) / static_cast<double>(dir().employees.size());
  EXPECT_NEAR(fraction, dir().config.geo_fraction, 0.05);
}

TEST_F(DirectoryTest, SerialsAreStructuredAndUnique) {
  std::set<std::string> serials;
  for (const EmployeeInfo& info : dir().employees) {
    ASSERT_EQ(info.serial.size(), 6u);
    // First two digits encode the division.
    EXPECT_EQ(info.serial.substr(0, 2),
              dir().division_names[info.division].substr(3));
    EXPECT_TRUE(serials.insert(info.serial).second) << "duplicate serial";
  }
}

TEST_F(DirectoryTest, SerialRanksAreDenseWithinDivision) {
  // Serials within a division are 0000..N-1 in popularity order, so prefix
  // blocks partition the division by popularity.
  const auto& members = dir().division_members[0];
  for (std::size_t rank = 0; rank < members.size(); ++rank) {
    const std::string& serial = dir().employees[members[rank]].serial;
    EXPECT_EQ(serial.substr(2), [&] {
      std::string s = std::to_string(rank);
      while (s.size() < 4) s.insert(s.begin(), '0');
      return s;
    }());
  }
}

TEST_F(DirectoryTest, EntriesMatchTheirFilters) {
  const EmployeeInfo& info = dir().employees[123];
  const auto entry = dir().master->dit().find(info.dn);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->has_value("serialnumber", info.serial));
  EXPECT_TRUE(entry->has_value("mail", info.mail));
  EXPECT_TRUE(entry->has_value("objectclass", "inetOrgPerson"));
}

TEST_F(DirectoryTest, DeterministicForSameSeed) {
  DirectoryConfig config;
  config.employees = 200;
  const EnterpriseDirectory a = generate_directory(config);
  const EnterpriseDirectory b = generate_directory(config);
  ASSERT_EQ(a.employees.size(), b.employees.size());
  for (std::size_t i = 0; i < a.employees.size(); ++i) {
    EXPECT_EQ(a.employees[i].serial, b.employees[i].serial);
    EXPECT_EQ(a.employees[i].dn, b.employees[i].dn);
  }
}

TEST_F(DirectoryTest, WorkloadMixMatchesTable1) {
  WorkloadConfig config;
  config.temporal_rereference = 0.0;
  WorkloadGenerator generator(dir(), config);
  generator.generate(20000);
  const auto& counts = generator.type_counts();
  const double n = 20000.0;
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.58, 0.02);  // serialNumber
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.24, 0.02);  // mail
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.16, 0.02);  // dept
  EXPECT_NEAR(static_cast<double>(counts[3]) / n, 0.02, 0.01);  // location
}

TEST_F(DirectoryTest, GeneratedQueriesMatchRealEntries) {
  WorkloadConfig config;
  WorkloadGenerator generator(dir(), config);
  std::size_t matched = 0;
  for (const GeneratedQuery& generated : generator.generate(400)) {
    bool any = false;
    dir().master->dit().for_each([&](const ldap::EntryPtr& entry) {
      if (!any && ldap::matches(*generated.query.filter, *entry)) any = true;
    });
    if (any) ++matched;
  }
  // Every generated query targets an existing entity.
  EXPECT_EQ(matched, 400u);
}

TEST_F(DirectoryTest, TemporalRereferenceRepeatsRecentQueries) {
  WorkloadConfig with;
  with.temporal_rereference = 0.5;
  with.seed = 99;
  WorkloadGenerator generator(dir(), with);
  std::map<std::string, int> counts;
  for (const GeneratedQuery& generated : generator.generate(2000)) {
    ++counts[generated.query.key()];
  }
  std::size_t repeated = 0;
  for (const auto& [key, count] : counts) {
    if (count > 1) repeated += static_cast<std::size_t>(count - 1);
  }
  // At least ~40% of queries are repeats under a 0.5 re-reference rate
  // (popular targets also repeat by chance).
  EXPECT_GT(repeated, 700u);
}

TEST_F(DirectoryTest, QueriesUseNullBaseAndSubtreeScope) {
  WorkloadGenerator generator(dir(), {});
  const GeneratedQuery generated = generator.next();
  EXPECT_TRUE(generated.query.base.is_root());
  EXPECT_EQ(generated.query.scope, ldap::Scope::Subtree);
}

TEST(UpdateGenerator, AppliesMixAndKeepsMasterConsistent) {
  DirectoryConfig config;
  config.employees = 500;
  EnterpriseDirectory dir = generate_directory(config);
  const std::size_t before = dir.master->dit().size();

  UpdateGenerator updates(dir, {});
  updates.apply(300);
  EXPECT_EQ(updates.applied(), 300u);
  const auto& counts = updates.kind_counts();
  EXPECT_GT(counts[0], counts[1]);  // modifies dominate
  EXPECT_GT(counts[0], 150u);
  // adds - deletes shifts the DIT size accordingly.
  const std::size_t expected =
      before + counts[1] - counts[2];
  EXPECT_EQ(dir.master->dit().size(), expected);
  EXPECT_EQ(dir.master->journal().since(0).size(), 300u);
}

TEST(UpdateGenerator, RenamePreservesEntryCount) {
  DirectoryConfig config;
  config.employees = 100;
  EnterpriseDirectory dir = generate_directory(config);
  UpdateConfig update_config;
  update_config.p_modify_employee = 0.0;
  update_config.p_add_employee = 0.0;
  update_config.p_delete_employee = 0.0;
  update_config.p_rename_employee = 1.0;
  update_config.p_modify_dept = 0.0;
  UpdateGenerator updates(dir, update_config);
  const std::size_t before = dir.master->dit().size();
  updates.apply(50);
  EXPECT_EQ(dir.master->dit().size(), before);
}

}  // namespace
}  // namespace fbdr::workload
