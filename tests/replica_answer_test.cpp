// Tests for the replica serving path (FilterReplica::answer +
// FilterReplicaEndpoint) and the root-DSE search semantics of the master.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "replica/replica_endpoint.h"
#include "server/directory_server.h"
#include "subtree_model.h"

namespace fbdr::replica {
namespace {

using ldap::Dn;
using ldap::make_entry;
using ldap::Query;
using ldap::Scope;

class AnswerTest : public ::testing::Test {
 protected:
  AnswerTest() : master_("ldap://master") {
    server::NamingContext context;
    context.suffix = Dn::parse("o=x");
    master_.add_context(std::move(context));
    master_.load(make_entry("o=x", {{"objectclass", "organization"}}));
    master_.load(make_entry("c=us,o=x", {{"objectclass", "country"}}));
    for (int i = 0; i < 6; ++i) {
      const std::string serial = "04000" + std::to_string(i);
      master_.load(make_entry("cn=e" + serial + ",c=us,o=x",
                              {{"objectclass", "person"},
                               {"serialNumber", serial},
                               {"mail", "e" + std::to_string(i) + "@x.com"}}));
    }
    registry_ = std::make_shared<ldap::TemplateRegistry>();
    registry_->add("(serialnumber=_)");
    registry_->add("(serialnumber=_*)");
  }

  server::DirectoryServer master_;
  std::shared_ptr<ldap::TemplateRegistry> registry_;
};

TEST_F(AnswerTest, AnswerReturnsMatchingPooledEntries) {
  FilterReplica replica(ldap::Schema::default_instance(), registry_);
  const std::size_t id =
      replica.add_query(Query::parse("", Scope::Subtree, "(serialNumber=04*)"));
  replica.load_content(id, master_);

  const Query q = Query::parse("", Scope::Subtree, "(serialNumber=040003)");
  ASSERT_TRUE(replica.handle(q).hit);
  const auto entries = replica.answer(q);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0]->dn(), Dn::parse("cn=e040003,c=us,o=x"));

  // Broader contained query returns the full block.
  EXPECT_EQ(replica.answer(Query::parse("", Scope::Subtree,
                                        "(serialNumber=0400*)"))
                .size(),
            6u);
}

TEST_F(AnswerTest, AnswerHonoursRegion) {
  FilterReplica replica(ldap::Schema::default_instance(), registry_);
  const std::size_t id =
      replica.add_query(Query::parse("", Scope::Subtree, "(serialNumber=04*)"));
  replica.load_content(id, master_);
  EXPECT_TRUE(replica
                  .answer(Query::parse("c=in,o=x", Scope::Subtree,
                                       "(serialNumber=040001)"))
                  .empty());
}

TEST_F(AnswerTest, AnswerProjectsAttributes) {
  FilterReplica replica(ldap::Schema::default_instance(), registry_);
  const std::size_t id =
      replica.add_query(Query::parse("", Scope::Subtree, "(serialNumber=04*)"));
  replica.load_content(id, master_);
  Query q = Query::parse("", Scope::Subtree, "(serialNumber=040001)");
  q.attrs = ldap::AttributeSelection::of({"mail"});
  const auto entries = replica.answer(q);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0]->has_attribute("mail"));
  EXPECT_FALSE(entries[0]->has_attribute("serialnumber"));
}

TEST_F(AnswerTest, EndpointHitsAndRefers) {
  FilterReplica replica(ldap::Schema::default_instance(), registry_);
  const std::size_t id =
      replica.add_query(Query::parse("", Scope::Subtree, "(serialNumber=04*)"));
  replica.load_content(id, master_);
  FilterReplicaEndpoint endpoint("ldap://replica", "ldap://master", replica);
  EXPECT_EQ(endpoint.url(), "ldap://replica");

  const auto hit = endpoint.process_search(
      Query::parse("", Scope::Subtree, "(serialNumber=040002)"));
  EXPECT_TRUE(hit.base_resolved);
  EXPECT_EQ(hit.entries.size(), 1u);
  EXPECT_TRUE(hit.referrals.empty());

  const auto miss = endpoint.process_search(
      Query::parse("", Scope::Subtree, "(serialNumber=990000)"));
  EXPECT_FALSE(miss.base_resolved);
  EXPECT_TRUE(miss.entries.empty());
  ASSERT_EQ(miss.referrals.size(), 1u);
  EXPECT_EQ(miss.referrals[0].url, "ldap://master");
}

TEST_F(AnswerTest, MasterAnswersRootSubtreeSearch) {
  // §3.1.1: null-based subtree searches are the norm; a master holding the
  // whole DIT answers them over all its contexts.
  const auto result =
      master_.search(Query::parse("", Scope::Subtree, "(serialNumber=0400*)"));
  EXPECT_TRUE(result.base_resolved);
  EXPECT_EQ(result.entries.size(), 6u);
  EXPECT_TRUE(result.referrals.empty());
}

TEST_F(AnswerTest, RootOneLevelSearchStillFailsNameResolution) {
  master_.set_default_referral("ldap://superior");
  const auto result =
      master_.search(Query::parse("", Scope::OneLevel, "(objectclass=*)"));
  EXPECT_FALSE(result.base_resolved);
  ASSERT_EQ(result.referrals.size(), 1u);
}

TEST_F(AnswerTest, RootSearchEmitsSubordinateReferrals) {
  server::DirectoryServer partial("ldap://partial");
  server::NamingContext context;
  context.suffix = Dn::parse("o=z");
  context.subordinates.push_back({Dn::parse("c=in,o=z"), "ldap://other"});
  partial.add_context(std::move(context));
  partial.load(make_entry("o=z", {{"objectclass", "organization"}}));
  const auto result =
      partial.search(Query::parse("", Scope::Subtree, "(objectclass=*)"));
  EXPECT_TRUE(result.base_resolved);
  EXPECT_EQ(result.entries.size(), 1u);
  ASSERT_EQ(result.referrals.size(), 1u);
  EXPECT_EQ(result.referrals[0].url, "ldap://other");
}

TEST_F(AnswerTest, SubtreeEndpointServesAndRefers) {
  SubtreeReplica replica;
  replica.add_context({Dn::parse("c=us,o=x"), {}});
  replica.load_content(master_);
  SubtreeReplicaEndpoint endpoint("ldap://subtree-replica", "ldap://master",
                                  replica);

  // Base inside the replicated context: served locally.
  const auto hit = endpoint.process_search(
      Query::parse("c=us,o=x", Scope::Subtree, "(serialNumber=040002)"));
  EXPECT_TRUE(hit.base_resolved);
  ASSERT_EQ(hit.entries.size(), 1u);
  EXPECT_EQ(hit.entries[0]->dn(), Dn::parse("cn=e040002,c=us,o=x"));

  // Null base: the subtree replica cannot answer (section 3.1.1).
  const auto miss = endpoint.process_search(
      Query::parse("", Scope::Subtree, "(serialNumber=040002)"));
  EXPECT_FALSE(miss.base_resolved);
  ASSERT_EQ(miss.referrals.size(), 1u);
  EXPECT_EQ(miss.referrals[0].url, "ldap://master");
}

TEST_F(AnswerTest, SubtreeEndpointFiltersLikeMaster) {
  SubtreeReplica replica;
  replica.add_context({Dn::parse("c=us,o=x"), {}});
  replica.load_content(master_);
  SubtreeReplicaEndpoint endpoint("ldap://subtree-replica", "ldap://master",
                                  replica);

  const auto sorted_dns = [](const server::SearchResult& result) {
    std::vector<std::string> dns;
    for (const ldap::EntryPtr& entry : result.entries) {
      dns.push_back(entry->dn().norm_key());
    }
    std::sort(dns.begin(), dns.end());
    return dns;
  };

  // One filter per predicate kind, plus a negation and a disjunction; mixed
  // case exercises the case-ignore matching rules.
  for (const char* filter :
       {"(mail=*)", "(serialNumber=040003)", "(serialNumber>=040003)",
        "(serialNumber<=040002)", "(mail=E1*)", "(mail=*3@X*)",
        "(!(serialNumber=040001))",
        "(|(serialNumber=040001)(mail=e4@x.com))"}) {
    const Query query = Query::parse("c=us,o=x", Scope::Subtree, filter);
    const server::SearchResult hit = endpoint.process_search(query);
    ASSERT_TRUE(hit.base_resolved) << filter;
    const std::vector<std::string> expected = sorted_dns(master_.search(query));
    EXPECT_FALSE(expected.empty()) << filter;
    EXPECT_EQ(sorted_dns(hit), expected) << filter;
  }
}

}  // namespace
}  // namespace fbdr::replica
