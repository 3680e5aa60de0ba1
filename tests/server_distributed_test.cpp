// Reproduces the distributed operation processing of §2.3 / Figure 2: three
// servers jointly serving o=xyz, a client chasing referrals, and the
// four-round-trip cost of one subtree search started at the wrong server.

#include <gtest/gtest.h>

#include "ldap/error.h"
#include "server/distributed.h"

namespace fbdr::server {
namespace {

using ldap::Dn;
using ldap::make_entry;
using ldap::Query;
using ldap::Scope;

class Figure2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    // hostA: o=xyz with referrals for hostB and hostC.
    auto host_a = std::make_shared<DirectoryServer>("ldap://hostA");
    NamingContext a;
    a.suffix = Dn::parse("o=xyz");
    a.subordinates.push_back({Dn::parse("ou=research,c=us,o=xyz"), "ldap://hostB"});
    a.subordinates.push_back({Dn::parse("c=in,o=xyz"), "ldap://hostC"});
    host_a->add_context(std::move(a));
    host_a->load(make_entry("o=xyz", {{"objectclass", "organization"}}));
    host_a->load(make_entry("c=us,o=xyz", {{"objectclass", "country"}}));
    host_a->load(make_entry("cn=Fred Jones,c=us,o=xyz",
                            {{"objectclass", "inetOrgPerson"}, {"cn", "Fred Jones"}}));

    // hostB: the research naming context; default referral to hostA.
    auto host_b = std::make_shared<DirectoryServer>("ldap://hostB");
    NamingContext b;
    b.suffix = Dn::parse("ou=research,c=us,o=xyz");
    host_b->add_context(std::move(b));
    host_b->set_default_referral("ldap://hostA");
    host_b->load(make_entry("ou=research,c=us,o=xyz",
                            {{"objectclass", "organizationalUnit"}}));
    host_b->load(make_entry("cn=John Doe,ou=research,c=us,o=xyz",
                            {{"objectclass", "inetOrgPerson"}, {"cn", "John Doe"}}));
    host_b->load(make_entry("cn=John Smith,ou=research,c=us,o=xyz",
                            {{"objectclass", "inetOrgPerson"}, {"cn", "John Smith"}}));

    // hostC: the india naming context; default referral to hostA.
    auto host_c = std::make_shared<DirectoryServer>("ldap://hostC");
    NamingContext c;
    c.suffix = Dn::parse("c=in,o=xyz");
    host_c->add_context(std::move(c));
    host_c->set_default_referral("ldap://hostA");
    host_c->load(make_entry("c=in,o=xyz", {{"objectclass", "country"}}));
    host_c->load(make_entry("cn=Carl Miller,c=in,o=xyz",
                            {{"objectclass", "inetOrgPerson"}, {"cn", "Carl Miller"}}));

    servers_.add(host_a);
    servers_.add(host_b);
    servers_.add(host_c);
  }

  ServerMap servers_;
};

TEST_F(Figure2Test, SubtreeSearchFromWrongServerTakesFourRoundTrips) {
  DistributedClient client(servers_);
  const auto entries = client.search(
      "ldap://hostB", Query::parse("o=xyz", Scope::Subtree, "(objectclass=*)"));
  // All 8 entries across the three servers.
  EXPECT_EQ(entries.size(), 8u);
  // Figure 2: "It requires four round trips between client and the servers
  // to evaluate one request."
  EXPECT_EQ(client.stats().round_trips, 4u);
}

TEST_F(Figure2Test, SearchFromHoldingServerTakesThreeRoundTrips) {
  DistributedClient client(servers_);
  const auto entries = client.search(
      "ldap://hostA", Query::parse("o=xyz", Scope::Subtree, "(objectclass=*)"));
  EXPECT_EQ(entries.size(), 8u);
  EXPECT_EQ(client.stats().round_trips, 3u);  // hostA + 2 continuations
}

TEST_F(Figure2Test, LocalSearchIsOneRoundTrip) {
  DistributedClient client(servers_);
  const auto entries = client.search(
      "ldap://hostB",
      Query::parse("ou=research,c=us,o=xyz", Scope::Subtree, "(objectclass=*)"));
  EXPECT_EQ(entries.size(), 3u);
  EXPECT_EQ(client.stats().round_trips, 1u);
}

TEST_F(Figure2Test, FilteredDistributedSearch) {
  DistributedClient client(servers_);
  const auto entries = client.search(
      "ldap://hostB", Query::parse("o=xyz", Scope::Subtree, "(cn=John*)"));
  EXPECT_EQ(entries.size(), 2u);  // John Doe, John Smith
  EXPECT_EQ(client.stats().round_trips, 4u);  // referral chasing unchanged
}

TEST_F(Figure2Test, TrafficCountsEntriesAndReferrals) {
  DistributedClient client(servers_);
  client.search("ldap://hostB",
                Query::parse("o=xyz", Scope::Subtree, "(objectclass=*)"));
  EXPECT_EQ(client.stats().entries, 8u);
  // 1 default referral from hostB + 2 subordinate referrals from hostA.
  EXPECT_EQ(client.stats().referrals, 3u);
  EXPECT_EQ(client.stats().pdus, 11u);
  EXPECT_EQ(client.stats().bytes, 0u) << "a direct client moves no bytes";
}

TEST_F(Figure2Test, UnknownServerUrlThrows) {
  DistributedClient client(servers_);
  EXPECT_THROW(client.search("ldap://nowhere",
                             Query::parse("o=xyz", Scope::Subtree, "(a=1)")),
               ldap::ProtocolError);
}

TEST_F(Figure2Test, ReferralLoopIsBounded) {
  // Two servers pointing default referrals at each other.
  auto s1 = std::make_shared<DirectoryServer>("ldap://loop1");
  s1->set_default_referral("ldap://loop2");
  auto s2 = std::make_shared<DirectoryServer>("ldap://loop2");
  s2->set_default_referral("ldap://loop1");
  ServerMap loopy;
  loopy.add(s1);
  loopy.add(s2);
  DistributedClient client(loopy);
  client.set_max_hops(8);
  EXPECT_THROW(client.search("ldap://loop1",
                             Query::parse("o=xyz", Scope::Subtree, "(a=1)")),
               ldap::ProtocolError);
}

TEST_F(Figure2Test, ServerMapLookup) {
  EXPECT_NE(servers_.find("ldap://hostA"), nullptr);
  EXPECT_EQ(servers_.find("ldap://hostZ"), nullptr);
  EXPECT_EQ(servers_.size(), 3u);
}

}  // namespace
}  // namespace fbdr::server
