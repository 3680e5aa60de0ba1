#include "subtree_model.h"

#include <gtest/gtest.h>

namespace fbdr::replica {
namespace {

using ldap::Dn;
using ldap::make_entry;
using ldap::Query;
using ldap::Scope;

class SubtreeReplicaTest : public ::testing::Test {
 protected:
  SubtreeReplicaTest() : master_("ldap://master") {
    server::NamingContext context;
    context.suffix = Dn::parse("o=xyz");
    master_.add_context(std::move(context));
    master_.load(make_entry("o=xyz", {{"objectclass", "organization"}}));
    master_.load(make_entry("c=us,o=xyz", {{"objectclass", "country"}}));
    master_.load(make_entry("c=in,o=xyz", {{"objectclass", "country"}}));
    for (int i = 0; i < 4; ++i) {
      master_.load(make_entry("cn=us" + std::to_string(i) + ",c=us,o=xyz",
                              {{"objectclass", "person"}}));
      master_.load(make_entry("cn=in" + std::to_string(i) + ",c=in,o=xyz",
                              {{"objectclass", "person"}}));
    }
  }

  server::DirectoryServer master_;
};

TEST_F(SubtreeReplicaTest, LoadContentCopiesConfiguredSubtrees) {
  SubtreeReplica replica;
  replica.add_context({Dn::parse("c=us,o=xyz"), {}});
  replica.load_content(master_);
  EXPECT_EQ(replica.stored_entries(), 5u);  // c=us + 4 persons
}

TEST_F(SubtreeReplicaTest, HitWhenBaseInsideContext) {
  SubtreeReplica replica;
  replica.add_context({Dn::parse("c=us,o=xyz"), {}});
  const Decision hit =
      replica.handle(Query::parse("cn=us1,c=us,o=xyz", Scope::Base, "(objectclass=*)"));
  EXPECT_TRUE(hit.hit);
  EXPECT_FALSE(hit.answered_by.empty());
}

TEST_F(SubtreeReplicaTest, NullBaseQueryAlwaysMisses) {
  // §3.1.1: root-based queries cannot be answered by proper-subtree replicas.
  SubtreeReplica replica;
  replica.add_context({Dn::parse("c=us,o=xyz"), {}});
  EXPECT_FALSE(replica.handle(Query::parse("", Scope::Subtree, "(cn=us1)")).hit);
}

TEST_F(SubtreeReplicaTest, ReferralCutPointBlocksHit) {
  SubtreeReplica replica;
  replica.add_context(
      {Dn::parse("o=xyz"), {Dn::parse("c=in,o=xyz")}});
  replica.load_content(master_);
  EXPECT_EQ(replica.stored_entries(), 6u);  // everything except c=in subtree
  EXPECT_TRUE(
      replica.handle(Query::parse("c=us,o=xyz", Scope::Subtree, "(a=1)")).hit);
  // §3.1.3: base inside the replica but under a referral point -> miss.
  EXPECT_FALSE(
      replica.handle(Query::parse("cn=in1,c=in,o=xyz", Scope::Base, "(a=1)")).hit);
  // Base at the replica suffix: the query would generate referrals for the
  // subordinate context, so by the isContained algorithm it still "answers"
  // only if no referral applies to the base itself.
  EXPECT_TRUE(replica.handle(Query::parse("o=xyz", Scope::Subtree, "(a=1)")).hit);
}

TEST_F(SubtreeReplicaTest, StatsTrackHitRatio) {
  SubtreeReplica replica;
  replica.add_context({Dn::parse("c=us,o=xyz"), {}});
  replica.handle(Query::parse("c=us,o=xyz", Scope::Subtree, "(a=1)"));
  replica.handle(Query::parse("c=in,o=xyz", Scope::Subtree, "(a=1)"));
  replica.handle(Query::parse("", Scope::Subtree, "(a=1)"));
  EXPECT_EQ(replica.stats().queries, 3u);
  EXPECT_EQ(replica.stats().hits, 1u);
  EXPECT_EQ(replica.stats().referrals, 2u);
  EXPECT_NEAR(replica.stats().hit_ratio(), 1.0 / 3.0, 1e-9);
  replica.reset_stats();
  EXPECT_EQ(replica.stats().queries, 0u);
}

TEST_F(SubtreeReplicaTest, CoversMatchesContainmentDecision) {
  SubtreeReplica replica;
  replica.add_context({Dn::parse("c=us,o=xyz"), {}});
  EXPECT_TRUE(replica.covers(Dn::parse("cn=us0,c=us,o=xyz")));
  EXPECT_FALSE(replica.covers(Dn::parse("cn=in0,c=in,o=xyz")));
  EXPECT_FALSE(replica.covers(Dn::parse("o=xyz")));
}

}  // namespace
}  // namespace fbdr::replica
