#include "subtree_model.h"

#include <gtest/gtest.h>

namespace fbdr::containment {
namespace {

using ldap::Dn;

ReplicationContext context(const char* suffix,
                           std::initializer_list<const char*> referrals = {}) {
  ReplicationContext c;
  c.suffix = Dn::parse(suffix);
  for (const char* r : referrals) c.referrals.push_back(Dn::parse(r));
  return c;
}

TEST(SubtreeContainment, BaseEqualsSuffix) {
  const std::vector<ReplicationContext> contexts = {context("o=xyz")};
  EXPECT_TRUE(subtree_is_contained(Dn::parse("o=xyz"), contexts));
}

TEST(SubtreeContainment, BaseInsideCompleteContext) {
  const std::vector<ReplicationContext> contexts = {context("o=xyz")};
  EXPECT_TRUE(subtree_is_contained(Dn::parse("c=us,o=xyz"), contexts));
  EXPECT_TRUE(subtree_is_contained(Dn::parse("cn=j,ou=r,c=us,o=xyz"), contexts));
}

TEST(SubtreeContainment, BaseOutsideAllContexts) {
  const std::vector<ReplicationContext> contexts = {context("c=us,o=xyz")};
  EXPECT_FALSE(subtree_is_contained(Dn::parse("o=xyz"), contexts));
  EXPECT_FALSE(subtree_is_contained(Dn::parse("c=in,o=xyz"), contexts));
  EXPECT_FALSE(subtree_is_contained(Dn::parse("o=abc"), contexts));
}

TEST(SubtreeContainment, ReferralCutsOffSubordinateRegion) {
  // Figure 2's hostA: context o=xyz with referrals for the research and
  // india subtrees held elsewhere.
  const std::vector<ReplicationContext> contexts = {
      context("o=xyz", {"ou=research,c=us,o=xyz", "c=in,o=xyz"})};

  EXPECT_TRUE(subtree_is_contained(Dn::parse("o=xyz"), contexts));
  EXPECT_TRUE(subtree_is_contained(Dn::parse("c=us,o=xyz"), contexts));
  // Bases at or under the referral objects are not answerable here.
  EXPECT_FALSE(subtree_is_contained(Dn::parse("ou=research,c=us,o=xyz"), contexts));
  EXPECT_FALSE(
      subtree_is_contained(Dn::parse("cn=j,ou=research,c=us,o=xyz"), contexts));
  EXPECT_FALSE(subtree_is_contained(Dn::parse("c=in,o=xyz"), contexts));
  EXPECT_FALSE(subtree_is_contained(Dn::parse("cn=k,c=in,o=xyz"), contexts));
}

TEST(SubtreeContainment, MultipleContexts) {
  const std::vector<ReplicationContext> contexts = {
      context("ou=research,c=us,o=xyz"),
      context("c=in,o=xyz"),
  };
  EXPECT_TRUE(subtree_is_contained(Dn::parse("ou=research,c=us,o=xyz"), contexts));
  EXPECT_TRUE(subtree_is_contained(Dn::parse("cn=k,c=in,o=xyz"), contexts));
  EXPECT_FALSE(subtree_is_contained(Dn::parse("c=us,o=xyz"), contexts));
  EXPECT_FALSE(subtree_is_contained(Dn::parse("o=xyz"), contexts));
}

TEST(SubtreeContainment, EmptyReplicaAnswersNothing) {
  EXPECT_FALSE(subtree_is_contained(Dn::parse("o=xyz"), {}));
}

TEST(SubtreeContainment, NullBaseRequiresNullSuffixContext) {
  // §3.1.1: root-based searches can never be answered by a replica holding
  // proper subtrees.
  const std::vector<ReplicationContext> contexts = {context("o=xyz")};
  EXPECT_FALSE(subtree_is_contained(Dn(), contexts));
  // A replica of the entire DIT (null suffix) can.
  const std::vector<ReplicationContext> full = {context("")};
  EXPECT_TRUE(subtree_is_contained(Dn(), full));
  EXPECT_TRUE(subtree_is_contained(Dn::parse("cn=x,o=xyz"), full));
}

TEST(SubtreeContainment, ToStringListsSuffixAndReferrals) {
  const ReplicationContext c =
      context("o=xyz", {"c=in,o=xyz"});
  EXPECT_EQ(c.to_string(), "suffix='o=xyz' referral='c=in,o=xyz'");
}

}  // namespace
}  // namespace fbdr::containment
