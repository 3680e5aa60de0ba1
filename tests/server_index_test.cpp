// Tests for the DIT attribute indexes and the index-accelerated
// DirectoryServer::evaluate path, including index maintenance across every
// update operation.

#include <gtest/gtest.h>

#include "server/directory_server.h"

namespace fbdr::server {
namespace {

using ldap::Dn;
using ldap::make_entry;
using ldap::Query;
using ldap::Scope;

class IndexTest : public ::testing::Test {
 protected:
  IndexTest() : server_("ldap://master") {
    NamingContext context;
    context.suffix = Dn::parse("o=x");
    server_.add_context(std::move(context));
    server_.add_index("serialNumber");
    server_.add_index("mail");
    server_.load(make_entry("o=x", {{"objectclass", "organization"}}));
    for (int i = 0; i < 6; ++i) {
      const std::string serial = "04000" + std::to_string(i);
      server_.load(make_entry("cn=e" + serial + ",o=x",
                              {{"objectclass", "person"},
                               {"serialNumber", serial},
                               {"mail", "e" + std::to_string(i) + "@x.com"}}));
    }
  }

  server::DirectoryServer server_;
};

TEST_F(IndexTest, HasIndexIsCaseInsensitive) {
  EXPECT_TRUE(server_.dit().has_index("serialnumber"));
  EXPECT_TRUE(server_.dit().has_index("SERIALNUMBER"));
  EXPECT_FALSE(server_.dit().has_index("cn"));
}

TEST_F(IndexTest, EqualityLookup) {
  const auto* keys = server_.dit().index_lookup("serialNumber", "040003");
  ASSERT_NE(keys, nullptr);
  ASSERT_EQ(keys->size(), 1u);
  EXPECT_EQ(*keys->begin(), Dn::parse("cn=e040003,o=x").norm_key());
  // Missing value: empty set, not nullptr.
  const auto* none = server_.dit().index_lookup("serialNumber", "999999");
  ASSERT_NE(none, nullptr);
  EXPECT_TRUE(none->empty());
  // Unindexed attribute: nullptr.
  EXPECT_EQ(server_.dit().index_lookup("cn", "e040003"), nullptr);
}

TEST_F(IndexTest, LookupUsesMatchingRule) {
  const auto* keys = server_.dit().index_lookup("mail", "E0@X.COM");
  ASSERT_NE(keys, nullptr);
  EXPECT_EQ(keys->size(), 1u);
}

TEST_F(IndexTest, PrefixLookup) {
  EXPECT_EQ(server_.dit().index_prefix_lookup("serialNumber", "0400").size(), 6u);
  EXPECT_EQ(server_.dit().index_prefix_lookup("serialNumber", "04000").size(), 6u);
  EXPECT_EQ(server_.dit().index_prefix_lookup("serialNumber", "040003").size(), 1u);
  EXPECT_TRUE(server_.dit().index_prefix_lookup("serialNumber", "05").empty());
}

TEST_F(IndexTest, AddIndexOverExistingEntriesBackfills) {
  server_.add_index("cn");
  const auto* keys = server_.dit().index_lookup("cn", "e040000");
  ASSERT_NE(keys, nullptr);
  EXPECT_EQ(keys->size(), 1u);
}

TEST_F(IndexTest, AddMaintainsIndex) {
  server_.add(make_entry("cn=new,o=x",
                         {{"objectclass", "person"}, {"serialNumber", "050000"}}));
  EXPECT_EQ(server_.dit().index_lookup("serialNumber", "050000")->size(), 1u);
}

TEST_F(IndexTest, RemoveMaintainsIndex) {
  server_.remove(Dn::parse("cn=e040000,o=x"));
  EXPECT_TRUE(server_.dit().index_lookup("serialNumber", "040000")->empty());
}

TEST_F(IndexTest, ModifyMaintainsIndex) {
  server_.modify(Dn::parse("cn=e040000,o=x"),
                 {{Modification::Op::Replace, "serialNumber", {"060000"}}});
  EXPECT_TRUE(server_.dit().index_lookup("serialNumber", "040000")->empty());
  EXPECT_EQ(server_.dit().index_lookup("serialNumber", "060000")->size(), 1u);
}

TEST_F(IndexTest, MoveMaintainsIndex) {
  server_.modify_dn(Dn::parse("cn=e040000,o=x"), Dn::parse("cn=renamed,o=x"));
  const auto* keys = server_.dit().index_lookup("serialNumber", "040000");
  ASSERT_NE(keys, nullptr);
  ASSERT_EQ(keys->size(), 1u);
  EXPECT_EQ(*keys->begin(), Dn::parse("cn=renamed,o=x").norm_key());
}

TEST_F(IndexTest, EvaluateUsesEqualityIndex) {
  const auto entries =
      server_.evaluate(Query::parse("", Scope::Subtree, "(serialNumber=040002)"));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0]->dn(), Dn::parse("cn=e040002,o=x"));
}

TEST_F(IndexTest, EvaluateUsesPrefixIndex) {
  EXPECT_EQ(
      server_.evaluate(Query::parse("", Scope::Subtree, "(serialNumber=0400*)"))
          .size(),
      6u);
}

TEST_F(IndexTest, EvaluateHonoursRegionAndResidualFilter) {
  // Region: base scope on one entry.
  EXPECT_EQ(server_
                .evaluate(Query::parse("cn=e040001,o=x", Scope::Base,
                                       "(serialNumber=0400*)"))
                .size(),
            1u);
  EXPECT_TRUE(server_
                  .evaluate(Query::parse("o=other", Scope::Subtree,
                                         "(serialNumber=0400*)"))
                  .empty());
  // Residual conjunct on top of the indexed predicate.
  EXPECT_EQ(server_
                .evaluate(Query::parse(
                    "", Scope::Subtree,
                    "(&(serialNumber=0400*)(mail=e3@x.com))"))
                .size(),
            1u);
}

TEST_F(IndexTest, EvaluateFallsBackToScanWithoutIndex) {
  EXPECT_EQ(
      server_.evaluate(Query::parse("", Scope::Subtree, "(cn=e040004)")).size(),
      1u);
  EXPECT_EQ(
      server_.evaluate(Query::parse("", Scope::Subtree, "(objectclass=person)"))
          .size(),
      6u);
}

TEST_F(IndexTest, EvaluateIndexedInsideAnd) {
  const auto entries = server_.evaluate(Query::parse(
      "", Scope::Subtree, "(&(objectclass=person)(serialNumber=040005))"));
  ASSERT_EQ(entries.size(), 1u);
}

TEST_F(IndexTest, EvaluateOrDoesNotUseIndexButIsCorrect) {
  // An OR cannot be driven by a single candidate set; fall back to scan.
  EXPECT_EQ(server_
                .evaluate(Query::parse(
                    "", Scope::Subtree,
                    "(|(serialNumber=040000)(serialNumber=040001))"))
                .size(),
            2u);
}

TEST_F(IndexTest, EvaluateReturnsAnEntryOnceWhenSeveralValuesShareThePrefix) {
  server_.add(make_entry("cn=multi,o=x",
                         {{"objectclass", "person"},
                          {"mail", "ab1@x.com"},
                          {"mail", "ab2@x.com"}}));
  const Query query = Query::parse("", Scope::Subtree, "(mail=ab*)");
  // The prefix range holds two postings of the one entry.
  EXPECT_EQ(server_.dit().index_prefix_lookup("mail", "ab").size(), 2u);
  const auto entries = server_.evaluate(query);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0]->dn(), Dn::parse("cn=multi,o=x"));
  EXPECT_EQ(entries.size(), server_.search(query).entries.size());
}

TEST_F(IndexTest, EvaluateResultsComeInNormKeyOrder) {
  for (const Query& query :
       {Query::parse("", Scope::Subtree, "(serialNumber=0400*)"),
        Query::parse("o=x", Scope::OneLevel, "(serialNumber=0400*)"),
        Query::parse("o=x", Scope::Subtree, "(objectclass=person)")}) {
    const auto entries = server_.evaluate(query);
    ASSERT_EQ(entries.size(), 6u) << query.to_string();
    for (std::size_t i = 1; i < entries.size(); ++i) {
      EXPECT_LT(entries[i - 1]->dn().norm_key(), entries[i]->dn().norm_key())
          << query.to_string();
    }
  }
}

TEST_F(IndexTest, ModifyOfUnindexedAttributesKeepsPostings) {
  const Dn dn = Dn::parse("cn=e040002,o=x");
  server_.modify(dn, {{Modification::Op::Replace, "telephoneNumber", {"555"}},
                      {Modification::Op::AddValues, "description", {"d"}}});
  const auto* serial = server_.dit().index_lookup("serialNumber", "040002");
  ASSERT_NE(serial, nullptr);
  ASSERT_EQ(serial->size(), 1u);
  EXPECT_EQ(serial->front(), dn.norm_key());
  const auto* mail = server_.dit().index_lookup("mail", "e2@x.com");
  ASSERT_NE(mail, nullptr);
  EXPECT_EQ(mail->size(), 1u);
}

TEST_F(IndexTest, ReplaceOfOneIndexedAttributeMovesOnlyItsPostings) {
  const Dn dn = Dn::parse("cn=e040002,o=x");
  server_.modify(dn, {{Modification::Op::Replace, "MAIL", {"moved@x.com"}},
                      {Modification::Op::Replace, "title", {"t"}}});
  EXPECT_TRUE(server_.dit().index_lookup("mail", "e2@x.com")->empty());
  const auto* moved = server_.dit().index_lookup("mail", "moved@x.com");
  ASSERT_EQ(moved->size(), 1u);
  EXPECT_EQ(moved->front(), dn.norm_key());
  EXPECT_EQ(server_.dit().index_lookup("serialNumber", "040002")->size(), 1u);
  // Deleting every value drops the posting, like a delete of the entry.
  server_.modify(dn, {{Modification::Op::DeleteValues, "mail", {}}});
  EXPECT_TRUE(server_.dit().index_lookup("mail", "moved@x.com")->empty());
  EXPECT_EQ(server_.dit().index_lookup("serialNumber", "040002")->size(), 1u);
}

TEST(RegionCovers, AllScopes) {
  const Query base = Query::parse("c=us,o=x", Scope::Base, "(a=1)");
  EXPECT_TRUE(base.region_covers(Dn::parse("c=us,o=x")));
  EXPECT_FALSE(base.region_covers(Dn::parse("cn=j,c=us,o=x")));

  const Query one = Query::parse("c=us,o=x", Scope::OneLevel, "(a=1)");
  EXPECT_FALSE(one.region_covers(Dn::parse("c=us,o=x")));
  EXPECT_TRUE(one.region_covers(Dn::parse("cn=j,c=us,o=x")));
  EXPECT_FALSE(one.region_covers(Dn::parse("cn=j,ou=r,c=us,o=x")));

  const Query sub = Query::parse("c=us,o=x", Scope::Subtree, "(a=1)");
  EXPECT_TRUE(sub.region_covers(Dn::parse("c=us,o=x")));
  EXPECT_TRUE(sub.region_covers(Dn::parse("cn=j,ou=r,c=us,o=x")));
  EXPECT_FALSE(sub.region_covers(Dn::parse("c=in,o=x")));
}

}  // namespace
}  // namespace fbdr::server
