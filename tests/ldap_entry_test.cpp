#include "ldap/entry.h"

#include <gtest/gtest.h>

namespace fbdr::ldap {
namespace {

Entry person() {
  Entry e(Dn::parse("cn=John Doe,ou=research,c=us,o=xyz"));
  e.add_value("objectclass", "inetOrgPerson");
  e.add_value("cn", "John Doe");
  e.add_value("cn", "John M Doe");
  e.add_value("mail", "john@us.xyz.com");
  e.add_value("serialNumber", "0456");
  e.add_value("departmentNumber", "80");
  return e;
}

TEST(Entry, AttributeNamesAreLowercased) {
  const Entry e = person();
  EXPECT_TRUE(e.has_attribute("serialnumber"));
  EXPECT_TRUE(e.has_attribute("SERIALNUMBER"));
  const auto names = e.attribute_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "serialnumber"), names.end());
}

TEST(Entry, MultiValuedAttributeKeepsAllValues) {
  const Entry e = person();
  const auto* cn = e.get("cn");
  ASSERT_NE(cn, nullptr);
  EXPECT_EQ(cn->size(), 2u);
}

TEST(Entry, AddValueCollapsesDuplicatesUnderMatchingRule) {
  Entry e(Dn::parse("cn=x,o=xyz"));
  e.add_value("cn", "John");
  e.add_value("cn", "JOHN");  // equal under caseIgnoreMatch
  ASSERT_NE(e.get("cn"), nullptr);
  EXPECT_EQ(e.get("cn")->size(), 1u);
}

TEST(Entry, HasValueUsesMatchingRule) {
  const Entry e = person();
  EXPECT_TRUE(e.has_value("mail", "JOHN@US.XYZ.COM"));
  EXPECT_FALSE(e.has_value("mail", "jane@us.xyz.com"));
  EXPECT_FALSE(e.has_value("absent", "x"));
}

TEST(Entry, FirstReturnsFirstValueOrEmpty) {
  const Entry e = person();
  EXPECT_EQ(e.first("serialnumber"), "0456");
  EXPECT_EQ(e.first("nonexistent"), "");
}

TEST(Entry, RemoveValueDropsAttributeWhenLastValueGoes) {
  Entry e = person();
  EXPECT_TRUE(e.remove_value("serialNumber", "0456"));
  EXPECT_FALSE(e.has_attribute("serialnumber"));
  EXPECT_FALSE(e.remove_value("serialNumber", "0456"));
}

TEST(Entry, RemoveOneOfSeveralValuesKeepsAttribute) {
  Entry e = person();
  EXPECT_TRUE(e.remove_value("cn", "John M Doe"));
  ASSERT_TRUE(e.has_attribute("cn"));
  EXPECT_EQ(e.get("cn")->size(), 1u);
}

TEST(Entry, SetValuesReplacesAndEmptyErases) {
  Entry e = person();
  e.set_values("mail", {"a@xyz.com", "b@xyz.com"});
  EXPECT_EQ(e.get("mail")->size(), 2u);
  e.set_values("mail", {});
  EXPECT_FALSE(e.has_attribute("mail"));
}

TEST(Entry, RemoveAttribute) {
  Entry e = person();
  EXPECT_TRUE(e.remove_attribute("departmentNumber"));
  EXPECT_FALSE(e.remove_attribute("departmentNumber"));
}

TEST(Entry, ObjectClasses) {
  const Entry e = person();
  ASSERT_EQ(e.object_classes().size(), 1u);
  EXPECT_EQ(e.object_classes()[0], "inetOrgPerson");
  EXPECT_TRUE(Entry(Dn::parse("o=x")).object_classes().empty());
}

TEST(Entry, ApproxSizeCountsDnNamesAndValues) {
  Entry e(Dn::parse("o=xyz"));
  e.add_value("o", "xyz");
  // dn "o=xyz" (5) + "o" + "xyz" + 2 separators = 11
  EXPECT_EQ(e.approx_size_bytes(), 11u);
}

TEST(Entry, EqualityComparesDnAndAttributes) {
  const Entry a = person();
  Entry b = person();
  EXPECT_EQ(a, b);
  b.add_value("title", "engineer");
  EXPECT_NE(a, b);
}

TEST(MakeEntry, BuildsSharedImmutableEntry) {
  const EntryPtr e = make_entry("cn=Carl Miller,o=xyz",
                                {{"objectclass", "person"}, {"cn", "Carl Miller"}});
  EXPECT_EQ(e->dn(), Dn::parse("cn=Carl Miller,o=xyz"));
  EXPECT_TRUE(e->has_value("cn", "carl miller"));
}

}  // namespace
}  // namespace fbdr::ldap
