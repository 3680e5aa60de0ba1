#include "ldap/dn.h"

#include <gtest/gtest.h>

#include "ldap/error.h"

namespace fbdr::ldap {
namespace {

TEST(DnParse, NullDnFromEmptyString) {
  const Dn dn = Dn::parse("");
  EXPECT_TRUE(dn.is_root());
  EXPECT_EQ(dn.depth(), 0u);
  EXPECT_EQ(dn.to_string(), "");
}

TEST(DnParse, SingleRdn) {
  const Dn dn = Dn::parse("o=xyz");
  EXPECT_EQ(dn.depth(), 1u);
  EXPECT_EQ(dn.leaf_rdn().type(), "o");
  EXPECT_EQ(dn.leaf_rdn().value(), "xyz");
}

TEST(DnParse, MultiComponentLeafFirstOrder) {
  const Dn dn = Dn::parse("cn=John Doe,ou=research,c=us,o=xyz");
  ASSERT_EQ(dn.depth(), 4u);
  // Internal order is root-to-leaf.
  EXPECT_EQ(dn.rdns()[0].type(), "o");
  EXPECT_EQ(dn.rdns()[1].type(), "c");
  EXPECT_EQ(dn.rdns()[2].type(), "ou");
  EXPECT_EQ(dn.rdns()[3].type(), "cn");
  EXPECT_EQ(dn.to_string(), "cn=John Doe,ou=research,c=us,o=xyz");
}

TEST(DnParse, WhitespaceAroundComponentsIsTrimmed) {
  const Dn a = Dn::parse("cn=John Doe, ou=research , o=xyz");
  const Dn b = Dn::parse("cn=John Doe,ou=research,o=xyz");
  EXPECT_EQ(a, b);
}

TEST(DnParse, AttributeTypeIsCaseInsensitive) {
  EXPECT_EQ(Dn::parse("CN=John,O=xyz"), Dn::parse("cn=John,o=xyz"));
}

TEST(DnParse, ValueComparisonIsCaseInsensitive) {
  EXPECT_EQ(Dn::parse("cn=JOHN,o=xyz"), Dn::parse("cn=john,o=XYZ"));
}

TEST(DnParse, OriginalCasePreservedInDisplayForm) {
  EXPECT_EQ(Dn::parse("cn=John Doe,o=XYZ").to_string(), "cn=John Doe,o=XYZ");
}

TEST(DnParse, EscapedCommaStaysInValue) {
  const Dn dn = Dn::parse("cn=Doe\\, John,o=xyz");
  ASSERT_EQ(dn.depth(), 2u);
  EXPECT_EQ(dn.leaf_rdn().value(), "Doe, John");
}

TEST(DnParse, EscapedValuesRoundTripThroughToString) {
  for (const char* text : {"cn=Doe\\, John,o=xyz", "cn=a\\\\b,o=xyz",
                           "cn=x\\+y,o=xyz"}) {
    const Dn dn = Dn::parse(text);
    const Dn reparsed = Dn::parse(dn.to_string());
    EXPECT_EQ(dn, reparsed) << text << " -> " << dn.to_string();
    EXPECT_EQ(dn.depth(), reparsed.depth());
  }
  // Distinct DNs must have distinct normalized keys even with separators
  // embedded in values.
  EXPECT_NE(Dn::parse("cn=a\\,b=c,o=xyz").norm_key(),
            Dn::parse("cn=a,b=c,o=xyz").norm_key());
}

TEST(DnParse, MalformedInputsThrow) {
  EXPECT_THROW(Dn::parse("no-equals-sign"), ParseError);
  EXPECT_THROW(Dn::parse("=value,o=xyz"), ParseError);
  EXPECT_THROW(Dn::parse("cn=,o=xyz"), ParseError);
  EXPECT_THROW(Dn::parse("cn=a,,o=xyz"), ParseError);
  EXPECT_THROW(Dn::parse("cn=a\\"), ParseError);
}

TEST(DnHierarchy, ParentStripsLeafRdn) {
  const Dn dn = Dn::parse("cn=John,ou=research,o=xyz");
  EXPECT_EQ(dn.parent(), Dn::parse("ou=research,o=xyz"));
  EXPECT_EQ(dn.parent().parent(), Dn::parse("o=xyz"));
  EXPECT_TRUE(dn.parent().parent().parent().is_root());
}

TEST(DnHierarchy, ParentOfRootThrows) {
  EXPECT_THROW(Dn().parent(), OperationError);
}

TEST(DnHierarchy, ChildAppendsRdn) {
  const Dn base = Dn::parse("o=xyz");
  const Dn child = base.child(Rdn("ou", "research"));
  EXPECT_EQ(child, Dn::parse("ou=research,o=xyz"));
}

TEST(DnHierarchy, AncestorOf) {
  const Dn root;
  const Dn org = Dn::parse("o=xyz");
  const Dn country = Dn::parse("c=us,o=xyz");
  const Dn person = Dn::parse("cn=John,ou=research,c=us,o=xyz");

  EXPECT_TRUE(root.is_ancestor_of(org));
  EXPECT_TRUE(root.is_ancestor_of(person));
  EXPECT_TRUE(org.is_ancestor_of(country));
  EXPECT_TRUE(org.is_ancestor_of(person));
  EXPECT_TRUE(country.is_ancestor_of(person));

  EXPECT_FALSE(person.is_ancestor_of(country));
  EXPECT_FALSE(org.is_ancestor_of(org));            // strict
  EXPECT_FALSE(country.is_ancestor_of(Dn::parse("c=in,o=xyz")));
  EXPECT_FALSE(Dn::parse("c=us,o=abc").is_ancestor_of(person));
}

TEST(DnHierarchy, AncestorOrSelfIncludesEquality) {
  const Dn org = Dn::parse("o=xyz");
  EXPECT_TRUE(org.is_ancestor_or_self(org));
  EXPECT_TRUE(org.is_ancestor_or_self(Dn::parse("c=us,o=xyz")));
  EXPECT_FALSE(Dn::parse("c=us,o=xyz").is_ancestor_or_self(org));
}

TEST(DnHierarchy, IsSuffixMatchesPaperSemantics) {
  // Paper §3.4.1: isSuffix(a, b) is TRUE iff a is an ancestor of b.
  EXPECT_TRUE(is_suffix(Dn::parse("o=xyz"), Dn::parse("c=us,o=xyz")));
  EXPECT_FALSE(is_suffix(Dn::parse("c=us,o=xyz"), Dn::parse("o=xyz")));
  EXPECT_FALSE(is_suffix(Dn::parse("o=xyz"), Dn::parse("o=xyz")));
}

TEST(DnHierarchy, IsParent) {
  EXPECT_TRUE(is_parent(Dn::parse("o=xyz"), Dn::parse("c=us,o=xyz")));
  EXPECT_FALSE(is_parent(Dn::parse("o=xyz"),
                         Dn::parse("ou=research,c=us,o=xyz")));
  EXPECT_TRUE(is_parent(Dn(), Dn::parse("o=xyz")));
}

TEST(DnRebase, MovesSubtreePrefix) {
  const Dn dn = Dn::parse("cn=John,ou=research,c=us,o=xyz");
  const Dn rebased = dn.rebase(Dn::parse("ou=research,c=us,o=xyz"),
                               Dn::parse("ou=labs,c=us,o=xyz"));
  EXPECT_EQ(rebased, Dn::parse("cn=John,ou=labs,c=us,o=xyz"));
}

TEST(DnRebase, SelfRebaseReplacesWholeDn) {
  const Dn dn = Dn::parse("ou=research,o=xyz");
  EXPECT_EQ(dn.rebase(dn, Dn::parse("ou=labs,o=xyz")), Dn::parse("ou=labs,o=xyz"));
}

TEST(DnRebase, NonAncestorBaseThrows) {
  const Dn dn = Dn::parse("cn=John,o=xyz");
  EXPECT_THROW(dn.rebase(Dn::parse("o=abc"), Dn::parse("o=def")), OperationError);
}

TEST(DnOrdering, NormKeyGivesDeterministicOrdering) {
  const Dn a = Dn::parse("c=in,o=xyz");
  const Dn b = Dn::parse("c=us,o=xyz");
  EXPECT_TRUE(a < b || b < a);
  EXPECT_FALSE(a < a);
}

TEST(DnHash, EqualDnsHashEqual) {
  const DnHash hash;
  EXPECT_EQ(hash(Dn::parse("CN=John,O=xyz")), hash(Dn::parse("cn=john,o=XYZ")));
}

TEST(DnDepth, CountsComponents) {
  EXPECT_EQ(Dn().depth(), 0u);
  EXPECT_EQ(Dn::parse("o=xyz").depth(), 1u);
  EXPECT_EQ(Dn::parse("cn=a,ou=b,o=c").depth(), 3u);
}

TEST(DnRep, CopiesShareOneRepresentation) {
  const Dn a = Dn::parse("cn=John,ou=research,o=xyz");
  const Dn b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  Dn c;
  c = b;
  EXPECT_EQ(&a.to_string(), &b.to_string());
  EXPECT_EQ(&a.norm_key(), &c.norm_key());
  EXPECT_EQ(&a.rdns(), &c.rdns());
  EXPECT_EQ(a, c);
}

TEST(DnRep, SeparatelyParsedEqualDnsCompareAndOrderEqual) {
  const Dn a = Dn::parse("CN=John,OU=Research,O=xyz");
  const Dn b = Dn::parse("cn=john, ou=research ,o=XYZ");
  EXPECT_NE(&a.to_string(), &b.to_string());  // two representations
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a != b);
  EXPECT_FALSE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_EQ(a.norm_key(), b.norm_key());
  EXPECT_EQ(DnHash{}(a), DnHash{}(b));
  EXPECT_EQ(a.to_string(), "cn=John,ou=Research,o=xyz");  // values keep case
  EXPECT_EQ(b.to_string(), "cn=john,ou=research,o=XYZ");
}

TEST(DnRep, NullDnIsTheSameEveryWayItIsMade) {
  const Dn made;
  const Dn parsed = Dn::parse("  ");
  const Dn built = Dn::from_rdns({});
  const Dn stripped = Dn::parse("o=xyz").parent();
  for (const Dn* dn : {&made, &parsed, &built, &stripped}) {
    EXPECT_TRUE(dn->is_root());
    EXPECT_EQ(dn->depth(), 0u);
    EXPECT_TRUE(dn->rdns().empty());
    EXPECT_EQ(dn->to_string(), "");
    EXPECT_EQ(dn->norm_key(), "");
    EXPECT_EQ(*dn, made);
    EXPECT_FALSE(*dn < made);
    EXPECT_TRUE(*dn < Dn::parse("o=xyz"));
    EXPECT_TRUE(dn->is_ancestor_of(Dn::parse("o=xyz")));
    EXPECT_FALSE(dn->is_ancestor_of(made));
    EXPECT_THROW((void)dn->leaf_rdn(), OperationError);
  }
  EXPECT_NE(made, Dn::parse("o=xyz"));
}

TEST(DnRep, DerivedDnsLeaveTheirSourceUnchanged) {
  const Dn dn = Dn::parse("cn=John,ou=Research,o=xyz");
  const Dn copy = dn;  // NOLINT(performance-unnecessary-copy-initialization)
  const Dn parent = dn.parent();
  const Dn child = dn.child(Rdn("uid", "J1"));
  const Dn moved = dn.rebase(Dn::parse("ou=research,o=xyz"), Dn::parse("o=abc"));
  EXPECT_EQ(dn.to_string(), "cn=John,ou=Research,o=xyz");
  EXPECT_EQ(&dn.to_string(), &copy.to_string());
  EXPECT_EQ(parent.to_string(), "ou=Research,o=xyz");
  EXPECT_TRUE(parent.is_parent_of(dn));
  EXPECT_EQ(child.to_string(), "uid=J1,cn=John,ou=Research,o=xyz");
  EXPECT_EQ(child.parent(), dn);
  EXPECT_TRUE(dn.is_parent_of(child));
  EXPECT_EQ(moved.to_string(), "cn=John,o=abc");
  EXPECT_EQ(Dn().child(Rdn("o", "xyz")), Dn::parse("o=xyz"));
  EXPECT_EQ(dn.rebase(Dn(), Dn::parse("o=top")),
            Dn::parse("cn=John,ou=Research,o=xyz,o=top"));
}

}  // namespace
}  // namespace fbdr::ldap
