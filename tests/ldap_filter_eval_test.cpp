#include "filter_eval.h"

#include <gtest/gtest.h>

#include <ostream>

#include "ldap/error.h"
#include "ldap/filter_parser.h"

namespace fbdr::ldap {
namespace {

class FilterEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    entry_.set_dn(Dn::parse("cn=John Doe,ou=research,c=us,o=xyz"));
    entry_.add_value("objectclass", "inetOrgPerson");
    entry_.add_value("cn", "John Doe");
    entry_.add_value("cn", "John M Doe");
    entry_.add_value("sn", "Doe");
    entry_.add_value("givenName", "John");
    entry_.add_value("mail", "john@us.xyz.com");
    entry_.add_value("serialNumber", "041234");
    entry_.add_value("departmentNumber", "2406");
    entry_.add_value("age", "30");
  }

  bool eval(const char* filter) const {
    return matches(*parse_filter(filter), entry_);
  }

  Entry entry_;
};

TEST_F(FilterEvalTest, EqualityMatch) {
  EXPECT_TRUE(eval("(sn=Doe)"));
  EXPECT_TRUE(eval("(sn=doe)"));  // caseIgnoreMatch
  EXPECT_FALSE(eval("(sn=Smith)"));
}

TEST_F(FilterEvalTest, EqualityOnMultiValuedAttribute) {
  EXPECT_TRUE(eval("(cn=John Doe)"));
  EXPECT_TRUE(eval("(cn=John M Doe)"));
  EXPECT_FALSE(eval("(cn=John Q Doe)"));
}

TEST_F(FilterEvalTest, AbsentAttributeIsNonMatch) {
  EXPECT_FALSE(eval("(telephoneNumber=123)"));
  EXPECT_FALSE(eval("(telephoneNumber=*)"));
}

TEST_F(FilterEvalTest, NotOfAbsentAttributeMatches) {
  // Classic two-valued collapse: (!(telephoneNumber=123)) matches an entry
  // with no telephoneNumber.
  EXPECT_TRUE(eval("(!(telephoneNumber=123))"));
  EXPECT_FALSE(eval("(!(sn=Doe))"));
}

TEST_F(FilterEvalTest, Presence) {
  EXPECT_TRUE(eval("(objectclass=*)"));
  EXPECT_TRUE(eval("(mail=*)"));
  EXPECT_FALSE(eval("(manager=*)"));
}

TEST_F(FilterEvalTest, AndSemantics) {
  EXPECT_TRUE(eval("(&(sn=Doe)(givenName=John))"));
  EXPECT_FALSE(eval("(&(sn=Doe)(givenName=Jane))"));
}

TEST_F(FilterEvalTest, OrSemantics) {
  EXPECT_TRUE(eval("(|(sn=Smith)(sn=Doe))"));
  EXPECT_FALSE(eval("(|(sn=Smith)(sn=Jones))"));
}

TEST_F(FilterEvalTest, NestedBoolean) {
  EXPECT_TRUE(eval("(&(objectclass=inetOrgPerson)"
                   "(|(departmentNumber=2406)(departmentNumber=2407)))"));
  EXPECT_FALSE(eval("(&(objectclass=inetOrgPerson)(!(sn=Doe)))"));
}

TEST_F(FilterEvalTest, RangePredicatesNumeric) {
  EXPECT_TRUE(eval("(age>=30)"));
  EXPECT_TRUE(eval("(age<=30)"));
  EXPECT_TRUE(eval("(age>=18)"));
  EXPECT_FALSE(eval("(age>=31)"));
  EXPECT_TRUE(eval("(age>=9)"));  // numeric, not lexicographic
}

TEST_F(FilterEvalTest, RangePredicatesString) {
  EXPECT_TRUE(eval("(sn>=Dan)"));
  EXPECT_FALSE(eval("(sn>=Dzz)"));
  EXPECT_TRUE(eval("(sn<=Smith)"));
}

TEST_F(FilterEvalTest, PrefixSubstring) {
  EXPECT_TRUE(eval("(serialNumber=04*)"));
  EXPECT_TRUE(eval("(serialNumber=0412*)"));
  EXPECT_FALSE(eval("(serialNumber=05*)"));
}

TEST_F(FilterEvalTest, SubstringCaseInsensitiveOnCaseIgnoreAttr) {
  EXPECT_TRUE(eval("(cn=JOHN*)"));
  EXPECT_TRUE(eval("(mail=*@US.XYZ.COM)"));
}

TEST_F(FilterEvalTest, MiddleSubstring) {
  EXPECT_TRUE(eval("(mail=*us.xyz*)"));
  EXPECT_TRUE(eval("(cn=John*Doe)"));
  EXPECT_FALSE(eval("(cn=Doe*John)"));
}

TEST_F(FilterEvalTest, DepartmentPrefixSubstringFromPaper) {
  // §3.1.2: (&(objectclass=inetOrgPerson)(departmentNumber=240*)) answers
  // queries for departments 2406 and 2407.
  EXPECT_TRUE(eval("(&(objectclass=inetOrgPerson)(departmentNumber=240*))"));
}

TEST_F(FilterEvalTest, MatchAllFilter) {
  EXPECT_TRUE(matches(*Filter::match_all(), entry_));
}

TEST_F(FilterEvalTest, MatchesPredicateRejectsComposite) {
  EXPECT_THROW(matches_predicate(*parse_filter("(&(a=1)(b=2))"), entry_),
               OperationError);
}

// Parameterized sweep: filter/expected pairs evaluated against the fixture
// entry, exercising each predicate kind through the public interface.
struct EvalCase {
  const char* filter;
  bool expected;
};

// gtest prints parameters into the test listing (and CMake bakes the print
// into the ctest name); without this it would dump the pointer's bytes.
void PrintTo(const EvalCase& c, std::ostream* os) {
  *os << c.filter << (c.expected ? " matches" : " does not match");
}

class FilterEvalSweep : public ::testing::TestWithParam<EvalCase> {};

TEST_P(FilterEvalSweep, Evaluate) {
  Entry entry(Dn::parse("cn=Carl Miller,c=in,o=xyz"));
  entry.add_value("objectclass", "inetOrgPerson");
  entry.add_value("cn", "Carl Miller");
  entry.add_value("sn", "Miller");
  entry.add_value("serialNumber", "120077");
  entry.add_value("mail", "carl@in.xyz.com");
  entry.add_value("age", "45");
  EXPECT_EQ(matches(*parse_filter(GetParam().filter), entry), GetParam().expected)
      << GetParam().filter;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FilterEvalSweep,
    ::testing::Values(
        EvalCase{"(sn=Miller)", true}, EvalCase{"(sn=miller)", true},
        EvalCase{"(sn=Mill)", false}, EvalCase{"(sn=Mill*)", true},
        EvalCase{"(sn=*ler)", true}, EvalCase{"(sn=*ill*)", true},
        EvalCase{"(sn=M*l*r)", true}, EvalCase{"(sn=M*x*r)", false},
        EvalCase{"(serialNumber=12*)", true},
        EvalCase{"(serialNumber=13*)", false},
        EvalCase{"(age>=45)", true}, EvalCase{"(age>=46)", false},
        EvalCase{"(age<=44)", false}, EvalCase{"(age<=45)", true},
        EvalCase{"(&(age>=40)(age<=50))", true},
        EvalCase{"(|(age<=40)(age>=50))", false},
        EvalCase{"(!(age>=50))", true},
        EvalCase{"(&(objectclass=inetOrgPerson)(mail=*@in.xyz.com))", true},
        EvalCase{"(&(objectclass=groupOfNames)(mail=*@in.xyz.com))", false},
        EvalCase{"(mail=carl*)", true}, EvalCase{"(mail=*@in*)", true},
        EvalCase{"(objectclass=*)", true}, EvalCase{"(uid=*)", false}));

}  // namespace
}  // namespace fbdr::ldap
