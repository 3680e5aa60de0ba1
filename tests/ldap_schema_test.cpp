#include "ldap/schema.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace fbdr::ldap {
namespace {

TEST(CanonicalInteger, NormalizesLeadingZerosAndSign) {
  EXPECT_EQ(canonical_integer("007"), "7");
  EXPECT_EQ(canonical_integer("0"), "0");
  EXPECT_EQ(canonical_integer("-0"), "0");
  EXPECT_EQ(canonical_integer("+42"), "42");
  EXPECT_EQ(canonical_integer("-042"), "-42");
  EXPECT_EQ(canonical_integer(" 13 "), "13");
}

TEST(CanonicalInteger, RejectsNonNumbers) {
  EXPECT_FALSE(canonical_integer("").has_value());
  EXPECT_FALSE(canonical_integer("abc").has_value());
  EXPECT_FALSE(canonical_integer("1.5").has_value());
  EXPECT_FALSE(canonical_integer("-").has_value());
  EXPECT_FALSE(canonical_integer("12a").has_value());
}

TEST(CanonicalInteger, ComparesNumerically) {
  EXPECT_LT(compare_canonical_integers("9", "10"), 0);
  EXPECT_GT(compare_canonical_integers("10", "9"), 0);
  EXPECT_EQ(compare_canonical_integers("42", "42"), 0);
  EXPECT_LT(compare_canonical_integers("-10", "-9"), 0);
  EXPECT_LT(compare_canonical_integers("-1", "0"), 0);
  EXPECT_GT(compare_canonical_integers("1", "-100"), 0);
}

TEST(Schema, DefaultInstanceKnowsCaseStudyAttributes) {
  const Schema& schema = Schema::default_instance();
  ASSERT_NE(schema.find("serialNumber"), nullptr);
  ASSERT_NE(schema.find("mail"), nullptr);
  ASSERT_NE(schema.find("dept"), nullptr);
  ASSERT_NE(schema.find("div"), nullptr);
  ASSERT_NE(schema.find("location"), nullptr);
  EXPECT_EQ(schema.find("serialNumber")->syntax, Syntax::CaseIgnoreString);
  EXPECT_EQ(schema.find("age")->syntax, Syntax::Integer);
}

TEST(Schema, LookupIsCaseInsensitive) {
  const Schema& schema = Schema::default_instance();
  EXPECT_EQ(schema.find("SerialNumber"), schema.find("serialnumber"));
}

TEST(Schema, UnknownAttributeDefaultsToCaseIgnore) {
  const Schema& schema = Schema::default_instance();
  EXPECT_EQ(schema.find("nonexistentAttr"), nullptr);
  EXPECT_EQ(schema.syntax_of("nonexistentAttr"), Syntax::CaseIgnoreString);
  EXPECT_TRUE(schema.equals("nonexistentAttr", "ABC", "abc"));
}

TEST(Schema, CaseIgnoreComparison) {
  const Schema& schema = Schema::default_instance();
  EXPECT_TRUE(schema.equals("cn", "John Doe", "JOHN DOE"));
  EXPECT_FALSE(schema.equals("cn", "John", "Jane"));
  EXPECT_LT(schema.compare("cn", "alpha", "beta"), 0);
}

TEST(Schema, IntegerComparisonIsNumeric) {
  const Schema& schema = Schema::default_instance();
  EXPECT_TRUE(schema.equals("age", "030", "30"));
  EXPECT_LT(schema.compare("age", "9", "30"), 0);   // lexicographic would say >
  EXPECT_GT(schema.compare("age", "100", "99"), 0);
}

TEST(Schema, IntegerAttributeFallsBackToStringForNonNumbers) {
  const Schema& schema = Schema::default_instance();
  EXPECT_FALSE(schema.equals("age", "thirty", "30"));
  EXPECT_TRUE(schema.equals("age", "Thirty", "thirty"));
}

TEST(Schema, NormalizeByRule) {
  const Schema& schema = Schema::default_instance();
  EXPECT_EQ(schema.normalize("cn", "  John DOE "), "john doe");
  EXPECT_EQ(schema.normalize("age", "007"), "7");
}

TEST(Schema, AddOverridesType) {
  Schema schema;
  schema.add({"customAttr", Syntax::Integer, true});
  EXPECT_EQ(schema.syntax_of("CUSTOMATTR"), Syntax::Integer);
  EXPECT_TRUE(schema.equals("customattr", "01", "1"));
}

TEST(Schema, SerialNumberOrdersLikeFixedWidthNumbers) {
  // The case study relies on fixed-width digit strings ordering consistently
  // with their numeric values under string comparison.
  const Schema& schema = Schema::default_instance();
  EXPECT_LT(schema.compare("serialnumber", "041234", "052000"), 0);
  EXPECT_LT(schema.compare("serialnumber", "049999", "050000"), 0);
}

int sign(int value) { return value == 0 ? 0 : (value < 0 ? -1 : 1); }

// compare() orders by normalized spelling, and numerically when both
// values are integers under Integer syntax; a ValueProbe of the second
// value orders exactly as compare() does. Checked over every pair of
// mixed-case, spaced, signed, zero-padded and non-numeric values, under
// every syntax.
TEST(Schema, CompareAgreesWithNormalizedOrderUnderEverySyntax) {
  Schema schema;
  schema.add({"exactattr", Syntax::CaseExactString, true});
  const std::vector<std::string> values = {
      "Alpha", "alpha", " ALPHA ", "beta", "Beta  ", "a b", "A  B", "", " ",
      "007",   "7",     "+7",      "-0",   "0",      "-05", "-5",  " 42 ",
      "10",    "9",     "Twelve",  "twelve", "12a",  "1.5", "-",   "+"};
  for (const char* attr : {"cn", "age", "manager", "exactattr"}) {
    const bool integer = schema.syntax_of(attr) == Syntax::Integer;
    for (const std::string& a : values) {
      Schema::ValueProbe probe(schema, attr, a);
      for (const std::string& b : values) {
        const std::string na = schema.normalize(attr, a);
        const std::string nb = schema.normalize(attr, b);
        const int expected =
            integer && is_canonical_integer(na) && is_canonical_integer(nb)
                ? sign(compare_canonical_integers(na, nb))
                : sign(na.compare(nb));
        const std::string at = std::string(attr) + ": '" + a + "' vs '" + b + "'";
        EXPECT_EQ(schema.compare(attr, a, b), expected) << at;
        EXPECT_EQ(schema.equals(attr, a, b), na == nb) << at;
        EXPECT_EQ(Schema::ValueProbe(schema, attr, b).compare(a), expected) << at;
        EXPECT_EQ(probe.compare(b), -expected) << at;
      }
    }
  }
}

}  // namespace
}  // namespace fbdr::ldap
