#include "ldap/entry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "ldap/text.h"

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

TEST(Entry, GetAcceptsAnyCaseOfTheName) {
  const Entry e = person();
  ASSERT_NE(e.get("DepartmentNumber"), nullptr);
  EXPECT_EQ(e.get("DepartmentNumber"), e.get("departmentnumber"));
  EXPECT_TRUE(e.has_value("MAIL", "john@us.xyz.com"));
  EXPECT_EQ(e.get("MAILX"), nullptr);
}

// Entry against a std::map oracle keyed by the lowercased name, over seeded
// random edit sequences whose names mix case.
class EntryOracle {
 public:
  void add_value(const std::string& attr, const std::string& value) {
    std::vector<std::string>& values = attrs_[text::lower(attr)];
    if (find(attr, values, value) == values.end()) values.push_back(value);
  }
  void set_values(const std::string& attr, const std::vector<std::string>& values) {
    if (values.empty()) {
      attrs_.erase(text::lower(attr));
    } else {
      attrs_[text::lower(attr)] = values;
    }
  }
  bool remove_value(const std::string& attr, const std::string& value) {
    const auto it = attrs_.find(text::lower(attr));
    if (it == attrs_.end()) return false;
    const auto pos = find(attr, it->second, value);
    if (pos == it->second.end()) return false;
    it->second.erase(pos);
    if (it->second.empty()) attrs_.erase(it);
    return true;
  }
  bool remove_attribute(const std::string& attr) {
    return attrs_.erase(text::lower(attr)) > 0;
  }
  const std::map<std::string, std::vector<std::string>>& attrs() const {
    return attrs_;
  }

 private:
  static std::vector<std::string>::iterator find(const std::string& attr,
                                                 std::vector<std::string>& values,
                                                 const std::string& value) {
    return std::find_if(values.begin(), values.end(), [&](const std::string& v) {
      return Schema::default_instance().equals(attr, v, value);
    });
  }

  std::map<std::string, std::vector<std::string>> attrs_;
};

void expect_matches(const Entry& entry, const EntryOracle& oracle,
                    const std::vector<std::string>& names,
                    const std::vector<std::string>& values) {
  const auto& attrs = entry.attributes();
  for (std::size_t i = 1; i < attrs.size(); ++i) {
    ASSERT_LT(attrs[i - 1].first, attrs[i].first) << "names sorted and unique";
  }
  ASSERT_EQ(attrs.size(), oracle.attrs().size());
  ASSERT_TRUE(std::equal(attrs.begin(), attrs.end(), oracle.attrs().begin(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first && a.second == b.second;
                         }));
  std::vector<std::string> keys;
  std::size_t size = entry.dn().to_string().size();
  for (const auto& [name, vals] : oracle.attrs()) {
    keys.push_back(name);
    for (const std::string& v : vals) size += name.size() + v.size() + 2;
  }
  EXPECT_EQ(entry.attribute_names(), keys);
  EXPECT_EQ(entry.attribute_count(), keys.size());
  EXPECT_EQ(entry.approx_size_bytes(), size);
  for (const std::string& name : names) {
    const auto it = oracle.attrs().find(text::lower(name));
    const std::vector<std::string>* got = entry.get(name);
    if (it == oracle.attrs().end()) {
      EXPECT_EQ(got, nullptr) << name;
      EXPECT_FALSE(entry.has_attribute(name)) << name;
    } else {
      ASSERT_NE(got, nullptr) << name;
      EXPECT_EQ(*got, it->second) << name;
    }
    for (const std::string& value : values) {
      const bool held =
          it != oracle.attrs().end() &&
          std::any_of(it->second.begin(), it->second.end(), [&](const std::string& v) {
            return Schema::default_instance().equals(name, v, value);
          });
      EXPECT_EQ(entry.has_value(name, value), held) << name << "=" << value;
    }
  }
  // An entry built from the oracle in reverse name order (each name a
  // sorted insert at the front) equals this one; one value more does not.
  Entry rebuilt(entry.dn());
  for (auto it = oracle.attrs().rbegin(); it != oracle.attrs().rend(); ++it) {
    rebuilt.set_values(it->first, it->second);
  }
  EXPECT_EQ(rebuilt, entry);
  rebuilt.add_value("zzextra", "1");
  EXPECT_NE(rebuilt, entry);
}

TEST(EntryProperty, RandomEditsMatchAMapOracle) {
  const std::vector<std::string> names = {"cn",   "CN",   "Mail", "mail",
                                          "sn",   "SN",   "description",
                                          "DeScription", "aa", "ZZ", "objectClass"};
  const std::vector<std::string> values = {"a", "A", "b", "B", "c", "x y", "X Y"};
  for (unsigned seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    const auto pick = [&](const std::vector<std::string>& pool) -> const std::string& {
      return pool[std::uniform_int_distribution<std::size_t>(0, pool.size() - 1)(rng)];
    };
    Entry entry(Dn::parse("cn=x,o=xyz"));
    EntryOracle oracle;
    for (int step = 0; step < 200; ++step) {
      const std::string& name = pick(names);
      switch (std::uniform_int_distribution<int>(0, 3)(rng)) {
        case 0: {
          const std::string& value = pick(values);
          entry.add_value(name, value);
          oracle.add_value(name, value);
          break;
        }
        case 1: {
          std::vector<std::string> vals;
          const int count = std::uniform_int_distribution<int>(0, 2)(rng);
          for (int i = 0; i < count; ++i) vals.push_back(pick(values));
          entry.set_values(name, vals);
          oracle.set_values(name, vals);
          break;
        }
        case 2: {
          const std::string& value = pick(values);
          EXPECT_EQ(entry.remove_value(name, value), oracle.remove_value(name, value));
          break;
        }
        default:
          EXPECT_EQ(entry.remove_attribute(name), oracle.remove_attribute(name));
          break;
      }
      ASSERT_NO_FATAL_FAILURE(expect_matches(entry, oracle, names, values))
          << "seed " << seed << " step " << step;
    }
  }
}

}  // namespace
}  // namespace fbdr::ldap
