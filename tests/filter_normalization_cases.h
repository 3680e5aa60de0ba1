// Hand-built entries and filters for the compiled-filter equivalence suites
// (filter_ir_equivalence_test.cpp, routing_equivalence_test.cpp). The
// generated directory's values are almost all in normal form already, so
// on their own they barely exercise entry-side normalization; these values
// are not: mixed case, leading and trailing spaces, Integer-syntax
// spellings the canonical form rewrites ("007", "+5", "-0"), a non-numeric
// value of an Integer attribute, and a DnString value.

#pragma once

#include <string>
#include <vector>

#include "ldap/entry.h"

namespace fbdr::normalization_cases {

inline std::vector<ldap::EntryPtr> entries() {
  return {
      ldap::make_entry("cn=Mixed Case,o=ibm",
                       {{"objectclass", "Person"},
                        {"departmentnumber", "D42"},
                        {"buildingname", "ALPHA"},
                        {"mail", "Pat.Smith@IN.IBM.com"}}),
      ldap::make_entry("cn=padded,o=ibm",
                       {{"objectclass", "person"},
                        {"description", "  Padded Value "},
                        {"buildingname", " beta"},
                        {"serialnumber", "123  "}}),
      ldap::make_entry("cn=int a,o=ibm",
                       {{"objectclass", "person"},
                        {"age", "007"},
                        {"roomnumber", "+5"}}),
      ldap::make_entry("cn=int b,o=ibm",
                       {{"objectclass", "person"},
                        {"age", "-0"},
                        {"roomnumber", "Twelve"}}),
      ldap::make_entry("cn=int c,o=ibm",
                       {{"objectclass", "person"},
                        {"age", " 42 "},
                        {"roomnumber", "-05"}}),
      ldap::make_entry("cn=report,o=ibm",
                       {{"objectclass", "person"},
                        {"manager", " CN=Boss,OU=Research,O=IBM"}}),
  };
}

inline std::vector<std::string> filters() {
  return {
      "(departmentnumber=d42)",
      "(departmentnumber=D42)",
      "(&(objectclass=person)(departmentnumber=d42))",
      "(buildingname=alpha)",
      "(buildingname=beta)",
      "(buildingname=*ET*)",
      "(mail=pat.smith@in.ibm.com)",
      "(mail=*@in.ibm.com)",
      "(mail=PAT*)",
      "(description=padded value)",
      "(description=*added v*)",
      "(description>=PADDED)",
      "(serialnumber=123)",
      "(serialnumber>=100)",
      "(serialnumber<=12)",
      "(age=7)",
      "(age=007)",
      "(age>=7)",
      "(age<=0)",
      "(age=0)",
      "(age>=-1)",
      "(&(age>=40)(age<=50))",
      "(!(age=7))",
      "(roomnumber=5)",
      "(roomnumber<=10)",
      "(roomnumber>=-5)",
      "(roomnumber=-5)",
      "(roomnumber=twelve)",
      "(roomnumber>=t)",
      "(roomnumber<=100)",
      "(|(age=-0)(roomnumber=+5))",
      "(manager=cn=boss,ou=research,o=ibm)",
      "(manager=CN=BOSS,OU=RESEARCH,O=IBM)",
      "(manager=cn=boss*)",
      "(manager>=cn=a)",
  };
}

}  // namespace fbdr::normalization_cases
