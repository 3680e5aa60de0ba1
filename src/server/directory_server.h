#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ldap/entry.h"
#include "ldap/query.h"
#include "ldap/schema.h"
#include "server/change.h"
#include "server/dit.h"
#include "server/endpoint.h"

namespace fbdr::server {

/// A referral object inside a naming context: at DN `at`, pointing to the
/// server holding the subordinate naming context rooted there (§2.3).
struct SubordinateReferral {
  ldap::Dn at;
  std::string url;  // e.g. "ldap://hostB"
};

/// A naming context C = (S, R1..Rn): suffix DN plus subordinate referrals.
struct NamingContext {
  ldap::Dn suffix;
  std::vector<SubordinateReferral> subordinates;
};

/// A simulated LDAP directory server: one or more naming contexts over an
/// in-memory DIT, search with referral generation, and journaled update
/// operations (the master side of replication). Implements SearchEndpoint so
/// clients address masters and replica sites uniformly.
///
/// Distributed operation (Figure 2) works exactly as the paper describes:
/// a server that does not hold the target returns its default referral; a
/// server that does returns matching entries plus subordinate referrals for
/// naming contexts below the search region.
class DirectoryServer : public SearchEndpoint {
 public:
  DirectoryServer(std::string url,
                  const ldap::Schema& schema = ldap::Schema::default_instance());

  const std::string& url() const noexcept override { return url_; }
  const ldap::Schema& schema() const noexcept { return *schema_; }

  /// Declares a naming context held by this server.
  void add_context(NamingContext context);
  const std::vector<NamingContext>& contexts() const noexcept { return contexts_; }

  /// Superior server used when name resolution fails here.
  void set_default_referral(std::string url) { default_referral_ = std::move(url); }

  /// Executes one search. Entries are filtered and attribute-projected per
  /// the query; referrals are produced for subordinate contexts intersecting
  /// the search region, or the default referral when the base is not held.
  SearchResult search(const ldap::Query& query) const;

  /// SearchEndpoint implementation; forwards to search().
  SearchResult process_search(const ldap::Query& query) override {
    return search(query);
  }

  /// Configures an attribute index used by evaluate() (and by anything else
  /// reading dit().index_lookup).
  void add_index(std::string_view attr);

  /// Evaluates a query over everything this server holds, with no referral
  /// processing — the master-side content evaluation used by replication.
  /// Candidates come from Dit::for_each_candidate (index, scope or full
  /// scan); the result holds each match once, in norm-key order.
  std::vector<ldap::EntryPtr> evaluate(const ldap::Query& query) const;

  /// The LDAP compare operation (§2.2): does the entry at `dn` hold `value`
  /// for `attr` under its matching rule? Throws NoSuchObject when the entry
  /// is not held here.
  bool compare(const ldap::Dn& dn, std::string_view attr,
               std::string_view value) const;

  // --- update operations (journaled) ---
  std::uint64_t add(ldap::EntryPtr entry);
  std::uint64_t remove(const ldap::Dn& dn);
  /// A given `after` is installed as is (see Dit::modify).
  std::uint64_t modify(const ldap::Dn& dn, std::vector<Modification> mods,
                       ldap::EntryPtr after = nullptr);
  /// Renames `dn` (and its subtree) to `new_dn`; one ModifyDn record per
  /// moved entry.
  std::uint64_t modify_dn(const ldap::Dn& dn, const ldap::Dn& new_dn);

  const ChangeJournal& journal() const noexcept { return journal_; }
  ChangeJournal& journal() noexcept { return journal_; }
  const Dit& dit() const noexcept { return dit_; }
  Dit& dit() noexcept { return dit_; }

  /// Loads an entry without journaling (bulk initial population).
  void load(ldap::EntryPtr entry);

 private:
  /// The context holding `dn`, if any: suffix is ancestor-or-self of dn and
  /// dn is not at/under one of the context's referral points.
  const NamingContext* resolve(const ldap::Dn& dn) const;

  std::string url_;
  const ldap::Schema* schema_;
  Dit dit_;
  std::vector<NamingContext> contexts_;
  std::optional<std::string> default_referral_;
  ChangeJournal journal_;
};

/// Projects an entry to the requested attributes ("*" keeps user attributes).
ldap::EntryPtr project(const ldap::EntryPtr& entry,
                       const ldap::AttributeSelection& attrs);

}  // namespace fbdr::server
