// RelayNode unit tests: containment-gated admission with referral bounce,
// epoch-prefixed cookie lineage across restarts and upstream recoveries,
// glue-entry mirror semantics, and the SearchEndpoint face that lets
// server::DistributedClient chase referrals across a cascade.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "ldap/error.h"
#include "net/channel.h"
#include "resync/master.h"
#include "resync/replica_client.h"
#include "server/directory_server.h"
#include "server/distributed.h"
#include "topology/relay_node.h"

namespace fbdr::topology {
namespace {

using ldap::Dn;
using ldap::make_entry;
using ldap::Query;
using ldap::Scope;
using resync::Mode;
using resync::ReSyncControl;
using resync::ReSyncResponse;
using server::Modification;

// Employees live one level below ou=eng; ou=eng itself matches no serial
// filter, so a relay replicating employees must synthesize it as glue.
std::unique_ptr<server::DirectoryServer> make_master() {
  auto master = std::make_unique<server::DirectoryServer>("ldap://root");
  master->add_context({Dn::parse("o=xyz"), {}});
  master->load(make_entry("o=xyz", {{"objectclass", "organization"}}));
  master->load(make_entry("ou=eng,o=xyz",
                          {{"objectclass", "organizationalunit"}}));
  for (int i = 0; i < 8; ++i) {
    const std::string serial = "00" + std::to_string(i);
    master->load(make_entry("cn=e" + serial + ",ou=eng,o=xyz",
                            {{"objectclass", "person"},
                             {"serialnumber", serial},
                             {"mail", "e" + serial + "@xyz.com"}}));
  }
  master->load(make_entry("cn=e990,ou=eng,o=xyz", {{"objectclass", "person"},
                                                   {"serialnumber", "990"}}));
  return master;
}

Query serial_query(const std::string& prefix) {
  return Query::parse("o=xyz", Scope::Subtree,
                      "(serialnumber=" + prefix + "*)");
}

struct Relayed {
  std::unique_ptr<server::DirectoryServer> master;
  std::unique_ptr<resync::ReSyncMaster> root;
  std::unique_ptr<RelayNode> relay;
};

Relayed make_relayed() {
  Relayed world;
  world.master = make_master();
  world.root = std::make_unique<resync::ReSyncMaster>(*world.master);
  RelayNode::Config config;
  config.name = "relay1";
  config.suffix = Dn::parse("o=xyz");
  world.relay = std::make_unique<RelayNode>(config);
  world.relay->add_filter(serial_query("00"));
  world.relay->connect(std::make_shared<net::DirectChannel>(*world.root),
                       world.master->url());
  return world;
}

TEST(TopologyRelay, AdmitsContainedSessionsAndRelaysDeltas) {
  Relayed world = make_relayed();
  ASSERT_TRUE(world.relay->install_all());

  // A strictly contained query is admitted and served from the mirror.
  net::DirectChannel to_relay(*world.relay);
  resync::ReSyncReplica leaf(to_relay, serial_query("000"));
  leaf.start(Mode::Poll);
  EXPECT_EQ(leaf.content().size(), 1u);
  EXPECT_EQ(world.relay->downstream_master().session_count(), 1u);

  // A root-side change flows root -> relay mirror -> downstream session.
  world.master->modify(Dn::parse("cn=e000,ou=eng,o=xyz"),
                       {{Modification::Op::Replace, "mail", {"new@xyz.com"}}});
  world.root->pump();
  world.root->tick();
  world.relay->sync();
  leaf.poll();
  bool updated = false;
  for (const ldap::EntryPtr& entry : leaf.content().entries()) {
    updated = entry->has_value("mail", "new@xyz.com");
  }
  EXPECT_TRUE(updated) << "delta did not propagate through the relay";

  // A root-side delete propagates as a removal.
  world.master->remove(Dn::parse("cn=e000,ou=eng,o=xyz"));
  world.root->pump();
  world.root->tick();
  world.relay->sync();
  leaf.poll();
  EXPECT_EQ(leaf.content().size(), 0u);
}

TEST(TopologyRelay, RefersUncontainedSessionsToParent) {
  Relayed world = make_relayed();
  ASSERT_TRUE(world.relay->install_all());

  const ReSyncResponse bounced =
      world.relay->handle(serial_query("99"), {Mode::Poll, ""});
  EXPECT_TRUE(bounced.referred());
  EXPECT_EQ(bounced.referral_url, "ldap://root");
  EXPECT_TRUE(bounced.cookie.empty()) << "no session for a refused query";
  EXPECT_EQ(world.relay->admission_rejects(), 1u);
  EXPECT_EQ(world.relay->downstream_master().session_count(), 0u);

  // Contained queries still come through on the same relay.
  const ReSyncResponse admitted =
      world.relay->handle(serial_query("000"), {Mode::Poll, ""});
  EXPECT_FALSE(admitted.referred());
  EXPECT_EQ(admitted.pdus.size(), 1u);
}

TEST(TopologyRelay, CookiesCarryEpochAndRestartInvalidatesThem) {
  Relayed world = make_relayed();
  ASSERT_TRUE(world.relay->install_all());

  const ReSyncResponse initial =
      world.relay->handle(serial_query("00"), {Mode::Poll, ""});
  ASSERT_FALSE(initial.cookie.empty());
  EXPECT_EQ(initial.cookie.rfind("e0!", 0), 0u)
      << "downstream cookie should carry the relay epoch, got '"
      << initial.cookie << "'";

  // Clean poll under the same epoch works.
  const ReSyncResponse polled =
      world.relay->handle(serial_query("00"), {Mode::Poll, initial.cookie});
  EXPECT_EQ(polled.cookie.rfind("e0!", 0), 0u);

  // The relay restarts: its session state is gone and the epoch advances,
  // so the held cookie is stale — the descendant must full-reload.
  world.relay->restart();
  EXPECT_EQ(world.relay->epoch(), 1u);
  EXPECT_THROW(
      world.relay->handle(serial_query("00"), {Mode::Poll, polled.cookie}),
      ldap::StaleCookieError);
  const ReSyncResponse reloaded =
      world.relay->handle(serial_query("00"), {Mode::Poll, ""});
  EXPECT_TRUE(reloaded.full_reload);
  EXPECT_EQ(reloaded.cookie.rfind("e1!", 0), 0u);

  // Ending a session with a pre-restart cookie is a benign no-op.
  EXPECT_NO_THROW(
      world.relay->handle(serial_query("00"), {Mode::SyncEnd, polled.cookie}));
}

// The epoch between 'e' and '!' is digits only. Forms that a lenient integer
// parse would read as the live epoch 0 are malformed, not admitted.
TEST(TopologyRelay, MalformedCookieEpochIsRefused) {
  Relayed world = make_relayed();
  ASSERT_TRUE(world.relay->install_all());
  const ReSyncResponse initial =
      world.relay->handle(serial_query("00"), {Mode::Poll, ""});
  ASSERT_EQ(initial.cookie.rfind("e0!", 0), 0u);
  const std::string inner = initial.cookie.substr(3);

  for (const std::string& bad :
       {"e0junk!" + inner, "e+0!" + inner, "e 0!" + inner, "e-0!" + inner,
        "e!" + inner}) {
    EXPECT_THROW(world.relay->handle(serial_query("00"), {Mode::Poll, bad}),
                 ldap::ProtocolError)
        << bad;
    EXPECT_THROW(world.relay->handle(serial_query("00"), {Mode::SyncEnd, bad}),
                 ldap::ProtocolError)
        << bad;
  }

  // The downstream session is untouched: the real cookie still polls it.
  const ReSyncResponse polled =
      world.relay->handle(serial_query("00"), {Mode::Poll, initial.cookie});
  EXPECT_FALSE(polled.full_reload);
  EXPECT_EQ(polled.cookie.rfind("e0!", 0), 0u);
}

TEST(TopologyRelay, UpstreamStaleCookieCascadesAsEpochBump) {
  // Documents the pre-reconciliation cascade: against a root that does not
  // speak reconciliation (the version gate ignores the digest offer), an
  // upstream recovery is a full reload and must invalidate descendants.
  // With reconciliation on, the heal journals a diff and descendants ride
  // through without an epoch bump (resync_reconcile_test covers that).
  Relayed world = make_relayed();
  world.root->set_reconcile_enabled(false);
  world.root->set_session_time_limit(5);
  ASSERT_TRUE(world.relay->install_all());

  const ReSyncResponse downstream =
      world.relay->handle(serial_query("000"), {Mode::Poll, ""});
  ASSERT_EQ(world.relay->epoch(), 0u);

  // The relay's upstream session idles past the root's admin limit; the
  // next sync gets StaleCookieError, recovers with a full reload, and must
  // invalidate its own descendants.
  world.root->tick(50);
  world.relay->sync();
  EXPECT_EQ(world.relay->upstream_total().recoveries, 1u);
  EXPECT_EQ(world.relay->epoch(), 1u);
  EXPECT_THROW(world.relay->handle(serial_query("000"),
                                   {Mode::Poll, downstream.cookie}),
               ldap::StaleCookieError);
}

TEST(TopologyRelay, MirrorSynthesizesGlueAncestors) {
  Relayed world = make_relayed();
  ASSERT_TRUE(world.relay->install_all());

  // The replicated employees hang below ou=eng, which matches no filter:
  // the mirror must hold it as an attribute-less glue entry.
  const ldap::EntryPtr glue =
      world.relay->mirror().dit().find(Dn::parse("ou=eng,o=xyz"));
  ASSERT_NE(glue, nullptr) << "missing glue ancestor";
  EXPECT_EQ(glue->attribute_count(), 0u) << "glue must carry no attributes";

  // Glue never matches a filter, so it never ships downstream.
  const ReSyncResponse initial =
      world.relay->handle(serial_query("00"), {Mode::Poll, ""});
  EXPECT_EQ(initial.pdus.size(), 8u) << "only real employees ship";

  // Deleting a replicated leaf leaves its glue parent in place (harmless),
  // and re-adding the employee reuses it.
  world.master->remove(Dn::parse("cn=e007,ou=eng,o=xyz"));
  world.root->pump();
  world.relay->sync();
  EXPECT_EQ(world.relay->mirror().dit().find(Dn::parse("cn=e007,ou=eng,o=xyz")),
            nullptr);
  EXPECT_NE(world.relay->mirror().dit().find(Dn::parse("ou=eng,o=xyz")),
            nullptr);
}

TEST(TopologyRelay, SharedEntriesSurviveSingleFilterDeletes) {
  Relayed world = make_relayed();
  // Two overlapping filters: serial prefix 00 and explicit mailed people.
  world.relay->add_filter(
      Query::parse("o=xyz", Scope::Subtree, "(mail=e000@xyz.com)"));
  ASSERT_TRUE(world.relay->install_all());
  ASSERT_NE(world.relay->mirror().dit().find(Dn::parse("cn=e000,ou=eng,o=xyz")),
            nullptr);

  // The master strips the serial (entry leaves filter 1) but keeps the
  // mail: filter 2 still claims it, so the mirror must keep the entry.
  world.master->modify(Dn::parse("cn=e000,ou=eng,o=xyz"),
                       {{Modification::Op::Replace, "serialnumber", {}}});
  world.root->pump();
  world.relay->sync();
  const ldap::EntryPtr kept =
      world.relay->mirror().dit().find(Dn::parse("cn=e000,ou=eng,o=xyz"));
  ASSERT_NE(kept, nullptr)
      << "entry still claimed by the mail filter was dropped";
  EXPECT_TRUE(kept->has_value("mail", "e000@xyz.com"));
}

TEST(TopologyRelay, SharedEntriesDieWhenDeletedUpstream) {
  Relayed world = make_relayed();
  // Two overlapping filters both claim e000.
  world.relay->add_filter(
      Query::parse("o=xyz", Scope::Subtree, "(mail=e000@xyz.com)"));
  ASSERT_TRUE(world.relay->install_all());
  const Dn shared = Dn::parse("cn=e000,ou=eng,o=xyz");
  ASSERT_NE(world.relay->mirror().dit().find(shared), nullptr);

  // A true upstream delete ships a Delete to BOTH sessions. The stale
  // mirror copy still matches both filters, so a claim check that
  // re-matched filters would make each Delete defer to the other and the
  // ghost entry would be served downstream forever; the per-filter
  // membership sets know the parent lists it for neither.
  world.master->remove(shared);
  world.root->pump();
  world.relay->sync();
  EXPECT_EQ(world.relay->mirror().dit().find(shared), nullptr)
      << "upstream delete of a shared entry left a permanent ghost";
}

TEST(TopologyRelay, SharedDeletesHealThroughFullReload) {
  Relayed world = make_relayed();
  world.relay->add_filter(
      Query::parse("o=xyz", Scope::Subtree, "(mail=e000@xyz.com)"));
  ASSERT_TRUE(world.relay->install_all());
  const Dn shared = Dn::parse("cn=e000,ou=eng,o=xyz");

  // The relay restarts and misses the delete entirely: recovery is a full
  // reload whose enumeration diff must prune the shared entry even though
  // its stale mirror copy still matches both filters.
  world.relay->restart();
  world.master->remove(shared);
  world.relay->sync();
  EXPECT_EQ(world.relay->mirror().dit().find(shared), nullptr)
      << "full-reload diff kept a ghost of a shared entry deleted upstream";
}

TEST(TopologyRelay, SearchEndpointAnswersHitsAndRefersMisses) {
  Relayed world = make_relayed();
  ASSERT_TRUE(world.relay->install_all());

  // Hit: contained query answered from the mirror, complete.
  server::SearchResult hit = world.relay->process_search(serial_query("000"));
  EXPECT_TRUE(hit.base_resolved);
  ASSERT_EQ(hit.entries.size(), 1u);
  EXPECT_TRUE(hit.entries.front()->has_value("serialnumber", "000"));

  // Miss: bounced to the parent with the original base.
  server::SearchResult miss = world.relay->process_search(serial_query("99"));
  EXPECT_FALSE(miss.base_resolved);
  ASSERT_EQ(miss.referrals.size(), 1u);
  EXPECT_EQ(miss.referrals.front().url, "ldap://root");

  // A DistributedClient starting at the relay completes both: the hit
  // locally, the miss by chasing the referral to the root master.
  server::ServerMap servers;
  servers.add(std::shared_ptr<server::SearchEndpoint>(
      world.master.get(), [](server::SearchEndpoint*) {}));
  servers.add(std::shared_ptr<server::SearchEndpoint>(
      world.relay.get(), [](server::SearchEndpoint*) {}));
  server::DistributedClient client(servers);
  EXPECT_EQ(client.search("ldap://relay1", serial_query("000")).size(), 1u);
  const auto chased = client.search("ldap://relay1", serial_query("99"));
  ASSERT_EQ(chased.size(), 1u);
  EXPECT_TRUE(chased.front()->has_value("serialnumber", "990"));
}

TEST(TopologyRelay, CrashedRelayFailsTransportUntilRestart) {
  Relayed world = make_relayed();
  ASSERT_TRUE(world.relay->install_all());

  world.relay->crash();
  EXPECT_TRUE(world.relay->down());
  EXPECT_THROW(world.relay->handle(serial_query("000"), {Mode::Poll, ""}),
               net::TransportError);
  EXPECT_THROW(world.relay->process_search(serial_query("000")),
               net::TransportError);
  world.relay->sync();  // no-op while down
  EXPECT_EQ(world.relay->downstream_master().session_count(), 0u);

  world.relay->restart();
  EXPECT_FALSE(world.relay->down());
  world.relay->sync();  // re-establishes the upstream session
  const ReSyncResponse reloaded =
      world.relay->handle(serial_query("000"), {Mode::Poll, ""});
  EXPECT_EQ(reloaded.pdus.size(), 1u);
}

}  // namespace
}  // namespace fbdr::topology
