// Per-session journal baselines (DESIGN.md §7): a session's initial content
// is computed from the DIT, which already reflects every journaled record,
// so pump() must not feed it the records at or below the journal seq its
// content was computed at. Covered here: a session installed over journaled
// but unpumped adds sees nothing on its next poll, at the root and one relay
// hop down; sessions installed before and after a record each see it
// exactly once; and the routed and exhaustive pumps skip alike.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "net/channel.h"
#include "resync/master.h"
#include "server/directory_server.h"
#include "topology/relay_node.h"

namespace fbdr::resync {
namespace {

using ldap::Dn;
using ldap::make_entry;
using ldap::Query;
using ldap::Scope;
using server::Modification;

constexpr int kAdds = 50;

const Query kQuery = Query::parse("o=xyz", Scope::Subtree, "(dept=42)");

std::unique_ptr<server::DirectoryServer> make_master() {
  auto master = std::make_unique<server::DirectoryServer>("ldap://root");
  master->add_context({Dn::parse("o=xyz"), {}});
  master->load(make_entry("o=xyz", {{"objectclass", "organization"}}));
  return master;
}

std::string employee(int i) { return "cn=E" + std::to_string(i) + ",o=xyz"; }

/// Journals `count` in-content adds starting at `first`.
void add_employees(server::DirectoryServer& master, int first, int count) {
  for (int i = first; i < first + count; ++i) {
    master.add(make_entry(employee(i), {{"objectclass", "person"},
                                        {"dept", "42"}}));
  }
}

TEST(SessionBaseline, RootSessionInstalledOverUnpumpedAddsPollsNothing) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  add_employees(*master, 0, kAdds);  // journaled, never pumped

  const ReSyncResponse install = resync.handle(kQuery, {Mode::Poll, ""});
  ASSERT_EQ(install.pdus.size(), static_cast<std::size_t>(kAdds));
  const std::uint64_t entries_after_install = resync.traffic().entries;

  resync.pump();
  const ReSyncResponse poll = resync.handle(kQuery, {Mode::Poll, install.cookie});
  EXPECT_TRUE(poll.pdus.empty()) << poll.pdus.size() << " PDUs re-shipped";
  EXPECT_EQ(resync.traffic().entries, entries_after_install);
  EXPECT_EQ(resync.history_size(), 0u);

  // Records past the baseline still flow as ordinary deltas.
  master->modify(Dn::parse(employee(3)),
                 {{Modification::Op::Replace, "title", {"chief"}}});
  resync.pump();
  const ReSyncResponse next = resync.handle(kQuery, {Mode::Poll, poll.cookie});
  ASSERT_EQ(next.pdus.size(), 1u);
  EXPECT_EQ(next.pdus[0].dn, Dn::parse(employee(3)));
}

TEST(SessionBaseline, OlderAndNewerSessionsEachSeeARecordOnce) {
  for (const bool routed : {true, false}) {
    SCOPED_TRACE(routed ? "routed" : "exhaustive");
    auto master = make_master();
    ReSyncMaster resync(*master);
    resync.set_change_routing(routed);
    const ReSyncResponse old_install = resync.handle(kQuery, {Mode::Poll, ""});
    ASSERT_TRUE(old_install.pdus.empty());

    // Journaled between the two installs: news to the old session only.
    add_employees(*master, 0, 3);
    const ReSyncResponse new_install = resync.handle(kQuery, {Mode::Poll, ""});
    ASSERT_EQ(new_install.pdus.size(), 3u);
    resync.pump();

    const ReSyncResponse old_poll =
        resync.handle(kQuery, {Mode::Poll, old_install.cookie});
    EXPECT_EQ(old_poll.pdus.size(), 3u);
    const ReSyncResponse new_poll =
        resync.handle(kQuery, {Mode::Poll, new_install.cookie});
    EXPECT_TRUE(new_poll.pdus.empty());

    // A record past both baselines reaches both.
    add_employees(*master, 3, 1);
    resync.pump();
    EXPECT_EQ(resync.handle(kQuery, {Mode::Poll, old_poll.cookie}).pdus.size(),
              1u);
    EXPECT_EQ(resync.handle(kQuery, {Mode::Poll, new_poll.cookie}).pdus.size(),
              1u);
  }
}

TEST(SessionBaseline, RelaySessionInstalledOverUnpumpedAddsPollsNothing) {
  auto master = make_master();
  ReSyncMaster root(*master);
  topology::RelayNode::Config config;
  config.name = "relay";
  config.suffix = Dn::parse("o=xyz");
  topology::RelayNode relay(config);
  relay.add_filter(kQuery);
  relay.connect(std::make_shared<net::DirectChannel>(root), master->url());

  add_employees(*master, 0, kAdds);  // journaled at the root, never pumped
  ASSERT_TRUE(relay.install_all());  // journals the adds into the mirror
  const std::uint64_t mirror_seq = relay.mirror().journal().last_seq();
  ASSERT_GE(mirror_seq, static_cast<std::uint64_t>(kAdds));

  // A leaf installs at the relay before the relay's pump has run.
  const Query leaf = Query::parse("o=xyz", Scope::Subtree,
                                  "(&(dept=42)(objectclass=person))");
  const ReSyncResponse install = relay.handle(leaf, {Mode::Poll, ""});
  ASSERT_EQ(install.pdus.size(), static_cast<std::size_t>(kAdds));

  const std::uint64_t root_entries = root.traffic().entries;
  root.pump();
  relay.sync();  // polls the root, then pumps the relay's own sessions
  EXPECT_EQ(root.traffic().entries, root_entries)
      << "the root re-shipped installed entries to the relay";
  EXPECT_EQ(relay.mirror().journal().last_seq(), mirror_seq);

  const std::uint64_t relay_entries = relay.downstream_master().traffic().entries;
  const ReSyncResponse poll = relay.handle(leaf, {Mode::Poll, install.cookie});
  EXPECT_TRUE(poll.pdus.empty()) << poll.pdus.size() << " PDUs re-shipped";
  EXPECT_EQ(relay.downstream_master().traffic().entries, relay_entries);

  // And a later root change still reaches the leaf through the relay.
  master->modify(Dn::parse(employee(7)),
                 {{Modification::Op::Replace, "title", {"chief"}}});
  root.pump();
  relay.sync();
  const ReSyncResponse next = relay.handle(leaf, {Mode::Poll, poll.cookie});
  ASSERT_EQ(next.pdus.size(), 1u);
  EXPECT_EQ(next.pdus[0].dn, Dn::parse(employee(7)));
}

}  // namespace
}  // namespace fbdr::resync
