// The change journal's reader contract: a journal drops the records every
// live reader has consumed, keeps everything while it has no reader, and
// still compacts past a reader that stops advancing when a retention horizon
// is set. The twin at the end runs two ReSync masters on one store at
// different pump cadences: the slower master must replay every record it has
// not pumped yet, exactly as a master with a store of its own does.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "ldap/error.h"
#include "resync/master.h"
#include "server/change.h"
#include "server/directory_server.h"

namespace fbdr::server {
namespace {

using ldap::Dn;
using ldap::make_entry;
using ldap::Query;
using ldap::Scope;

void append(ChangeJournal& journal, int count) {
  for (int i = 0; i < count; ++i) {
    ChangeRecord record;
    record.dn =
        Dn::parse("cn=E" + std::to_string(journal.last_seq()) + ",o=xyz");
    journal.append(std::move(record));
  }
}

std::vector<std::uint64_t> seqs(const std::vector<const ChangeRecord*>& records) {
  std::vector<std::uint64_t> out;
  for (const ChangeRecord* record : records) out.push_back(record->seq);
  return out;
}

TEST(JournalReader, TrimsFollowTheSlowestReader) {
  ChangeJournal journal;
  ChangeJournal::Reader fast(journal);
  ChangeJournal::Reader slow(journal);
  append(journal, 5);

  fast.advance(3);
  EXPECT_EQ(journal.size(), 5u);  // slow has consumed nothing
  EXPECT_EQ(journal.trimmed_up_to(), 0u);

  slow.advance(2);
  EXPECT_EQ(journal.size(), 3u);
  EXPECT_EQ(journal.trimmed_up_to(), 2u);
  EXPECT_EQ(seqs(fast.pending()), (std::vector<std::uint64_t>{4, 5}));
  EXPECT_EQ(seqs(slow.pending()), (std::vector<std::uint64_t>{3, 4, 5}));

  slow.advance(5);  // fast (at 3) is the slowest now
  EXPECT_EQ(journal.size(), 2u);
  EXPECT_EQ(journal.trimmed_up_to(), 3u);
  EXPECT_FALSE(fast.behind());

  fast.advance(5);
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_EQ(journal.trimmed_up_to(), 5u);
}

TEST(JournalReader, JournalWithoutReaderKeepsEverything) {
  ChangeJournal journal;
  append(journal, 10);
  EXPECT_EQ(journal.size(), 10u);
  EXPECT_EQ(seqs(journal.since(0)).size(), 10u);
  {
    ChangeJournal::Reader reader(journal);
    reader.advance(journal.last_seq());
  }
  // The last reader is gone: nothing drops any more.
  append(journal, 4);
  EXPECT_EQ(journal.size(), 4u);
  EXPECT_EQ(seqs(journal.since(10)), (std::vector<std::uint64_t>{11, 12, 13, 14}));
}

TEST(JournalReader, DestroyingAReaderReleasesItsRecords) {
  ChangeJournal journal;
  ChangeJournal::Reader fast(journal);
  auto slow = std::make_unique<ChangeJournal::Reader>(journal);
  append(journal, 6);
  fast.advance(6);
  EXPECT_EQ(journal.size(), 6u);

  slow.reset();
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_EQ(journal.trimmed_up_to(), 6u);
}

TEST(JournalReader, MovedReaderKeepsItsPositionAndRegistration) {
  ChangeJournal journal;
  ChangeJournal::Reader fast(journal);
  std::vector<ChangeJournal::Reader> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back(journal);  // growth moves the earlier readers
    append(journal, 1);
  }
  fast.advance(journal.last_seq());
  EXPECT_EQ(journal.size(), 4u);  // readers[0] is still at 0

  {
    const ChangeJournal::Reader moved = std::move(readers.front());
    EXPECT_EQ(moved.position(), 0u);
    readers.clear();  // destroys the moved-from reader with the others
    EXPECT_EQ(journal.size(), 4u);  // moved still holds position 0
  }
  EXPECT_EQ(journal.size(), 0u);
}

TEST(JournalReader, LateReaderStartsAtTheTail) {
  ChangeJournal journal;
  ChangeJournal::Reader early(journal);
  append(journal, 4);

  ChangeJournal::Reader late(journal);
  EXPECT_EQ(late.position(), 4u);
  EXPECT_TRUE(late.pending().empty());
  EXPECT_EQ(journal.size(), 4u);  // early still holds them

  append(journal, 2);
  EXPECT_EQ(seqs(late.pending()), (std::vector<std::uint64_t>{5, 6}));
  late.advance(6);
  EXPECT_EQ(journal.size(), 6u);
  early.advance(4);
  EXPECT_EQ(journal.size(), 2u);
}

TEST(JournalReader, RetentionStillTrimsUnderAStuckReader) {
  ChangeJournal journal;
  ChangeJournal::Reader stuck(journal);
  journal.set_retention(3);
  append(journal, 10);

  EXPECT_EQ(journal.size(), 3u);
  EXPECT_EQ(journal.trimmed_up_to(), 7u);
  EXPECT_TRUE(stuck.behind());
  EXPECT_EQ(seqs(stuck.pending()), (std::vector<std::uint64_t>{8, 9, 10}));

  stuck.advance(journal.last_seq());  // the owner rebased past the gap
  EXPECT_FALSE(stuck.behind());
  EXPECT_EQ(journal.size(), 0u);
}

TEST(JournalReader, PendingRecordsOutliveAnotherReadersAdvance) {
  ChangeJournal journal;
  ChangeJournal::Reader fast(journal);
  ChangeJournal::Reader slow(journal);
  append(journal, 5);
  const std::vector<const ChangeRecord*> held = slow.pending();
  fast.advance(5);
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i]->seq, i + 1);
    EXPECT_EQ(held[i]->dn.to_string(), "cn=E" + std::to_string(i) + ",o=xyz");
  }
}

// --- two masters, one store ---

std::unique_ptr<DirectoryServer> make_store() {
  auto store = std::make_unique<DirectoryServer>("ldap://master");
  store->add_context({Dn::parse("o=xyz"), {}});
  store->load(make_entry("o=xyz", {{"objectclass", "organization"}}));
  for (int i = 0; i < 24; ++i) {
    store->load(make_entry("cn=E" + std::to_string(i) + ",o=xyz",
                           {{"objectclass", "person"},
                            {"dept", std::to_string(i % 3)}}));
  }
  return store;
}

std::string signature(const resync::ReSyncResponse& response) {
  std::string out = response.full_reload ? "reload\n" : "";
  for (const resync::EntryPdu& pdu : response.pdus) {
    out += resync::to_string(pdu.action) + " " + pdu.dn.to_string() + "\n";
  }
  return out;
}

/// One seeded operation applied identically to every store.
void mutate(std::mt19937& rng, const std::vector<DirectoryServer*>& stores) {
  const int target = static_cast<int>(rng() % 32);
  const std::string dn = "cn=E" + std::to_string(target) + ",o=xyz";
  const std::string dept = std::to_string(rng() % 3);
  const bool exists = stores.front()->dit().contains(Dn::parse(dn));
  for (DirectoryServer* store : stores) {
    if (!exists) {
      store->add(make_entry(dn, {{"objectclass", "person"}, {"dept", dept}}));
    } else if (target % 4 == 0) {
      store->remove(Dn::parse(dn));
    } else {
      store->modify(Dn::parse(dn),
                    {{Modification::Op::Replace, "dept", {dept}}});
    }
  }
}

// The fast master pumps every round and trims behind itself; the slow one
// pumps every fifth round. The slow master must still replay every record
// (no compaction rebase) and answer exactly what a master with a store of
// its own answers. Both masters run sharded on pump threads, so the shard
// threads read each batch while the other master's reader is registered on
// the same journal.
TEST(JournalReaderTwin, SlowerMasterOnASharedStoreLosesNoRecord) {
  auto shared = make_store();
  auto own = make_store();
  resync::ReSyncMaster fast(*shared);
  resync::ReSyncMaster slow(*shared);
  resync::ReSyncMaster twin(*own);
  for (resync::ReSyncMaster* master : {&fast, &slow, &twin}) {
    master->set_pump_shards(4);
    master->set_pump_threads(2);
  }

  const Query query = Query::parse("o=xyz", Scope::Subtree, "(dept=1)");
  std::string fast_cookie =
      fast.handle(query, {resync::Mode::Poll, ""}).cookie;
  const resync::ReSyncResponse slow_initial =
      slow.handle(query, {resync::Mode::Poll, ""});
  const resync::ReSyncResponse twin_initial =
      twin.handle(query, {resync::Mode::Poll, ""});
  ASSERT_EQ(signature(slow_initial), signature(twin_initial));
  std::string slow_cookie = slow_initial.cookie;
  std::string twin_cookie = twin_initial.cookie;

  std::mt19937 rng(20050622);
  std::size_t shipped = 0;
  for (int round = 1; round <= 60; ++round) {
    for (int i = 0; i < 4; ++i) mutate(rng, {shared.get(), own.get()});
    fast.pump();
    fast_cookie = fast.handle(query, {resync::Mode::Poll, fast_cookie}).cookie;
    // The fast master has consumed everything; only the slow one holds the
    // records of its unpumped rounds.
    EXPECT_EQ(shared->journal().size(),
              static_cast<std::size_t>(4 * ((round - 1) % 5 + 1)))
        << "round " << round;
    if (round % 5 != 0) continue;

    slow.pump();
    twin.pump();
    const resync::ReSyncResponse s =
        slow.handle(query, {resync::Mode::Poll, slow_cookie});
    const resync::ReSyncResponse t =
        twin.handle(query, {resync::Mode::Poll, twin_cookie});
    ASSERT_EQ(signature(s), signature(t)) << "round " << round;
    EXPECT_FALSE(s.full_reload) << "round " << round;
    slow_cookie = s.cookie;
    twin_cookie = t.cookie;
    shipped += s.pdus.size();
    EXPECT_EQ(shared->journal().size(), 0u);
  }
  EXPECT_GT(shipped, 0u);
  EXPECT_EQ(slow.governor_stats().compaction_rebases, 0u);
  EXPECT_EQ(twin.governor_stats().compaction_rebases, 0u);
  // The twin's store has its one master as its only reader: it trims too.
  EXPECT_EQ(own->journal().size(), 0u);
}

}  // namespace
}  // namespace fbdr::server
