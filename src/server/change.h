#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "ldap/dn.h"
#include "ldap/entry.h"

namespace fbdr::server {

/// LDAP update operation kinds (RFC 2251 §4.6-4.9).
enum class ChangeType { Add, Delete, Modify, ModifyDn };

std::string to_string(ChangeType type);

/// One attribute modification within a modify operation.
struct Modification {
  enum class Op { AddValues, DeleteValues, Replace };

  Op op = Op::Replace;
  std::string attr;
  std::vector<std::string> values;  // empty + DeleteValues/Replace = remove all
};

/// A journaled update with full before/after entry snapshots. The sync
/// back-ends consume these records; the degraded views used by the baseline
/// protocols (tombstones: DN only; changelogs: changed attributes only) are
/// derived from them in src/sync.
struct ChangeRecord {
  std::uint64_t seq = 0;
  ChangeType type = ChangeType::Add;
  ldap::Dn dn;                       // target entry (old DN for ModifyDn)
  ldap::Dn new_dn;                   // ModifyDn only
  ldap::EntryPtr before;             // null for Add
  ldap::EntryPtr after;              // null for Delete
  std::vector<Modification> mods;    // Modify only (the changelog's view)

  std::string to_string() const;
};

/// Append-only journal of updates applied at a master server, with monotonic
/// sequence numbers. Sequence numbers double as the protocol's logical
/// update timeline.
///
/// Consumers register as Readers. Once every live reader has consumed a
/// record, the journal drops it; a journal with no reader keeps everything.
///
/// With a retention horizon set (set_retention) the journal also
/// self-compacts: each append drops the oldest records past the horizon, even
/// ones a stalled reader has not consumed. Consumers that fall behind the
/// horizon detect the gap via trimmed_up_to() and must rebase from the DIT
/// (see ReSyncMaster::pump) instead of replaying records.
class ChangeJournal {
 public:
  /// A registered consumer position: the last sequence number its owner has
  /// consumed. Starts at the journal's tail. The pointers pending() hands out
  /// stay valid until this reader advances past them, or until retention
  /// compacts them away. A reader must not outlive its journal.
  class Reader {
   public:
    explicit Reader(ChangeJournal& journal);
    Reader(Reader&& other) noexcept;
    ~Reader();

    std::uint64_t position() const { return *slot_; }
    /// Compaction dropped records this reader never consumed.
    bool behind() const { return journal_->trimmed_up_to() > position(); }
    /// Records after position(), in order.
    std::vector<const ChangeRecord*> pending() const {
      return journal_->since(position());
    }
    /// Marks every record up to `seq` consumed; the journal then drops what
    /// all its readers have consumed.
    void advance(std::uint64_t seq);

   private:
    ChangeJournal* journal_;
    std::multiset<std::uint64_t>::iterator slot_;
  };

  ChangeJournal() = default;
  // Readers point at their journal.
  ChangeJournal(const ChangeJournal&) = delete;
  ChangeJournal& operator=(const ChangeJournal&) = delete;

  /// Appends a record; assigns and returns its sequence number. Compacts the
  /// front past the retention horizon.
  std::uint64_t append(ChangeRecord record);

  /// Records with seq > `after_seq`, in order. Precondition for completeness:
  /// after_seq >= trimmed_up_to(), otherwise the gap records are simply
  /// missing from the result — check trimmed_up_to() first.
  std::vector<const ChangeRecord*> since(std::uint64_t after_seq) const;

  std::uint64_t last_seq() const noexcept { return next_seq_ - 1; }
  std::size_t size() const noexcept { return records_.size(); }
  const ChangeRecord& at(std::size_t index) const { return records_.at(index); }

  /// Drops records with seq <= `up_to_seq` (log trimming), regardless of
  /// readers.
  void trim(std::uint64_t up_to_seq);

  /// Retention horizon in records; 0 keeps everything. Applies immediately
  /// and on every subsequent append.
  void set_retention(std::size_t max_records);
  std::size_t retention() const noexcept { return retention_; }

  /// Highest sequence number ever dropped by trim/compaction (0 = nothing
  /// was ever dropped; all history since seq 1 is still replayable).
  std::uint64_t trimmed_up_to() const noexcept { return trimmed_up_to_; }

 private:
  void compact();

  // Deque: O(1) front-pops, and references (the pointers since() hands out)
  // that stay valid across appends and the popping of other records.
  std::deque<ChangeRecord> records_;
  std::multiset<std::uint64_t> readers_;  // positions of the live readers
  std::uint64_t next_seq_ = 1;
  std::size_t retention_ = 0;
  std::uint64_t trimmed_up_to_ = 0;
};

}  // namespace fbdr::server
