#include "server/change.h"

#include <algorithm>

namespace fbdr::server {

std::string to_string(ChangeType type) {
  switch (type) {
    case ChangeType::Add:
      return "add";
    case ChangeType::Delete:
      return "delete";
    case ChangeType::Modify:
      return "modify";
    case ChangeType::ModifyDn:
      return "modifyDN";
  }
  return "unknown";
}

std::string ChangeRecord::to_string() const {
  std::string out = "#" + std::to_string(seq) + " " + server::to_string(type) +
                    " '" + dn.to_string() + "'";
  if (type == ChangeType::ModifyDn) out += " -> '" + new_dn.to_string() + "'";
  return out;
}

std::uint64_t ChangeJournal::append(ChangeRecord record) {
  record.seq = next_seq_++;
  records_.push_back(std::move(record));
  const std::uint64_t seq = records_.back().seq;
  compact();
  return seq;
}

std::vector<const ChangeRecord*> ChangeJournal::since(std::uint64_t after_seq) const {
  std::vector<const ChangeRecord*> out;
  // Records are seq-ordered; binary search for the first seq > after_seq.
  auto it = std::upper_bound(records_.begin(), records_.end(), after_seq,
                             [](std::uint64_t seq, const ChangeRecord& r) {
                               return seq < r.seq;
                             });
  out.reserve(static_cast<std::size_t>(records_.end() - it));
  for (; it != records_.end(); ++it) out.push_back(&*it);
  return out;
}

void ChangeJournal::trim(std::uint64_t up_to_seq) {
  while (!records_.empty() && records_.front().seq <= up_to_seq) {
    trimmed_up_to_ = records_.front().seq;
    records_.pop_front();
  }
  // Trimming a fully drained range still moves the horizon forward.
  if (records_.empty() && up_to_seq >= trimmed_up_to_ &&
      up_to_seq <= last_seq()) {
    trimmed_up_to_ = up_to_seq;
  }
}

ChangeJournal::Reader::Reader(ChangeJournal& journal)
    : journal_(&journal), slot_(journal.readers_.insert(journal.last_seq())) {}

ChangeJournal::Reader::Reader(Reader&& other) noexcept
    : journal_(other.journal_), slot_(other.slot_) {
  other.journal_ = nullptr;
}

ChangeJournal::Reader::~Reader() {
  if (journal_ == nullptr) return;  // moved from
  journal_->readers_.erase(slot_);
  if (!journal_->readers_.empty()) {
    journal_->trim(*journal_->readers_.begin());
  }
}

void ChangeJournal::Reader::advance(std::uint64_t seq) {
  auto node = journal_->readers_.extract(slot_);
  node.value() = seq;
  slot_ = journal_->readers_.insert(std::move(node));
  journal_->trim(*journal_->readers_.begin());
}

void ChangeJournal::set_retention(std::size_t max_records) {
  retention_ = max_records;
  compact();
}

void ChangeJournal::compact() {
  if (retention_ == 0) return;
  while (records_.size() > retention_) {
    trimmed_up_to_ = records_.front().seq;
    records_.pop_front();
  }
}

}  // namespace fbdr::server
