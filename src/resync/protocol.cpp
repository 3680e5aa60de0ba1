#include "resync/protocol.h"

namespace fbdr::resync {

std::string to_string(Mode mode) {
  switch (mode) {
    case Mode::Poll:
      return "poll";
    case Mode::Persist:
      return "persist";
    case Mode::SyncEnd:
      return "sync_end";
  }
  return "unknown";
}

std::string ReSyncControl::to_string() const {
  return "(" + resync::to_string(mode) + ", " +
         (cookie.empty() ? "null" : cookie) +
         (reconcile ? ", reconcile r" + std::to_string(reconcile->round) : "") +
         ")";
}

std::string to_string(Action action) {
  switch (action) {
    case Action::Add:
      return "add";
    case Action::Modify:
      return "mod";
    case Action::Delete:
      return "delete";
    case Action::Retain:
      return "retain";
  }
  return "unknown";
}

std::string EntryPdu::to_string() const {
  return dn.to_string() + ", " + resync::to_string(action);
}

std::size_t ReSyncResponse::entries_sent() const {
  std::size_t count = 0;
  for (const EntryPdu& pdu : pdus) {
    if (pdu.action == Action::Add || pdu.action == Action::Modify) ++count;
  }
  return count;
}

std::size_t ReSyncResponse::dns_sent() const {
  return pdus.size() - entries_sent();
}

void count_pdus(net::TrafficStats& traffic, const std::vector<EntryPdu>& pdus) {
  for (const EntryPdu& pdu : pdus) {
    if (pdu.entry) {
      traffic.note_entry();
    } else {
      traffic.note_dn();
    }
  }
}

std::vector<EntryPdu> to_pdus(const sync::UpdateBatch& batch) {
  std::vector<EntryPdu> pdus;
  pdus.reserve(batch.adds.size() + batch.mods.size() + batch.deletes.size() +
               batch.retains.size());
  for (const ldap::EntryPtr& entry : batch.adds) {
    pdus.push_back({Action::Add, entry->dn(), entry});
  }
  for (const ldap::EntryPtr& entry : batch.mods) {
    pdus.push_back({Action::Modify, entry->dn(), entry});
  }
  for (const ldap::Dn& dn : batch.deletes) {
    pdus.push_back({Action::Delete, dn, nullptr});
  }
  for (const ldap::Dn& dn : batch.retains) {
    pdus.push_back({Action::Retain, dn, nullptr});
  }
  return pdus;
}

sync::UpdateBatch from_pdus(const std::vector<EntryPdu>& pdus, bool full_reload,
                            bool complete_enumeration) {
  sync::UpdateBatch batch;
  batch.full_reload = full_reload;
  batch.complete_enumeration = complete_enumeration;
  for (const EntryPdu& pdu : pdus) {
    switch (pdu.action) {
      case Action::Add:
        batch.adds.push_back(pdu.entry);
        break;
      case Action::Modify:
        batch.mods.push_back(pdu.entry);
        break;
      case Action::Delete:
        batch.deletes.push_back(pdu.dn);
        break;
      case Action::Retain:
        batch.retains.push_back(pdu.dn);
        break;
    }
  }
  return batch;
}

sync::UpdateBatch to_batch(const ReSyncResponse& response) {
  return from_pdus(response.pdus, response.full_reload,
                   response.complete_enumeration);
}

}  // namespace fbdr::resync
