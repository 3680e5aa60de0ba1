#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ldap/dn.h"
#include "ldap/entry.h"

namespace fbdr::sync {

/// One batch of updates shipped from the master to a replica for one
/// replicated query, mirroring equation (2)/(3) of the paper:
///   adds    = E01(t, t')  entries that moved into the content,
///   mods    = E11(t, t')  entries changed but still inside,
///   deletes = E10(t, t')  DNs of entries that moved out,
///   retains = Eun(t, t')  DNs of unchanged entries (only used by protocols
///                         without complete history information, eq. 3).
struct UpdateBatch {
  std::vector<ldap::EntryPtr> adds;
  std::vector<ldap::EntryPtr> mods;
  std::vector<ldap::Dn> deletes;
  std::vector<ldap::Dn> retains;
  bool full_reload = false;  // replica must clear content before applying
  /// Equation (3) mode: the batch enumerates the entire content (adds + mods
  /// + retains); the replica drops any entry not mentioned.
  bool complete_enumeration = false;

  bool empty() const {
    return adds.empty() && mods.empty() && deletes.empty() && retains.empty() &&
           !full_reload;
  }

  /// Entries transferred (the unit of Figs. 6-7).
  std::size_t entries_sent() const { return adds.size() + mods.size(); }

  /// DN-only PDUs transferred.
  std::size_t dns_sent() const { return deletes.size() + retains.size(); }

  std::string to_string() const;
};

}  // namespace fbdr::sync
