#include "sync/update_batch.h"

namespace fbdr::sync {

std::string UpdateBatch::to_string() const {
  return std::string(full_reload ? "[reload] " : "") +
         "adds=" + std::to_string(adds.size()) +
         " mods=" + std::to_string(mods.size()) +
         " deletes=" + std::to_string(deletes.size()) +
         " retains=" + std::to_string(retains.size());
}

}  // namespace fbdr::sync
