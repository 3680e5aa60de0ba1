#pragma once

#include "report.h"
#include "trace.h"

namespace perfbench {

/// A workload measures into `report` and counts operations and correctness
/// failures into `outcome`. With config.trace it reports per-layer metrics
/// from a traced run; otherwise end-to-end metrics from untraced runs.
void run_tree_updates(const RunConfig& config, Report& report, Outcome& outcome);
void run_many_replicas(const RunConfig& config, Report& report, Outcome& outcome);
void run_replica_reads(const RunConfig& config, Report& report, Outcome& outcome);

/// The generic end-to-end metrics every workload reports under one name
/// each, from the best-of-trials time of every operation. `op` is the
/// workload's own client operation.
void add_op_metrics(Report& report, const std::vector<double>& op_us);

/// Sorted-key comparison that counts a mismatch as failed operations.
void check_keys(const std::vector<std::string>& got,
                const std::vector<std::string>& want, const std::string& what,
                Outcome& outcome);

}  // namespace perfbench
