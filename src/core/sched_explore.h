// Schedule-variant exploration. The paper initially included moves that
// alter operator scheduling in the improvement move set and dropped them
// ("in our experience these moves did not lead to better allocations",
// Section 3). Rescheduling invalidates the segment structure, so rather
// than in-search moves this module explores schedule variants in an outer
// loop: several randomised list schedules with identical FU budgets are
// each allocated, and the best datapath wins. bench_ablation_resched
// quantifies how much (or little) this buys — reproducing the remark.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/allocator.h"
#include "sched/list_scheduler.h"

namespace salsa {

struct ScheduleExploreParams {
  int variants = 6;  ///< randomised schedules to try (plus the baseline)
  AllocatorOptions alloc;
  uint64_t seed = 1;
  /// Variant-level parallelism. Each variant owns its Schedule/AllocProblem
  /// and draws schedule jitter and allocation seeds from SplitMix64 streams
  /// of `seed`, so the winner, variant_costs and variant_stats are
  /// byte-identical for every thread count (reduction in variant order,
  /// ties keep the earliest variant). A variant's own restarts run inline
  /// on its thread (see util/thread_pool.h), so alloc.parallelism does not
  /// apply here.
  Parallelism parallelism;
};

struct ScheduleExploreResult {
  /// Owning handles: the winning allocation's binding refers to `problem`,
  /// which refers to `schedule`.
  std::unique_ptr<Schedule> schedule;
  std::unique_ptr<AllocProblem> problem;
  std::optional<AllocationResult> allocation;
  /// Final cost of every variant tried (baseline first).
  std::vector<double> variant_costs;
  /// Search statistics of every variant tried, parallel to variant_costs.
  std::vector<ImproveStats> variant_stats;
};

/// Schedules `cdfg` into `length` steps under `budget` FUs several times
/// with randomised priorities, allocates each variant, and returns the best.
ScheduleExploreResult explore_schedules(const Cdfg& cdfg, const HwSpec& hw,
                                        int length, const FuBudget& budget,
                                        const ScheduleExploreParams& params);

}  // namespace salsa
