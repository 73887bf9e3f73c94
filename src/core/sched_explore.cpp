#include "core/sched_explore.h"

#include <optional>
#include <utility>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace salsa {

namespace {

/// One schedule variant, fully owned: the allocation's binding refers to
/// `problem`, which refers to `schedule` — nothing shared across variants.
struct VariantOutcome {
  std::unique_ptr<Schedule> schedule;
  std::unique_ptr<AllocProblem> problem;
  AllocationResult allocation;
};

}  // namespace

ScheduleExploreResult explore_schedules(const Cdfg& cdfg, const HwSpec& hw,
                                        int length, const FuBudget& budget,
                                        const ScheduleExploreParams& params) {
  // Variant 0 is the deterministic baseline list schedule; variants 1..N
  // jitter the scheduler's priorities with a per-variant SplitMix64 stream
  // (even streams: jitter, odd streams: allocation seed). Every variant is
  // an independent task; infeasible jittered variants drop out without
  // shifting the other variants' seeds.
  auto run_variant = [&](int v) -> std::optional<VariantOutcome> {
    const uint64_t vv = static_cast<uint64_t>(v);
    std::optional<Schedule> sched;
    if (v == 0) {
      sched = list_schedule(cdfg, hw, length, budget);
      SALSA_CHECK_MSG(sched.has_value(),
                      "explore_schedules: infeasible length/budget combination");
    } else {
      Rng jitter(derive_seed(params.seed, 2 * vv));
      sched = list_schedule(cdfg, hw, length, budget, &jitter);
      if (!sched) return std::nullopt;
    }
    auto schedule = std::make_unique<Schedule>(std::move(*sched));
    auto problem = std::make_unique<AllocProblem>(
        *schedule, FuPool::standard(budget), SpareRegisters{1});
    AllocatorOptions opts = params.alloc;
    opts.improve.seed = derive_seed(params.seed, 2 * vv + 1);
    AllocationResult res = allocate(*problem, opts);
    return VariantOutcome{std::move(schedule), std::move(problem),
                          std::move(res)};
  };
  auto outcomes = parallel_map(params.parallelism, params.variants + 1,
                               run_variant);

  // Reduction in variant order: baseline first, strict < keeps the earliest
  // of cost ties — identical for every thread count.
  ScheduleExploreResult out;
  for (auto& oc : outcomes) {
    if (!oc) continue;
    out.variant_costs.push_back(oc->allocation.cost.total);
    out.variant_stats.push_back(oc->allocation.stats);
    if (!out.allocation ||
        oc->allocation.cost.total < out.allocation->cost.total) {
      out.schedule = std::move(oc->schedule);
      out.problem = std::move(oc->problem);
      out.allocation.emplace(std::move(oc->allocation));
    }
  }
  return out;
}

}  // namespace salsa
