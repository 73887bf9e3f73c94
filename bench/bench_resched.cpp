// Section 3 remark: moves that alter operator scheduling "did not lead to
// better allocations and so were omitted". This harness quantifies the
// modern equivalent — an outer loop over randomised schedule variants with
// identical FU budgets — against simply spending the same effort on more
// allocation restarts of the baseline schedule.
#include <cstdio>

#include "bench_common.h"
#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "core/sched_explore.h"
#include "util/table.h"

using namespace salsa;
using namespace salsa::benchharness;

int main() {
  std::printf("Schedule-variant exploration vs more allocation restarts\n\n");
  struct Case {
    const char* name;
    Cdfg (*make)();
    int len;
  };
  const Case cases[] = {
      {"ewf@17", make_ewf, 17},
      {"ewf@19", make_ewf, 19},
      {"dct@9", make_dct, 9},
  };
  TextTable t;
  t.header({"workload", "strategy", "muxes", "cost", "variants tried"});
  for (const Case& c : cases) {
    HwSpec hw;
    const FuBudget budget = schedule_min_fu(c.make(), hw, c.len).fus;

    // Strategy A: one schedule, 4 allocation restarts.
    {
      ProblemBundle b = make_problem(c.make(), c.len, false, 1);
      AllocatorOptions opts;
      opts.improve = standard_improve(21);
      opts.improve.max_trials = 8;
      opts.restarts = 4;
      const AllocationResult res = allocate(*b.problem, opts);
      t.row({c.name, "4 restarts, 1 schedule",
             std::to_string(res.cost.muxes), fmt(res.cost.total, 0), "1"});
    }
    // Strategy B: 3 schedule variants + baseline, 1 restart each.
    {
      ScheduleExploreParams p;
      p.variants = 3;
      p.alloc.improve = standard_improve(22);
      p.alloc.improve.max_trials = 8;
      p.seed = 5;
      const ScheduleExploreResult res =
          explore_schedules(c.make(), hw, c.len, budget, p);
      t.row({c.name, "4 schedules, 1 restart",
             std::to_string(res.allocation->cost.muxes),
             fmt(res.allocation->cost.total, 0),
             std::to_string(res.variant_costs.size())});
    }
    t.separator();
  }
  std::printf("%s\n", t.render().c_str());
  return 0;
}
