// Minimum-functional-unit search for a latency budget: force-directed
// scheduling provides a good starting envelope, then a small lattice search
// with the list scheduler tightens it. The paper's experiments fix FU and
// register counts by scheduling (Section 1); this module regenerates those
// envelopes.
#pragma once

#include "sched/list_scheduler.h"
#include "util/thread_pool.h"

namespace salsa {

struct FuSearchResult {
  Schedule schedule;
  FuBudget fus;  ///< peak concurrent FU demand of `schedule`
};

/// Peak per-class FU demand of a schedule.
FuBudget peak_fu_demand(const Schedule& sched);

/// Finds a schedule of `length` steps minimising alu_cost*#ALU +
/// mul_cost*#MUL. Throws if `length` is infeasible. The candidate FU
/// lattice is walked sequentially with the list scheduler. The Parallelism
/// argument is inert: the end-to-end benchmark (perfbench/e2e.cpp) still
/// passes one, so it stays until the next change to the benchmark deletes
/// it with that call.
FuSearchResult schedule_min_fu(const Cdfg& cdfg, const HwSpec& hw, int length,
                               double alu_cost = 1.0, double mul_cost = 4.0,
                               const Parallelism& = {});

}  // namespace salsa
