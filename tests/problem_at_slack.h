// The paper's problem recipe (make_problem in core/resources.h) at the
// design's critical path plus `slack` control steps, for tests that size
// the latency from the critical path instead of a fixed step count.
#pragma once

#include <utility>

#include "core/resources.h"
#include "sched/asap_alap.h"

namespace salsa {

inline ProblemBundle make_problem_at_slack(Cdfg graph, const HwSpec& hw,
                                           int slack, SpareRegisters spare) {
  const int length = min_schedule_length(graph, hw) + slack;
  return make_problem(std::move(graph), hw, length, spare);
}

}  // namespace salsa
