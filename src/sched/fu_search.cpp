#include "sched/fu_search.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "sched/force_directed.h"

namespace salsa {

FuBudget peak_fu_demand(const Schedule& sched) {
  // Per-step FU occupancy by class, counted in one pass over the
  // operations: each occupies [start, start + occupancy), clipped to the
  // schedule (no wrap-around).
  const Cdfg& g = sched.cdfg();
  const int length = sched.length();
  std::vector<int> alu(static_cast<size_t>(length), 0);
  std::vector<int> mul(static_cast<size_t>(length), 0);
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    const OpKind k = g.node(id).kind;
    if (!is_operation(k)) continue;
    std::vector<int>& row = fu_class_of(k) == FuClass::kMul ? mul : alu;
    const int end = std::min(sched.start(id) + sched.hw().occupancy(k), length);
    for (int t = sched.start(id); t < end; ++t) ++row[static_cast<size_t>(t)];
  }
  FuBudget peak;
  for (int t = 0; t < length; ++t) {
    peak.alu = std::max(peak.alu, alu[static_cast<size_t>(t)]);
    peak.mul = std::max(peak.mul, mul[static_cast<size_t>(t)]);
  }
  return peak;
}

FuBudget occupancy_bound(const Cdfg& g, const HwSpec& hw, int length) {
  int ops[2] = {0, 0}, busy[2] = {0, 0};
  for (NodeId id : g.operations()) {
    const OpKind k = g.node(id).kind;
    const auto cls = static_cast<size_t>(fu_class_of(k));
    ++ops[cls];
    busy[cls] += hw.occupancy(k);
  }
  auto bound = [&](FuClass c) {
    const auto cls = static_cast<size_t>(c);
    return std::max(ops[cls] > 0 ? 1 : 0, (busy[cls] + length - 1) / length);
  };
  return FuBudget{bound(FuClass::kAlu), bound(FuClass::kMul)};
}

FuSearchResult schedule_min_fu(const Cdfg& g, const HwSpec& hw, int length,
                               double alu_cost, double mul_cost,
                               const Parallelism& /*inert*/) {
  Schedule fds = force_directed_schedule(g, hw, length);
  FuBudget best_fus = peak_fu_demand(fds);
  Schedule best = fds;
  double best_cost = alu_cost * best_fus.alu + mul_cost * best_fus.mul;

  const FuBudget lb = occupancy_bound(g, hw, length);

  // The walk prunes against a running best: the cost gate and the loop's
  // upper bounds shrink as better envelopes are found, and each point is
  // list-scheduled only when the walk reaches it.
  for (int alu = lb.alu; alu <= std::max(best_fus.alu, lb.alu); ++alu) {
    for (int mul = lb.mul; mul <= std::max(best_fus.mul, lb.mul); ++mul) {
      const double cost = alu_cost * alu + mul_cost * mul;
      if (cost >= best_cost) continue;
      const std::optional<Schedule> s =
          list_schedule(g, hw, length, FuBudget{alu, mul});
      if (!s) continue;
      const FuBudget demand = peak_fu_demand(*s);
      const double real_cost = alu_cost * demand.alu + mul_cost * demand.mul;
      if (real_cost < best_cost) {
        best_cost = real_cost;
        best = *s;
        best_fus = demand;
      }
    }
  }
  return FuSearchResult{best, best_fus};
}

}  // namespace salsa
