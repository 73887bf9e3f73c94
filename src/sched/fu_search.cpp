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

FuSearchResult schedule_min_fu(const Cdfg& g, const HwSpec& hw, int length,
                               double alu_cost, double mul_cost,
                               const Parallelism& /*inert*/) {
  Schedule fds = force_directed_schedule(g, hw, length);
  FuBudget best_fus = peak_fu_demand(fds);
  Schedule best = fds;
  double best_cost = alu_cost * best_fus.alu + mul_cost * best_fus.mul;

  // Occupancy lower bounds: total busy-steps / length, rounded up.
  int alu_occ = 0, mul_occ = 0;
  for (NodeId id : g.operations()) {
    const OpKind k = g.node(id).kind;
    (fu_class_of(k) == FuClass::kAlu ? alu_occ : mul_occ) += hw.occupancy(k);
  }
  const int alu_lb = std::max(g.count(OpKind::kAdd) + g.count(OpKind::kSub) +
                                      g.count(OpKind::kNop) > 0 ? 1 : 0,
                              (alu_occ + length - 1) / length);
  const int mul_lb = std::max(g.count(OpKind::kMul) > 0 ? 1 : 0,
                              (mul_occ + length - 1) / length);

  // The walk prunes against a running best: the cost gate and the loop's
  // upper bounds shrink as better envelopes are found, and each point is
  // list-scheduled only when the walk reaches it.
  for (int alu = alu_lb; alu <= std::max(best_fus.alu, alu_lb); ++alu) {
    for (int mul = mul_lb; mul <= std::max(best_fus.mul, mul_lb); ++mul) {
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
