#include "sched/force_directed.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "sched/asap_alap.h"
#include "sched/list_scheduler.h"

namespace salsa {

namespace {

struct Frames {
  std::vector<int> lo;  // earliest start per node
  std::vector<int> hi;  // latest start per node
};

// The frames with every pinned node (pins[i] >= 0) clamped to its step and
// the constraints re-relaxed from the unpinned frames. Returns false if a pin
// falls outside its frame or the pins leave some node without a step.
bool pin_frames(const TimingModel& tm, const Frames& unpinned,
                const std::vector<int>& pins, Frames& out) {
  out = unpinned;
  for (size_t i = 0; i < pins.size(); ++i) {
    if (pins[i] < 0) continue;
    if (pins[i] < out.lo[i] || pins[i] > out.hi[i]) return false;
    out.lo[i] = out.hi[i] = pins[i];
  }
  if (!tm.relax_lower(out.lo) || !tm.relax_upper(out.hi)) return false;
  for (size_t i = 0; i < out.lo.size(); ++i)
    if (out.lo[i] > out.hi[i]) return false;
  return true;
}

}  // namespace

Schedule force_directed_schedule(const Cdfg& g, const HwSpec& hw, int length) {
  const TimingModel tm(g, hw);
  std::vector<int> pins(static_cast<size_t>(g.num_nodes()), -1);
  // Pinned nodes sit at step 0; outputs are placed at the end.
  for (NodeId id = 0; id < g.num_nodes(); ++id)
    if (tm.pinned(id)) pins[static_cast<size_t>(id)] = 0;
  std::optional<std::vector<int>> alap = tm.alap(length);
  Frames base, fr;
  if (alap) base = {tm.asap(), std::move(*alap)};
  if (!alap || !pin_frames(tm, base, pins, fr))
    fail("force_directed_schedule: length " + std::to_string(length) +
         " is infeasible for '" + g.name() + "'");

  const auto ops = g.operations();
  // Distribution graphs, one per FU class.
  std::vector<std::vector<double>> dg(
      2, std::vector<double>(static_cast<size_t>(length), 0.0));
  auto add_distribution = [&](NodeId id, double sign) {
    const Node& n = g.node(id);
    const auto cls = static_cast<size_t>(fu_class_of(n.kind));
    const int occ = hw.occupancy(n.kind);
    const size_t i = static_cast<size_t>(id);
    const double p = sign / (fr.hi[i] - fr.lo[i] + 1);
    for (int s = fr.lo[i]; s <= fr.hi[i]; ++s)
      for (int t = s; t < s + occ && t < length; ++t)
        dg[cls][static_cast<size_t>(t)] += p;
  };
  for (NodeId id : ops) add_distribution(id, +1.0);

  // Greedy global-force minimisation: repeatedly pin the (op, step) whose
  // tentative placement minimises the sum of squared distribution heights.
  int unpinned = 0;
  for (NodeId id : ops)
    if (pins[static_cast<size_t>(id)] < 0) ++unpinned;
  while (unpinned > 0) {
    double best_metric = std::numeric_limits<double>::infinity();
    NodeId best_op = kInvalidId;
    int best_step = -1;
    for (NodeId id : ops) {
      const size_t i = static_cast<size_t>(id);
      if (pins[i] >= 0) continue;
      const Node& n = g.node(id);
      const auto cls = static_cast<size_t>(fu_class_of(n.kind));
      const int occ = hw.occupancy(n.kind);
      const double p = 1.0 / (fr.hi[i] - fr.lo[i] + 1);
      for (int s = fr.lo[i]; s <= fr.hi[i]; ++s) {
        // Metric delta of replacing the spread distribution by a point mass
        // at s, evaluated on this op's class DG only (others unchanged).
        double metric = 0;
        for (int t = 0; t < length; ++t) {
          double h = dg[cls][static_cast<size_t>(t)];
          // remove the op's current contribution at t
          const int lo_touch = std::max(fr.lo[i], t - occ + 1);
          const int hi_touch = std::min(fr.hi[i], t);
          if (lo_touch <= hi_touch) h -= p * (hi_touch - lo_touch + 1);
          if (t >= s && t < s + occ) h += 1.0;
          metric += h * h;
        }
        if (metric < best_metric) {
          best_metric = metric;
          best_op = id;
          best_step = s;
        }
      }
    }
    SALSA_CHECK(best_op != kInvalidId);
    // Pin and recompute frames + distributions.
    pins[static_cast<size_t>(best_op)] = best_step;
    Frames nf;
    const bool ok = pin_frames(tm, base, pins, nf);
    SALSA_CHECK_MSG(ok, "force-directed pin produced infeasible frames");
    for (NodeId id : ops) add_distribution(id, -1.0);
    fr = nf;
    for (NodeId id : ops) add_distribution(id, +1.0);
    --unpinned;
  }

  Schedule sched(g, hw, length);
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    const Node& n = g.node(id);
    if (is_operation(n.kind)) {
      sched.set_start(id, pins[static_cast<size_t>(id)]);
    } else if (n.kind == OpKind::kOutput) {
      sched.set_start(id, 0);  // fixed below once producers are pinned
    }
  }
  // Outputs sample as early as possible (shortest lifetimes).
  for (NodeId id : g.output_nodes())
    sched.set_start(id, sched.value_ready(g.node(id).ins[0]));
  sched.validate();
  return sched;
}

}  // namespace salsa
