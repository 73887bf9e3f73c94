// The rescanning schedulers that list_schedule (sched/list_scheduler.h) and
// force_directed_schedule (sched/force_directed.h) replaced, kept verbatim as
// the test-only references, the way sim_reference.h keeps the rescanning
// simulator. The list scheduler rescans every node at every step; the force
// loop re-sums the whole distribution graph for every candidate step and
// re-clamps every earlier pin from the unpinned frames after each pin. Both
// read the same TimingModel as the schedulers they check. The production
// schedulers must return the same start steps, the same std::nullopt and the
// same errors on every input.
#pragma once

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "sched/asap_alap.h"
#include "sched/list_scheduler.h"
#include "util/rng.h"

namespace salsa::reference {

inline std::optional<Schedule> list_schedule(const Cdfg& g, const HwSpec& hw,
                                             int length,
                                             const FuBudget& budget,
                                             Rng* jitter = nullptr) {
  const TimingModel tm(g, hw);
  const auto alap_opt = tm.alap(length);
  if (!alap_opt) return std::nullopt;
  const auto& alap = *alap_opt;
  // Optional priority noise: breaks ties (and mildly reorders near-ties) so
  // repeated calls yield distinct but equally resource-bounded schedules.
  std::vector<int> noise(static_cast<size_t>(g.num_nodes()), 0);
  if (jitter != nullptr)
    for (auto& n : noise) n = jitter->uniform(3);

  Schedule sched(g, hw, length);
  std::vector<bool> done(static_cast<size_t>(g.num_nodes()), false);
  // Pinned nodes sit at step 0 and are "done" upfront.
  int remaining = 0;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    if (tm.pinned(id))
      done[static_cast<size_t>(id)] = true;
    else
      ++remaining;
  }

  std::vector<std::vector<int>> busy(2, std::vector<int>(
                                            static_cast<size_t>(length), 0));

  for (int step = 0; step < length && remaining > 0; ++step) {
    // Candidates: every constraint on the node met by a placed node, and the
    // node's deadline not yet passed.
    std::vector<NodeId> cands;
    for (NodeId id = 0; id < g.num_nodes(); ++id) {
      if (done[static_cast<size_t>(id)] || step > tm.deadline(id, length))
        continue;
      const auto edges = tm.edges_into(id);
      if (std::all_of(edges.begin(), edges.end(), [&](const auto& e) {
            return done[static_cast<size_t>(e.from)] &&
                   step >= sched.start(e.from) + e.weight;
          }))
        cands.push_back(id);
    }
    // Most urgent first; outputs cost nothing and are placed unconditionally.
    std::sort(cands.begin(), cands.end(), [&](NodeId a, NodeId b) {
      const int pa = alap[static_cast<size_t>(a)] + noise[static_cast<size_t>(a)];
      const int pb = alap[static_cast<size_t>(b)] + noise[static_cast<size_t>(b)];
      return pa != pb ? pa < pb : a < b;
    });
    for (NodeId id : cands) {
      const Node& n = g.node(id);
      if (n.kind == OpKind::kOutput) {
        sched.set_start(id, step);
        done[static_cast<size_t>(id)] = true;
        --remaining;
        continue;
      }
      const FuClass cls = fu_class_of(n.kind);
      const int occ = hw.occupancy(n.kind);
      bool fits = true;
      for (int t = step; t < step + occ; ++t) {
        if (t >= length ||
            busy[static_cast<size_t>(cls)][static_cast<size_t>(t)] >=
                budget.of(cls)) {
          fits = false;
          break;
        }
      }
      if (!fits) continue;
      for (int t = step; t < step + occ; ++t)
        ++busy[static_cast<size_t>(cls)][static_cast<size_t>(t)];
      sched.set_start(id, step);
      done[static_cast<size_t>(id)] = true;
      --remaining;
    }
  }
  if (remaining > 0) return std::nullopt;
  sched.validate();
  return sched;
}

struct Frames {
  std::vector<int> lo;  // earliest start per node
  std::vector<int> hi;  // latest start per node
};

// The frames with every pinned node (pins[i] >= 0) clamped to its step and
// the constraints re-relaxed from the unpinned frames. Returns false if a pin
// falls outside its frame or the pins leave some node without a step.
inline bool pin_frames(const TimingModel& tm, const Frames& unpinned,
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

inline Schedule force_directed_schedule(const Cdfg& g, const HwSpec& hw,
                                        int length) {
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

}  // namespace salsa::reference
