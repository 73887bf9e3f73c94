#include "sched/force_directed.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "sched/asap_alap.h"
#include "sched/list_scheduler.h"

namespace salsa {

Schedule force_directed_schedule(const Cdfg& g, const HwSpec& hw, int length) {
  const TimingModel tm(g, hw);
  // The frames start at [ASAP, ALAP]; inputs, constants and states sit at
  // step 0 in both, and outputs are placed at the end.
  std::optional<std::vector<int>> alap = tm.alap(length);
  if (!alap)
    fail("force_directed_schedule: length " + std::to_string(length) +
         " is infeasible for '" + g.name() + "'");
  std::vector<int> lo = tm.asap(), hi = std::move(*alap);

  const auto ops = g.operations();
  const auto L = static_cast<size_t>(length);
  // Distribution graphs, one per FU class.
  std::vector<std::vector<double>> dg(2, std::vector<double>(L, 0.0));
  // Adds p once per start s in the op's frame to every step s..s+occ-1.
  // Step t takes its adds in a row, one per start that covers it, so it
  // sees the same sequence of roundings as the loop over starts would give.
  auto add_distribution = [&](NodeId id, double sign) {
    const Node& n = g.node(id);
    const auto cls = static_cast<size_t>(fu_class_of(n.kind));
    const int occ = hw.occupancy(n.kind);
    const size_t i = static_cast<size_t>(id);
    const double p = sign / (hi[i] - lo[i] + 1);
    const int end = std::min(hi[i] + occ, length);
    for (int t = lo[i]; t < end; ++t) {
      double h = dg[cls][static_cast<size_t>(t)];
      for (int k = std::min(hi[i], t) - std::max(lo[i], t - occ + 1); k >= 0;
           --k)
        h += p;
      dg[cls][static_cast<size_t>(t)] = h;
    }
  };
  for (NodeId id : ops) add_distribution(id, +1.0);

  // Greedy global-force minimisation: repeatedly pin the (op, step) whose
  // tentative placement minimises the sum over all steps of the squared
  // height of the op's class distribution, the op's spread replaced by a
  // point mass at the step. That sum, evaluated left to right over the
  // whole length, decides; ties go to the first (op, step) in op order.
  //
  // A filter finds the candidates that can win: with sq[c][t] the sum of
  // the first t squared heights of class c, the sum for (op, s) is
  // sq[c][L] plus the op's removal delta over its window [lo, hi+occ-1]
  // (computed once per op) plus the point mass's delta over [s, s+occ).
  // The filter and the exact sum each err by a few rounding units per step
  // relative to the true value (~3.3e-11 at 100,000 steps, the longest
  // schedule a design may ask for), so a slack of 1e-14 per step, at least
  // 1e-9 relative, keeps every candidate whose exact sum is the least.
  const double slack = 1e-14 * std::max(length, 100000);
  std::vector<std::vector<double>> sq(2, std::vector<double>(L + 1, 0.0));
  std::vector<double> rest;    // height minus the op's spread, over its window
  std::vector<double> filter;  // filter sum per candidate, in visiting order
  struct Partial {
    int step;
    double sum;  // exact sum over the steps before the sweep position
  };
  std::vector<Partial> queue, front;
  // The height h at step t with op i's spread (p per start) removed, in the
  // exact sum's own expression.
  auto without = [&](size_t i, int occ, double p, int t, double h) {
    const int lo_touch = std::max(lo[i], t - occ + 1);
    const int hi_touch = std::min(hi[i], t);
    if (lo_touch <= hi_touch) h -= p * (hi_touch - lo_touch + 1);
    return h;
  };
  std::vector<int> pin(static_cast<size_t>(g.num_nodes()), -1);
  for (size_t unpinned = ops.size(); unpinned > 0; --unpinned) {
    for (size_t c = 0; c < 2; ++c)
      for (size_t t = 0; t < L; ++t)
        sq[c][t + 1] = sq[c][t] + dg[c][t] * dg[c][t];

    filter.clear();
    double least = std::numeric_limits<double>::infinity();
    for (NodeId id : ops) {
      const size_t i = static_cast<size_t>(id);
      if (pin[i] >= 0) continue;
      const Node& n = g.node(id);
      const auto cls = static_cast<size_t>(fu_class_of(n.kind));
      const int occ = hw.occupancy(n.kind);
      const double p = 1.0 / (hi[i] - lo[i] + 1);
      const int end = std::min(hi[i] + occ, length);
      rest.resize(static_cast<size_t>(end - lo[i]));
      double removal = 0;
      for (int t = lo[i]; t < end; ++t) {
        const double h = dg[cls][static_cast<size_t>(t)];
        const double r = without(i, occ, p, t, h);
        rest[static_cast<size_t>(t - lo[i])] = r;
        removal += r * r - h * h;
      }
      const double base = sq[cls][L] + removal;
      for (int s = lo[i]; s <= hi[i]; ++s) {
        double mass = 0;
        for (int t = s; t < s + occ && t < end; ++t)
          mass += 2 * rest[static_cast<size_t>(t - lo[i])] + 1;
        filter.push_back(base + mass);
        least = std::min(least, base + mass);
      }
    }
    const double bound = least + slack * std::abs(least);

    // The exact sums of the survivors, one sweep over the steps per op. An
    // op's candidates share every term but the occ steps of their point
    // mass, and adding the same term to two partial sums never reverses
    // their order (rounding is monotone). So the sweep carries the
    // survivors whose point mass lies behind it, in step order, and drops
    // one as soon as an earlier survivor's partial sum is no larger: it can
    // then neither win nor win a tie. The last one left holds the op's
    // least exact sum, with the first step that reaches it.
    double best_metric = std::numeric_limits<double>::infinity();
    NodeId best_op = kInvalidId;
    int best_step = -1;
    size_t k = 0;
    for (NodeId id : ops) {
      const size_t i = static_cast<size_t>(id);
      if (pin[i] >= 0) continue;
      const size_t first = k;
      k += static_cast<size_t>(hi[i] - lo[i] + 1);
      if (std::none_of(filter.begin() + static_cast<ptrdiff_t>(first),
                       filter.begin() + static_cast<ptrdiff_t>(k),
                       [&](double f) { return f <= bound; }))
        continue;
      const Node& n = g.node(id);
      const auto cls = static_cast<size_t>(fu_class_of(n.kind));
      const int occ = hw.occupancy(n.kind);
      const double p = 1.0 / (hi[i] - lo[i] + 1);
      auto join = [&](const Partial& c) {
        if (front.empty() || c.sum < front.back().sum) front.push_back(c);
      };
      queue.clear();
      front.clear();
      size_t next = 0;  // first queued survivor not yet in the front
      double prefix = sq[cls][static_cast<size_t>(lo[i])];
      for (int t = lo[i]; t < length; ++t) {
        for (; next < queue.size() && queue[next].step + occ == t; ++next)
          join(queue[next]);
        if (t <= hi[i] &&
            filter[first + static_cast<size_t>(t - lo[i])] <= bound) {
          double sum = prefix;
          for (int u = t; u < t + occ && u < length; ++u) {
            const double h =
                without(i, occ, p, u, dg[cls][static_cast<size_t>(u)]) + 1.0;
            sum += h * h;
          }
          queue.push_back({t, sum});
        }
        const double h = without(i, occ, p, t, dg[cls][static_cast<size_t>(t)]);
        const double sq_h = h * h;
        prefix += sq_h;
        size_t kept = 0;
        for (const Partial& c : front) {
          const double sum = c.sum + sq_h;
          if (kept == 0 || sum < front[kept - 1].sum)
            front[kept++] = {c.step, sum};
        }
        front.resize(kept);
      }
      for (; next < queue.size(); ++next) join(queue[next]);
      if (front.back().sum < best_metric) {
        best_metric = front.back().sum;
        best_op = id;
        best_step = front.back().step;
      }
    }
    SALSA_CHECK(best_op != kInvalidId);

    // Pin, relax the frames from the current ones, and rebuild the
    // distributions: every op's spread removed with the old frames, then
    // added with the new ones, in op order (the heights' rounding decides
    // later ties).
    const auto b = static_cast<size_t>(best_op);
    pin[b] = best_step;
    for (NodeId id : ops) add_distribution(id, -1.0);
    lo[b] = hi[b] = best_step;
    bool ok = tm.relax_lower(lo) && tm.relax_upper(hi);
    for (size_t i = 0; ok && i < lo.size(); ++i) ok = lo[i] <= hi[i];
    SALSA_CHECK_MSG(ok, "force-directed pin produced infeasible frames");
    for (NodeId id : ops) add_distribution(id, +1.0);
  }

  Schedule sched(g, hw, length);
  for (NodeId id : ops) sched.set_start(id, pin[static_cast<size_t>(id)]);
  // Outputs sample as early as possible (shortest lifetimes).
  for (NodeId id : g.output_nodes())
    sched.set_start(id, sched.value_ready(g.node(id).ins[0]));
  sched.validate();
  return sched;
}

}  // namespace salsa
