#include "sched/list_scheduler.h"

#include <algorithm>

#include "sched/asap_alap.h"

namespace salsa {

FuClass fu_class_of(OpKind k) {
  return k == OpKind::kMul ? FuClass::kMul : FuClass::kAlu;
}

std::optional<Schedule> list_schedule(const Cdfg& g, const HwSpec& hw,
                                      int length, const FuBudget& budget,
                                      Rng* jitter) {
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

}  // namespace salsa
