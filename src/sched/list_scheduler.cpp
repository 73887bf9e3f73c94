#include "sched/list_scheduler.h"

#include <algorithm>
#include <functional>

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
  const auto n = static_cast<size_t>(g.num_nodes());
  // Optional priority noise: breaks ties (and mildly reorders near-ties) so
  // repeated calls yield distinct but equally resource-bounded schedules.
  std::vector<int> noise(n, 0);
  if (jitter != nullptr)
    for (auto& x : noise) x = jitter->uniform(3);

  // A node becomes a candidate at its ready step: the first step at which
  // every constraint on it is met by a node placed at an earlier step
  // (pinned nodes sit at step 0 and count as placed upfront). `unplaced`
  // counts its edges from nodes not yet placed, `ready` is the bound from
  // the placed ones, and the node joins the bucket of its ready step once
  // the count reaches zero. Buckets are intrusive lists (`head`, `next`).
  std::vector<int> unplaced(n, 0), ready(n, 0);
  std::vector<NodeId> head(static_cast<size_t>(length), kInvalidId);
  std::vector<NodeId> next(n, kInvalidId);
  auto arrive = [&](NodeId id) {
    const auto i = static_cast<size_t>(id);
    if (ready[i] >= length) return;  // never a candidate
    next[i] = head[static_cast<size_t>(ready[i])];
    head[static_cast<size_t>(ready[i])] = id;
  };
  int remaining = 0;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    if (tm.pinned(id)) continue;
    ++remaining;
    const auto i = static_cast<size_t>(id);
    for (const auto& e : tm.edges_into(id)) {
      if (tm.pinned(e.from))
        ready[i] = std::max(ready[i], e.weight);
      else
        ++unplaced[i];
    }
    if (unplaced[i] == 0) arrive(id);
  }

  Schedule sched(g, hw, length);
  auto place = [&](NodeId id, int step) {
    sched.set_start(id, step);
    --remaining;
    for (const auto& e : tm.edges_out_of(id)) {
      if (tm.pinned(e.to)) continue;
      const auto j = static_cast<size_t>(e.to);
      ready[j] = std::max(ready[j], step + std::max(e.weight, 1));
      if (--unplaced[j] == 0) arrive(e.to);
    }
  };

  // Per FU class, the waiting operations as a min-heap on (ALAP + noise,
  // id), the order the candidates are tried in. Every operation of a class
  // has the same occupancy, so once the most urgent one does not fit, none
  // of the class fits at this step.
  const OpKind kind_of[2] = {OpKind::kAdd, OpKind::kMul};
  std::vector<uint64_t> waiting[2];
  std::vector<int> busy[2];
  for (auto& b : busy) b.assign(static_cast<size_t>(length), 0);
  const auto later = std::greater<uint64_t>();

  for (int step = 0; step < length && remaining > 0; ++step) {
    for (NodeId id = head[static_cast<size_t>(step)]; id != kInvalidId;) {
      const NodeId following = next[static_cast<size_t>(id)];
      const OpKind k = g.node(id).kind;
      // Outputs cost nothing and are placed the step they become ready.
      if (k == OpKind::kOutput) {
        place(id, step);
      } else {
        const auto i = static_cast<size_t>(id);
        auto& w = waiting[static_cast<size_t>(fu_class_of(k))];
        w.push_back(static_cast<uint64_t>(alap[i] + noise[i]) << 32 |
                    static_cast<uint32_t>(id));
        std::push_heap(w.begin(), w.end(), later);
      }
      id = following;
    }
    for (size_t cls = 0; cls < 2; ++cls) {
      auto& w = waiting[cls];
      const int occ = hw.occupancy(kind_of[cls]);
      const int cap = budget.of(static_cast<FuClass>(cls));
      while (!w.empty() && step + occ <= length &&
             std::all_of(busy[cls].begin() + step,
                         busy[cls].begin() + step + occ,
                         [&](int b) { return b < cap; })) {
        const auto id = static_cast<NodeId>(w.front() & 0xffffffffu);
        // An operation past its deadline is never placed: no schedule.
        if (step > tm.deadline(id, length)) return std::nullopt;
        std::pop_heap(w.begin(), w.end(), later);
        w.pop_back();
        for (int t = step; t < step + occ; ++t)
          ++busy[cls][static_cast<size_t>(t)];
        place(id, step);
      }
    }
  }
  if (remaining > 0) return std::nullopt;
  sched.validate();
  return sched;
}

}  // namespace salsa
