#include "sched/asap_alap.h"

#include <algorithm>
#include <limits>

namespace salsa {

namespace {

// One difference constraint: start(to) >= start(from) + weight.
struct ConstraintEdge {
  NodeId from;
  NodeId to;
  int weight;
};

std::vector<ConstraintEdge> constraint_edges(const Cdfg& g, const HwSpec& hw) {
  std::vector<ConstraintEdge> edges;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    const Node& n = g.node(id);
    for (ValueId in : n.ins) {
      if (g.is_const_value(in)) continue;
      const NodeId p = g.producer(in);
      edges.push_back({p, id, hw.delay(g.node(p).kind)});
    }
  }
  // State anti-dependences: the producer of the next content may not make the
  // new value ready while the old content is still being read:
  //   start(prod_next) + delay(prod_next) >= start(consumer) + 1.
  for (NodeId sn : g.state_nodes()) {
    const Node& s = g.node(sn);
    const NodeId pn = g.producer(s.state_next);
    const int d = hw.delay(g.node(pn).kind);
    for (NodeId c : g.value(s.out).consumers)
      edges.push_back({c, pn, 1 - d});
  }
  return edges;
}

}  // namespace

std::vector<int> asap_starts(const Cdfg& g, const HwSpec& hw) {
  const auto edges = constraint_edges(g, hw);
  std::vector<int> start(static_cast<size_t>(g.num_nodes()), 0);
  // Bellman-Ford longest-path relaxation; the graph is tiny.
  for (int pass = 0; pass <= g.num_nodes(); ++pass) {
    bool changed = false;
    for (const auto& e : edges) {
      const int lb = start[static_cast<size_t>(e.from)] + e.weight;
      if (lb > start[static_cast<size_t>(e.to)]) {
        start[static_cast<size_t>(e.to)] = lb;
        changed = true;
      }
    }
    if (!changed) return start;
  }
  fail("CDFG '" + g.name() + "' has an infeasible dependence cycle");
}

std::optional<std::vector<int>> alap_starts(const Cdfg& g, const HwSpec& hw,
                                            int length) {
  const auto edges = constraint_edges(g, hw);
  constexpr int kInf = std::numeric_limits<int>::max() / 4;
  std::vector<int> ub(static_cast<size_t>(g.num_nodes()), kInf);
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    const Node& n = g.node(id);
    if (is_operation(n.kind)) {
      const bool read_in_iter = !g.value(n.out).consumers.empty();
      // Result must be ready by length-1 if read, by length otherwise
      // (value feeding only a state may be latched at the final step edge).
      ub[static_cast<size_t>(id)] =
          length - hw.delay(n.kind) - (read_in_iter ? 1 : 0);
    } else if (n.kind == OpKind::kOutput) {
      ub[static_cast<size_t>(id)] = length - 1;
    } else {
      ub[static_cast<size_t>(id)] = 0;
    }
    if (ub[static_cast<size_t>(id)] < 0) return std::nullopt;
  }
  for (int pass = 0; pass <= g.num_nodes(); ++pass) {
    bool changed = false;
    for (const auto& e : edges) {
      // start(to) >= start(from) + w  =>  ub(from) <= ub(to) - w.
      const int cap = ub[static_cast<size_t>(e.to)] - e.weight;
      if (cap < ub[static_cast<size_t>(e.from)]) {
        ub[static_cast<size_t>(e.from)] = cap;
        changed = true;
      }
    }
    if (!changed) break;
    if (pass == g.num_nodes()) return std::nullopt;  // negative cycle
  }
  const auto asap = asap_starts(g, hw);
  for (NodeId id = 0; id < g.num_nodes(); ++id)
    if (ub[static_cast<size_t>(id)] < asap[static_cast<size_t>(id)])
      return std::nullopt;
  return ub;
}

int min_schedule_length(const Cdfg& g, const HwSpec& hw) {
  const auto asap = asap_starts(g, hw);
  int len = 1;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    const Node& n = g.node(id);
    if (is_operation(n.kind)) {
      const bool read_in_iter = !g.value(n.out).consumers.empty();
      len = std::max(len, asap[static_cast<size_t>(id)] + hw.delay(n.kind) +
                              (read_in_iter ? 1 : 0));
    } else if (n.kind == OpKind::kOutput) {
      len = std::max(len, asap[static_cast<size_t>(id)] + 1);
    }
  }
  // The bound above is necessary; verify sufficiency (anti-dependences can in
  // principle push it further).
  if (alap_starts(g, hw, len).has_value()) return len;
  // Feasibility only grows with the length, so a design that fails with no
  // op or output deadline fits no length at all: a state anti-dependence
  // asks a node pinned to step 0 (a state or an input feeding a state) to
  // start later. Reject it once, or the search below never ends.
  constexpr int kNoDeadline = std::numeric_limits<int>::max() / 8;
  if (!alap_starts(g, hw, kNoDeadline).has_value())
    fail("CDFG '" + g.name() +
         "' fits no schedule length: a state's next value is a state or "
         "input value, which cannot wait for the state's last read");
  do {
    ++len;
  } while (!alap_starts(g, hw, len).has_value());
  return len;
}

std::optional<std::vector<int>> node_slack(const Cdfg& g, const HwSpec& hw,
                                           int length) {
  const auto alap = alap_starts(g, hw, length);
  if (!alap) return std::nullopt;
  const auto asap = asap_starts(g, hw);
  std::vector<int> slack(asap.size());
  for (size_t i = 0; i < asap.size(); ++i) slack[i] = (*alap)[i] - asap[i];
  return slack;
}

}  // namespace salsa
