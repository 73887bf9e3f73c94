#include "sched/asap_alap.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace salsa {

TimingModel::TimingModel(const Cdfg& g, const HwSpec& hw) {
  const auto n = static_cast<size_t>(g.num_nodes());
  // Visits every constraint as (target, edge): the operand dependences, then
  // the state anti-dependences. Run once to size the groups, once to fill.
  auto for_each_edge = [&](auto&& emit) {
    for (NodeId id = 0; id < g.num_nodes(); ++id)
      for (ValueId in : g.node(id).ins) {
        if (g.is_const_value(in)) continue;
        const NodeId p = g.producer(in);
        emit(id, Edge{p, hw.delay(g.node(p).kind)});
      }
    for (NodeId sn : g.state_nodes()) {
      const Node& s = g.node(sn);
      if (s.state_next == kInvalidId)
        fail("CDFG '" + g.name() + "': state '" + s.name +
             "' has no next-iteration value");
      const NodeId pn = g.producer(s.state_next);
      const int d = hw.delay(g.node(pn).kind);
      for (NodeId c : g.value(s.out).consumers) emit(pn, Edge{c, 1 - d});
    }
  };
  begin_.assign(n + 1, 0);
  for_each_edge(
      [&](NodeId to, Edge) { ++begin_[static_cast<size_t>(to) + 1]; });
  std::partial_sum(begin_.begin(), begin_.end(), begin_.begin());
  edges_.resize(static_cast<size_t>(begin_.back()));
  std::vector<int> fill(begin_.begin(), begin_.end() - 1);
  for_each_edge([&](NodeId to, Edge e) {
    edges_[static_cast<size_t>(fill[static_cast<size_t>(to)]++)] = e;
  });
  out_begin_.assign(n + 1, 0);
  for (const Edge& e : edges_) ++out_begin_[static_cast<size_t>(e.from) + 1];
  std::partial_sum(out_begin_.begin(), out_begin_.end(), out_begin_.begin());
  out_.resize(edges_.size());
  fill.assign(out_begin_.begin(), out_begin_.end() - 1);
  for (NodeId to = 0; to < g.num_nodes(); ++to)
    for (const Edge& e : edges_into(to))
      out_[static_cast<size_t>(fill[static_cast<size_t>(e.from)]++)] =
          OutEdge{to, e.weight};

  // A result must be ready by length-1 if it is read or sampled in the
  // iteration, by length if it only feeds a state (latched at the final
  // step edge); an output samples by length-1.
  offset_.resize(n);
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    const Node& nd = g.node(id);
    int& off = offset_[static_cast<size_t>(id)];
    if (is_operation(nd.kind))
      off = hw.delay(nd.kind) + (g.value(nd.out).consumers.empty() ? 0 : 1);
    else
      off = nd.kind == OpKind::kOutput ? 1 : kPinned;
  }

  asap_.assign(n, 0);
  if (!relax_lower(asap_))
    fail("CDFG '" + g.name() + "' has an infeasible dependence cycle");
}

// Bellman-Ford over the edge groups in node order, which settles the forward
// operand edges in one pass.
bool TimingModel::relax_lower(std::vector<int>& lo) const {
  const auto n = static_cast<NodeId>(offset_.size());
  for (int pass = 0; pass <= n; ++pass) {
    bool changed = false;
    for (NodeId to = 0; to < n; ++to) {
      int& t = lo[static_cast<size_t>(to)];
      for (const Edge& e : edges_into(to)) {
        const int lb = lo[static_cast<size_t>(e.from)] + e.weight;
        if (lb > t) {
          t = lb;
          changed = true;
        }
      }
    }
    if (!changed) return true;
  }
  return false;
}

// The same loop in reverse node order: start(to) >= start(from) + weight
// caps hi(from) at hi(to) - weight.
bool TimingModel::relax_upper(std::vector<int>& hi) const {
  const auto n = static_cast<NodeId>(offset_.size());
  for (int pass = 0; pass <= n; ++pass) {
    bool changed = false;
    for (NodeId to = n - 1; to >= 0; --to) {
      const int t = hi[static_cast<size_t>(to)];
      for (const Edge& e : edges_into(to)) {
        int& f = hi[static_cast<size_t>(e.from)];
        if (t - e.weight < f) {
          f = t - e.weight;
          changed = true;
        }
      }
    }
    if (!changed) return true;
  }
  return false;
}

std::optional<std::vector<int>> TimingModel::alap(int length) const {
  std::vector<int> hi(offset_.size());
  for (size_t i = 0; i < hi.size(); ++i)
    hi[i] = deadline(static_cast<NodeId>(i), length);
  if (!relax_upper(hi)) return std::nullopt;
  for (size_t i = 0; i < hi.size(); ++i)
    if (hi[i] < asap_[i]) return std::nullopt;
  return hi;
}

int min_schedule_length(const Cdfg& g, const HwSpec& hw) {
  const TimingModel tm(g, hw);
  // Each node that is not pinned must meet its deadline at its ASAP start;
  // deadline(n, 0) is minus n's offset. The bound is necessary, and
  // anti-dependences can in principle push the length further.
  int len = 1;
  for (NodeId id = 0; id < g.num_nodes(); ++id)
    if (!tm.pinned(id))
      len = std::max(len,
                     tm.asap()[static_cast<size_t>(id)] - tm.deadline(id, 0));
  if (tm.alap(len).has_value()) return len;
  // Feasibility only grows with the length, so a design that fails with no
  // op or output deadline fits no length at all: a state anti-dependence
  // asks a node pinned to step 0 (a state or an input feeding a state) to
  // start later. Reject it once, or the search below never ends.
  constexpr int kNoDeadline = std::numeric_limits<int>::max() / 8;
  if (!tm.alap(kNoDeadline).has_value())
    fail("CDFG '" + g.name() +
         "' fits no schedule length: a state's next value is a state or "
         "input value, which cannot wait for the state's last read");
  do {
    ++len;
  } while (!tm.alap(len).has_value());
  return len;
}

}  // namespace salsa
