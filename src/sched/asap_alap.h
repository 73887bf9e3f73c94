// The timing contract of sched/schedule.h as difference constraints, derived
// once per (graph, HwSpec): the one place where the dependence, state
// anti-dependence and deadline rules become numbers. ASAP starts, the ALAP
// frames at a length (mobility windows, list-scheduling priorities),
// force-directed scheduling's pinned frames, the list scheduler's ready
// steps and min_schedule_length() all read it. Schedule::first_violation()
// states the same rules on its own, as the independent check every
// scheduler's output passes.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "sched/schedule.h"

namespace salsa {

class TimingModel {
 public:
  /// One constraint start(target) >= start(from) + weight.
  struct Edge {
    NodeId from;
    int weight;
  };

  /// Throws salsa::Error for a state without a next value (naming the
  /// state) and for a dependence cycle of positive latency.
  TimingModel(const Cdfg& cdfg, const HwSpec& hw);

  /// The constraints on node n's start: one per non-constant operand
  /// (weight: the producer's delay) and, when n produces a state's next
  /// value, one per read of that state's old content (weight: 1 - n's
  /// delay, so the new content is ready only after the last read).
  std::span<const Edge> edges_into(NodeId n) const {
    const auto i = static_cast<size_t>(n);
    return {edges_.data() + begin_[i], edges_.data() + begin_[i + 1]};
  }

  /// One constraint start(to) >= start(n) + weight, seen from its source n.
  struct OutEdge {
    NodeId to;
    int weight;
  };

  /// The same constraints grouped by source: every edge whose `from` is n.
  std::span<const OutEdge> edges_out_of(NodeId n) const {
    const auto i = static_cast<size_t>(n);
    return {out_.data() + out_begin_[i], out_.data() + out_begin_[i + 1]};
  }

  /// Whether node n sits at step 0 in every schedule (inputs, constants,
  /// states).
  bool pinned(NodeId n) const {
    return offset_[static_cast<size_t>(n)] == kPinned;
  }

  /// Latest start of node n in a schedule of `length` steps: 0 if pinned,
  /// else `length` minus n's deadline offset (an operation's delay, +1 when
  /// its result is read in the iteration; 1 for an output).
  int deadline(NodeId n, int length) const {
    return pinned(n) ? 0 : length - offset_[static_cast<size_t>(n)];
  }

  /// Earliest start per node (resource-free).
  const std::vector<int>& asap() const { return asap_; }

  /// Latest start per node in a schedule of `length` steps, or std::nullopt
  /// if no schedule of that length meets every deadline.
  std::optional<std::vector<int>> alap(int length) const;

  /// The one relaxation per bound. relax_lower raises lo[] and relax_upper
  /// lowers hi[] until every constraint holds; both return false if the
  /// bounds have not settled after num_nodes + 1 passes (a positive-latency
  /// cycle, which the constructor already rejects).
  bool relax_lower(std::vector<int>& lo) const;
  bool relax_upper(std::vector<int>& hi) const;

 private:
  static constexpr int kPinned = -1;

  std::vector<int> begin_;  ///< edges_into(n) = edges_[begin_[n], begin_[n+1])
  std::vector<Edge> edges_;
  std::vector<int> out_begin_;  ///< the same layout for edges_out_of(n)
  std::vector<OutEdge> out_;
  std::vector<int> offset_;  ///< deadline offset per node, or kPinned
  std::vector<int> asap_;
};

/// Minimum feasible schedule length (the critical path in control steps).
/// Throws salsa::Error for a design that fits no length.
int min_schedule_length(const Cdfg& cdfg, const HwSpec& hw);

}  // namespace salsa
