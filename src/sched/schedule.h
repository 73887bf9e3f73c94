// Schedules: the assignment of CDFG nodes to control steps, plus the
// hardware timing assumptions (HwSpec) under which the assignment is legal.
//
// Timing contract (used consistently by scheduling, lifetime analysis,
// binding, and the datapath simulator):
//   * an operation scheduled at step s with delay d occupies steps s..s+d-1
//     and its result is latched at the end of step s+d-1, readable from step
//     s+d ("ready step");
//   * a consumer scheduled at step r reads its operands at the start of r;
//   * inputs, constants and states are ready at step 0;
//   * an Output node scheduled at step r samples its value during step r;
//   * loop-carried state: all reads of the current content must happen at or
//     before the step in which the next content is latched, i.e.
//     last_read(state) < ready(state_next)  (anti-dependence).
#pragma once

#include <vector>

#include "cdfg/cdfg.h"

namespace salsa {

/// Operator timing assumptions (the paper's Section 5 defaults: adders one
/// control step, multipliers two, pipelined multipliers with a data
/// introduction interval of one step).
struct HwSpec {
  int add_delay = 1;  ///< delay of Add/Sub/Nop ops
  int mul_delay = 2;  ///< delay of Mul ops
  bool pipelined_mul = false;

  /// Result latency of a node kind in control steps (0 for non-operations).
  int delay(OpKind k) const {
    switch (k) {
      case OpKind::kAdd:
      case OpKind::kSub:
      case OpKind::kNop:
        return add_delay;
      case OpKind::kMul:
        return mul_delay;
      default:
        return 0;
    }
  }

  /// Number of steps the executing FU is busy (1 for pipelined multipliers).
  int occupancy(OpKind k) const {
    if (k == OpKind::kMul && pipelined_mul) return 1;
    return delay(k);
  }
};

/// A complete schedule of a CDFG: every node has a start step; the schedule
/// has a fixed length (number of control steps, the loop period for cyclic
/// designs).
class Schedule {
 public:
  Schedule(const Cdfg& cdfg, HwSpec hw, int length);

  const Cdfg& cdfg() const { return *cdfg_; }
  const HwSpec& hw() const { return hw_; }
  int length() const { return length_; }

  int start(NodeId n) const { return start_[static_cast<size_t>(n)]; }
  void set_start(NodeId n, int step) { start_[static_cast<size_t>(n)] = step; }

  /// First step the node's result value can be read.
  int ready(NodeId n) const;

  /// First step value v can be read (0 for inputs/consts/states).
  int value_ready(ValueId v) const;
  /// Last step at which v is read within the iteration; -1 if never read.
  /// Output samples count as reads.
  int value_last_read(ValueId v) const;

  /// The first broken precedence, boundary or state anti-dependence
  /// constraint, if any, with the node it concerns (the reader, the late
  /// operation, or the state).
  std::optional<Violation> first_violation() const;
  /// Throws salsa::Error with first_violation()'s message.
  void validate() const;

 private:
  const Cdfg* cdfg_;
  HwSpec hw_;
  int length_;
  std::vector<int> start_;
};

}  // namespace salsa
