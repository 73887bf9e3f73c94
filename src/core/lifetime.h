// Lifetime (segment) analysis: turns a validated schedule into storage
// entities and their one-control-step segments — the paper's slack-node view
// of values (Section 2).
//
// A *storage* is the unit that occupies registers. Ordinary values map to
// one storage each; a loop-carried state and the value that becomes its next
// content merge into a single storage whose live range wraps around the
// iteration boundary (this realises the paper's loop-consistency rule: the
// register chain is cyclic, so whatever register holds the last segment of
// iteration i holds the first segment of iteration i+1).
//
// The live range of a storage is a cyclic arc of control steps:
//   step_at(0) = birth, step_at(i) = (birth + i) mod L, for i in [0, len).
// Each live step is one *segment*; the binding layer may place each segment
// in a different register and may keep several simultaneous copies per
// segment (cells).
#pragma once

#include <vector>

#include "sched/schedule.h"
#include "util/bitplane.h"

namespace salsa {

/// One read of a storage by a consumer node.
struct StorageRead {
  NodeId consumer = kInvalidId;  ///< op or Output node
  int operand = 0;               ///< operand slot of the consumer (0 or 1)
  int step = 0;                  ///< control step of the read
  int seg = 0;                   ///< segment index: step == step_at(seg)
};

/// A register-occupying entity: a value, or a state merged with its
/// next-iteration content.
struct Storage {
  std::vector<ValueId> members;  ///< CDFG values sharing this storage
  /// Node whose FU output writes the storage (kInvalidId for primary
  /// inputs, which are written by the environment at the iteration edge).
  NodeId producer = kInvalidId;
  bool wraps = false;  ///< live range crosses the iteration boundary
  int birth = 0;       ///< first live step (mod schedule length)
  int len = 0;         ///< number of live steps (segments), >= 1
  std::vector<StorageRead> reads;
  std::string name;

  int step_at(int seg, int sched_len) const {
    return (birth + seg) % sched_len;
  }
};

/// Segment analysis of one schedule. Constructed by AllocProblem.
class Lifetimes {
 public:
  explicit Lifetimes(const Schedule& sched);

  const Schedule& sched() const { return *sched_; }
  int num_storages() const { return static_cast<int>(storages_.size()); }
  const Storage& storage(int sid) const {
    return storages_[static_cast<size_t>(sid)];
  }
  const std::vector<Storage>& storages() const { return storages_; }

  /// Storage holding a value; -1 for constants and dead (never-stored)
  /// values.
  int storage_of(ValueId v) const { return sto_of_[static_cast<size_t>(v)]; }

  /// Segment index live at `step`, or -1 if the storage is not live then.
  int seg_at_step(int sid, int step) const;

  /// Number of storages live at each control step.
  const std::vector<int>& demand() const { return demand_; }
  /// Minimum register count: the peak of demand().
  int min_registers() const;

  /// Packed live masks (util/bitplane.h): row `sid` has bit `t` set iff the
  /// storage is live at control step t. Built once per schedule via the
  /// cyclic two-span wrap decomposition of [birth, birth + len) mod L, so a
  /// wrapping arc contributes its tail span [birth, L) and head span
  /// [0, birth + len - L) — split/merge feasibility and overlap questions
  /// become word AND-any against these rows.
  const BitPlane& live_masks() const { return live_; }
  const uint64_t* live_row(int sid) const { return live_.row(sid); }

  /// Control step of every segment of `sid`: steps_of(sid)[seg] ==
  /// step_at(seg, L), precomputed so per-segment claim and scan loops skip
  /// the modulo.
  const std::vector<int>& steps_of(int sid) const {
    return steps_[static_cast<size_t>(sid)];
  }

  /// True iff the two storages' live arcs share a control step.
  bool overlaps(int a, int b) const {
    return words_and_any(live_.row(a), live_.row(b), live_.stride());
  }

 private:
  const Schedule* sched_;
  std::vector<Storage> storages_;
  std::vector<int> sto_of_;
  std::vector<int> demand_;
  BitPlane live_;                        ///< rows = storages, bits = steps
  std::vector<std::vector<int>> steps_;  ///< per-storage segment steps
};

}  // namespace salsa
