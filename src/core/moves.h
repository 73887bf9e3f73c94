// The allocation move set (paper Table 1).
//
//   F1 FU Exchange      — exchange the FU bindings of two operations
//   F2 FU Move          — reassign an operation to another idle FU
//   F3 Operand Reverse  — switch the FU inputs of a commutative operation
//   F4 Bind Pass-Through   — route an inter-register transfer through an
//                            idle pass-capable FU
//   F5 Unbind Pass-Through — revert F4
//   R1 Segment Exchange — exchange the registers of two cells in one step
//   R2 Segment Move     — move one cell to a register idle at its step
//   R3 Value Exchange   — exchange the registers of two whole values
//   R4 Value Move       — put all segments of a value into one idle register
//   R5 Value Split      — create a copy of a value segment (possibly
//                         re-pointing reads at that segment to the copy)
//   R6 Value Merge      — remove a copy cell (reverting splits)
//   R7 Read Retarget    — re-point one read to another existing copy.
//                         (Implementation addition: the paper exploits
//                         copies implicitly; an explicit retarget move lets
//                         the search do so incrementally.)
//
// Each move proposer runs against a SearchEngine transaction: it inspects
// the engine's binding and incrementally maintained occupancy, and — only
// once a feasible instance is certain — mutates the binding through
// touch_op/touch_sto so the engine can undo the move and update its cost
// index by the move's footprint alone. Proposers return false when no
// feasible instance exists (leaving no transaction state behind). All
// moves preserve binding legality: a legal binding stays legal.
#pragma once

#include <array>

#include "core/binding.h"
#include "util/rng.h"

namespace salsa {

class SearchEngine;  // core/search_engine.h

enum class MoveKind : uint8_t {
  kFuExchange,      // F1
  kFuMove,          // F2
  kOperandReverse,  // F3
  kBindPass,        // F4
  kUnbindPass,      // F5
  kSegExchange,     // R1
  kSegMove,         // R2
  kValExchange,     // R3
  kValMove,         // R4
  kValSplit,        // R5
  kValMerge,        // R6
  kReadRetarget,    // R7
};
inline constexpr int kNumMoveKinds = 12;

const char* move_name(MoveKind k);

/// Relative selection weights per move kind; 0 disables a move. The paper
/// weights complex value-level moves lower "to control execution times".
struct MoveConfig {
  std::array<double, kNumMoveKinds> weight{};

  /// Full extended-model move set with the default weighting.
  static MoveConfig salsa_default();
  /// Traditional binding model: values stay whole and contiguous in a single
  /// register — only F1, F2, F3, R3 and R4 are available.
  static MoveConfig traditional();
  /// Extended model without pass-throughs (ablation).
  static MoveConfig no_pass_through();
  /// Extended model without value copies (ablation).
  static MoveConfig no_split();

  MoveKind pick(Rng& rng) const;

  /// Left-to-right weight total, cached by the first pick() (the identical
  /// summation order keeps every draw bit-identical to the uncached scan).
  /// Weights must not change once picking has started; configs are set up
  /// front and copied into the search drivers, so nothing does.
  mutable double total_weight_ = -1.0;
};

/// Per-move-kind search observability counters (accumulated by the
/// SearchEngine, surfaced through ImproveStats and io/report.cpp).
struct MoveKindStats {
  long attempted = 0;  ///< feasible proposals
  long accepted = 0;   ///< committed proposals
  double delta_sum = 0;           ///< sum of proposed cost deltas
  double accepted_delta_sum = 0;  ///< sum of committed cost deltas
  double mean_delta() const {
    return attempted ? delta_sum / static_cast<double>(attempted) : 0.0;
  }

  MoveKindStats& operator+=(const MoveKindStats& o) {
    attempted += o.attempted;
    accepted += o.accepted;
    delta_sum += o.delta_sum;
    accepted_delta_sum += o.accepted_delta_sum;
    return *this;
  }

  /// Exact comparison (doubles included): used by the parallel runtime
  /// tests to assert bit-identical stats for every thread count.
  friend bool operator==(const MoveKindStats&, const MoveKindStats&) = default;
};

/// Attempts one random move of the given kind on `b`. Returns true if a
/// feasible instance was found and applied. The binding must be legal on
/// entry and remains legal on success or failure (failed attempts leave it
/// untouched).
///
/// Compatibility shim over SearchEngine for one-off callers (tests,
/// demos): it rebuilds engine state per call, so it is O(design) per move.
/// Searches should drive a SearchEngine directly.
bool apply_random_move(Binding& b, MoveKind kind, Rng& rng);

namespace detail {
/// Dispatches one move proposal inside an open SearchEngine transaction.
/// Called by SearchEngine::propose; not for direct use.
bool dispatch_move(SearchEngine& eng, MoveKind kind, Rng& rng);
}  // namespace detail

}  // namespace salsa
