// The extended (SALSA) binding model — the paper's core contribution.
//
// A Binding assigns:
//   * every operation node to a functional-unit instance (with an optional
//     operand swap for commutative operations — move F3);
//   * every storage segment to one or more register *cells*. A cell is one
//     (segment, register) pair. cells[seg] is the set of simultaneous copies
//     of the storage during that segment's control step. Each cell at
//     seg > 0 names its parent cell in the previous segment; a cell whose
//     register differs from its parent's register is an inter-register
//     transfer and may be routed through an idle pass-through FU (moves
//     F4/F5). Cells at seg 0 are written by the producer FU (or by the
//     environment for primary inputs).
//   * every read of a storage to the cell it reads from (so consumers can
//     exploit copies created by value splitting, moves R5/R6).
//
// The *traditional* binding model of Section 1 is the restriction: exactly
// one cell per segment, all cells in the same register, no pass-throughs.
// baseline/traditional.* builds and maintains bindings in that restricted
// form using this same representation.
#pragma once

#include <string>

#include "core/lifetime.h"
#include "core/resources.h"
#include "util/bitplane.h"

namespace salsa {

/// Functional-unit assignment of one operation.
struct OpBind {
  FuId fu = kInvalidId;
  /// Commutative operand reversal (move F3): operand slot k feeds FU input
  /// 1-k when set.
  bool swap = false;

  friend bool operator==(const OpBind&, const OpBind&) = default;
};

/// One register copy of a storage during one segment.
struct Cell {
  RegId reg = kInvalidId;
  /// Position of the parent cell within cells[seg-1]; -1 at seg 0 (written
  /// by the producer FU or by the environment).
  int parent = -1;
  /// Pass-through FU routing the transfer from the parent's register; only
  /// meaningful when the parent lives in a different register. kInvalidId
  /// means a direct register-to-register connection.
  FuId via = kInvalidId;

  friend bool operator==(const Cell&, const Cell&) = default;
};

/// Register-side binding of one storage.
struct StorageBinding {
  /// cells[seg] — at least one cell per segment of the storage.
  std::vector<std::vector<Cell>> cells;
  /// Per read (index into Storage::reads): position of the cell read within
  /// cells[read.seg].
  std::vector<int> read_cell;

  friend bool operator==(const StorageBinding&, const StorageBinding&) =
      default;
};

/// What occupies each FU and register at each control step. Derived from a
/// Binding on demand; moves use it for feasibility checks.
///
/// Two representations, maintained in lockstep by the claim/release methods
/// below (the single source of truth for occupancy bookkeeping — both the
/// Binding::occupancy() builder and the SearchEngine's incremental claim
/// paths go through them):
///   * the scalar identity grids fu_user/reg_sto, which answer *who* holds
///     a slot (the reference representation — verify.cpp and the reports
///     read these);
///   * the packed busy bitplanes fu_busy/reg_busy (util/bitplane.h), one
///     bit per (resource, step), which answer *whether* a slot is held in
///     word-parallel form — the representation the move proposers' legality
///     masks run on.
/// planes_match_grids() is the plane-vs-grid check (e) the invariant
/// auditor runs per commit.
struct Occupancy {
  /// fu_user[fu][step]: node id of the executing op, kPassThrough for a
  /// transfer routed through the unit, or kFree.
  static constexpr int kFree = -1;
  static constexpr int kPassThrough = -2;
  std::vector<std::vector<int>> fu_user;
  /// reg_sto[reg][step]: storage id held, or -1.
  std::vector<std::vector<int>> reg_sto;
  /// Busy bitplanes: fu_busy.test(f, t) iff fu_user[f][t] != kFree, and
  /// reg_busy.test(r, t) iff reg_sto[r][t] != -1.
  BitPlane fu_busy;
  BitPlane reg_busy;
  /// Transpose of reg_busy: rows = control steps, bits = registers, so
  /// "which registers are free at step t" is one popcount/select over
  /// ceil(R/64) words instead of an O(R) per-register probe loop — the
  /// register budget grows with design size (R is a few thousand at 10k+
  /// ops), so the per-step orientation is what keeps the free-register
  /// moves flat. Maintained in lockstep with reg_busy by claim_reg /
  /// release_reg below.
  BitPlane reg_busy_t;
  /// Transpose of fu_busy: rows = control steps, bits = FUs. The
  /// pass-through binder's "which pass-capable FUs are free at step t"
  /// scan masks this row against a static candidate mask instead of
  /// probing one fu_busy row per candidate FU. Maintained in lockstep by
  /// the claim/release methods below.
  BitPlane fu_busy_t;

  /// Shapes both representations to all-free.
  void init(int num_fus, int num_regs, int steps) {
    fu_user.assign(static_cast<size_t>(num_fus),
                   std::vector<int>(static_cast<size_t>(steps), kFree));
    reg_sto.assign(static_cast<size_t>(num_regs),
                   std::vector<int>(static_cast<size_t>(steps), -1));
    fu_busy.resize(num_fus, steps);
    reg_busy.resize(num_regs, steps);
    reg_busy_t.resize(steps, num_regs);
    fu_busy_t.resize(steps, num_fus);
  }

  bool fu_free(FuId f, int step) const { return !fu_busy.test(f, step); }
  bool reg_free(RegId r, int step) const { return !reg_busy.test(r, step); }

  /// Raw slot references — the SearchEngine's undo journal records the old
  /// scalar before a claim/release overwrites it.
  int& fu_slot(FuId f, int step) {
    return fu_user[static_cast<size_t>(f)][static_cast<size_t>(step)];
  }
  int& reg_slot(RegId r, int step) {
    return reg_sto[static_cast<size_t>(r)][static_cast<size_t>(step)];
  }

  // Claim/release keep grid and plane in lockstep. Single-step forms flip
  // one bit; the ranged FU forms (operation occupancy windows — never
  // wrapping) update the plane with one word-masked range op.
  void claim_fu(FuId f, int step, int user) {
    fu_slot(f, step) = user;
    fu_busy.set(f, step);
    fu_busy_t.set(step, f);
  }
  void release_fu(FuId f, int step) {
    fu_slot(f, step) = kFree;
    fu_busy.clear(f, step);
    fu_busy_t.clear(step, f);
  }
  void claim_fu_range(FuId f, int start, int len, int user) {
    for (int t = start; t < start + len; ++t) {
      fu_slot(f, t) = user;
      fu_busy_t.set(t, f);
    }
    fu_busy.set_range(f, start, len);
  }
  void release_fu_range(FuId f, int start, int len) {
    for (int t = start; t < start + len; ++t) {
      fu_slot(f, t) = kFree;
      fu_busy_t.clear(t, f);
    }
    fu_busy.clear_range(f, start, len);
  }
  void claim_reg(RegId r, int step, int sid) {
    reg_slot(r, step) = sid;
    reg_busy.set(r, step);
    reg_busy_t.set(step, r);
  }
  void release_reg(RegId r, int step) {
    reg_slot(r, step) = -1;
    reg_busy.clear(r, step);
    reg_busy_t.clear(step, r);
  }

  /// True iff the packed busy planes agree bit-for-bit with the scalar
  /// grids. On mismatch appends the first divergence to `why` if non-null.
  bool planes_match_grids(std::string* why = nullptr) const;
};

/// A complete allocation in the extended binding model. Value-semantic and
/// cheap to copy (the improver copies, mutates and either keeps or drops).
class Binding {
 public:
  explicit Binding(const AllocProblem& prob);

  const AllocProblem& prob() const { return *prob_; }

  OpBind& op(NodeId n) { return ops_[static_cast<size_t>(n)]; }
  const OpBind& op(NodeId n) const { return ops_[static_cast<size_t>(n)]; }

  StorageBinding& sto(int sid) { return stos_[static_cast<size_t>(sid)]; }
  const StorageBinding& sto(int sid) const {
    return stos_[static_cast<size_t>(sid)];
  }

  /// Recomputes FU and register occupancy. Throws on double occupancy (an
  /// illegal binding); use verify() for a non-throwing report.
  Occupancy occupancy() const;

  /// The register a given read is served from.
  RegId read_reg(int sid, int read_idx) const;

  /// Registers with at least one cell / FUs with at least one op or
  /// pass-through.
  int regs_used() const;
  int fus_used() const;

  /// True if every segment has exactly one cell, all of a storage's cells
  /// share one register, and no pass-throughs are used (the traditional
  /// model of Section 1).
  bool is_traditional() const;

  /// Normalises `via` fields: clears pass-throughs on cells whose parent is
  /// in the same register (holds need no route). Call after editing regs.
  void normalize();
  /// Same, restricted to one storage (the SearchEngine normalises only a
  /// move's footprint).
  void normalize_storage(int sid);

  /// Same problem instance and identical op/storage bindings.
  friend bool operator==(const Binding&, const Binding&) = default;

 private:
  const AllocProblem* prob_;
  std::vector<OpBind> ops_;           // indexed by NodeId (ops only used)
  std::vector<StorageBinding> stos_;  // indexed by storage id
};

}  // namespace salsa
