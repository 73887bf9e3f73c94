#include "core/moves.h"

#include <algorithm>

#include "core/search_engine.h"
#include "util/bitplane.h"

namespace salsa {

const char* move_name(MoveKind k) {
  switch (k) {
    case MoveKind::kFuExchange: return "F1:fu-exchange";
    case MoveKind::kFuMove: return "F2:fu-move";
    case MoveKind::kOperandReverse: return "F3:operand-reverse";
    case MoveKind::kBindPass: return "F4:bind-pass-through";
    case MoveKind::kUnbindPass: return "F5:unbind-pass-through";
    case MoveKind::kSegExchange: return "R1:segment-exchange";
    case MoveKind::kSegMove: return "R2:segment-move";
    case MoveKind::kValExchange: return "R3:value-exchange";
    case MoveKind::kValMove: return "R4:value-move";
    case MoveKind::kValSplit: return "R5:value-split";
    case MoveKind::kValMerge: return "R6:value-merge";
    case MoveKind::kReadRetarget: return "R7:read-retarget";
  }
  return "?";
}

MoveConfig MoveConfig::salsa_default() {
  MoveConfig c;
  auto set = [&](MoveKind k, double w) { c.weight[static_cast<size_t>(k)] = w; };
  set(MoveKind::kFuExchange, 1.0);
  set(MoveKind::kFuMove, 1.0);
  set(MoveKind::kOperandReverse, 1.0);
  set(MoveKind::kBindPass, 0.8);
  set(MoveKind::kUnbindPass, 0.5);
  set(MoveKind::kSegExchange, 1.0);
  set(MoveKind::kSegMove, 1.0);
  set(MoveKind::kValExchange, 0.3);  // complex moves picked less often (§4)
  set(MoveKind::kValMove, 0.3);
  set(MoveKind::kValSplit, 0.5);
  set(MoveKind::kValMerge, 0.5);
  set(MoveKind::kReadRetarget, 0.7);
  return c;
}

MoveConfig MoveConfig::traditional() {
  MoveConfig c;
  auto set = [&](MoveKind k, double w) { c.weight[static_cast<size_t>(k)] = w; };
  set(MoveKind::kFuExchange, 1.0);
  set(MoveKind::kFuMove, 1.0);
  set(MoveKind::kOperandReverse, 1.0);
  set(MoveKind::kValExchange, 1.0);
  set(MoveKind::kValMove, 1.0);
  return c;
}

MoveConfig MoveConfig::no_pass_through() {
  MoveConfig c = salsa_default();
  c.weight[static_cast<size_t>(MoveKind::kBindPass)] = 0;
  c.weight[static_cast<size_t>(MoveKind::kUnbindPass)] = 0;
  return c;
}

MoveConfig MoveConfig::no_split() {
  MoveConfig c = salsa_default();
  c.weight[static_cast<size_t>(MoveKind::kValSplit)] = 0;
  c.weight[static_cast<size_t>(MoveKind::kValMerge)] = 0;
  c.weight[static_cast<size_t>(MoveKind::kReadRetarget)] = 0;
  return c;
}

MoveKind MoveConfig::pick(Rng& rng) const {
  if (total_weight_ < 0) {
    double t = 0;
    for (const double w : weight) t += w;
    total_weight_ = t;
  }
  return static_cast<MoveKind>(rng.weighted(weight, total_weight_));
}

namespace {

struct CellRef {
  int sid, seg, pos;
};

// Candidate lists are collected into thread_local scratch buffers:
// proposals run thousands of times per second on pool threads, and reusing
// the buffers keeps the hot path allocation-free. Contents are fully
// rewritten on every call, and each proposer holds at most one collected
// list at a time. Cell scans run in (sid, seg, pos)-lexicographic order —
// the candidate-order contract the engine's per-storage statistics
// (cell, via and bare-transfer counts) prune against.

const Cell& cell_at(const Binding& b, const CellRef& cr) {
  return b.sto(cr.sid).cells[static_cast<size_t>(cr.seg)]
                            [static_cast<size_t>(cr.pos)];
}

Cell& mut_cell(StorageBinding& sb, const CellRef& cr) {
  return sb.cells[static_cast<size_t>(cr.seg)][static_cast<size_t>(cr.pos)];
}

// Register a storage's cells currently share if it is in contiguous
// single-register form; kInvalidId otherwise.
RegId single_reg_of(const StorageBinding& sb) {
  RegId reg = kInvalidId;
  for (const auto& seg : sb.cells) {
    if (seg.size() != 1) return kInvalidId;
    if (reg == kInvalidId) reg = seg[0].reg;
    if (seg[0].reg != reg) return kInvalidId;
  }
  return reg;
}

// Every proposer below reads the engine's binding and live occupancy for
// candidate selection and feasibility, and only touches (and then mutates)
// the footprint once success is certain — occupancy reads never follow a
// touch within one proposal.

bool move_fu_exchange(SearchEngine& eng, Rng& rng) {
  const Binding& b = eng.binding();
  const Schedule& sched = b.prob().sched();
  const std::vector<NodeId>& ops = eng.operations();
  if (ops.size() < 2) return false;
  const Occupancy& occ = eng.occupancy();
  const NodeId a = ops[static_cast<size_t>(rng.uniform(static_cast<int>(ops.size())))];
  const FuId fa0 = b.op(a).fu;
  // Partners are the same-class ops on any other FU. Everything on fa0 —
  // `a` included — is excluded, so the count falls out of the engine's
  // per-FU op index, and the rank select returns the op a filtering scan
  // of the class list would have listed at that index: same candidate
  // set, same order, same single draw, no O(class) walk.
  const FuClass cls = eng.op_class(a);
  const int ncands =
      static_cast<int>(eng.ops_of_class(cls).size()) - eng.ops_on_fu(fa0);
  if (ncands == 0) return false;
  const NodeId c = eng.class_op_excluding_fu(cls, fa0, rng.uniform(ncands));
  const FuId fa = b.op(a).fu, fc = b.op(c).fu;
  auto window_ok = [&](NodeId n, FuId target, NodeId other) {
    const int oc = eng.op_occupancy(n);
    const int start = sched.start(n);
    // Word fast path: an all-free window needs no per-slot identity check;
    // the scalar loop only runs to see whether the busy slots are `other`'s.
    if (!occ.fu_busy.any_in_range(target, start, oc)) return true;
    for (int t = start; t < start + oc; ++t) {
      const int user =
          occ.fu_user[static_cast<size_t>(target)][static_cast<size_t>(t)];
      if (user != Occupancy::kFree && user != other) return false;
    }
    return true;
  };
  if (!window_ok(a, fc, c) || !window_ok(c, fa, a)) return false;
  eng.touch_op(a).fu = fc;
  eng.touch_op(c).fu = fa;
  return true;
}

bool move_fu_move(SearchEngine& eng, Rng& rng) {
  const Binding& b = eng.binding();
  const Schedule& sched = b.prob().sched();
  const std::vector<NodeId>& ops = eng.operations();
  if (ops.empty()) return false;
  const Occupancy& occ = eng.occupancy();
  const NodeId a = ops[static_cast<size_t>(rng.uniform(static_cast<int>(ops.size())))];
  const FuId cur = b.op(a).fu;
  const int start = sched.start(a);
  const int oc = eng.op_occupancy(a);
  static thread_local std::vector<FuId> cands;
  cands.clear();
  // Whole-window feasibility is one masked word test per candidate FU.
  for (FuId f : eng.fus_of_class(eng.op_class(a))) {
    if (f == cur) continue;
    if (!occ.fu_busy.any_in_range(f, start, oc)) cands.push_back(f);
  }
  if (cands.empty()) return false;
  eng.touch_op(a).fu =
      cands[static_cast<size_t>(rng.uniform(static_cast<int>(cands.size())))];
  return true;
}

bool move_operand_reverse(SearchEngine& eng, Rng& rng) {
  // Commutativity is CDFG-static; the engine's pre-filtered list is the
  // full scan's candidate list (same order), with no per-proposal walk.
  const std::vector<NodeId>& cands = eng.commutative_ops();
  if (cands.empty()) return false;
  const NodeId a =
      cands[static_cast<size_t>(rng.uniform(static_cast<int>(cands.size())))];
  OpBind& ob = eng.touch_op_swap(a);
  ob.swap = !ob.swap;
  return true;
}

bool move_bind_pass(SearchEngine& eng, Rng& rng) {
  const Binding& b = eng.binding();
  const Lifetimes& lt = b.prob().lifetimes();
  // Bindable candidates are the direct inter-register transfers. The
  // engine's Fenwick over the per-storage transfer counts maps a uniform
  // draw to the owning storage; only that storage is walked for the
  // rank-within, in the same (seg, pos) order the global scan used — the
  // candidate ranking (and the single draw) is unchanged.
  const int total = eng.total_bare_transfers();
  if (total == 0) return false;
  int rem = 0;
  const int sid = eng.xfer_storage_at(rng.uniform(total), &rem);
  eng.prefetch_sto_txn(sid);
  const StorageBinding& sb = b.sto(sid);
  CellRef cr{sid, -1, -1};
  for (int seg = 1; cr.seg < 0 && seg < static_cast<int>(sb.cells.size());
       ++seg) {
    const auto& cells = sb.cells[static_cast<size_t>(seg)];
    for (int pos = 0; pos < static_cast<int>(cells.size()); ++pos) {
      const Cell& c = cells[static_cast<size_t>(pos)];
      if (c.via != kInvalidId) continue;
      const Cell& parent = sb.cells[static_cast<size_t>(seg) - 1]
                                   [static_cast<size_t>(c.parent)];
      if (parent.reg == c.reg) continue;
      if (rem-- == 0) {
        cr.seg = seg;
        cr.pos = pos;
        break;
      }
    }
  }
  SALSA_DCHECK(cr.seg > 0);
  const int tstep = lt.steps_of(cr.sid)[static_cast<size_t>(cr.seg - 1)];
  const Occupancy& occ = eng.occupancy();
  // Candidates = single-cycle pass-capable FUs (only those forward
  // combinationally) that are idle at tstep and whose output carries no
  // landing result there (relevant for pipelined units whose occupancy
  // ends before their delay). The static candidate mask ANDed against the
  // transposed busy row answers "idle candidates" in ceil(F/64) word ops
  // instead of one fu_busy row probe per candidate; both ascend in FU id,
  // so the k-th set bit of the mask is exactly the k-th entry the probe
  // loop pushed and the uniform pick lands on the same FU.
  const std::vector<uint64_t>& pmask = eng.single_cycle_pass_fu_mask();
  const int words = static_cast<int>(pmask.size());
  // salsa-lint: allow(thread-local-scratch-discipline) fully overwritten from pmask before any read
  static thread_local std::vector<uint64_t> free_fus;
  free_fus.resize(static_cast<size_t>(words));
  const uint64_t* busy = occ.fu_busy_t.row(tstep);
  for (int w = 0; w < words; ++w) free_fus[static_cast<size_t>(w)] =
      pmask[static_cast<size_t>(w)] & ~busy[w];
  for (NodeId n : eng.ops_finishing_at(tstep)) {
    const FuId f = b.op(n).fu;
    free_fus[static_cast<size_t>(f) >> 6] &= ~(uint64_t{1} << (f & 63));
  }
  const int nfree = popcount_words(free_fus.data(), words);
  if (nfree == 0) return false;
  mut_cell(eng.touch_sto(cr.sid, cr.seg, cr.seg), cr).via = nth_set_bit(
      free_fus.data(), static_cast<int>(b.prob().fus().size()),
      rng.uniform(nfree));
  return true;
}

bool move_unbind_pass(SearchEngine& eng, Rng& rng) {
  const Binding& b = eng.binding();
  // Candidates are the via-routed cells; the via-count Fenwick selects the
  // owning storage and only it is walked, in the global scan's (seg, pos)
  // order.
  const int total = eng.total_vias();
  if (total == 0) return false;
  int rem = 0;
  const int sid = eng.via_storage_at(rng.uniform(total), &rem);
  eng.prefetch_sto_txn(sid);
  const StorageBinding& sb = b.sto(sid);
  for (int seg = 0; seg < static_cast<int>(sb.cells.size()); ++seg) {
    const auto& cells = sb.cells[static_cast<size_t>(seg)];
    for (int pos = 0; pos < static_cast<int>(cells.size()); ++pos)
      if (cells[static_cast<size_t>(pos)].via != kInvalidId && rem-- == 0) {
        mut_cell(eng.touch_sto(sid, seg, seg), {sid, seg, pos}).via =
            kInvalidId;
        return true;
      }
  }
  SALSA_DCHECK(false);  // the count said the rank exists
  return false;
}

bool move_seg_exchange(SearchEngine& eng, Rng& rng) {
  const Binding& b = eng.binding();
  const int L = b.prob().sched().length();
  const int step = rng.uniform(L);
  // The step's cell count (and the rank select below) comes from the
  // engine's per-step Fenwick over the schedule-static live list — the
  // same enumeration (live_at_step order, then position in the segment)
  // the materialized list gave, without building it.
  const int total = eng.live_cells_at(step);
  if (total < 2) return false;
  const int i = rng.uniform(total);
  int j = rng.uniform(total - 1);
  if (j >= i) ++j;
  auto cr_of = [&](int idx) {
    const auto [p, pos] = eng.live_cell_at(step, idx);
    const auto& [sid, seg] = eng.live_at_step(step)[static_cast<size_t>(p)];
    return CellRef{sid, seg, pos};
  };
  const CellRef ri = cr_of(i);
  const CellRef rj = cr_of(j);
  eng.prefetch_sto_txn(ri.sid);
  eng.prefetch_sto_txn(rj.sid);
  const RegId r1 = cell_at(b, ri).reg;
  const RegId r2 = cell_at(b, rj).reg;
  if (r1 == r2) return false;
  // Avoid duplicate cells within either storage's segment after the swap.
  auto dup = [&](const CellRef& cr, RegId incoming) {
    const auto& cells = b.sto(cr.sid).cells[static_cast<size_t>(cr.seg)];
    for (int pos = 0; pos < static_cast<int>(cells.size()); ++pos)
      if (pos != cr.pos && cells[static_cast<size_t>(pos)].reg == incoming)
        return true;
    return false;
  };
  if (dup(ri, r2) || dup(rj, r1)) return false;
  mut_cell(eng.touch_sto(ri.sid, ri.seg, ri.seg), ri).reg = r2;
  mut_cell(eng.touch_sto(rj.sid, rj.seg, rj.seg), rj).reg = r1;
  return true;
}

bool move_seg_move(SearchEngine& eng, Rng& rng) {
  const Binding& b = eng.binding();
  const Lifetimes& lt = b.prob().lifetimes();
  // Every cell is a candidate, so map a uniform draw through the engine's
  // per-storage cell counts to the cell at that index of the
  // (sid, seg, pos)-lexicographic enumeration — the same pick a
  // materialized list would give, without walking every storage.
  const int total = eng.total_cells();
  if (total == 0) return false;
  int idx = 0;
  const int sid = eng.cell_storage_at(rng.uniform(total), &idx);
  eng.prefetch_sto_txn(sid);
  const int seg = eng.seg_of_cell_rank(sid, &idx);
  const CellRef cr{sid, seg, idx};
  const int step = lt.steps_of(cr.sid)[static_cast<size_t>(cr.seg)];
  const Occupancy& occ = eng.occupancy();
  // Free registers at the step, straight off the transposed busy plane:
  // the count is one popcount over the step's row and the pick is the
  // rank-th clear bit — ascending register order, exactly the list the
  // per-register probe loop built.
  const int nregs = b.prob().num_regs();
  const int nfree = nregs - occ.reg_busy_t.popcount_row(step);
  if (nfree == 0) return false;
  mut_cell(eng.touch_sto(cr.sid, cr.seg, cr.seg), cr).reg =
      nth_clear_bit(occ.reg_busy_t.row(step), nregs, rng.uniform(nfree));
  return true;
}

bool move_val_exchange(SearchEngine& eng, Rng& rng) {
  const Binding& b = eng.binding();
  const Lifetimes& lt = b.prob().lifetimes();
  const int n = lt.num_storages();
  if (n < 2) return false;
  const int s1 = rng.uniform(n);
  int s2 = rng.uniform(n - 1);
  if (s2 >= s1) ++s2;
  const RegId r1 = single_reg_of(b.sto(s1));
  const RegId r2 = single_reg_of(b.sto(s2));
  if (r1 == kInvalidId || r2 == kInvalidId || r1 == r2) return false;
  const Occupancy& occ = eng.occupancy();
  const int stride = lt.live_masks().stride();
  // Both storages are in contiguous single-register form, so the target
  // register's slots over `sid`'s live arc are held by `other` exactly on
  // `other`'s live mask: "free or held by the other" collapses to one
  // three-way word test — busy(target) ∧ live(sid) ∧ ¬live(other) empty.
  auto fits = [&](int sid, RegId target, int other) {
    return !words_and_andnot_any(occ.reg_busy.row(target), lt.live_row(sid),
                                 lt.live_row(other), stride);
  };
  if (!fits(s1, r2, s2) || !fits(s2, r1, s1)) return false;
  for (auto& seg : eng.touch_sto(s1).cells) seg[0].reg = r2;
  for (auto& seg : eng.touch_sto(s2).cells) seg[0].reg = r1;
  return true;
}

bool move_val_move(SearchEngine& eng, Rng& rng) {
  const Binding& b = eng.binding();
  const Lifetimes& lt = b.prob().lifetimes();
  const int n = lt.num_storages();
  if (n == 0) return false;
  const int sid = rng.uniform(n);
  eng.prefetch_sto_txn(sid);
  const Occupancy& occ = eng.occupancy();
  const RegId cur = single_reg_of(b.sto(sid));
  const uint64_t* live = lt.live_row(sid);
  const int stride = lt.live_masks().stride();
  RegId r = kInvalidId;
  if (cur != kInvalidId) {
    // Contiguous single-register form: a candidate must be free at every
    // live step, so OR the transposed busy rows of the storage's live
    // steps into one register mask — O(len x R/64) words instead of an
    // AND-any probe per register — and draw a clear bit. `cur` is busy on
    // its own arc, so it falls out of the mask automatically: same
    // candidate set, same ascending order as the per-register loop.
    // Accumulation and reduction run through the word kernels of
    // util/bitplane.h.
    const std::vector<int>& steps = lt.steps_of(sid);
    const BitPlane& bt = occ.reg_busy_t;
    const int words = bt.stride();
    static thread_local std::vector<uint64_t> busy_union;
    busy_union.assign(static_cast<size_t>(words), 0);
    for (const int t : steps)
      words_or_accumulate(busy_union.data(), bt.row(t), words);
    const int busy = popcount_words(busy_union.data(), words);
    const int nregs = b.prob().num_regs();
    const int nfree = nregs - busy;
    if (nfree == 0) return false;
    r = nth_clear_bit(busy_union.data(), nregs, rng.uniform(nfree));
  } else if (lt.storage(sid).len <= b.prob().sched().length()) {
    // General (split/multi-register) form, transposed: eligibility is
    // busy(r) ∧ live(sid) ∧ ¬own(r) empty, so OR per-step (busy ∧ ¬own)
    // register words into one mask — O(len x R/64) like the contiguous
    // form instead of a row test per register. Own bits are cleared per
    // step before accumulating (each live step is distinct when
    // len <= L, so the per-step own set equals the per-(reg, step) own
    // plane the row tests consulted): same candidate set, same ascending
    // order, same single draw.
    const std::vector<int>& steps = lt.steps_of(sid);
    const StorageBinding& sb = b.sto(sid);
    const BitPlane& bt = occ.reg_busy_t;
    const int words = bt.stride();
    static thread_local std::vector<uint64_t> busy_union;
    busy_union.assign(static_cast<size_t>(words), 0);
    // salsa-lint: allow(thread-local-scratch-discipline) every word is copy_n-overwritten from the busy row before any read
    static thread_local std::vector<uint64_t> step_tmp;
    step_tmp.resize(static_cast<size_t>(words));
    for (size_t seg = 0; seg < sb.cells.size(); ++seg) {
      const uint64_t* row = bt.row(steps[seg]);
      std::copy_n(row, static_cast<size_t>(words), step_tmp.data());
      for (const Cell& c : sb.cells[seg])
        step_tmp[static_cast<size_t>(c.reg) >> 6] &=
            ~(uint64_t{1} << (static_cast<unsigned>(c.reg) & 63u));
      words_or_accumulate(busy_union.data(), step_tmp.data(), words);
    }
    const int nregs = b.prob().num_regs();
    const int nfree = nregs - popcount_words(busy_union.data(), words);
    if (nfree == 0) return false;
    r = nth_clear_bit(busy_union.data(), nregs, rng.uniform(nfree));
  } else {
    // Wrapped lifetime (len > L): several segments can share a control
    // step, and the own mask must union across them before any step's
    // test — keep the per-register row walk for this rare shape.
    static thread_local BitPlane own;
    own.resize(b.prob().num_regs(), b.prob().sched().length());
    const std::vector<int>& steps = lt.steps_of(sid);
    const StorageBinding& sb = b.sto(sid);
    for (size_t seg = 0; seg < sb.cells.size(); ++seg)
      for (const Cell& c : sb.cells[seg]) own.set(c.reg, steps[seg]);
    static thread_local std::vector<RegId> regs;
    regs.clear();
    for (RegId cand = 0; cand < b.prob().num_regs(); ++cand)
      if (!words_and_andnot_any(occ.reg_busy.row(cand), live, own.row(cand),
                                stride))
        regs.push_back(cand);
    if (regs.empty()) return false;
    r = regs[static_cast<size_t>(rng.uniform(static_cast<int>(regs.size())))];
  }
  StorageBinding& sb = eng.touch_sto(sid);
  for (size_t seg = 0; seg < sb.cells.size(); ++seg) {
    sb.cells[seg].assign(1, Cell{r, seg == 0 ? -1 : 0, kInvalidId});
  }
  std::fill(sb.read_cell.begin(), sb.read_cell.end(), 0);
  return true;
}

bool move_val_split(SearchEngine& eng, Rng& rng) {
  const Binding& b = eng.binding();
  const Lifetimes& lt = b.prob().lifetimes();
  const int n = lt.num_storages();
  if (n == 0) return false;
  const int sid = rng.uniform(n);
  eng.prefetch_sto_txn(sid);
  const Storage& s = lt.storage(sid);
  const int seg = rng.uniform(s.len);
  const int step = lt.steps_of(sid)[static_cast<size_t>(seg)];
  const Occupancy& occ = eng.occupancy();
  // Free registers at the step off the transposed busy plane (see
  // move_seg_move) — same count, same ascending order, one popcount.
  const int nregs = b.prob().num_regs();
  const int nfree = nregs - occ.reg_busy_t.popcount_row(step);
  if (nfree == 0) return false;
  const RegId r =
      nth_clear_bit(occ.reg_busy_t.row(step), nregs, rng.uniform(nfree));
  Cell c;
  c.reg = r;
  c.parent =
      seg == 0 ? -1
               : rng.uniform(static_cast<int>(
                     b.sto(sid).cells[static_cast<size_t>(seg) - 1].size()));
  StorageBinding& sb = eng.touch_sto(sid, seg, seg);
  sb.cells[static_cast<size_t>(seg)].push_back(c);
  const int new_pos =
      static_cast<int>(sb.cells[static_cast<size_t>(seg)].size()) - 1;
  // Give reads at this segment a chance to use the copy right away.
  for (size_t ri = 0; ri < s.reads.size(); ++ri)
    if (s.reads[ri].seg == seg && rng.chance(0.5)) sb.read_cell[ri] = new_pos;
  return true;
}

bool move_val_merge(SearchEngine& eng, Rng& rng) {
  const Binding& b = eng.binding();
  const Lifetimes& lt = b.prob().lifetimes();
  // Candidates are leaf cells of multi-cell segments (no child in the next
  // segment). The engine maintains the per-storage leaf counts with its
  // other candidate statistics, so the Fenwick select lands on the owning
  // storage and only it is walked — the same (seg, pos)-ordered predicate
  // scan the global loop applied, at O(storage) instead of O(design).
  const int total = eng.total_leaves();
  if (total == 0) return false;
  int rem = 0;
  const int msid = eng.leaf_storage_at(rng.uniform(total), &rem);
  eng.prefetch_sto_txn(msid);
  const StorageBinding& msb = b.sto(msid);
  CellRef cr{msid, -1, -1};
  for (int seg = 0; cr.seg < 0 && seg < static_cast<int>(msb.cells.size());
       ++seg) {
    const auto& cells = msb.cells[static_cast<size_t>(seg)];
    if (cells.size() < 2) continue;
    for (int pos = 0; pos < static_cast<int>(cells.size()); ++pos) {
      bool leaf = true;
      if (seg + 1 < static_cast<int>(msb.cells.size())) {
        for (const Cell& child : msb.cells[static_cast<size_t>(seg) + 1])
          if (child.parent == pos) {
            leaf = false;
            break;
          }
      }
      if (leaf && rem-- == 0) {
        cr.seg = seg;
        cr.pos = pos;
        break;
      }
    }
  }
  SALSA_DCHECK(cr.seg >= 0);
  StorageBinding& sb = eng.touch_sto(cr.sid, cr.seg, cr.seg + 1);
  auto& cells = sb.cells[static_cast<size_t>(cr.seg)];
  cells.erase(cells.begin() + cr.pos);
  // Fix children parent indices and read targets shifted by the erase.
  if (cr.seg + 1 < static_cast<int>(sb.cells.size()))
    for (Cell& child : sb.cells[static_cast<size_t>(cr.seg) + 1])
      if (child.parent > cr.pos) --child.parent;
  const Storage& s = lt.storage(cr.sid);
  for (size_t ri = 0; ri < s.reads.size(); ++ri) {
    if (s.reads[ri].seg != cr.seg) continue;
    if (sb.read_cell[ri] == cr.pos)
      sb.read_cell[ri] = rng.uniform(static_cast<int>(cells.size()));
    else if (sb.read_cell[ri] > cr.pos)
      --sb.read_cell[ri];
  }
  return true;
}

bool move_read_retarget(SearchEngine& eng, Rng& rng) {
  const Binding& b = eng.binding();
  const Lifetimes& lt = b.prob().lifetimes();
  // Candidates are the reads whose segment offers >= 2 cells ("fat"
  // reads); the engine's per-storage fat-read counts select the owning
  // storage and only its read list is scanned for the rank-within — the
  // same (sid, read)-ordered enumeration as the global scan.
  const int total = eng.total_fat_reads();
  if (total == 0) return false;
  int rem = 0;
  const int sid = eng.fat_read_storage_at(rng.uniform(total), &rem);
  eng.prefetch_sto_txn(sid);
  const Storage& s = lt.storage(sid);
  const StorageBinding& sbr = b.sto(sid);
  int ri = -1;
  for (size_t k = 0; k < s.reads.size(); ++k)
    if (sbr.cells[static_cast<size_t>(s.reads[k].seg)].size() >= 2 &&
        rem-- == 0) {
      ri = static_cast<int>(k);
      break;
    }
  SALSA_DCHECK(ri >= 0);
  const int ncells = static_cast<int>(
      b.sto(sid).cells[static_cast<size_t>(s.reads[static_cast<size_t>(ri)].seg)]
          .size());
  int pos = rng.uniform(ncells - 1);
  if (pos >= b.sto(sid).read_cell[static_cast<size_t>(ri)]) ++pos;
  eng.touch_sto_reads(sid).read_cell[static_cast<size_t>(ri)] = pos;
  return true;
}

}  // namespace

namespace detail {

bool dispatch_move(SearchEngine& eng, MoveKind kind, Rng& rng) {
  switch (kind) {
    case MoveKind::kFuExchange: return move_fu_exchange(eng, rng);
    case MoveKind::kFuMove: return move_fu_move(eng, rng);
    case MoveKind::kOperandReverse: return move_operand_reverse(eng, rng);
    case MoveKind::kBindPass: return move_bind_pass(eng, rng);
    case MoveKind::kUnbindPass: return move_unbind_pass(eng, rng);
    case MoveKind::kSegExchange: return move_seg_exchange(eng, rng);
    case MoveKind::kSegMove: return move_seg_move(eng, rng);
    case MoveKind::kValExchange: return move_val_exchange(eng, rng);
    case MoveKind::kValMove: return move_val_move(eng, rng);
    case MoveKind::kValSplit: return move_val_split(eng, rng);
    case MoveKind::kValMerge: return move_val_merge(eng, rng);
    case MoveKind::kReadRetarget: return move_read_retarget(eng, rng);
  }
  return false;
}

}  // namespace detail

bool apply_random_move(Binding& b, MoveKind kind, Rng& rng) {
  SearchEngine eng(b);
  if (!eng.propose(kind, rng)) return false;
  eng.commit();
  b = eng.binding();
  return true;
}

}  // namespace salsa
