#include "core/search_engine.h"

#include <algorithm>
#include <ostream>

namespace salsa {

SearchEngine::SearchEngine(const Binding& start) : b_(start) {
  build_static();
  init_from_statics();
  rebuild();
}

SearchEngine::SearchEngine(const Binding& start, const SearchEngine& other)
    : b_(start), statics_(other.statics_) {
  SALSA_CHECK_MSG(&start.prob() == &other.b_.prob(),
                  "sharing engine statics needs bindings of the same problem");
  init_from_statics();
  rebuild();
}

void SearchEngine::build_static() {
  const AllocProblem& prob = b_.prob();
  const Cdfg& g = prob.cdfg();
  const Lifetimes& lt = prob.lifetimes();
  const int S = lt.num_storages();
  EngineStatics st;
  st.charge_consts = prob.weights().constants_cost;
  st.const_gen_base = 2 * S;

  st.op_info.assign(static_cast<size_t>(g.num_nodes()), OpInfo{});
  // Which storages each operation reads (its operand-fetch sinks live in
  // the storages' read generators) and which storage it produces.
  std::vector<int> produced(static_cast<size_t>(g.num_nodes()), -1);
  for (int sid = 0; sid < S; ++sid) {
    const Storage& s = lt.storage(sid);
    if (s.producer != kInvalidId) {
      SALSA_CHECK(produced[static_cast<size_t>(s.producer)] == -1);
      produced[static_cast<size_t>(s.producer)] = sid;
    }
    for (const StorageRead& r : s.reads) {
      if (g.node(r.consumer).kind == OpKind::kOutput) continue;
      auto& gens = st.op_info[static_cast<size_t>(r.consumer)].gens;
      if (gens.empty() || gens.back() != gen_reads(sid))
        gens.push_back(gen_reads(sid));
    }
  }
  for (NodeId n : g.operations()) {
    OpInfo& info = st.op_info[static_cast<size_t>(n)];
    // Dedup read generators (an op may read two operands of one storage,
    // interleaved with other storages in the scan above).
    std::sort(info.gens.begin(), info.gens.end());
    info.gens.erase(std::unique(info.gens.begin(), info.gens.end()),
                    info.gens.end());
    if (produced[static_cast<size_t>(n)] >= 0)
      info.gens.push_back(gen_writes(produced[static_cast<size_t>(n)]));
    for (ValueId v : g.node(n).ins)
      if (g.is_const_value(v)) info.has_const_ins = true;
    if (info.has_const_ins) info.gens.push_back(st.const_gen_base + n);
  }
  st.num_gens = st.const_gen_base + g.num_nodes();
  st.ops = g.operations();
  for (size_t c = 0; c < st.fus_by_class.size(); ++c)
    st.fus_by_class[c] = prob.fus().of_class(static_cast<FuClass>(c));
  st.pass_fus = prob.fus().pass_capable();
  const Schedule& sched = prob.sched();
  st.finishing_at.assign(static_cast<size_t>(sched.length()), {});
  for (NodeId n : st.ops) {
    const int fin = sched.start(n) + sched.hw().delay(g.node(n).kind) - 1;
    st.finishing_at[static_cast<size_t>(fin % sched.length())].push_back(n);
  }
  st.op_class.assign(static_cast<size_t>(g.num_nodes()), FuClass::kAlu);
  st.op_occ.assign(static_cast<size_t>(g.num_nodes()), 0);
  st.node_is_output.assign(static_cast<size_t>(g.num_nodes()), 0);
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    st.node_is_output[static_cast<size_t>(n)] =
        g.node(n).kind == OpKind::kOutput ? 1 : 0;
  for (NodeId n : st.ops) {
    const OpKind kind = g.node(n).kind;
    const FuClass c = fu_class_of(kind);
    st.op_class[static_cast<size_t>(n)] = c;
    st.op_occ[static_cast<size_t>(n)] = sched.hw().occupancy(kind);
    st.ops_by_class[static_cast<size_t>(c)].push_back(n);
    if (is_commutative(kind)) st.commutative_ops.push_back(n);
  }
  for (FuId f : st.pass_fus) {
    // Only single-cycle FU classes can forward combinationally.
    const OpKind probe =
        prob.fus().fu(f).cls == FuClass::kAlu ? OpKind::kAdd : OpKind::kMul;
    if (sched.hw().delay(probe) == 1) st.pass_fus_1cyc.push_back(f);
  }
  st.pass_fus_1cyc_mask.assign(
      (prob.fus().size() + 63) / 64, 0);
  for (FuId f : st.pass_fus_1cyc)
    st.pass_fus_1cyc_mask[static_cast<size_t>(f) >> 6] |=
        uint64_t{1} << (f & 63);
  // Ranks within the class lists, for the per-FU op index.
  st.pos_in_class.assign(static_cast<size_t>(g.num_nodes()), -1);
  for (const auto& class_list : st.ops_by_class)
    for (size_t p = 0; p < class_list.size(); ++p)
      st.pos_in_class[static_cast<size_t>(class_list[p])] =
          static_cast<int>(p);
  // Per-step live lists, built by one pass over each storage's segment
  // steps instead of an O(L x S) seg_at_step probe grid. A storage is live
  // at a step in at most one segment and the outer loop ascends sid, so
  // each step's list comes out in the same sid-ascending order the probe
  // scan produced. The flat (sid, seg) -> position-in-step table is
  // recorded as the lists grow; the per-step cell-count Fenwicks key on it.
  st.sto_seg_off.assign(static_cast<size_t>(S) + 1, 0);
  for (int sid = 0; sid < S; ++sid)
    st.sto_seg_off[static_cast<size_t>(sid) + 1] =
        st.sto_seg_off[static_cast<size_t>(sid)] + lt.storage(sid).len;
  st.pos_in_step.assign(static_cast<size_t>(st.sto_seg_off[static_cast<size_t>(S)]),
                        0);
  st.live_at.assign(static_cast<size_t>(sched.length()), {});
  for (int sid = 0; sid < S; ++sid) {
    const std::vector<int>& steps = lt.steps_of(sid);
    const int off = st.sto_seg_off[static_cast<size_t>(sid)];
    for (size_t seg = 0; seg < steps.size(); ++seg) {
      auto& at = st.live_at[static_cast<size_t>(steps[seg])];
      st.pos_in_step[static_cast<size_t>(off) + seg] =
          static_cast<int>(at.size());
      at.push_back({sid, static_cast<int>(seg)});
    }
  }
  for (int sid = 0; sid < S; ++sid)
    st.total_reads += static_cast<long>(lt.storage(sid).reads.size());
  statics_ = std::make_shared<const EngineStatics>(std::move(st));
}

void SearchEngine::init_from_statics() {
  const Cdfg& g = b_.prob().cdfg();
  const int S = b_.prob().lifetimes().num_storages();
  gen_epoch_.assign(static_cast<size_t>(statics_->num_gens), 0);
  gen_keys_.assign(static_cast<size_t>(statics_->num_gens), {});
  op_epoch_.assign(static_cast<size_t>(g.num_nodes()), 0);
  sto_epoch_.assign(static_cast<size_t>(S), 0);
  sto_save_.assign(static_cast<size_t>(S), StorageBinding{});
  sto_wlo_.assign(static_cast<size_t>(S), 0);
  sto_whi_.assign(static_cast<size_t>(S), -1);
  sto_whi_add_.assign(static_cast<size_t>(S), -1);
  write_seg_keys_.assign(
      static_cast<size_t>(statics_->sto_seg_off[static_cast<size_t>(S)]), 0);
  epoch_ = 0;
  // The audited index tables are the targets of the backward-shift
  // mutation hook (flat_map_hooks; no effect unless a test arms it).
  pair_refs_.mark_mutation_target();
  sink_sources_.mark_mutation_target();
  // Transaction scratch. The journals and touch lists are pre-sized so the
  // steady-state move loop never grows them mid-proposal; the netting
  // tables (txn_delta_ / sink_delta_) are deliberately NOT pre-reserved —
  // drain() walks the whole slot array, so their per-proposal cost is
  // proportional to *capacity*, and a blanket reserve sized for the
  // largest whole-storage touch would make every small transaction scan
  // kilobytes of empty slots (measured ~300ns per proposal at EWF scale).
  // Demand growth converges to the largest transaction footprint within
  // the warmup moves and never rehashes again — the steady-state pin in
  // tests/test_audit_scaling.cpp snapshots index_rehashes() after warmup.
  undo_ints_.reserve(256);
  pending_uses_.reserve(512);
  sink_scratch_.reserve(256);
  touched_ops_.reserve(16);
  touched_sids_.reserve(16);
  removed_gens_.reserve(64);
}

void SearchEngine::rebuild() {
  const AllocProblem& prob = b_.prob();
  occ_ = b_.occupancy();  // also validates legality
  // Re-arm the busy planes as mutation targets (bitplane_hooks): the
  // assignment above copied from a temporary that was never marked.
  occ_.fu_busy.mark_mutation_target();
  occ_.reg_busy.mark_mutation_target();
  pair_refs_.clear();
  sink_sources_.clear();
  fu_refs_.assign(static_cast<size_t>(prob.fus().size()), 0);
  reg_refs_.assign(static_cast<size_t>(prob.num_regs()), 0);
  fu_stage_.assign(fu_refs_.size(), 0);
  reg_stage_.assign(reg_refs_.size(), 0);
  fu_staged_.clear();
  reg_staged_.clear();
  cost_ = CostBreakdown{};

  const Cdfg& g = prob.cdfg();
  const Lifetimes& lt = prob.lifetimes();
  const int S = lt.num_storages();
  sto_cells_.assign(static_cast<size_t>(S), 0);
  sto_vias_.assign(static_cast<size_t>(S), 0);
  sto_xfers_.assign(static_cast<size_t>(S), 0);
  sto_leaves_.assign(static_cast<size_t>(S), 0);
  sto_fat_reads_.assign(static_cast<size_t>(S), 0);
  total_cells_ = 0;
  fw_cells_.reset(S);
  fw_vias_.reset(S);
  fw_xfers_.reset(S);
  fw_leaves_.reset(S);
  fw_fat_reads_.reset(S);
  seg_size_.assign(
      static_cast<size_t>(statics_->sto_seg_off[static_cast<size_t>(S)]), 0);
  step_cells_.resize(statics_->live_at.size());
  for (size_t t = 0; t < step_cells_.size(); ++t)
    step_cells_[t].reset(static_cast<int>(statics_->live_at[t].size()));
  for (int sid = 0; sid < S; ++sid) refresh_sto_stats(sid);
  // Per-FU op lists: the class lists ascend pos_in_class rank, so each
  // per-FU list comes out sorted without a post-pass.
  fu_ops_.assign(static_cast<size_t>(prob.fus().size()), {});
  for (const auto& class_list : statics_->ops_by_class)
    for (NodeId n : class_list)
      fu_ops_[static_cast<size_t>(b_.op(n).fu)].push_back(
          statics_->pos_in_class[static_cast<size_t>(n)]);
  // Size the connection index once from the design dimensions — at most
  // one pair entry per routed use (a via cell charges two, a hold none, a
  // read one) and one sink entry per pin — so the steady-state move loop
  // never rehashes (index_rehashes() pins this). reserve() is a no-op when
  // the tables already have the capacity (every rebuild after the first).
  pair_refs_.reserve(static_cast<size_t>(
      2 * static_cast<long>(total_cells_) + statics_->total_reads +
      static_cast<long>(statics_->ops.size())));
  sink_sources_.reserve(static_cast<size_t>(2 * prob.fus().size() +
                                            prob.num_regs()) +
                        statics_->ops.size());
  for (NodeId n : g.operations()) {
    const FuId f = b_.op(n).fu;
    if (++fu_refs_[static_cast<size_t>(f)] == 1) ++cost_.fus_used;
  }
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    for (const auto& seg : b_.sto(sid).cells) {
      for (const Cell& c : seg) {
        if (++reg_refs_[static_cast<size_t>(c.reg)] == 1) ++cost_.regs_used;
        if (c.via != kInvalidId &&
            ++fu_refs_[static_cast<size_t>(c.via)] == 1)
          ++cost_.fus_used;
      }
    }
    add_gen(gen_reads(sid),
            gen_keys_[static_cast<size_t>(gen_reads(sid))]);
    add_gen(gen_writes(sid),
            gen_keys_[static_cast<size_t>(gen_writes(sid))]);
  }
  for (NodeId n : g.operations())
    if (statics_->op_info[static_cast<size_t>(n)].has_const_ins)
      add_gen(gen_const(n), gen_keys_[static_cast<size_t>(gen_const(n))]);
  recompute_total();
#ifndef NDEBUG
  // Segment-windowed transactions rely on the binding being normalized
  // whenever no transaction is open (no hold cell carries a via): every
  // transaction normalizes its touched window before the re-adds, and a
  // window covers every segment whose parent regs or vias can change, so
  // the invariant holds inductively from a normalized start.
  for (int sid = 0; sid < S; ++sid) {
    const StorageBinding& sb = b_.sto(sid);
    for (size_t seg = 1; seg < sb.cells.size(); ++seg)
      for (const Cell& c : sb.cells[seg])
        SALSA_DCHECK(c.parent < 0 ||
                     sb.cells[seg - 1][static_cast<size_t>(c.parent)].reg !=
                         c.reg ||
                     c.via == kInvalidId);
  }
#endif
  SALSA_DCHECK(matches_full_eval());
}

void SearchEngine::recompute_total() {
  // Same expression as evaluate_cost, term for term, so totals compare
  // bit-identically.
  const CostWeights& w = b_.prob().weights();
  cost_.total = w.fu * cost_.fus_used + w.reg * cost_.regs_used +
                w.mux * cost_.muxes + w.conn * cost_.connections;
}

void SearchEngine::reset_to(const Binding& nb) {
  SALSA_DCHECK(!in_txn_);
  SALSA_CHECK_MSG(&nb.prob() == &b_.prob(),
                  "SearchEngine::reset_to needs a binding of the same problem");
  b_ = nb;
  rebuild();
}

// ---------------------------------------------------------------------------
// Use enumeration — one generator at a time, mirroring connection_uses().

template <typename Fn>
void SearchEngine::enum_gen_uses(int gen, Fn&& fn) const {
  const AllocProblem& prob = b_.prob();
  const Cdfg& g = prob.cdfg();
  const Lifetimes& lt = prob.lifetimes();
  const int L = prob.sched().length();

  if (gen >= statics_->const_gen_base) {  // constant operands of one operation
    const NodeId n = gen - statics_->const_gen_base;
    const Node& nd = g.node(n);
    const OpBind& ob = b_.op(n);
    for (size_t k = 0; k < nd.ins.size(); ++k) {
      if (!g.is_const_value(nd.ins[k])) continue;
      const int slot = ob.swap ? 1 - static_cast<int>(k) : static_cast<int>(k);
      fn(Endpoint{Endpoint::Kind::kConstPort, g.producer(nd.ins[k])},
         Pin{slot == 0 ? Pin::Kind::kFuIn0 : Pin::Kind::kFuIn1, ob.fu});
    }
    return;
  }

  const int sid = gen / 2;
  const Storage& s = lt.storage(sid);
  const StorageBinding& sb = b_.sto(sid);
  if (gen == gen_reads(sid)) {  // operand fetches and output samples
    for (size_t ri = 0; ri < s.reads.size(); ++ri) {
      const StorageRead& r = s.reads[ri];
      // Binding::read_reg(sid, ri), with the storage rows already in hand.
      const RegId rreg =
          sb.cells[static_cast<size_t>(r.seg)]
                  [static_cast<size_t>(sb.read_cell[ri])].reg;
      const Endpoint src{Endpoint::Kind::kRegOut, rreg};
      if (statics_->node_is_output[static_cast<size_t>(r.consumer)]) {
        fn(src, Pin{Pin::Kind::kOutPort, r.consumer});
      } else {
        const OpBind& ob = b_.op(r.consumer);
        const int slot = ob.swap ? 1 - r.operand : r.operand;
        fn(src,
           Pin{slot == 0 ? Pin::Kind::kFuIn0 : Pin::Kind::kFuIn1, ob.fu});
      }
    }
    return;
  }

  // Cell writes: producer latches, environment loads, transfers.
  for (int seg = 0; seg < s.len; ++seg)
    enum_write_seg_uses(sid, s, sb, seg, fn);
  (void)L;
}

template <typename Fn>
void SearchEngine::enum_write_seg_uses(int sid, const Storage& s,
                                       const StorageBinding& sb, int seg,
                                       Fn&& fn) const {
  const Cdfg& g = b_.prob().cdfg();
  (void)sid;
  for (const Cell& c : sb.cells[static_cast<size_t>(seg)]) {
    const Pin sink{Pin::Kind::kRegIn, c.reg};
    if (seg == 0) {
      if (s.producer == kInvalidId) {
        fn(Endpoint{Endpoint::Kind::kInPort, g.producer(s.members[0])}, sink);
      } else {
        fn(Endpoint{Endpoint::Kind::kFuOut, b_.op(s.producer).fu}, sink);
      }
      continue;
    }
    const Cell& parent =
        sb.cells[static_cast<size_t>(seg) - 1][static_cast<size_t>(c.parent)];
    if (parent.reg == c.reg) continue;  // hold: no interconnect
    if (c.via == kInvalidId) {
      fn(Endpoint{Endpoint::Kind::kRegOut, parent.reg}, sink);
    } else {
      fn(Endpoint{Endpoint::Kind::kRegOut, parent.reg},
         Pin{Pin::Kind::kFuIn0, c.via});
      fn(Endpoint{Endpoint::Kind::kFuOut, c.via}, sink);
    }
  }
}

void SearchEngine::add_key(uint64_t key) {
  if (pair_refs_.increment(key) == 1) {
    ++cost_.connections;
    if (sink_sources_.increment(static_cast<uint32_t>(key >> 32)) > 1)
      ++cost_.muxes;
  }
}

void SearchEngine::remove_key(uint64_t key) {
  if (pair_refs_.decrement(key) == 0) {
    --cost_.connections;
    if (sink_sources_.decrement(static_cast<uint32_t>(key >> 32)) != 0)
      --cost_.muxes;
  }
}

void SearchEngine::apply_pending_uses() {
  for (const PendingUse& u : pending_uses_) {
    // One add() per key applies the whole net; the count crosses zero at
    // most once, exactly when the pair goes live (created) or dead
    // (erased), and only those transitions move the sink's source count.
    // cost_ is NOT touched here — finish_mutation already advanced it
    // from the same transitions, read-only.
    const int after = pair_refs_.add(u.key, u.net);
    SALSA_DCHECK(u.net > 0 || after != u.net);  // retired pairs existed
    if (after == u.net) {
      sink_sources_.increment(static_cast<uint32_t>(u.key >> 32));
    } else if (after == 0) {
      sink_sources_.decrement(static_cast<uint32_t>(u.key >> 32));
    }
  }
  pending_uses_.clear();
}

void SearchEngine::add_gen(int gen, std::vector<uint64_t>& keys) {
  // Enumerate from the binding into `keys`. Outside a transaction the
  // target is the generator's cache itself (rebuild); inside one it is the
  // removal's stash slot, so the cache keeps the pre-move list — it is the
  // netting's "old" side and rollback's ground truth — and commit installs
  // the fresh list with one capacity-stable copy (see gen_keys_ in the
  // header).
  keys.clear();
  auto emit = [this, &keys](const Endpoint& src, const Pin& sink) {
    if (!statics_->charge_consts && src.kind == Endpoint::Kind::kConstPort)
      return;
    const uint64_t key = (static_cast<uint64_t>(pack(sink)) << 32) | pack(src);
    keys.push_back(key);
    // Inside a transaction finish_mutation nets the old and new key lists.
    if (!in_txn_) add_key(key);
  };
  if (is_write_gen(gen)) {
    // Write generators enumerate per segment so the cache's per-segment
    // key counts stay current — the spliced windowed refresh needs them to
    // locate a window inside the flat key list. Count writes are journaled
    // (rollback keeps the old key list — the cache was never overwritten —
    // and the journal replay restores the matching counts).
    const int sid = gen / 2;
    const Storage& s = b_.prob().lifetimes().storage(sid);
    const StorageBinding& sb = b_.sto(sid);
    const int off = statics_->sto_seg_off[static_cast<size_t>(sid)];
    for (int seg = 0; seg < s.len; ++seg) {
      const size_t before = keys.size();
      enum_write_seg_uses(sid, s, sb, seg, emit);
      int& slot = write_seg_keys_[static_cast<size_t>(off + seg)];
      const int now = static_cast<int>(keys.size() - before);
      if (slot != now) {
        journal_int(slot);
        slot = now;
      }
    }
    return;
  }
  enum_gen_uses(gen, emit);
}

void SearchEngine::add_write_gen_spliced(int sid, size_t stash_idx, int wlo,
                                         int whi, int whi_add) {
  // No index side effects: refresh the write generator's cache by copying
  // the pre-move key list's unchanged prefix and suffix around a fresh
  // enumeration of the touched window. Segments outside the window kept their exact binding bytes, so
  // the spliced list equals what a full re-enumeration would produce and
  // the generic netting in finish_mutation sees identical inputs.
  const int gen = gen_writes(sid);
  // The cache still holds the pre-move list (retirement is bookkeeping
  // only); the spliced replacement builds in this removal's stash slot,
  // whose buffer is pooled across transactions — no steady-state
  // allocation.
  const std::vector<uint64_t>& olds = gen_keys_[static_cast<size_t>(gen)];
  std::vector<uint64_t>& keys = gen_stash_[stash_idx];
  keys.clear();
  const Storage& s = b_.prob().lifetimes().storage(sid);
  const StorageBinding& sb = b_.sto(sid);
  const int off = statics_->sto_seg_off[static_cast<size_t>(sid)];
  size_t pre = 0;
  for (int seg = 0; seg < wlo; ++seg)
    pre += static_cast<size_t>(write_seg_keys_[static_cast<size_t>(off + seg)]);
  size_t old_win = 0;
  for (int seg = wlo; seg <= whi; ++seg)
    old_win +=
        static_cast<size_t>(write_seg_keys_[static_cast<size_t>(off + seg)]);
  keys.reserve(olds.size() + 4);
  keys.insert(keys.end(), olds.begin(),
              olds.begin() + static_cast<ptrdiff_t>(pre));
  for (int seg = wlo; seg <= whi_add; ++seg) {
    const size_t before = keys.size();
    enum_write_seg_uses(sid, s, sb, seg,
                        [&keys](const Endpoint& src, const Pin& sink) {
                          keys.push_back(
                              (static_cast<uint64_t>(pack(sink)) << 32) |
                              pack(src));
                        });
    int& slot = write_seg_keys_[static_cast<size_t>(off + seg)];
    const int now = static_cast<int>(keys.size() - before);
    if (slot != now) {
      journal_int(slot);
      slot = now;
    }
  }
  keys.insert(keys.end(),
              olds.begin() + static_cast<ptrdiff_t>(pre + old_win),
              olds.end());
}

bool SearchEngine::add_read_gen_spliced(int sid, size_t stash_idx) {
  // Read keys depend on exactly three things: the register of the cell
  // the read fetches from (changes only when that cell's segment is inside
  // the mutation window), which cell the read fetches from (read_cell,
  // saved on every touch), and the consumer's operand routing
  // (ob.swap/ob.fu, changes only when the op was touched this epoch).
  // Everything else copies from the cached pre-move list —
  // for the common case of a storage with many reads outside a one-segment
  // window, that's a memcpy-speed pass instead of re-deriving every key.
  const Storage& s = b_.prob().lifetimes().storage(sid);
  const StorageBinding& sb = b_.sto(sid);
  const std::vector<uint64_t>& olds =
      gen_keys_[static_cast<size_t>(gen_reads(sid))];
  if (olds.size() != s.reads.size()) return false;
  // The generator may have been retired through touch_op alone (a consumer
  // changed FU or swap) with the storage itself untouched — then its cells
  // and read_cell are unchanged, the window is empty, and the save buffer
  // may never have been filled for this storage at all.
  const bool sto_touched = sto_epoch_[static_cast<size_t>(sid)] == epoch_;
  const StorageBinding& save = sto_save_[static_cast<size_t>(sid)];
  const int wlo = sto_touched ? sto_wlo_[static_cast<size_t>(sid)] : 0;
  const int whi = sto_touched ? sto_whi_[static_cast<size_t>(sid)] : -1;
  std::vector<uint64_t>& keys = gen_stash_[stash_idx];
  keys.clear();
  keys.reserve(olds.size());
  for (size_t ri = 0; ri < s.reads.size(); ++ri) {
    const StorageRead& r = s.reads[ri];
    if ((r.seg < wlo || r.seg > whi) &&
        (!sto_touched || sb.read_cell[ri] == save.read_cell[ri]) &&
        op_epoch_[static_cast<size_t>(r.consumer)] != epoch_) {
      keys.push_back(olds[ri]);
      continue;
    }
    const RegId rreg = sb.cells[static_cast<size_t>(r.seg)]
                               [static_cast<size_t>(sb.read_cell[ri])].reg;
    const uint32_t src = pack(Endpoint{Endpoint::Kind::kRegOut, rreg});
    uint32_t sk;
    if (statics_->node_is_output[static_cast<size_t>(r.consumer)]) {
      sk = pack(Pin{Pin::Kind::kOutPort, r.consumer});
    } else {
      const OpBind& ob = b_.op(r.consumer);
      const int slot = ob.swap ? 1 - r.operand : r.operand;
      sk = pack(Pin{slot == 0 ? Pin::Kind::kFuIn0 : Pin::Kind::kFuIn1, ob.fu});
    }
    keys.push_back((static_cast<uint64_t>(sk) << 32) | src);
  }
  return true;
}

void SearchEngine::install_fresh_gen_caches() {
  // Commit-side half of the retire/re-add protocol: each removed
  // generator's fresh enumeration (built in its stash slot) becomes the
  // cache. assign() reuses both buffers' capacity, so steady-state commits
  // never allocate; a rollback skips this and the caches — never
  // overwritten mid-transaction — still hold the pre-move lists.
  for (size_t i = 0; i < removed_gens_.size(); ++i)
    gen_keys_[static_cast<size_t>(removed_gens_[i])].assign(
        gen_stash_[i].begin(), gen_stash_[i].end());
}

void SearchEngine::remove_gen_once(int gen) {
  if (gen_epoch_[static_cast<size_t>(gen)] == epoch_) return;
  gen_epoch_[static_cast<size_t>(gen)] = epoch_;
  // The cached key list is walked by finish_mutation's splice and netting;
  // start its (scattered, per-generator) data line towards the cache now so
  // the refresh doesn't stall on it. The header itself was hinted by the
  // proposer's prefetch_sto_txn where a storage pick preceded the touch.
  {
    const std::vector<uint64_t>& cached = gen_keys_[static_cast<size_t>(gen)];
    if (!cached.empty()) __builtin_prefetch(cached.data());
  }
  const size_t stash = removed_gens_.size();
  removed_gens_.push_back(gen);
  if (stash >= gen_stash_.size()) gen_stash_.emplace_back();
  // Retirement is bookkeeping only: the cache keeps the pre-move key list
  // in place (finish_mutation nets it against the fresh enumeration built
  // in the stash slot, commit installs the replacement, rollback has
  // nothing to undo). Swapping buffers here looked free but alternated
  // each slot's capacity between unrelated generators, so the refill
  // reallocated nearly every transaction.
}

// ---------------------------------------------------------------------------
// Resource claims (occupancy slots + fus_used/regs_used refcounts). Touches
// release the touched units' claims unjournaled: rollback restores the
// saved units and re-claims from them (apply_claims_walk), and the re-adds
// of a proposed move are only staged until commit.

void SearchEngine::remove_op_claims(NodeId n) {
  const Schedule& sched = b_.prob().sched();
  const FuId f = b_.op(n).fu;
  const int oc = statics_->op_occ[static_cast<size_t>(n)];
  const int start = sched.start(n);
#ifndef NDEBUG
  for (int t = start; t < start + oc; ++t)
    SALSA_DCHECK(occ_.fu_slot(f, t) == n);
#endif
  occ_.release_fu_range(f, start, oc);
  if (--fu_refs_[static_cast<size_t>(f)] == 0) --cost_.fus_used;
}

void SearchEngine::remove_sto_claims(int sid, int lo, int hi) {
  const Lifetimes& lt = b_.prob().lifetimes();
  const std::vector<int>& steps = lt.steps_of(sid);
  const StorageBinding& sb = b_.sto(sid);
  for (int seg = lo; seg <= hi; ++seg) {
    const int step = steps[static_cast<size_t>(seg)];
    // Several cells of one segment may share the step slot only across
    // distinct registers (legality), so each clears its own slot.
    for (const Cell& c : sb.cells[static_cast<size_t>(seg)]) {
      SALSA_DCHECK(occ_.reg_slot(c.reg, step) == sid);
      occ_.release_reg(c.reg, step);
      if (--reg_refs_[static_cast<size_t>(c.reg)] == 0) --cost_.regs_used;
      if (seg > 0 && c.via != kInvalidId) {
        const int tstep = steps[static_cast<size_t>(seg - 1)];
        SALSA_DCHECK(occ_.fu_slot(c.via, tstep) == Occupancy::kPassThrough);
        occ_.release_fu(c.via, tstep);
        if (--fu_refs_[static_cast<size_t>(c.via)] == 0) --cost_.fus_used;
      }
    }
  }
}

void SearchEngine::stage_op_claims(NodeId n) {
  const FuId f = b_.op(n).fu;
#ifndef NDEBUG
  const Schedule& sched = b_.prob().sched();
  const int oc = statics_->op_occ[static_cast<size_t>(n)];
  const int start = sched.start(n);
  for (int t = start; t < start + oc; ++t)
    SALSA_DCHECK(occ_.fu_slot(f, t) == Occupancy::kFree);
#endif
  if (fu_stage_[static_cast<size_t>(f)]++ == 0)
    fu_staged_.push_back(static_cast<int>(f));
}

void SearchEngine::normalize_and_stage_sto(int sid, int lo, int hi) {
  // One fused walk per touched storage: Binding::normalize_storage's
  // hold-via clearing and the claim staging visit exactly the same cells,
  // and fusing them halves the pointer-chasing over the per-segment cell
  // vectors. Per cell, normalisation runs first (staging must see the
  // final via), and it only reads the parent's reg — a field staging
  // never writes — so the fusion is order-equivalent to the two passes.
  // Windowed calls pass the touched interval; its first segment's parent
  // row sits outside the window but is unmutated, so reading it from the
  // live binding is exact.
  const Lifetimes& lt = b_.prob().lifetimes();
  [[maybe_unused]] const std::vector<int>& steps = lt.steps_of(sid);
  StorageBinding& sb = b_.sto(sid);
  for (int seg = lo; seg <= hi; ++seg) {
    for (Cell& c : sb.cells[static_cast<size_t>(seg)]) {
      if (seg > 0 && c.parent >= 0 &&
          sb.cells[static_cast<size_t>(seg - 1)][static_cast<size_t>(c.parent)]
                  .reg == c.reg)
        c.via = kInvalidId;
      SALSA_DCHECK(occ_.reg_slot(c.reg, steps[static_cast<size_t>(seg)]) ==
                       -1 ||
                   occ_.reg_slot(c.reg, steps[static_cast<size_t>(seg)]) ==
                       sid);
      if (reg_stage_[static_cast<size_t>(c.reg)]++ == 0)
        reg_staged_.push_back(c.reg);
      if (seg > 0 && c.via != kInvalidId) {
        SALSA_DCHECK(occ_.fu_slot(c.via,
                                  steps[static_cast<size_t>(seg - 1)]) ==
                     Occupancy::kFree);
        if (fu_stage_[static_cast<size_t>(c.via)]++ == 0)
          fu_staged_.push_back(static_cast<int>(c.via));
      }
    }
  }
}

void SearchEngine::settle_staged_claims() {
  // The refcount rows still sit at their post-removal values, so a row is
  // newly used exactly when it is at zero with staged adds pending: however
  // many adds a row collects, only the zero -> positive transition charges.
  for (const int f : fu_staged_) {
    if (fu_refs_[static_cast<size_t>(f)] == 0) ++cost_.fus_used;
    fu_stage_[static_cast<size_t>(f)] = 0;
  }
  for (const int r : reg_staged_) {
    if (reg_refs_[static_cast<size_t>(r)] == 0) ++cost_.regs_used;
    reg_stage_[static_cast<size_t>(r)] = 0;
  }
  fu_staged_.clear();
  reg_staged_.clear();
}

void SearchEngine::apply_claims_walk() {
  const Schedule& sched = b_.prob().sched();
  const Lifetimes& lt = b_.prob().lifetimes();
  for (const TouchedOp& t : touched_ops_) {
    const FuId f = b_.op(t.n).fu;
    const int oc = statics_->op_occ[static_cast<size_t>(t.n)];
    const int start = sched.start(t.n);
#ifndef NDEBUG
    for (int s = start; s < start + oc; ++s)
      SALSA_DCHECK(occ_.fu_slot(f, s) == Occupancy::kFree);
#endif
    occ_.claim_fu_range(f, start, oc, t.n);
    ++fu_refs_[static_cast<size_t>(f)];
  }
  for (const int sid : touched_sids_) {
    const std::vector<int>& steps = lt.steps_of(sid);
    const StorageBinding& sb = b_.sto(sid);
    // Windowed transactions only released the window's claims, so only the
    // window re-claims (sto_whi_add_ == sto_whi_ unless the
    // --break-segment-window mutation hook shortened the re-add side).
    const int lo = sto_wlo_[static_cast<size_t>(sid)];
    const int hi = sto_whi_add_[static_cast<size_t>(sid)];
    for (int seg = lo; seg <= hi; ++seg) {
      const int step = steps[static_cast<size_t>(seg)];
      for (const Cell& c : sb.cells[static_cast<size_t>(seg)]) {
        occ_.claim_reg(c.reg, step, sid);
        ++reg_refs_[static_cast<size_t>(c.reg)];
        if (seg > 0 && c.via != kInvalidId) {
          const int tstep = steps[static_cast<size_t>(seg - 1)];
          occ_.claim_fu(c.via, tstep, Occupancy::kPassThrough);
          ++fu_refs_[static_cast<size_t>(c.via)];
        }
      }
    }
  }
}

void SearchEngine::apply_pending_claims() {
  apply_claims_walk();
  for (const int sid : touched_sids_) {
    const int wlo = sto_wlo_[static_cast<size_t>(sid)];
    const int whi = sto_whi_[static_cast<size_t>(sid)];
    const int len =
        static_cast<int>(b_.sto(sid).cells.size());
    if (whi < wlo) continue;  // read-only touch: no stat reads read_cell
    if (wlo == 0 && whi == len - 1) {
      refresh_sto_stats(sid);
    } else {
      refresh_sto_stats_window(sid, wlo, whi);
    }
  }
}

void SearchEngine::refresh_sto_stats(int sid) {
  const Lifetimes& lt = b_.prob().lifetimes();
  const StorageBinding& sb = b_.sto(sid);
  int cells = 0, vias = 0, xfers = 0, leaves = 0, fat = 0;
  // Parent-occupancy scratch for the leaf count; sized to the widest
  // segment touched, reused across calls.
  static thread_local std::vector<char> mark;
  for (size_t seg = 0; seg < sb.cells.size(); ++seg) {
    const auto& cs = sb.cells[seg];
    cells += static_cast<int>(cs.size());
    for (const Cell& c : cs) {
      if (c.via != kInvalidId) {
        ++vias;
      } else if (seg > 0 &&
                 sb.cells[seg - 1][static_cast<size_t>(c.parent)].reg !=
                     c.reg) {
        ++xfers;
      }
    }
    // Merge candidates: leaf cells (no child in the next segment) of
    // multi-cell segments — the same predicate, and per-segment order, the
    // merge proposer's scan applies.
    if (cs.size() >= 2) {
      if (seg + 1 < sb.cells.size()) {
        mark.assign(cs.size(), 0);
        for (const Cell& child : sb.cells[seg + 1])
          mark[static_cast<size_t>(child.parent)] = 1;
        for (const char m : mark) leaves += !m;
      } else {
        leaves += static_cast<int>(cs.size());
      }
    }
  }
  // Retarget candidates: reads whose segment offers >= 2 cells.
  const Storage& s = lt.storage(sid);
  for (const StorageRead& r : s.reads)
    fat += sb.cells[static_cast<size_t>(r.seg)].size() >= 2;
  // Fold the recount into the selection Fenwicks as diffs. Runs outside
  // transactions only (rebuild, and commit after the decision), so nothing
  // here needs an undo record.
  auto upd = [&](std::vector<int>& row, Fenwick& fw, int now) {
    int& slot = row[static_cast<size_t>(sid)];
    if (slot == now) return;
    fw.add(sid, now - slot);
    slot = now;
  };
  total_cells_ += cells - sto_cells_[static_cast<size_t>(sid)];
  upd(sto_cells_, fw_cells_, cells);
  upd(sto_vias_, fw_vias_, vias);
  upd(sto_xfers_, fw_xfers_, xfers);
  upd(sto_leaves_, fw_leaves_, leaves);
  upd(sto_fat_reads_, fw_fat_reads_, fat);
  // Per-segment cell counts feed the per-step Fenwicks (segment-exchange
  // selection). Most moves leave every segment's size unchanged, so the
  // common case is a pure read pass.
  const int off = statics_->sto_seg_off[static_cast<size_t>(sid)];
  const std::vector<int>& steps = lt.steps_of(sid);
  for (size_t seg = 0; seg < sb.cells.size(); ++seg) {
    int& slot = seg_size_[static_cast<size_t>(off) + seg];
    const int sz = static_cast<int>(sb.cells[seg].size());
    if (slot != sz) {
      step_cells_[static_cast<size_t>(steps[seg])].add(
          statics_->pos_in_step[static_cast<size_t>(off) + seg], sz - slot);
      slot = sz;
    }
  }
}

void SearchEngine::refresh_sto_stats_window(int sid, int wlo, int whi) {
  // Commit only (after the decision, while sto_save_ still holds the
  // pre-move window): diff the saved window against the current binding
  // and fold the difference into the counters. Every predicate is
  // evaluated the exact way the full recount evaluates it, on both sides, so
  // old + (new_window - old_window) equals a from-scratch recount — the
  // out-of-window rows are byte-identical in both states.
  const Lifetimes& lt = b_.prob().lifetimes();
  const StorageBinding& sb = b_.sto(sid);
  const StorageBinding& sv = sto_save_[static_cast<size_t>(sid)];
  const int len = static_cast<int>(sb.cells.size());
  auto old_row = [&](int s) -> const std::vector<Cell>& {
    return (s >= wlo && s <= whi) ? sv.cells[static_cast<size_t>(s)]
                                  : sb.cells[static_cast<size_t>(s)];
  };
  auto new_row = [&](int s) -> const std::vector<Cell>& {
    return sb.cells[static_cast<size_t>(s)];
  };
  // Via/transfer contribution of one segment (parent row from the same
  // binding state).
  auto via_xfer = [](int s, const std::vector<Cell>& row,
                     const std::vector<Cell>* parents, int* vias, int* xfers) {
    for (const Cell& c : row) {
      if (c.via != kInvalidId) {
        ++*vias;
      } else if (s > 0 &&
                 (*parents)[static_cast<size_t>(c.parent)].reg != c.reg) {
        ++*xfers;
      }
    }
  };
  // Merge-candidate (leaf) contribution of one segment: leaf cells of
  // multi-cell segments, children marked from the next segment.
  static thread_local std::vector<char> mark;
  auto leaf_count = [&](const std::vector<Cell>& row,
                        const std::vector<Cell>* children) {
    if (row.size() < 2) return 0;
    if (!children) return static_cast<int>(row.size());
    mark.assign(row.size(), 0);
    for (const Cell& child : *children)
      mark[static_cast<size_t>(child.parent)] = 1;
    int leaves = 0;
    for (const char m : mark) leaves += !m;
    return leaves;
  };
  int d_cells = 0, d_vias = 0, d_xfers = 0, d_leaves = 0, d_fat = 0;
  for (int s = wlo; s <= whi; ++s) {
    d_cells += static_cast<int>(new_row(s).size()) -
               static_cast<int>(old_row(s).size());
    int nv = 0, nx = 0, ov = 0, ox = 0;
    via_xfer(s, new_row(s), s > 0 ? &new_row(s - 1) : nullptr, &nv, &nx);
    via_xfer(s, old_row(s), s > 0 ? &old_row(s - 1) : nullptr, &ov, &ox);
    d_vias += nv - ov;
    d_xfers += nx - ox;
  }
  // A window's first segment changes the child marks of the segment before
  // it, so the leaf diff extends one segment left.
  for (int s = wlo > 0 ? wlo - 1 : 0; s <= whi; ++s) {
    d_leaves +=
        leaf_count(new_row(s), s + 1 < len ? &new_row(s + 1) : nullptr) -
        leaf_count(old_row(s), s + 1 < len ? &old_row(s + 1) : nullptr);
  }
  const Storage& s = lt.storage(sid);
  for (const StorageRead& r : s.reads) {
    if (r.seg < wlo || r.seg > whi) continue;
    d_fat += (new_row(r.seg).size() >= 2) - (old_row(r.seg).size() >= 2);
  }
  auto upd = [&](std::vector<int>& row, Fenwick& fw, int d) {
    if (d == 0) return;
    fw.add(sid, d);
    row[static_cast<size_t>(sid)] += d;
  };
  total_cells_ += d_cells;
  upd(sto_cells_, fw_cells_, d_cells);
  upd(sto_vias_, fw_vias_, d_vias);
  upd(sto_xfers_, fw_xfers_, d_xfers);
  upd(sto_leaves_, fw_leaves_, d_leaves);
  upd(sto_fat_reads_, fw_fat_reads_, d_fat);
  const int off = statics_->sto_seg_off[static_cast<size_t>(sid)];
  const std::vector<int>& steps = lt.steps_of(sid);
  for (int seg = wlo; seg <= whi; ++seg) {
    int& slot = seg_size_[static_cast<size_t>(off + seg)];
    const int sz = static_cast<int>(sb.cells[static_cast<size_t>(seg)].size());
    if (slot != sz) {
      step_cells_[static_cast<size_t>(steps[static_cast<size_t>(seg)])].add(
          statics_->pos_in_step[static_cast<size_t>(off + seg)], sz - slot);
      slot = sz;
    }
  }
}

// ---------------------------------------------------------------------------
// Transactions.

OpBind& SearchEngine::touch_op(NodeId n) {
  SALSA_DCHECK(in_txn_);
  if (op_epoch_[static_cast<size_t>(n)] != epoch_) {
    op_epoch_[static_cast<size_t>(n)] = epoch_;
    touched_ops_.push_back({n, b_.op(n)});
    remove_op_claims(n);
    for (int gen : statics_->op_info[static_cast<size_t>(n)].gens)
      remove_gen_once(gen);
  }
  return b_.op(n);
}

StorageBinding& SearchEngine::touch_sto(int sid) {
  return touch_sto(sid, 0,
                   static_cast<int>(b_.sto(sid).cells.size()) - 1);
}

StorageBinding& SearchEngine::touch_sto(int sid, int mlo, int mhi) {
  SALSA_DCHECK(in_txn_);
  StorageBinding& sb = b_.sto(sid);
  const int len = static_cast<int>(sb.cells.size());
  // The claim/normalize/recount window extends one segment past the
  // mutation: a reg change at mhi retargets the transfers into mhi+1 and
  // can clear hold-vias there. Everything further right keeps its exact
  // bytes (no insert/erase outside [mlo, mhi] means stable parent indices
  // and regs), so the windowed walks are exact. Windows-off mode forces the
  // whole storage.
  int lo = mlo;
  int hi = mhi + 1 < len ? mhi + 1 : len - 1;
  if (!seg_windows_) {
    lo = 0;
    hi = len - 1;
  }
  SALSA_DCHECK(lo >= 0 && lo <= hi && hi < len);
  StorageBinding& save = sto_save_[static_cast<size_t>(sid)];
  if (sto_epoch_[static_cast<size_t>(sid)] != epoch_) {
    sto_epoch_[static_cast<size_t>(sid)] = epoch_;
    touched_sids_.push_back(sid);
    // The per-sid save buffer has this storage's exact segment shape after
    // the first touch ever, so the per-segment copy-assignments refill the
    // existing cell vectors in place — no reallocation on the steady-state
    // path.
    if (save.cells.size() != sb.cells.size()) save.cells.resize(sb.cells.size());
    save.read_cell = sb.read_cell;
    for (int seg = lo; seg <= hi; ++seg)
      save.cells[static_cast<size_t>(seg)] = sb.cells[static_cast<size_t>(seg)];
    remove_sto_claims(sid, lo, hi);
    sto_wlo_[static_cast<size_t>(sid)] = lo;
    sto_whi_[static_cast<size_t>(sid)] = hi;
    sto_whi_add_[static_cast<size_t>(sid)] = hi;
    remove_gen_once(gen_reads(sid));
    remove_gen_once(gen_writes(sid));
    return sb;
  }
  // Re-touch: extend the stored window to the convex hull, saving and
  // releasing only the newly covered segments (a prior read-only touch has
  // the empty window, so everything in [lo, hi] is new).
  int& wlo = sto_wlo_[static_cast<size_t>(sid)];
  int& whi = sto_whi_[static_cast<size_t>(sid)];
  if (whi < wlo) {
    for (int seg = lo; seg <= hi; ++seg)
      save.cells[static_cast<size_t>(seg)] = sb.cells[static_cast<size_t>(seg)];
    remove_sto_claims(sid, lo, hi);
    wlo = lo;
    whi = hi;
  } else {
    if (lo < wlo) {
      for (int seg = lo; seg < wlo; ++seg)
        save.cells[static_cast<size_t>(seg)] =
            sb.cells[static_cast<size_t>(seg)];
      remove_sto_claims(sid, lo, wlo - 1);
      wlo = lo;
    }
    if (hi > whi) {
      for (int seg = whi + 1; seg <= hi; ++seg)
        save.cells[static_cast<size_t>(seg)] =
            sb.cells[static_cast<size_t>(seg)];
      remove_sto_claims(sid, whi + 1, hi);
      whi = hi;
    }
  }
  sto_whi_add_[static_cast<size_t>(sid)] = whi;
  // A read-only first touch left the write generator live; the protocol
  // needs it retired before any cell mutates (dedup makes this a no-op
  // when the first touch already removed it).
  remove_gen_once(gen_writes(sid));
  return sb;
}

StorageBinding& SearchEngine::touch_sto_reads(int sid) {
  SALSA_DCHECK(in_txn_);
  if (!seg_windows_) return touch_sto(sid);
  StorageBinding& sb = b_.sto(sid);
  // Any prior touch of this storage already saved read_cell and retired
  // the read generator.
  if (sto_epoch_[static_cast<size_t>(sid)] == epoch_) return sb;
  sto_epoch_[static_cast<size_t>(sid)] = epoch_;
  touched_sids_.push_back(sid);
  StorageBinding& save = sto_save_[static_cast<size_t>(sid)];
  if (save.cells.size() != sb.cells.size()) save.cells.resize(sb.cells.size());
  save.read_cell = sb.read_cell;
  // Empty cell window: no claims move, the write generator's cache stays
  // live (cells are untouched) and the per-storage statistics are
  // read_cell-independent.
  sto_wlo_[static_cast<size_t>(sid)] = 0;
  sto_whi_[static_cast<size_t>(sid)] = -1;
  sto_whi_add_[static_cast<size_t>(sid)] = -1;
  remove_gen_once(gen_reads(sid));
  return sb;
}

void SearchEngine::finish_mutation() {
  // Evaluate the re-adds read-only and defer the table writes to commit — a
  // rejected move never touches the occupancy grids, planes or refcount
  // rows on the add side. The per-storage stats (sto_cells_/sto_vias_/
  // sto_xfers_/total_cells_) only feed candidate enumeration in *later*
  // proposals, never the pending delta, so their recount rides along to
  // commit too.
  for (const TouchedOp& t : touched_ops_) stage_op_claims(t.n);
  for (int sid : touched_sids_) {
    const int wlo = sto_wlo_[static_cast<size_t>(sid)];
    const int whi = sto_whi_[static_cast<size_t>(sid)];
    if (whi < wlo) continue;  // read-only touch: no cells changed
    const int len = static_cast<int>(b_.sto(sid).cells.size());
    if (!(wlo == 0 && whi == len - 1)) {
      ++windowed_readds_;
      // Mutation hook (--break-segment-window): the Nth windowed re-add
      // drops its last segment on the add side only. The removals kept
      // the full window, so the occupancy grid, refcounts and key cache
      // drift from the binding — the audit wall must catch it.
      if (seg_window_hooks::break_claim_window_after > 0 &&
          ++seg_window_hooks::windowed_txns >=
              seg_window_hooks::break_claim_window_after) {
        seg_window_hooks::break_claim_window_after = 0;  // one-shot
        sto_whi_add_[static_cast<size_t>(sid)] = whi - 1;
      }
    }
    const int hi = sto_whi_add_[static_cast<size_t>(sid)];
    if (hi >= wlo) normalize_and_stage_sto(sid, wlo, hi);
  }
  settle_staged_claims();
  for (size_t i = 0; i < removed_gens_.size(); ++i) {
    const int gen = removed_gens_[i];
    // Windowed refresh for write generators: splice the cached key list
    // instead of re-enumerating the whole storage. A write
    // generator retired through touch_op (producer FU change) with no
    // storage touch only changes segment 0's keys, so it splices over the
    // [0, 0] window.
    bool spliced = false;
    if (seg_windows_ && is_write_gen(gen)) {
      const int sid = gen / 2;
      const int len = static_cast<int>(b_.sto(sid).cells.size());
      int wlo = len, whi = -1, whi_add = -1;
      if (sto_epoch_[static_cast<size_t>(sid)] == epoch_ &&
          sto_whi_[static_cast<size_t>(sid)] >=
              sto_wlo_[static_cast<size_t>(sid)]) {
        wlo = sto_wlo_[static_cast<size_t>(sid)];
        whi = sto_whi_[static_cast<size_t>(sid)];
        whi_add = sto_whi_add_[static_cast<size_t>(sid)];
      }
      const NodeId prod = b_.prob().lifetimes().storage(sid).producer;
      if (prod != kInvalidId && op_epoch_[static_cast<size_t>(prod)] == epoch_ &&
          wlo > 0) {
        wlo = 0;
        if (whi < 0) {
          whi = 0;
          whi_add = 0;
        }
      }
      if (whi >= wlo && !(wlo == 0 && whi >= len - 1)) {
        add_write_gen_spliced(sid, i, wlo, whi, whi_add);
        spliced = true;
      }
    } else if (seg_windows_ && is_read_gen(gen)) {
      spliced = add_read_gen_spliced(gen / 2, i);
    }
    if (!spliced) add_gen(gen, gen_stash_[i]);
    // Net the retired key list (still in the cache) against the fresh one
    // (in the stash slot). A touched generator usually re-enumerates
    // almost the same uses in the same deterministic order, so skipping
    // the common prefix and suffix keeps the unchanged bulk out of the
    // scratch table; whatever the middle still shares nets to zero inside
    // it. Per-key refcount arithmetic commutes, so the final nets are what
    // full push-both-sides would give.
    const std::vector<uint64_t>& olds = gen_keys_[static_cast<size_t>(gen)];
    const std::vector<uint64_t>& news = gen_stash_[i];
    size_t lo = 0, oe = olds.size(), ne = news.size();
    const size_t common = oe < ne ? oe : ne;
    while (lo < common && olds[lo] == news[lo]) ++lo;
    while (oe > lo && ne > lo && olds[oe - 1] == news[ne - 1]) {
      --oe;
      --ne;
    }
    for (size_t k = lo; k < oe; ++k) txn_delta_.add(olds[k], -1);
    for (size_t k = lo; k < ne; ++k) txn_delta_.add(news[k], +1);
  }
  // Evaluate the netted use deltas against the shared index READ-ONLY:
  // most retire/re-charge pairs cancelled inside txn_delta_, and the
  // survivors are probed (never written) to advance cost_.connections and
  // accumulate per-sink source-count deltas. The shared tables stay at
  // their pre-transaction contents until commit applies the stashed nets
  // (apply_pending_uses) — so a rejected move costs two table probes per
  // changed pair instead of an apply-then-undo write pair, and rollback
  // has nothing to replay against the index at all. Per-key refcount
  // arithmetic commutes, so the scratch tables' layout-dependent drain
  // order yields the exact counts sequential application would.
  // Each drain runs as two passes: collect the netted entries (issuing a
  // prefetch for the index slot each will probe), then probe. The probe
  // loop's loads then overlap instead of serializing — on large designs
  // pair_refs_ spans megabytes and a cold probe per changed key was the
  // single largest per-transaction memory stall. Entry order, probe
  // results and all count arithmetic are unchanged.
  SALSA_DCHECK(pending_uses_.empty());  // the probe loop assumes it owns all
  // salsa-lint: allow(no-unordered-iteration) per-key refcount arithmetic commutes; any drain order yields the same counts
  txn_delta_.drain([this](uint64_t key, int net) {
    pending_uses_.push_back({key, net});
    pair_refs_.prefetch(key);
  });
  for (const PendingUse& u : pending_uses_) {
    const int* p = pair_refs_.find(u.key);
    const int before = p ? *p : 0;
    const int after = before + u.net;
    if (before == 0) {
      ++cost_.connections;
      sink_delta_.add(static_cast<uint32_t>(u.key >> 32), +1);
    } else if (after == 0) {
      --cost_.connections;
      sink_delta_.add(static_cast<uint32_t>(u.key >> 32), -1);
    }
  }
  sink_scratch_.clear();
  // salsa-lint: allow(no-unordered-iteration) per-sink max(0, n-1) mux folds are independent across sinks; order cannot matter
  sink_delta_.drain([this](uint32_t sink, int d) {
    sink_scratch_.push_back({sink, d});
    sink_sources_.prefetch(sink);
  });
  for (const auto& [sink, d] : sink_scratch_) {
    const int* p = sink_sources_.find(sink);
    const int before = p ? *p : 0;
    const int after = before + d;
    // muxes = sum over sinks of max(0, sources - 1).
    cost_.muxes += (after > 1 ? after - 1 : 0) - (before > 1 ? before - 1 : 0);
  }
  // cost_.total is deliberately left stale here: the decision reads only
  // the component-diff delta computed in propose(), rollback restores the
  // whole struct, and commit recomputes the total once the move is kept —
  // so rejected proposals never pay for the weighted sum.
}

std::optional<double> SearchEngine::propose(MoveKind kind, Rng& rng) {
  SALSA_DCHECK(!in_txn_);
  if (observer_) observer_->on_txn_begin(*this);
  in_txn_ = true;
  ++epoch_;
  cost_before_ = cost_;
  if (!detail::dispatch_move(*this, kind, rng)) {
    SALSA_DCHECK(touched_ops_.empty() && touched_sids_.empty());
    in_txn_ = false;
    if (observer_) observer_->on_txn_abort(*this);
    return std::nullopt;
  }
  finish_mutation();
  pending_kind_ = kind;
  // The delta is the weighted sum of the *integer component diffs*, not
  // total_after - total_before: it depends only on what the move changed,
  // never on the absolute counts it changed them from, so it is exact even
  // under fractional cost weights.
  {
    const CostWeights& w = b_.prob().weights();
    pending_delta_ = w.fu * (cost_.fus_used - cost_before_.fus_used) +
                     w.reg * (cost_.regs_used - cost_before_.regs_used) +
                     w.mux * (cost_.muxes - cost_before_.muxes) +
                     w.conn * (cost_.connections - cost_before_.connections);
  }
  ++steps_;
  MoveKindStats& ks = kind_stats_[static_cast<size_t>(kind)];
  ++ks.attempted;
  ks.delta_sum += pending_delta_;
  return pending_delta_;
}

void SearchEngine::commit() {
  SALSA_DCHECK(in_txn_);
  MoveKindStats& ks = kind_stats_[static_cast<size_t>(pending_kind_)];
  ++ks.accepted;
  ks.accepted_delta_sum += pending_delta_;
  trace_decision(true);
  const double delta = pending_delta_;
  recompute_total();  // finish_mutation leaves the weighted total stale
  apply_pending_claims();
  apply_pending_uses();
  install_fresh_gen_caches();
  // Re-file committed FU changes in the per-FU op index. Only commit (and
  // the broken-undo test path below) mutate fu_ops_ — proposals read it,
  // and a rolled-back move restores the saved FU, so the index stays
  // consistent with the binding between transactions.
  for (const TouchedOp& t : touched_ops_)
    update_fu_ops(t.n, t.saved.fu, b_.op(t.n).fu);
  end_txn();
#ifndef NDEBUG
  SALSA_CHECK(matches_full_eval());
#endif
  if (observer_) observer_->on_commit(*this, delta);
}

void SearchEngine::rollback() {
  SALSA_DCHECK(in_txn_);
  trace_decision(false);
  if (break_next_undo_) {
    // Test-only fault injection (inject_broken_undo_for_test): keep the
    // mutated binding instead of restoring the saved units. The pending
    // index deltas are applied so every derived structure stays
    // self-consistent with the (wrong) binding — only the auditor's digest
    // comparison can tell that the undo lied.
    break_next_undo_ = false;
    recompute_total();
    apply_pending_claims();
    apply_pending_uses();
    install_fresh_gen_caches();
    for (const TouchedOp& t : touched_ops_)
      update_fu_ops(t.n, t.saved.fu, b_.op(t.n).fu);
    end_txn();
    if (observer_) observer_->on_rollback(*this);
    return;
  }
  // Restore the saved units and re-claim them; the shared index was never
  // written, so dropping the pending deltas is the whole index rollback.
  for (const TouchedOp& t : touched_ops_) b_.op(t.n) = t.saved;
  // The retired generators' caches still hold the pre-move key lists (the
  // fresh enumerations built in the stash slots and are simply dropped),
  // so they already match the binding being restored.
  for (int sid : touched_sids_) {
    // Swap, not copy: the saved pre-move cells move back wholesale, the
    // save buffer inherits the discarded post-move vectors, and the next
    // touch's copy-assign reuses their (same-shaped) capacity. Only the
    // touch window was saved, so only it swaps (read_cell always rides
    // along — every touch saves it).
    StorageBinding& sb = b_.sto(sid);
    StorageBinding& save = sto_save_[static_cast<size_t>(sid)];
    const int lo = sto_wlo_[static_cast<size_t>(sid)];
    const int hi = sto_whi_[static_cast<size_t>(sid)];
    for (int seg = lo; seg <= hi; ++seg)
      std::swap(sb.cells[static_cast<size_t>(seg)],
                save.cells[static_cast<size_t>(seg)]);
    std::swap(sb.read_cell, save.read_cell);
  }
  // The journal holds only the write generators' per-segment key counts;
  // reverse replay restores the first-journaled (pre-move) value last.
  for (size_t i = undo_ints_.size(); i-- > 0;) *undo_ints_[i].p = undo_ints_[i].old;
  // The touch-time removals are undone by re-claiming straight from the
  // units just restored — identical writes to what the removals released,
  // and the per-claim ++ brings every refcount row back exactly.
  apply_claims_walk();
  cost_ = cost_before_;
  end_txn();
  if (observer_) observer_->on_rollback(*this);
}

void SearchEngine::end_txn() {
  touched_ops_.clear();
  touched_sids_.clear();
  removed_gens_.clear();
  undo_ints_.clear();
  pending_uses_.clear();
  in_txn_ = false;
}

void SearchEngine::trace_decision(bool accepted) {
  if (!trace_) return;
  *trace_ << "{\"step\":" << steps_ << ",\"move\":\""
          << move_name(pending_kind_) << "\",\"delta\":" << pending_delta_
          << ",\"accepted\":" << (accepted ? "true" : "false");
  if (aux_name_) *trace_ << ",\"" << aux_name_ << "\":" << aux_;
  *trace_ << "}\n";
}

void SearchEngine::update_fu_ops(NodeId n, FuId from, FuId to) {
  if (from == to) return;
  const int rank = statics_->pos_in_class[static_cast<size_t>(n)];
  std::vector<int>& src = fu_ops_[static_cast<size_t>(from)];
  src.erase(std::lower_bound(src.begin(), src.end(), rank));
  std::vector<int>& dst = fu_ops_[static_cast<size_t>(to)];
  dst.insert(std::upper_bound(dst.begin(), dst.end(), rank), rank);
}

NodeId SearchEngine::class_op_excluding_fu(FuClass c, FuId f, int idx) const {
  const std::vector<NodeId>& list =
      statics_->ops_by_class[static_cast<size_t>(c)];
  const std::vector<int>& ex = fu_ops_[static_cast<size_t>(f)];
  // Smallest class rank p with (p + 1) - |ex <= p| == idx + 1. The count
  // of non-excluded ranks in [0, p] is monotone and steps by one exactly
  // at non-excluded positions, so the binary-search answer is itself not
  // excluded — it is the op a filtering scan would have listed at `idx`.
  int lo = idx, hi = idx + static_cast<int>(ex.size());
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    const int excluded = static_cast<int>(
        std::upper_bound(ex.begin(), ex.end(), mid) - ex.begin());
    if (mid + 1 - excluded >= idx + 1) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return list[static_cast<size_t>(lo)];
}

bool SearchEngine::matches_full_eval() const {
  const CostBreakdown full = evaluate_cost(b_);
  // Mid-transaction the weighted total is deliberately stale (finish_mutation
  // skips it; commit/rollback restore it), so only the integer components are
  // comparable there. Outside a transaction the total check also covers the
  // commit-time recompute.
  return full.fus_used == cost_.fus_used &&
         full.regs_used == cost_.regs_used &&
         full.connections == cost_.connections && full.muxes == cost_.muxes &&
         (in_txn_ || full.total == cost_.total);
}

bool SearchEngine::index_matches_rebuild(std::string* why) const {
  SALSA_DCHECK(!in_txn_);
  const SearchEngine fresh(b_, *this);
  auto diverged = [&](const std::string& what) {
    if (why) {
      if (!why->empty()) *why += "; ";
      *why += what;
    }
    return false;
  };
  bool ok = true;
  if (!(pair_refs_ == fresh.pair_refs_))
    ok = diverged("connection pair refcounts differ from a rebuild");
  if (!(sink_sources_ == fresh.sink_sources_))
    ok = diverged("per-sink distinct-source counts differ from a rebuild");
  if (fu_refs_ != fresh.fu_refs_)
    ok = diverged("FU use refcounts differ from a rebuild");
  if (reg_refs_ != fresh.reg_refs_)
    ok = diverged("register use refcounts differ from a rebuild");
  if (occ_.fu_user != fresh.occ_.fu_user || occ_.reg_sto != fresh.occ_.reg_sto)
    ok = diverged("occupancy grid differs from a rebuild");
  if (!(occ_.fu_busy == fresh.occ_.fu_busy) ||
      !(occ_.reg_busy == fresh.occ_.reg_busy) ||
      !(occ_.reg_busy_t == fresh.occ_.reg_busy_t) ||
      !(occ_.fu_busy_t == fresh.occ_.fu_busy_t))
    ok = diverged("occupancy bitplanes differ from a rebuild");
  if (sto_cells_ != fresh.sto_cells_ || sto_vias_ != fresh.sto_vias_ ||
      sto_xfers_ != fresh.sto_xfers_ || sto_leaves_ != fresh.sto_leaves_ ||
      sto_fat_reads_ != fresh.sto_fat_reads_ ||
      total_cells_ != fresh.total_cells_)
    ok = diverged("per-storage candidate statistics differ from a rebuild");
  if (!(fw_cells_ == fresh.fw_cells_) || !(fw_vias_ == fresh.fw_vias_) ||
      !(fw_xfers_ == fresh.fw_xfers_) || !(fw_leaves_ == fresh.fw_leaves_) ||
      !(fw_fat_reads_ == fresh.fw_fat_reads_))
    ok = diverged("candidate selection Fenwicks differ from a rebuild");
  if (seg_size_ != fresh.seg_size_ || step_cells_ != fresh.step_cells_)
    ok = diverged("per-step cell-count index differs from a rebuild");
  if (fu_ops_ != fresh.fu_ops_)
    ok = diverged("per-FU op lists differ from a rebuild");
  std::string plane_why;
  if (!occ_.planes_match_grids(&plane_why))
    ok = diverged("occupancy bitplanes diverged from the scalar grids: " +
                  plane_why);
  if (cost_.fus_used != fresh.cost_.fus_used ||
      cost_.regs_used != fresh.cost_.regs_used ||
      cost_.connections != fresh.cost_.connections ||
      cost_.muxes != fresh.cost_.muxes || cost_.total != fresh.cost_.total)
    ok = diverged("cost breakdown differs from a rebuild");
  return ok;
}

}  // namespace salsa
