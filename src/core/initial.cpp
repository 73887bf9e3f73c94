#include "core/initial.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/cost.h"
#include "util/bitplane.h"
#include "util/flat_map.h"
#include "util/rng.h"

namespace salsa {

namespace {

// The connections placements have made so far, indexed for the
// fewest-new-connections rule. Every connection a storage placement makes
// ends at the chosen register r: the producer's endpoint feeds `RegIn r`,
// and each read's sink pin is fed by `RegOut r`. So the tracker keeps, per
// producer endpoint and per sink pin, the registers already wired to it —
// the only registers whose placement can add fewer than the maximum number
// of new connections (DESIGN.md, "Constructive start").
class WireTracker {
 public:
  explicit WireTracker(const AllocProblem& prob)
      : index_(prob),
        to_pin_(index_.num_pins()),
        from_source_(index_.num_sources()) {}

  /// Registers wired to a producer endpoint (RegIn r <- src) or to a sink
  /// pin (sink <- RegOut r), each listed once.
  const std::vector<RegId>& wired(const Endpoint& src) const {
    return from_source_[index_.source(src)];
  }
  const std::vector<RegId>& wired(const Pin& sink) const {
    return to_pin_[index_.pin(sink)];
  }

  /// Records the connection; a register joins the wired list the first
  /// time its (sink, source) pair is seen.
  void connect(const Endpoint& src, RegId r) {
    if (seen_.increment(pair_key(Pin{Pin::Kind::kRegIn, r}, src)) == 1)
      from_source_[index_.source(src)].push_back(r);
  }
  void connect(const Pin& sink, RegId r) {
    const Endpoint src{Endpoint::Kind::kRegOut, r};
    if (seen_.increment(pair_key(sink, src)) == 1)
      to_pin_[index_.pin(sink)].push_back(r);
  }

 private:
  PinIndex index_;
  FlatMap<uint64_t> seen_;  ///< (sink, source) pairs, counted
  std::vector<std::vector<RegId>> to_pin_;       ///< per PinIndex pin
  std::vector<std::vector<RegId>> from_source_;  ///< per PinIndex source
};

}  // namespace

Binding initial_allocation(const AllocProblem& prob,
                           const InitialOptions& opts) {
  const Cdfg& g = prob.cdfg();
  const Schedule& sched = prob.sched();
  const Lifetimes& lt = prob.lifetimes();
  const int L = sched.length();
  const int R = prob.num_regs();
  Rng rng(opts.seed);
  // Placement fills flat arrays, the FU of each operation and the register
  // of each storage segment (storage sid's segments from seg_at[sid]), and
  // becomes a Binding only after the last storage is placed: a strict start
  // that throws never builds one.
  std::vector<FuId> fu_of(static_cast<size_t>(g.num_nodes()), kInvalidId);
  std::vector<size_t> seg_at(static_cast<size_t>(lt.num_storages()) + 1, 0);
  for (int sid = 0; sid < lt.num_storages(); ++sid)
    seg_at[static_cast<size_t>(sid) + 1] =
        seg_at[static_cast<size_t>(sid)] +
        static_cast<size_t>(lt.storage(sid).len);
  std::vector<RegId> seg_reg(seg_at.back(), kInvalidId);

  // ---- operators to FUs, first-available per control step -----------------
  BitPlane fu_busy;  // rows = FUs, bits = control steps
  fu_busy.resize(prob.fus().size(), L);
  const std::vector<FuId> alus = prob.fus().of_class(FuClass::kAlu);
  const std::vector<FuId> muls = prob.fus().of_class(FuClass::kMul);
  std::vector<NodeId> ops = g.operations();
  std::sort(ops.begin(), ops.end(), [&](NodeId a, NodeId c) {
    return sched.start(a) != sched.start(c) ? sched.start(a) < sched.start(c)
                                            : a < c;
  });
  for (NodeId n : ops) {
    const OpKind k = g.node(n).kind;
    const int start = sched.start(n);
    const int occ = sched.hw().occupancy(k);
    FuId chosen = kInvalidId;
    for (FuId f : fu_class_of(k) == FuClass::kMul ? muls : alus)
      if (!fu_busy.any_in_range(f, start, occ)) {
        chosen = f;
        break;
      }
    SALSA_CHECK_MSG(chosen != kInvalidId,
                    "initial allocation: FU pool too small for op '" +
                        g.node(n).name + "'");
    fu_busy.set_range(chosen, start, occ);
    fu_of[static_cast<size_t>(n)] = chosen;
  }

  // ---- storages to registers ----------------------------------------------
  // Placement order: loop I/O first, then storages touching a peak-demand
  // step, then the rest; long lifetimes early within a rank.
  const int min_regs = lt.min_registers();
  std::vector<int> rank(static_cast<size_t>(lt.num_storages()), 2);
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    int& r = rank[static_cast<size_t>(sid)];
    for (ValueId v : lt.storage(sid).members)
      if (g.node(g.producer(v)).kind == OpKind::kState) r = 0;
    if (r != 0)
      for (int step : lt.steps_of(sid))
        if (lt.demand()[static_cast<size_t>(step)] == min_regs) r = 1;
  }
  std::vector<int> order(static_cast<size_t>(lt.num_storages()));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);  // tie-breaking varies with the seed
  std::stable_sort(order.begin(), order.end(), [&](int a, int c) {
    const int ra = rank[static_cast<size_t>(a)];
    const int rc = rank[static_cast<size_t>(c)];
    if (ra != rc) return ra < rc;
    return lt.storage(a).len > lt.storage(c).len;  // long lifetimes early
  });

  // The connections a placement makes, as the endpoint or pin at their far
  // end from the register: the producer (seg 0) and every read, over all
  // segments when seg < 0, else over segment `seg` alone. Approximate:
  // operand swaps are all still false at this point.
  auto for_each_end = [&](const Storage& s, int seg, auto&& fn) {
    if (seg <= 0)
      fn(s.producer == kInvalidId
             ? Endpoint{Endpoint::Kind::kInPort, g.producer(s.members[0])}
             : Endpoint{Endpoint::Kind::kFuOut,
                        fu_of[static_cast<size_t>(s.producer)]});
    for (const StorageRead& r : s.reads) {
      if (seg >= 0 && r.seg != seg) continue;
      const Node& cn = g.node(r.consumer);
      fn(cn.kind == OpKind::kOutput
             ? Pin{Pin::Kind::kOutPort, r.consumer}
             : Pin{r.operand == 0 ? Pin::Kind::kFuIn0 : Pin::Kind::kFuIn1,
                   fu_of[static_cast<size_t>(r.consumer)]});
    }
  };

  BitPlane reg_busy;  // rows = control steps, bits = registers
  reg_busy.resize(L, R);
  BitPlane busy_over;  // one row: registers busy at any step of a storage
  busy_over.resize(1, R);
  WireTracker wires(prob);
  std::vector<int> hits(static_cast<size_t>(R), 0);
  std::vector<RegId> touched;

  // The register adding the fewest new connections among those clear in
  // row `row` of `busy`, ties to the lowest index; kInvalidId if none is.
  // A register's score is the placement's connection count minus its hits,
  // the connections already present — a connection listed twice (two reads
  // on one pin) hits twice. Only wired registers have hits, so the best
  // free wired register wins, and with none the lowest-index free one does.
  auto pick = [&](const Storage& s, int seg, const BitPlane& busy, int row) {
    for_each_end(s, seg, [&](const auto& end) {
      for (RegId r : wires.wired(end))
        if (hits[static_cast<size_t>(r)]++ == 0) touched.push_back(r);
    });
    RegId best = kInvalidId;
    int best_hits = 0;
    for (RegId r : touched) {
      const int h = std::exchange(hits[static_cast<size_t>(r)], 0);
      if (busy.test(row, r)) continue;
      if (h > best_hits || (h == best_hits && r < best)) {
        best = r;
        best_hits = h;
      }
    }
    touched.clear();
    if (best != kInvalidId) return best;
    return popcount_words(busy.row(row), busy.stride()) == R
               ? kInvalidId
               : nth_clear_bit(busy.row(row), R, 0);
  };

  for (int sid : order) {
    const Storage& s = lt.storage(sid);
    const std::vector<int>& steps = lt.steps_of(sid);
    RegId* regs = seg_reg.data() + seg_at[static_cast<size_t>(sid)];
    // Contiguous: one register free over every live step.
    busy_over.zero();
    for (int step : steps)
      words_or_accumulate(busy_over.row(0), reg_busy.row(step),
                          reg_busy.stride());
    const RegId reg = pick(s, -1, busy_over, 0);
    if (reg != kInvalidId) {
      for (int seg = 0; seg < s.len; ++seg) {
        regs[seg] = reg;
        reg_busy.set(steps[static_cast<size_t>(seg)], reg);
      }
      for_each_end(s, -1, [&](const auto& end) { wires.connect(end, reg); });
      continue;
    }
    // No contiguous space: split into per-step placements, staying in the
    // current register as long as it is free.
    if (!opts.allow_splits)
      fail("initial allocation: no contiguous register for storage '" +
           s.name + "'");
    RegId cur = kInvalidId;
    for (int seg = 0; seg < s.len; ++seg) {
      const int step = steps[static_cast<size_t>(seg)];
      if (cur == kInvalidId || reg_busy.test(step, cur)) {
        cur = pick(s, seg, reg_busy, step);
        SALSA_CHECK_MSG(cur != kInvalidId,
                        "initial allocation: register demand exceeded");
      }
      regs[seg] = cur;
      for_each_end(s, seg, [&](const auto& end) { wires.connect(end, cur); });
      reg_busy.set(step, cur);
    }
  }

  Binding b(prob);
  for (NodeId n : ops) b.op(n).fu = fu_of[static_cast<size_t>(n)];
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    const RegId* regs = seg_reg.data() + seg_at[static_cast<size_t>(sid)];
    StorageBinding& sb = b.sto(sid);
    for (size_t seg = 0; seg < sb.cells.size(); ++seg)
      sb.cells[seg].assign(1, Cell{regs[seg], seg == 0 ? -1 : 0, kInvalidId});
  }
  return b;
}

}  // namespace salsa
