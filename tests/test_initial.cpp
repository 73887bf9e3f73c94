// Reference differential for the constructive start (core/initial.h).
// initial_allocation scores only the registers already wired to a
// storage's pins (DESIGN.md, "Constructive start"); it must make exactly
// the placement decisions of the exhaustive scorer it replaced, which
// survives below, verbatim, as the test-only reference. Every case compares
// the binding digest and the throw/no-throw outcome (with its message) in
// both allow_splits modes, at seeds allocate() itself draws: the first
// start's and its strict warm-start retries'. The corpus covers the paper's
// EWF/DCT grids, random CDFGs, the four generated families at 1k ops and a
// 2,500-op filter cascade whose strict retries all throw. Each part pins
// its case count, and the generated parts assert the split starts and
// throwing strict starts they are there for, so that coverage cannot
// silently disappear. The reference is slow in Debug builds, so the large
// designs compare fewer retry seeds than the small ones.
#include "core/initial.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "analysis/digest.h"
#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "bench_suite/harness.h"
#include "bench_suite/random_cdfg.h"
#include "core/cost.h"
#include "frontend/generate.h"
#include "sched/asap_alap.h"
#include "util/rng.h"

namespace salsa {
namespace {

// ---- reference: the exhaustive scorer initial_allocation replaced ----------
// O(storages x registers x lifetime): every register is scored for every
// storage against a std::set of the connections made so far.

// Connection keys a placement would add, against the set accumulated so far.
class ConnTracker {
 public:
  int would_add(const std::vector<std::pair<uint64_t, uint64_t>>& conns) const {
    int fresh = 0;
    for (const auto& c : conns)
      if (!seen_.count(c)) ++fresh;
    return fresh;
  }
  void add(const std::vector<std::pair<uint64_t, uint64_t>>& conns) {
    for (const auto& c : conns) seen_.insert(c);
  }

 private:
  std::set<std::pair<uint64_t, uint64_t>> seen_;
};

Binding reference_initial_allocation(const AllocProblem& prob,
                                     const InitialOptions& opts) {
  const Cdfg& g = prob.cdfg();
  const Schedule& sched = prob.sched();
  const Lifetimes& lt = prob.lifetimes();
  const int L = sched.length();
  Rng rng(opts.seed);
  Binding b(prob);

  // ---- operators to FUs, first-available per control step -----------------
  std::vector<std::vector<bool>> fu_busy(
      static_cast<size_t>(prob.fus().size()),
      std::vector<bool>(static_cast<size_t>(L), false));
  std::vector<NodeId> ops = g.operations();
  std::sort(ops.begin(), ops.end(), [&](NodeId a, NodeId c) {
    return sched.start(a) != sched.start(c) ? sched.start(a) < sched.start(c)
                                            : a < c;
  });
  for (NodeId n : ops) {
    const OpKind k = g.node(n).kind;
    const int occ = sched.hw().occupancy(k);
    FuId chosen = kInvalidId;
    for (FuId f : prob.fus().of_class(fu_class_of(k))) {
      bool free = true;
      for (int t = sched.start(n); t < sched.start(n) + occ; ++t)
        if (fu_busy[static_cast<size_t>(f)][static_cast<size_t>(t)]) {
          free = false;
          break;
        }
      if (free) {
        chosen = f;
        break;
      }
    }
    SALSA_CHECK_MSG(chosen != kInvalidId,
                    "initial allocation: FU pool too small for op '" +
                        g.node(n).name + "'");
    for (int t = sched.start(n); t < sched.start(n) + occ; ++t)
      fu_busy[static_cast<size_t>(chosen)][static_cast<size_t>(t)] = true;
    b.op(n).fu = chosen;
  }

  // ---- storages to registers ----------------------------------------------
  const int min_regs = lt.min_registers();
  auto touches_peak = [&](const Storage& s) {
    for (int seg = 0; seg < s.len; ++seg)
      if (lt.demand()[static_cast<size_t>(s.step_at(seg, L))] == min_regs)
        return true;
    return false;
  };
  std::vector<int> order(static_cast<size_t>(lt.num_storages()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  rng.shuffle(order);  // tie-breaking varies with the seed
  std::stable_sort(order.begin(), order.end(), [&](int a, int c) {
    const Storage& sa = lt.storage(a);
    const Storage& sc = lt.storage(c);
    auto rank = [&](const Storage& s) {
      for (ValueId v : s.members)
        if (g.node(g.producer(v)).kind == OpKind::kState) return 0;  // loop I/O
      return touches_peak(s) ? 1 : 2;
    };
    const int ra = rank(sa), rc = rank(sc);
    if (ra != rc) return ra < rc;
    return sa.len > sc.len;  // long lifetimes early
  });

  std::vector<std::vector<int>> reg_sto(
      static_cast<size_t>(prob.num_regs()),
      std::vector<int>(static_cast<size_t>(L), -1));
  ConnTracker tracker;

  // Connections created by serving this storage's reads from `reg` and (for
  // seg 0) writing it from its producer. Approximate: operand swaps are all
  // still false at this point.
  auto placement_conns = [&](int sid, int seg, RegId reg) {
    const Storage& s = lt.storage(sid);
    std::vector<std::pair<uint64_t, uint64_t>> conns;
    if (seg == 0) {
      const Endpoint src =
          s.producer == kInvalidId
              ? Endpoint{Endpoint::Kind::kInPort, g.producer(s.members[0])}
              : Endpoint{Endpoint::Kind::kFuOut, b.op(s.producer).fu};
      conns.emplace_back(key_of(Pin{Pin::Kind::kRegIn, reg}), key_of(src));
    }
    for (const StorageRead& r : s.reads) {
      if (r.seg != seg) continue;
      const Node& cn = g.node(r.consumer);
      Pin sink = cn.kind == OpKind::kOutput
                     ? Pin{Pin::Kind::kOutPort, r.consumer}
                     : Pin{r.operand == 0 ? Pin::Kind::kFuIn0
                                          : Pin::Kind::kFuIn1,
                           b.op(r.consumer).fu};
      conns.emplace_back(key_of(sink),
                         key_of(Endpoint{Endpoint::Kind::kRegOut, reg}));
    }
    return conns;
  };

  for (int sid : order) {
    const Storage& s = lt.storage(sid);
    // Contiguous candidates.
    RegId best_reg = kInvalidId;
    int best_score = 0;
    for (RegId r = 0; r < prob.num_regs(); ++r) {
      bool free = true;
      for (int seg = 0; seg < s.len && free; ++seg)
        free = reg_sto[static_cast<size_t>(r)]
                      [static_cast<size_t>(s.step_at(seg, L))] == -1;
      if (!free) continue;
      std::vector<std::pair<uint64_t, uint64_t>> conns;
      for (int seg = 0; seg < s.len; ++seg) {
        auto c = placement_conns(sid, seg, r);
        conns.insert(conns.end(), c.begin(), c.end());
      }
      const int score = tracker.would_add(conns);
      if (best_reg == kInvalidId || score < best_score) {
        best_reg = r;
        best_score = score;
      }
    }
    StorageBinding& sb = b.sto(sid);
    if (best_reg != kInvalidId) {
      for (int seg = 0; seg < s.len; ++seg) {
        sb.cells[static_cast<size_t>(seg)].assign(
            1, Cell{best_reg, seg == 0 ? -1 : 0, kInvalidId});
        tracker.add(placement_conns(sid, seg, best_reg));
      }
      for (int seg = 0; seg < s.len; ++seg)
        reg_sto[static_cast<size_t>(best_reg)]
               [static_cast<size_t>(s.step_at(seg, L))] = sid;
      continue;
    }
    // No contiguous space: split into per-step placements, staying in the
    // current register as long as it is free.
    if (!opts.allow_splits)
      fail("initial allocation: no contiguous register for storage '" +
           s.name + "'");
    RegId cur = kInvalidId;
    for (int seg = 0; seg < s.len; ++seg) {
      const int step = s.step_at(seg, L);
      auto is_free = [&](RegId r) {
        return reg_sto[static_cast<size_t>(r)][static_cast<size_t>(step)] == -1;
      };
      if (cur == kInvalidId || !is_free(cur)) {
        RegId pick = kInvalidId;
        int pick_score = 0;
        for (RegId r = 0; r < prob.num_regs(); ++r) {
          if (!is_free(r)) continue;
          const int score = tracker.would_add(placement_conns(sid, seg, r));
          if (pick == kInvalidId || score < pick_score) {
            pick = r;
            pick_score = score;
          }
        }
        SALSA_CHECK_MSG(pick != kInvalidId,
                        "initial allocation: register demand exceeded");
        cur = pick;
      }
      sb.cells[static_cast<size_t>(seg)].assign(
          1, Cell{cur, seg == 0 ? -1 : 0, kInvalidId});
      tracker.add(placement_conns(sid, seg, cur));
      reg_sto[static_cast<size_t>(cur)][static_cast<size_t>(step)] = sid;
    }
  }
  return b;
}

// ---- differential -----------------------------------------------------------

struct Outcome {
  bool threw = false;
  std::string error;    ///< what() when threw
  uint64_t digest = 0;  ///< digest_binding otherwise
  bool split = false;   ///< the start is not traditional (a forced split)
};

template <typename Fn>
Outcome outcome_of(Fn&& start) {
  Outcome o;
  try {
    const Binding b = start();
    o.digest = digest_binding(b);
    o.split = !b.is_traditional();
  } catch (const Error& e) {
    o.threw = true;
    o.error = e.what();
  }
  return o;
}

/// What one corpus part exercised.
struct Tally {
  int cases = 0;          ///< (problem, seed, mode) comparisons
  int split_starts = 0;   ///< allow_splits starts that came out split
  int strict_throws = 0;  ///< allow_splits=false starts that threw
};

// Compares both implementations on `prob` in both allow_splits modes at the
// seeds allocate() draws for user seed `user_seed`: the first start's, then
// the first `retries` of its strict warm-start retries'.
void expect_same(const AllocProblem& prob, uint64_t user_seed, int retries,
                 const std::string& label, Tally& tally) {
  const uint64_t first = derive_seed(user_seed, 0);
  for (int k = 0; k <= retries; ++k) {
    const uint64_t seed =
        k == 0 ? first : derive_seed(first, static_cast<uint64_t>(k));
    for (const bool allow_splits : {true, false}) {
      const InitialOptions opts{.allow_splits = allow_splits, .seed = seed};
      const Outcome want =
          outcome_of([&] { return reference_initial_allocation(prob, opts); });
      const Outcome got =
          outcome_of([&] { return initial_allocation(prob, opts); });
      const std::string where = label + " seed " + std::to_string(seed) +
                                (allow_splits ? " split" : " strict");
      ASSERT_EQ(got.threw, want.threw) << where << ": " << got.error
                                       << want.error;
      EXPECT_EQ(got.error, want.error) << where;
      EXPECT_EQ(got.digest, want.digest) << where;
      ++tally.cases;
      if (allow_splits && want.split) ++tally.split_starts;
      if (!allow_splits && want.threw) ++tally.strict_throws;
    }
  }
}

// The paper's grids: EWF lengths x pipelining and DCT lengths, each with 0-2
// spare registers, at allocate()'s full seed chain (first start + 8 retries).
TEST(InitialReference, PaperGrids) {
  Tally tally;
  for (const bool pipelined : {false, true})
    for (int steps = 17; steps <= 21; ++steps)
      for (int extra = 0; extra <= 2; ++extra) {
        const ProblemBundle pb =
            make_problem(make_ewf(), HwSpec{.pipelined_mul = pipelined},
                         steps, SpareRegisters{extra});
        expect_same(*pb.problem, 1000 + steps * 10 + extra, 8,
                    "ewf/" + std::to_string(steps) + (pipelined ? "p" : "") +
                        "+" + std::to_string(extra),
                    tally);
      }
  for (const bool pipelined : {false, true})
    for (int steps = 7; steps <= 13; ++steps)
      for (int extra = 0; extra <= 2; ++extra) {
        const ProblemBundle pb =
            make_problem(make_dct(), HwSpec{.pipelined_mul = pipelined},
                         steps, SpareRegisters{extra});
        expect_same(*pb.problem, 3000 + steps * 10 + extra, 8,
                    "dct/" + std::to_string(steps) + (pipelined ? "p" : "") +
                        "+" + std::to_string(extra),
                    tally);
      }
  EXPECT_EQ(tally.cases, 2 * 9 * 2 * (5 + 7) * 3);
}

// Random CDFGs (with and without loop-carried states), 0-2 spare registers.
TEST(InitialReference, RandomCdfgs) {
  Tally tally;
  for (int i = 1; i <= 200; ++i) {
    RandomCdfgParams params;
    params.seed = static_cast<uint64_t>(i);
    params.num_ops = 10 + i % 31;
    params.num_states = i % 4;
    params.num_inputs = 1 + i % 3;
    Cdfg g = make_random_cdfg(params);
    HwSpec hw;
    hw.pipelined_mul = i % 2 == 0;
    const int len = min_schedule_length(g, hw) + i % 4;
    const ProblemBundle pb =
        make_problem(std::move(g), hw, len, SpareRegisters{i % 3});
    expect_same(*pb.problem, params.seed, 2, "random/" + std::to_string(i),
                tally);
  }
  EXPECT_EQ(tally.cases, 200 * 3 * 2);
}

// Every generated family at 1k ops, with no and with two spare registers.
TEST(InitialReference, GeneratedFamilies1k) {
  Tally tally;
  for (const GenFamily f :
       {GenFamily::kFilterCascade, GenFamily::kGemmPipeline,
        GenFamily::kLayeredDag, GenFamily::kMemoryTraffic})
    for (const int extra : {0, 2}) {
      const GeneratedDesign d = generate_design(
          GenParams{.family = f, .target_ops = 1000, .seed = 1,
                    .spare = SpareRegisters{extra}});
      expect_same(*d.problem, 1, 1,
                  std::string(gen_family_name(f)) + "1k+" +
                      std::to_string(extra),
                  tally);
    }
  EXPECT_EQ(tally.cases, 4 * 2 * 2 * 2);
  EXPECT_GT(tally.split_starts, 0) << "no generated design split its start";
  EXPECT_GT(tally.strict_throws, 0) << "no strict start threw";
}

// A 2,500-op filter cascade: as on the benchmark's 3k cascade, its first
// start splits and its strict warm-start retries all throw — the path that
// dominated allocate() on large cascades.
TEST(InitialReference, Cascade2500StrictRetriesThrow) {
  Tally tally;
  const GeneratedDesign d = generate_design(GenParams{
      .family = GenFamily::kFilterCascade, .target_ops = 2500, .seed = 1});
  expect_same(*d.problem, 1, 1, "cascade2500", tally);
  EXPECT_EQ(tally.cases, 4);
  EXPECT_EQ(tally.split_starts, 2);
  EXPECT_EQ(tally.strict_throws, 2);
}

}  // namespace
}  // namespace salsa
