// Deterministic end-to-end pins: the RNG is fully portable (xoshiro256**),
// so fixed seeds give bit-identical searches on every platform. These tests
// freeze a few complete flow results; a change here means an intentional
// algorithm change (update the constants) or an accidental regression.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/digest.h"
#include "baseline/traditional.h"
#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "core/allocator.h"
#include "core/annealer.h"
#include "core/ils.h"
#include "datapath/vcd.h"
#include "sched/asap_alap.h"
#include "sched/fu_search.h"

namespace salsa {
namespace {

struct Ctx {
  std::unique_ptr<Cdfg> g;
  std::unique_ptr<Schedule> sched;
  std::unique_ptr<AllocProblem> prob;

  Ctx(Cdfg graph, int len, bool pipelined, int extra_regs) {
    g = std::make_unique<Cdfg>(std::move(graph));
    HwSpec hw;
    hw.pipelined_mul = pipelined;
    sched = std::make_unique<Schedule>(schedule_min_fu(*g, hw, len).schedule);
    prob = std::make_unique<AllocProblem>(
        *sched, FuPool::standard(peak_fu_demand(*sched)),
        Lifetimes(*sched).min_registers() + extra_regs);
  }
};

AllocatorOptions golden_opts(uint64_t seed) {
  AllocatorOptions opts;
  opts.improve.max_trials = 6;
  opts.improve.moves_per_trial = 2000;
  opts.improve.seed = seed;
  opts.initial.seed = seed;
  return opts;
}

TEST(Golden, InitialAllocationCostsArePinned) {
  Ctx ewf(make_ewf(), 17, false, 1);
  Binding b = initial_allocation(*ewf.prob, InitialOptions{.seed = 1});
  const CostBreakdown cost = evaluate_cost(b);
  // Frozen on 2026-07-07; see file header before "fixing" these.
  EXPECT_EQ(cost.muxes, 36);
  EXPECT_EQ(cost.connections, 58);
  EXPECT_EQ(cost.regs_used, 13);
}

TEST(Golden, EwfAllocationIsDeterministic) {
  Ctx ewf(make_ewf(), 17, false, 1);
  const AllocationResult a = allocate(*ewf.prob, golden_opts(3));
  const AllocationResult b = allocate(*ewf.prob, golden_opts(3));
  EXPECT_EQ(a.cost.muxes, b.cost.muxes);
  EXPECT_EQ(a.cost.connections, b.cost.connections);
  EXPECT_DOUBLE_EQ(a.cost.total, b.cost.total);
  EXPECT_EQ(a.merging.muxes_after, b.merging.muxes_after);
}

TEST(Golden, EwfAllocationQualityBand) {
  // Not an exact pin (the band survives parameter tuning): a modest-budget
  // run on ewf@17/min+1 must land in the quality band the full harness
  // reaches, well below the constructive start's 36 muxes.
  Ctx ewf(make_ewf(), 17, false, 1);
  const AllocationResult res = allocate(*ewf.prob, golden_opts(1));
  EXPECT_LE(res.cost.muxes, 24);
  EXPECT_GE(res.cost.muxes, 14);
}

TEST(Golden, TraditionalDeterministicToo) {
  Ctx dct(make_dct(), 9, false, 1);
  TraditionalOptions opts;
  opts.improve.max_trials = 6;
  opts.improve.moves_per_trial = 2000;
  opts.improve.seed = 5;
  const AllocationResult a = allocate_traditional(*dct.prob, opts);
  const AllocationResult b = allocate_traditional(*dct.prob, opts);
  EXPECT_EQ(a.cost.muxes, b.cost.muxes);
  EXPECT_DOUBLE_EQ(a.cost.total, b.cost.total);
}

// FNV-1a over the integer counters of a search run: the per-policy
// counters, then attempted/accepted per move kind. The double delta sums
// are left out; the binding digest already pins what the moves did.
uint64_t stats_digest(const ImproveStats& s) {
  Fnv1a h;
  h.i32(s.trials);
  h.u64(static_cast<uint64_t>(s.attempted));
  h.u64(static_cast<uint64_t>(s.accepted));
  h.u64(static_cast<uint64_t>(s.uphill));
  h.u64(static_cast<uint64_t>(s.kicks));
  for (const MoveKindStats& k : s.by_kind) {
    h.u64(static_cast<uint64_t>(k.attempted));
    h.u64(static_cast<uint64_t>(k.accepted));
  }
  return h.value();
}

TEST(Golden, SearchResultsArePinned) {
  struct Pin {
    uint64_t binding, stats;
  };
  struct Row {
    const char* name;
    Cdfg (*make)();
    int len;
    Pin improve, anneal, ils, alloc;
    int muxes_after;
  };
  // Frozen on 2026-10-17; see file header before "fixing" these.
  const Row rows[] = {
      {"ewf", make_ewf, 17,
       {0x4c3d7682344f280full, 0x3778f33a6d5856f6ull},
       {0x4766557713c04183ull, 0xf2454470b6a50f20ull},
       {0x2db1937f549bf905ull, 0x03c25a3de6be6b29ull},
       {0x35a1b321bbb9c374ull, 0x1e629826bf047800ull},
       21},
      {"dct", make_dct, 9,
       {0xde404ae788aca305ull, 0x1b9ea20815f4c74aull},
       {0x7ccc57595b627e38ull, 0x421088af640af6e8ull},
       {0x745f76d92308cb5full, 0x6cc9c04fce267085ull},
       {0x4973c87f1e9e7280ull, 0xf158b31b6e480685ull},
       35},
  };
  auto expect_pin = [](const char* what, const char* name, const Pin& want,
                       const Binding& best, const ImproveStats& stats) {
    EXPECT_EQ(digest_binding(best), want.binding)
        << name << " " << what << " binding 0x" << std::hex
        << digest_binding(best);
    EXPECT_EQ(stats_digest(stats), want.stats)
        << name << " " << what << " stats 0x" << std::hex
        << stats_digest(stats);
  };
  for (const Row& row : rows) {
    Ctx ctx(row.make(), row.len, false, 1);
    const Binding start =
        initial_allocation(*ctx.prob, InitialOptions{.seed = 1});

    // Short enough to stall: a trial that finds no improvement resets the
    // engine to the best binding, and the run stops before max_trials
    // only after stop_after_stale such resets.
    ImproveParams ip;
    ip.max_trials = 30;
    ip.moves_per_trial = 100;
    ip.stop_after_stale = 2;
    ip.seed = 7;
    const ImproveResult ir = improve(start, ip);
    EXPECT_LT(ir.stats.trials, ip.max_trials) << row.name;
    expect_pin("improve", row.name, row.improve, ir.best, ir.stats);

    AnnealParams ap;
    ap.initial_temp = 2.0;
    ap.num_temps = 4;
    ap.moves_per_temp = 400;
    ap.seed = 7;
    const ImproveResult ar = anneal(start, ap);
    expect_pin("anneal", row.name, row.anneal, ar.best, ar.stats);

    // Every ILS round resets the engine to the incumbent before its kick.
    IlsParams lp;
    lp.iterations = 3;
    lp.descent_moves = 400;
    lp.seed = 7;
    const ImproveResult lr = iterated_local_search(start, lp);
    expect_pin("ils", row.name, row.ils, lr.best, lr.stats);

    const AllocationResult res = allocate(*ctx.prob, golden_opts(3));
    expect_pin("allocate", row.name, row.alloc, res.binding, res.stats);
    EXPECT_EQ(res.merging.muxes_after, row.muxes_after) << row.name;
  }
}

TEST(Golden, ScheduleEnvelopesArePinned) {
  Cdfg g = make_ewf();
  HwSpec np, p;
  p.pipelined_mul = true;
  struct Row {
    int len;
    bool pipe;
    int alu, mul, minregs;
  };
  // Frozen envelope of the reconstruction (also quoted in EXPERIMENTS.md).
  const Row rows[] = {
      {17, false, 3, 2, 13}, {17, true, 3, 1, 13}, {19, false, 2, 2, 13},
      {19, true, 2, 1, 13},  {21, false, 2, 1, 12},
  };
  for (const Row& r : rows) {
    const auto sr = schedule_min_fu(g, r.pipe ? p : np, r.len);
    EXPECT_EQ(sr.fus.alu, r.alu) << r.len << (r.pipe ? "P" : "");
    EXPECT_EQ(sr.fus.mul, r.mul) << r.len << (r.pipe ? "P" : "");
    EXPECT_EQ(Lifetimes(sr.schedule).min_registers(), r.minregs)
        << r.len << (r.pipe ? "P" : "");
  }
}

// ---------------------------------------------------------------------------
// Golden VCD waveforms under the event-driven engine. The full dump —
// header, signal declarations, every value change of every register, FU
// output and port over five iterations — is pinned as an FNV-1a digest for
// EWF and DCT. Any engine change that perturbs a single waveform bit lands
// here; the differential suite (test_sim_differential) separately pins
// event == full-eval, so these constants freeze BOTH engines at once.
TEST(Golden, EventEngineVcdDigestsArePinned) {
  struct Row {
    const char* name;
    Cdfg (*make)();
    int extra_len;
    uint64_t digest;
  };
  // Frozen on 2026-08-09; see file header before "fixing" these.
  const Row rows[] = {
      {"ewf", make_ewf, 2, 0x4bf52d857dd716d5ull},
      {"dct", make_dct, 2, 0x5afdf582eb5523c2ull},
  };
  for (const Row& row : rows) {
    const int len =
        min_schedule_length(row.make(), HwSpec{}) + row.extra_len;
    Ctx ctx(row.make(), len, false, 1);
    Binding b = initial_allocation(*ctx.prob, InitialOptions{.seed = 1});
    Netlist nl(b);
    Rng rng(2024);
    std::vector<std::vector<int64_t>> inputs(
        6, std::vector<int64_t>(ctx.g->input_nodes().size(), 0));
    for (auto& vec : inputs)
      for (auto& v : vec) v = static_cast<int64_t>(rng.next() % 2001) - 1000;
    const std::vector<int64_t> states(ctx.g->state_nodes().size(), 2);
    const std::string vcd =
        dump_vcd(nl, inputs, states, 5, row.name, SimEngine::kEventDriven);
    Fnv1a h;
    for (char c : vcd) h.byte(static_cast<uint8_t>(c));
    EXPECT_EQ(h.value(), row.digest) << row.name << " actual 0x" << std::hex
                                     << h.value();
  }
}

}  // namespace
}  // namespace salsa
