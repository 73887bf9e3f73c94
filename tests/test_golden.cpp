// Deterministic end-to-end pins: the RNG is fully portable (xoshiro256**),
// so fixed seeds give bit-identical searches on every platform. These tests
// freeze a few complete flow results; a change here means an intentional
// algorithm change (update the constants) or an accidental regression.
#include <gtest/gtest.h>

#include "analysis/digest.h"
#include "baseline/traditional.h"
#include "bench_suite/ar_filter.h"
#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "bench_suite/harness.h"
#include "core/allocator.h"
#include "core/annealer.h"
#include "core/ils.h"
#include "datapath/controller.h"
#include "datapath/testbench.h"
#include "datapath/vcd.h"
#include "datapath/verilog.h"
#include "frontend/generate.h"
#include "layout/linear_placement.h"
#include "sched/asap_alap.h"
#include "sched/fu_search.h"

namespace salsa {
namespace {

AllocatorOptions golden_opts(uint64_t seed) {
  AllocatorOptions opts;
  opts.improve.max_trials = 6;
  opts.improve.moves_per_trial = 2000;
  opts.improve.seed = seed;
  opts.initial.seed = seed;
  return opts;
}

TEST(Golden, InitialAllocationCostsArePinned) {
  const auto ewf = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding b = initial_allocation(*ewf.problem, InitialOptions{.seed = 1});
  const CostBreakdown cost = evaluate_cost(b);
  // Frozen on 2026-07-07; see file header before "fixing" these.
  EXPECT_EQ(cost.muxes, 36);
  EXPECT_EQ(cost.connections, 58);
  EXPECT_EQ(cost.regs_used, 13);
}

TEST(Golden, EwfAllocationIsDeterministic) {
  const auto ewf = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  const AllocationResult a = allocate(*ewf.problem, golden_opts(3));
  const AllocationResult b = allocate(*ewf.problem, golden_opts(3));
  EXPECT_EQ(a.cost.muxes, b.cost.muxes);
  EXPECT_EQ(a.cost.connections, b.cost.connections);
  EXPECT_DOUBLE_EQ(a.cost.total, b.cost.total);
  EXPECT_EQ(a.merging.muxes_after, b.merging.muxes_after);
}

TEST(Golden, EwfAllocationQualityBand) {
  // Not an exact pin (the band survives parameter tuning): a modest-budget
  // run on ewf@17/min+1 must land in the quality band the full harness
  // reaches, well below the constructive start's 36 muxes.
  const auto ewf = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  const AllocationResult res = allocate(*ewf.problem, golden_opts(1));
  EXPECT_LE(res.cost.muxes, 24);
  EXPECT_GE(res.cost.muxes, 14);
}

TEST(Golden, TraditionalDeterministicToo) {
  const auto dct = make_problem(make_dct(), HwSpec{}, 9, SpareRegisters{1});
  TraditionalOptions opts;
  opts.improve.max_trials = 6;
  opts.improve.moves_per_trial = 2000;
  opts.improve.seed = 5;
  const AllocationResult a = allocate_traditional(*dct.problem, opts);
  const AllocationResult b = allocate_traditional(*dct.problem, opts);
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
    const auto ctx =
        make_problem(row.make(), HwSpec{}, row.len, SpareRegisters{1});
    const Binding start =
        initial_allocation(*ctx.problem, InitialOptions{.seed = 1});

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

    const AllocationResult res = allocate(*ctx.problem, golden_opts(3));
    expect_pin("allocate", row.name, row.alloc, res.binding, res.stats);
    EXPECT_EQ(res.merging.muxes_after, row.muxes_after) << row.name;
  }
}

// DCT at 14 steps with pipelined multipliers and no spare register: the
// first constructive start splits a value, and one of allocate()'s strict
// (allow_splits = false) retries finds the contiguous start the traditional
// warm phase needs. Without the retries these runs end at 38 and 41 merged
// muxes.
TEST(Golden, StrictRetryRescuesTheWarmStart) {
  const auto dct = make_problem(make_dct(), HwSpec{.pipelined_mul = true}, 14,
                                SpareRegisters{0});
  struct Pin {
    uint64_t seed, binding;
    int muxes_after;
  };
  // Frozen on 2026-10-17; see file header before "fixing" these.
  const Pin pins[] = {{2, 0x8a904ed9db40056aull, 35},
                      {5, 0xccf540a08d596c4eull, 35}};
  for (const Pin& pin : pins) {
    const Binding first = initial_allocation(
        *dct.problem, InitialOptions{.seed = derive_seed(pin.seed, 0)});
    EXPECT_FALSE(first.is_traditional()) << "seed " << pin.seed;
    const AllocationResult res = allocate(*dct.problem, golden_opts(pin.seed));
    EXPECT_EQ(digest_binding(res.binding), pin.binding)
        << "seed " << pin.seed << " binding 0x" << std::hex
        << digest_binding(res.binding);
    EXPECT_EQ(res.merging.muxes_after, pin.muxes_after) << "seed " << pin.seed;
  }
}

// FNV-1a over merge_muxes's groups in output order: each group's sink keys,
// then its source keys, each list in order and prefixed by its length.
uint64_t merge_digest(const MuxMergeResult& m) {
  Fnv1a h;
  for (const MergedMux& mm : m.muxes) {
    h.u32(static_cast<uint32_t>(mm.sinks.size()));
    for (const Pin& p : mm.sinks) h.u64(key_of(p));
    h.u32(static_cast<uint32_t>(mm.sources.size()));
    for (const Endpoint& e : mm.sources) h.u64(key_of(e));
  }
  return h.value();
}

// The merged groups of generated designs, whose merges (unlike EWF's and
// DCT's) include transitive joins: a group member that shares no source
// with the group's first mux and joins through a source an earlier member
// brought in.
TEST(Golden, GeneratedMergeGroupsArePinned) {
  struct Row {
    GenFamily family;
    uint64_t digest;
    int muxes_before, muxes_after;
  };
  // Frozen on 2026-10-17; see file header before "fixing" these.
  const Row rows[] = {
      {GenFamily::kLayeredDag, 0xe7c8c90536f3092eull, 1769, 1755},
      {GenFamily::kFilterCascade, 0xc097b9caf38eb594ull, 955, 936},
  };
  for (const Row& row : rows) {
    const GeneratedDesign d = generate_design(
        GenParams{.family = row.family, .target_ops = 1000, .seed = 1});
    const AllocationResult res = allocate(*d.problem, golden_opts(3));
    const char* name = gen_family_name(row.family);
    EXPECT_EQ(merge_digest(res.merging), row.digest)
        << name << " actual 0x" << std::hex << merge_digest(res.merging);
    EXPECT_EQ(res.merging.muxes_before, row.muxes_before) << name;
    EXPECT_EQ(res.merging.muxes_after, row.muxes_after) << name;
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
// Golden VCD waveforms. The full dump — header, signal declarations, every
// value change of every register over five iterations — is pinned as an
// FNV-1a digest for EWF and DCT. Any simulator change that perturbs a
// single waveform bit lands here; the differential suite
// (test_sim_differential) separately pins the compiled engine against the
// rescanning reference step by step.
TEST(Golden, VcdDigestsArePinned) {
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
    const auto ctx = make_problem(row.make(), HwSpec{}, len, SpareRegisters{1});
    Binding b = initial_allocation(*ctx.problem, InitialOptions{.seed = 1});
    Netlist nl(b);
    Rng rng(2024);
    std::vector<std::vector<int64_t>> inputs(
        6, std::vector<int64_t>(ctx.graph->input_nodes().size(), 0));
    for (auto& vec : inputs)
      for (auto& v : vec) v = static_cast<int64_t>(rng.next() % 2001) - 1000;
    const std::vector<int64_t> states(ctx.graph->state_nodes().size(), 2);
    const std::string vcd =
        dump_vcd(nl, inputs, states, 5, row.name);
    Fnv1a h;
    for (char c : vcd) h.byte(static_cast<uint8_t>(c));
    EXPECT_EQ(h.value(), row.digest) << row.name << " actual 0x" << std::hex
                                     << h.value();
  }
}

// ---------------------------------------------------------------------------
// Golden Verilog: the full to_verilog text of the golden_opts(3) allocation
// of EWF@17 and DCT@9 — header comment (merged mux count), ports, routing
// case tables with their pass-throughs, FU selects and register enables —
// pinned as FNV-1a digests.
TEST(Golden, VerilogDigestsArePinned) {
  struct Row {
    const char* name;
    Cdfg (*make)();
    int len;
    uint64_t digest;
  };
  // Frozen on 2026-10-17; see file header before "fixing" these.
  const Row rows[] = {
      {"ewf", make_ewf, 17, 0x1eac5408125f7755ull},
      {"dct", make_dct, 9, 0x5925a0f5baa18880ull},
  };
  for (const Row& row : rows) {
    const auto ctx =
        make_problem(row.make(), HwSpec{}, row.len, SpareRegisters{1});
    const AllocationResult res = allocate(*ctx.problem, golden_opts(3));
    const std::string v = to_verilog(Netlist(res.binding), row.name);
    Fnv1a h;
    for (char c : v) h.byte(static_cast<uint8_t>(c));
    EXPECT_EQ(h.value(), row.digest) << row.name << " actual 0x" << std::hex
                                     << h.value();
  }
}

uint64_t text_digest(const std::string& text) {
  Fnv1a h;
  for (char c : text) h.byte(static_cast<uint8_t>(c));
  return h.value();
}

// FNV-1a over module_affinity's matrix, row by row.
void feed_affinity(Fnv1a& h, const Binding& b) {
  const auto w = module_affinity(b);
  h.u32(static_cast<uint32_t>(w.size()));
  for (const auto& row : w)
    for (double v : row) h.f64(v);
}

// ---------------------------------------------------------------------------
// Golden layout: module_affinity and place_linear (seed 17) on the four
// cases of bench_layout, over both models' run_comparison results
// (traditional first, when feasible). The affinity digest hashes both
// matrices; the placement digest hashes both slot vectors and wirelengths.
TEST(Golden, LayoutOfBenchCasesIsPinned) {
  struct Row {
    const char* name;
    Cdfg (*make)();
    int len;
    int extra_regs;
    uint64_t affinity, placement;
  };
  // Frozen on 2026-10-18; see file header before "fixing" these.
  const Row rows[] = {
      {"ewf@17", make_ewf, 17, 1, 0xdb173ba89e00b1b5ull,
       0xea1a64ff14d532f2ull},
      {"ewf@21", make_ewf, 21, 1, 0xca2d1ad8e3e7f9b5ull,
       0x3d479f0b22ce4af0ull},
      {"dct@9", make_dct, 9, 2, 0x12a34d80819a20e5ull,
       0x2d70730831496645ull},
      {"ar@16", make_ar_filter, 16, 2, 0xcf223b1443ba88a5ull,
       0x5a4231c898fb87c5ull},
  };
  for (const Row& row : rows) {
    const ProblemBundle b = make_problem(row.make(), HwSpec{}, row.len,
                                         SpareRegisters{row.extra_regs});
    const benchharness::Comparison cmp =
        benchharness::run_comparison(*b.problem, 13);
    Fnv1a affinity, placement;
    auto feed = [&](const AllocationResult& res) {
      feed_affinity(affinity, res.binding);
      const LinearPlacement p = place_linear(res.binding, 17);
      for (int s : p.slot_of) placement.i32(s);
      placement.f64(p.wirelength);
    };
    if (cmp.traditional_feasible) feed(cmp.traditional);
    feed(cmp.salsa);
    EXPECT_EQ(affinity.value(), row.affinity)
        << row.name << " affinity 0x" << std::hex << affinity.value();
    EXPECT_EQ(placement.value(), row.placement)
        << row.name << " placement 0x" << std::hex << placement.value();
  }
}

// Golden artifacts of the generated 1k-op designs' golden_opts(3)
// allocations: module_affinity, and the to_verilog, to_testbench (two
// iterations of seeded stimulus) and controller_table texts.
TEST(Golden, GeneratedArtifactsArePinned) {
  struct Row {
    GenFamily family;
    uint64_t affinity, verilog, testbench, controller;
  };
  // Frozen on 2026-10-18; see file header before "fixing" these.
  const Row rows[] = {
      {GenFamily::kLayeredDag, 0xa86ec7ad8acbb9f4ull, 0x8193fdfd0de9fc0cull,
       0x8b20da44a75117d8ull, 0x1d3d46cda1745457ull},
      {GenFamily::kFilterCascade, 0x6ca8042f6a0225c1ull, 0xaf6e772a923784cdull,
       0x6465cbbe7fc2628dull, 0x3adef9ba6b689db9ull},
  };
  for (const Row& row : rows) {
    const GeneratedDesign d = generate_design(
        GenParams{.family = row.family, .target_ops = 1000, .seed = 1});
    const AllocationResult res = allocate(*d.problem, golden_opts(3));
    const Netlist nl(res.binding);
    const char* name = gen_family_name(row.family);

    Fnv1a affinity;
    feed_affinity(affinity, res.binding);
    EXPECT_EQ(affinity.value(), row.affinity)
        << name << " affinity 0x" << std::hex << affinity.value();

    const uint64_t verilog = text_digest(to_verilog(nl, name));
    EXPECT_EQ(verilog, row.verilog) << name << " verilog 0x" << std::hex
                                    << verilog;

    Rng rng(2024);
    std::vector<std::vector<int64_t>> inputs(
        3, std::vector<int64_t>(d.graph->input_nodes().size(), 0));
    for (auto& vec : inputs)
      for (auto& v : vec) v = static_cast<int64_t>(rng.next() % 2001) - 1000;
    const std::vector<int64_t> states(d.graph->state_nodes().size(), 2);
    const uint64_t testbench =
        text_digest(to_testbench(nl, inputs, states, 2, name));
    EXPECT_EQ(testbench, row.testbench) << name << " testbench 0x" << std::hex
                                        << testbench;

    const uint64_t controller = text_digest(controller_table(nl));
    EXPECT_EQ(controller, row.controller) << name << " controller 0x"
                                          << std::hex << controller;
  }
}

}  // namespace
}  // namespace salsa
