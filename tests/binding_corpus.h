// The binding corpus of the set-up passes' reference differentials:
// test_mux_merge runs merge_muxes() against the pairwise merge kept in
// mux_merge_reference.h, test_verify runs verify()'s one-driver rule
// against the map-based pass it replaced, and test_interconnect_index runs
// Netlist against the std::map route it replaced. Every binding is legal:
//   * the paper's grids — EWF at 17-21 steps and DCT at 7-13, both
//     multiplier pipelinings, 0-2 spare registers: each constructive start
//     and a short allocate() result;
//   * 200 random CDFGs: start and short allocate() result;
//   * the four generated families at 1k ops: start and allocate() result;
//   * the best bindings along an improve() run on EWF, DCT and the 1k DAG,
//     after 1, 2, 4 and 8 trials — these carry copies and pass-throughs;
//   * the 3k-op filter cascade and the 5k-op layered DAG of the end-to-end
//     benchmark (perfbench/e2e.cpp), built and seeded as it builds them:
//     start and short allocate() result.
// Building it takes about a second in a RelWithDebInfo build and about a
// minute in a Debug one.
#pragma once

#include <string>
#include <vector>

#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "bench_suite/harness.h"
#include "bench_suite/random_cdfg.h"
#include "core/allocator.h"
#include "frontend/generate.h"
#include "sched/asap_alap.h"
#include "util/rng.h"

namespace salsa {

struct CorpusBinding {
  std::string label;
  Binding binding;
};

struct BindingCorpus {
  std::vector<ProblemBundle> bundles;  // own the problems
  std::vector<GeneratedDesign> designs;
  std::vector<CorpusBinding> bindings;

  void add(std::string label, Binding b) {
    bindings.push_back({std::move(label), std::move(b)});
  }
};

// The constructive start and a short allocate() result of `prob`, seeded
// from `seed` the way the end-to-end benchmark seeds allocate().
inline void add_start_and_result(BindingCorpus& c, const AllocProblem& prob,
                                 const std::string& label, uint64_t seed) {
  AllocatorOptions opts;
  opts.improve.max_trials = 4;
  opts.improve.moves_per_trial = 1500;
  opts.improve.seed = derive_seed(seed, 1);
  opts.initial.seed = derive_seed(seed, 0);
  c.add(label + "/start", initial_allocation(prob, opts.initial));
  c.add(label + "/alloc", allocate(prob, opts).binding);
}

inline BindingCorpus build_binding_corpus() {
  BindingCorpus c;
  // Paper grids.
  for (const bool pipelined : {false, true})
    for (int extra = 0; extra <= 2; ++extra) {
      for (int steps = 17; steps <= 21; ++steps) {
        c.bundles.push_back(make_problem(make_ewf(),
                                         HwSpec{.pipelined_mul = pipelined},
                                         steps, SpareRegisters{extra}));
        add_start_and_result(c, *c.bundles.back().problem,
                             "ewf" + std::to_string(steps) +
                                 (pipelined ? "p" : "") + "+" +
                                 std::to_string(extra),
                             1000 + static_cast<uint64_t>(steps * 10 + extra));
      }
      for (int steps = 7; steps <= 13; ++steps) {
        c.bundles.push_back(make_problem(make_dct(),
                                         HwSpec{.pipelined_mul = pipelined},
                                         steps, SpareRegisters{extra}));
        add_start_and_result(c, *c.bundles.back().problem,
                             "dct" + std::to_string(steps) +
                                 (pipelined ? "p" : "") + "+" +
                                 std::to_string(extra),
                             3000 + static_cast<uint64_t>(steps * 10 + extra));
      }
    }

  // Random CDFGs, as test_initial draws them.
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
    c.bundles.push_back(
        make_problem(std::move(g), hw, len, SpareRegisters{i % 3}));
    add_start_and_result(c, *c.bundles.back().problem,
                         "random" + std::to_string(i), params.seed);
  }

  // The generated families at 1k ops.
  const AllocProblem* dag1k = nullptr;
  for (const GenFamily f :
       {GenFamily::kFilterCascade, GenFamily::kGemmPipeline,
        GenFamily::kLayeredDag, GenFamily::kMemoryTraffic}) {
    c.designs.push_back(generate_design(
        GenParams{.family = f, .target_ops = 1000, .seed = 1}));
    add_start_and_result(c, *c.designs.back().problem,
                         std::string(gen_family_name(f)) + "1k", 1);
    if (f == GenFamily::kLayeredDag) dag1k = c.designs.back().problem.get();
  }

  // Bests along one improve() run: the same seed, so each shorter run is a
  // prefix of the longer ones.
  const auto add_improve_run = [&](const AllocProblem& prob,
                                   const std::string& label) {
    const Binding start = initial_allocation(prob);
    for (const int trials : {1, 2, 4, 8}) {
      ImproveParams ip;
      ip.max_trials = trials;
      ip.moves_per_trial = 1500;
      ip.stop_after_stale = trials;
      ip.seed = 11;
      c.add(label + "/improve" + std::to_string(trials),
            improve(start, ip).best);
    }
  };
  c.bundles.push_back(
      make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1}));
  add_improve_run(*c.bundles.back().problem, "ewf17+1");
  c.bundles.push_back(
      make_problem(make_dct(), HwSpec{}, 9, SpareRegisters{1}));
  add_improve_run(*c.bundles.back().problem, "dct9+1");
  add_improve_run(*dag1k, "dag1k");

  // The end-to-end benchmark's cascade3k and dag5k designs under its
  // placement and search seeds, with the short search budget: the
  // benchmark's full one costs minutes per design in a Debug build.
  for (const auto& [f, ops] :
       {std::pair{GenFamily::kFilterCascade, 3000},
        std::pair{GenFamily::kLayeredDag, 5000}}) {
    c.designs.push_back(
        generate_design(GenParams{.family = f, .target_ops = ops, .seed = 1}));
    add_start_and_result(c, *c.designs.back().problem,
                         std::string(gen_family_name(f)) + std::to_string(ops),
                         1);
  }
  return c;
}

}  // namespace salsa
