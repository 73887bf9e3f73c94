// The simulator differential: the compiled simulate() (datapath/simulator.h)
// must match the rescanning reference kept in sim_reference.h
// signal-for-signal and cycle-for-cycle — identical output streams and
// identical per-step register traces — on the 1992 benchmarks, random CDFGs,
// and the generated families, both at 300 ops and at the ~2k-op scale the
// end-to-end benchmark runs the flow at.
#include <gtest/gtest.h>

#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "bench_suite/random_cdfg.h"
#include "core/allocator.h"
#include "core/moves.h"
#include "core/verify.h"
#include "frontend/generate.h"
#include "problem_at_slack.h"
#include "sched/asap_alap.h"
#include "sim_reference.h"

namespace salsa {
namespace {

// ---------------------------------------------------------------------------
// Benchmarks: per-cycle equivalence under several schedule/register
// configurations and through move scrambles.
struct EngineCase {
  const char* name;
  Cdfg (*make)();
  int extra_len;
  bool pipelined;
  int extra_regs;
};

class EnginesAgree : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EnginesAgree, OnInitialAllocation) {
  const EngineCase& c = GetParam();
  const auto ctx =
      make_problem_at_slack(c.make(), HwSpec{.pipelined_mul = c.pipelined},
                            c.extra_len, SpareRegisters{c.extra_regs});
  Binding b = initial_allocation(*ctx.problem);
  Netlist nl(b);
  EXPECT_EQ(random_reference_diff(nl, 6, 99), "");
}

TEST_P(EnginesAgree, AfterRandomMoveScramble) {
  const EngineCase& c = GetParam();
  const auto ctx =
      make_problem_at_slack(c.make(), HwSpec{.pipelined_mul = c.pipelined},
                            c.extra_len, SpareRegisters{c.extra_regs});
  Binding b = initial_allocation(*ctx.problem);
  Rng rng(c.extra_len * 37 + c.extra_regs + 5);
  const MoveConfig all = MoveConfig::salsa_default();
  for (int i = 0; i < 600; ++i) apply_random_move(b, all.pick(rng), rng);
  ASSERT_TRUE(verify(b).empty());
  Netlist nl(b);
  EXPECT_EQ(random_reference_diff(nl, 6, 7), "");
}

INSTANTIATE_TEST_SUITE_P(
    Benches, EnginesAgree,
    ::testing::Values(EngineCase{"ewf_min", make_ewf, 0, false, 1},
                      EngineCase{"ewf_loose", make_ewf, 2, false, 2},
                      EngineCase{"ewf_pipe", make_ewf, 0, true, 2},
                      EngineCase{"dct_min", make_dct, 0, false, 1},
                      EngineCase{"dct_loose", make_dct, 3, false, 2},
                      EngineCase{"dct_pipe", make_dct, 3, true, 1}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------------
// Property test: >= 20 random CDFGs through schedule variation and move
// scrambles; the engines must agree on outputs and full register traces.
class RandomCdfgEnginesAgree : public ::testing::TestWithParam<int> {};

TEST_P(RandomCdfgEnginesAgree, HoldsThroughScramble) {
  RandomCdfgParams params;
  params.seed = static_cast<uint64_t>(GetParam());
  params.num_ops = 12 + GetParam() % 9;
  params.num_states = GetParam() % 3;
  params.num_inputs = 1 + GetParam() % 3;
  const ProblemBundle p = make_problem_at_slack(
      make_random_cdfg(params), HwSpec{.pipelined_mul = GetParam() % 2 == 0},
      GetParam() % 4, SpareRegisters{2});
  Binding b =
      initial_allocation(*p.problem, InitialOptions{.seed = params.seed});
  Rng rng(params.seed * 11 + 3);
  const MoveConfig all = MoveConfig::salsa_default();
  for (int i = 0; i < 300; ++i) apply_random_move(b, all.pick(rng), rng);
  ASSERT_TRUE(verify(b).empty());
  Netlist nl(b);
  EXPECT_EQ(random_reference_diff(nl, 5, params.seed), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCdfgEnginesAgree,
                         ::testing::Range(1, 25));

// ---------------------------------------------------------------------------
// Generated corpus designs, one per family: at 300 ops, and at ~2k ops,
// the scale the end-to-end benchmark simulates (its workloads are 3k-5k
// ops; the reference's per-step rescan keeps this one a notch smaller).
struct GenCase {
  GenFamily family;
  int ops;
  int iterations;
};

class GeneratedEnginesAgree : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratedEnginesAgree, OnInitialAllocation) {
  GenParams p;
  p.family = GetParam().family;
  p.target_ops = GetParam().ops;
  p.seed = 5;
  const GeneratedDesign d = generate_design(p);
  Binding b = initial_allocation(*d.problem);
  Netlist nl(b);
  EXPECT_EQ(random_reference_diff(nl, GetParam().iterations, 17), "");
}

INSTANTIATE_TEST_SUITE_P(
    Families, GeneratedEnginesAgree,
    ::testing::Values(GenCase{GenFamily::kFilterCascade, 300, 3},
                      GenCase{GenFamily::kGemmPipeline, 300, 3},
                      GenCase{GenFamily::kLayeredDag, 300, 3},
                      GenCase{GenFamily::kMemoryTraffic, 300, 3},
                      GenCase{GenFamily::kFilterCascade, 2000, 2},
                      GenCase{GenFamily::kGemmPipeline, 2000, 2},
                      GenCase{GenFamily::kLayeredDag, 2000, 2},
                      GenCase{GenFamily::kMemoryTraffic, 2000, 2}),
    [](const auto& info) {
      return std::string(gen_family_name(info.param.family)) + "_" +
             std::to_string(info.param.ops);
    });

}  // namespace
}  // namespace salsa
