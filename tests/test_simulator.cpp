#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "bench_suite/ar_filter.h"
#include "bench_suite/dct.h"
#include "bench_suite/diffeq.h"
#include "bench_suite/ewf.h"
#include "bench_suite/fir.h"
#include "bench_suite/random_cdfg.h"
#include "core/allocator.h"
#include "core/moves.h"
#include "core/verify.h"
#include "datapath/controller.h"
#include "datapath/simulator.h"
#include "problem_at_slack.h"
#include "sched/asap_alap.h"
#include "sim_reference.h"

namespace salsa {
namespace {

// ---------------------------------------------------------------------------
// Parameterized equivalence over every benchmark and several configurations.
struct EquivCase {
  const char* name;
  Cdfg (*make)();
  int extra_len;
  bool pipelined;
  int extra_regs;
};

class DatapathMatchesReference : public ::testing::TestWithParam<EquivCase> {};

TEST_P(DatapathMatchesReference, OnInitialAllocation) {
  const EquivCase& c = GetParam();
  const auto ctx =
      make_problem_at_slack(c.make(), HwSpec{.pipelined_mul = c.pipelined},
                            c.extra_len, SpareRegisters{c.extra_regs});
  Binding b = initial_allocation(*ctx.problem);
  Netlist nl(b);
  EXPECT_EQ(random_equivalence_check(nl, 6, 99), "");
}

TEST_P(DatapathMatchesReference, AfterRandomMoveScramble) {
  const EquivCase& c = GetParam();
  const auto ctx =
      make_problem_at_slack(c.make(), HwSpec{.pipelined_mul = c.pipelined},
                            c.extra_len, SpareRegisters{c.extra_regs});
  Binding b = initial_allocation(*ctx.problem);
  Rng rng(c.extra_len * 31 + c.extra_regs + 1);
  const MoveConfig all = MoveConfig::salsa_default();
  for (int i = 0; i < 600; ++i) apply_random_move(b, all.pick(rng), rng);
  ASSERT_TRUE(verify(b).empty());
  Netlist nl(b);
  EXPECT_EQ(random_equivalence_check(nl, 6, 7), "");
}

TEST_P(DatapathMatchesReference, AfterFullAllocation) {
  const EquivCase& c = GetParam();
  const auto ctx =
      make_problem_at_slack(c.make(), HwSpec{.pipelined_mul = c.pipelined},
                            c.extra_len, SpareRegisters{c.extra_regs});
  AllocatorOptions opts;
  opts.improve.max_trials = 3;
  opts.improve.moves_per_trial = 300;
  const AllocationResult res = allocate(*ctx.problem, opts);
  Netlist nl(res.binding);
  EXPECT_EQ(random_equivalence_check(nl, 6, 123), "");
  EXPECT_EQ(random_reference_diff(nl, 6, 123), "");
}

INSTANTIATE_TEST_SUITE_P(
    Benches, DatapathMatchesReference,
    ::testing::Values(EquivCase{"ewf_min", make_ewf, 0, false, 1},
                      EquivCase{"ewf_loose", make_ewf, 2, false, 2},
                      EquivCase{"ewf_pipe", make_ewf, 0, true, 2},
                      EquivCase{"dct_min", make_dct, 0, false, 1},
                      EquivCase{"dct_loose", make_dct, 3, false, 2},
                      EquivCase{"dct_pipe", make_dct, 3, true, 1},
                      EquivCase{"ar_min", make_ar_filter, 0, false, 2},
                      EquivCase{"ar_loose", make_ar_filter, 3, false, 2},
                      EquivCase{"fir_min", make_fir8, 0, false, 2},
                      EquivCase{"fir_loose", make_fir8, 2, false, 2},
                      EquivCase{"diffeq_min", make_diffeq, 0, false, 1},
                      EquivCase{"diffeq_loose", make_diffeq, 2, false, 2}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------------
// Property test: random CDFGs, random schedules, random move scrambles —
// the datapath must always match the evaluator.
class RandomCdfgEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomCdfgEquivalence, HoldsThroughScramble) {
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
  Rng rng(params.seed * 7 + 1);
  const MoveConfig all = MoveConfig::salsa_default();
  for (int i = 0; i < 300; ++i) apply_random_move(b, all.pick(rng), rng);
  ASSERT_TRUE(verify(b).empty());
  Netlist nl(b);
  EXPECT_EQ(random_equivalence_check(nl, 5, params.seed), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCdfgEquivalence,
                         ::testing::Range(1, 25));

// ---------------------------------------------------------------------------
TEST(Simulator, AccumulatorStateSequence) {
  Cdfg g("acc");
  const ValueId in = g.add_input("in");
  const ValueId st = g.add_state("st");
  const ValueId sum = g.add_op(OpKind::kAdd, st, in, "sum");
  g.set_state_next(st, sum);
  g.add_output(sum, "o");
  g.validate();
  Schedule s(g, HwSpec{}, 3);
  s.set_start(g.producer(sum), 0);
  s.set_start(g.output_nodes()[0], 1);
  s.validate();
  AllocProblem prob(s, FuPool::standard(FuBudget{1, 0}),
                    SpareRegisters{0});
  Binding b = initial_allocation(prob);
  Netlist nl(b);
  std::vector<std::vector<int64_t>> inputs{{5}, {6}, {7}, {8}};
  const int64_t init[] = {100};
  const SimResult r = simulate(nl, inputs, init, 3);
  EXPECT_EQ(r.outputs[0][0], 105);
  EXPECT_EQ(r.outputs[1][0], 111);
  EXPECT_EQ(r.outputs[2][0], 118);
  EXPECT_EQ(diff_against_reference(nl, inputs, init, 3), "");
}

TEST(Simulator, CompareReportsMismatchLocation) {
  // A correct binding must produce an empty report; sanity of the plumbing.
  const auto ctx =
      make_problem_at_slack(make_diffeq(), HwSpec{}, 1, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  Netlist nl(b);
  std::vector<std::vector<int64_t>> inputs(4,
                                           std::vector<int64_t>{1, 2, 3, 4});
  EXPECT_EQ(compare_with_reference(nl, inputs, {}, 3), "");
  EXPECT_EQ(diff_against_reference(nl, inputs, {}, 3), "");
}

TEST(Simulator, FeedthroughChainOfNops) {
  // A chain of pass-through (nop) operations: each hop is a zero-latency
  // combinational feedthrough from a register through an FU back into a
  // register within one cycle. The output must be the identity of the
  // input stream, and the compiled engine must match the reference on
  // every hop.
  Cdfg g("feedthrough");
  const ValueId a = g.add_input("a");
  const ValueId n1 = g.add_nop(a, "n1");
  const ValueId n2 = g.add_nop(n1, "n2");
  const ValueId n3 = g.add_nop(n2, "n3");
  g.add_output(n3, "o");
  g.validate();
  const ProblemBundle p =
      make_problem_at_slack(std::move(g), HwSpec{}, 0, SpareRegisters{0});
  Binding b = initial_allocation(*p.problem);
  Netlist nl(b);
  std::vector<std::vector<int64_t>> inputs{{10}, {-4}, {77}, {0}};
  const SimResult r = simulate(nl, inputs, {}, 3);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(r.outputs[static_cast<size_t>(i)][0],
                                        inputs[static_cast<size_t>(i)][0]);
  EXPECT_EQ(random_equivalence_check(nl, 5, 11), "");
  EXPECT_EQ(random_reference_diff(nl, 5, 11), "");
}

TEST(Simulator, SameCycleMultiDriverUpdates) {
  // One multiplier result fans out to two ALUs in the same step, and both
  // ALU results land in the same cycle — two registers load simultaneously
  // from two different drivers. The landing-cycle load (register captures a
  // freshly landed FU result on the very edge it arrives) is also on this
  // path.
  Cdfg g("fanout");
  const ValueId a = g.add_input("a");
  const ValueId bb = g.add_input("b");
  const ValueId c3 = g.add_const(3);
  const ValueId m = g.add_op(OpKind::kMul, a, c3, "m");
  const ValueId x = g.add_op(OpKind::kAdd, m, bb, "x");
  const ValueId y = g.add_op(OpKind::kSub, m, bb, "y");
  g.add_output(x, "ox");
  g.add_output(y, "oy");
  g.validate();
  HwSpec hw;
  Schedule sch(g, hw, 4);
  sch.set_start(g.producer(m), 0);  // lands at the end of step 1
  sch.set_start(g.producer(x), 2);
  sch.set_start(g.producer(y), 2);
  sch.set_start(g.output_nodes()[0], 3);
  sch.set_start(g.output_nodes()[1], 3);
  sch.validate();
  AllocProblem prob(sch, FuPool::standard(FuBudget{2, 1}),
                    SpareRegisters{0});
  Binding b = initial_allocation(prob);
  Netlist nl(b);
  // The scenario is real: some step carries two simultaneous register loads.
  std::map<int, int> loads_per_step;
  for (const RegLoad& ld : nl.reg_loads()) ++loads_per_step[ld.step];
  int peak = 0;
  for (const auto& [step, n] : loads_per_step) peak = std::max(peak, n);
  EXPECT_GE(peak, 2);
  std::vector<std::vector<int64_t>> inputs{{5, 2}, {-7, 10}, {0, 0}};
  const SimResult r = simulate(nl, inputs, {}, 2);
  EXPECT_EQ(r.outputs[0][0], 17);   // 3*5 + 2
  EXPECT_EQ(r.outputs[0][1], 13);   // 3*5 - 2
  EXPECT_EQ(r.outputs[1][0], -11);  // 3*-7 + 10
  EXPECT_EQ(r.outputs[1][1], -31);
  EXPECT_EQ(random_equivalence_check(nl, 4, 21), "");
  EXPECT_EQ(random_reference_diff(nl, 4, 21), "");
}

TEST(Simulator, ControllerStallStepsCoast) {
  // A schedule much longer than the work leaves all-idle control words:
  // no FU starts, no register loads. The controller reports them, the
  // machine must coast through them (state held), and the compiled engine —
  // whose per-step lists are empty there — must coast like the reference.
  Cdfg g("stall");
  const ValueId in = g.add_input("in");
  const ValueId st = g.add_state("st");
  const ValueId sum = g.add_op(OpKind::kAdd, st, in, "sum");
  g.set_state_next(st, sum);
  g.add_output(sum, "o");
  g.validate();
  Schedule s(g, HwSpec{}, 7);
  s.set_start(g.producer(sum), 0);
  s.set_start(g.output_nodes()[0], 1);
  s.validate();
  AllocProblem prob(s, FuPool::standard(FuBudget{1, 0}),
                    SpareRegisters{0});
  Binding b = initial_allocation(prob);
  Netlist nl(b);
  EXPECT_GE(analyze_controller(nl).idle_steps, 4);
  std::vector<std::vector<int64_t>> inputs{{5}, {6}, {7}, {8}};
  const int64_t init[] = {100};
  const SimResult r = simulate(nl, inputs, init, 3);
  EXPECT_EQ(r.outputs[0][0], 105);
  EXPECT_EQ(r.outputs[1][0], 111);
  EXPECT_EQ(r.outputs[2][0], 118);
  EXPECT_EQ(random_reference_diff(nl, 4, 33), "");
}

TEST(Simulator, FinalIterationFlushIgnoresMissingPrefetch) {
  // The input port prefetches the next iteration's values; on the final
  // iteration there is nothing left to prefetch. Supplying exactly
  // `iterations` input vectors (no prefetch row) must produce the same
  // outputs as supplying the extra row — the flush path skips the load
  // instead of reading past the end.
  Cdfg g("flush");
  const ValueId in = g.add_input("in");
  const ValueId st = g.add_state("st");
  const ValueId sum = g.add_op(OpKind::kAdd, st, in, "sum");
  g.set_state_next(st, sum);
  g.add_output(sum, "o");
  g.validate();
  Schedule s(g, HwSpec{}, 3);
  s.set_start(g.producer(sum), 0);
  s.set_start(g.output_nodes()[0], 1);
  s.validate();
  AllocProblem prob(s, FuPool::standard(FuBudget{1, 0}),
                    SpareRegisters{0});
  Binding b = initial_allocation(prob);
  Netlist nl(b);
  const std::vector<std::vector<int64_t>> exact{{5}, {6}, {7}};
  std::vector<std::vector<int64_t>> padded = exact;
  padded.push_back({999});
  const int64_t init[] = {100};
  const SimResult a1 = simulate(nl, exact, init, 3);
  const SimResult a2 = simulate(nl, padded, init, 3);
  EXPECT_EQ(a1.outputs, a2.outputs);
  const SimResult r1 = simulate_reference(nl, exact, init, 3);
  const SimResult r2 = simulate_reference(nl, padded, init, 3);
  EXPECT_EQ(r1.outputs, a1.outputs);
  EXPECT_EQ(r2.outputs, a1.outputs);
  EXPECT_EQ(diff_against_reference(nl, exact, init, 3), "");
  EXPECT_EQ(diff_against_reference(nl, padded, init, 3), "");
}

TEST(Simulator, PipelinedMultiplierBackToBack) {
  // Two multiplications on one pipelined unit in consecutive steps.
  Cdfg g("pipe");
  const ValueId a = g.add_input("a");
  const ValueId b = g.add_input("b");
  const ValueId c2 = g.add_const(3);
  const ValueId m1 = g.add_op(OpKind::kMul, a, c2, "m1");
  const ValueId m2 = g.add_op(OpKind::kMul, b, c2, "m2");
  const ValueId s = g.add_op(OpKind::kAdd, m1, m2, "s");
  g.add_output(s, "o");
  g.validate();
  HwSpec hw;
  hw.pipelined_mul = true;
  Schedule sch(g, hw, 5);
  sch.set_start(g.producer(m1), 0);
  sch.set_start(g.producer(m2), 1);
  sch.set_start(g.producer(s), 3);
  sch.set_start(g.output_nodes()[0], 4);
  sch.validate();
  FuPool pool = FuPool::standard(FuBudget{1, 1});
  AllocProblem prob(sch, pool, SpareRegisters{0});
  Binding bind = initial_allocation(prob);
  // Both muls must share the single multiplier.
  EXPECT_EQ(bind.op(g.producer(m1)).fu, bind.op(g.producer(m2)).fu);
  Netlist nl(bind);
  EXPECT_EQ(random_equivalence_check(nl, 4, 5), "");
  EXPECT_EQ(random_reference_diff(nl, 4, 5), "");
}

}  // namespace
}  // namespace salsa
