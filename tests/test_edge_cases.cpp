// Edge cases across the whole pipeline: degenerate graphs and schedules
// that exercise boundaries the benchmarks never hit.
#include <gtest/gtest.h>

#include "bench_suite/random_cdfg.h"
#include "cdfg/eval.h"
#include "core/allocator.h"
#include "core/verify.h"
#include "datapath/simulator.h"
#include "problem_at_slack.h"
#include "sched/asap_alap.h"
#include "util/strings.h"

namespace salsa {
namespace {

TEST(EdgeCases, SingleOperationDesign) {
  Cdfg g("one");
  const ValueId a = g.add_input("a");
  const ValueId b = g.add_input("b");
  g.add_output(g.add_op(OpKind::kAdd, a, b, "s"), "o");
  g.validate();
  HwSpec hw;
  EXPECT_EQ(min_schedule_length(g, hw), 2);  // compute at 0, sample at 1
  const ProblemBundle pb =
      make_problem_at_slack(std::move(g), hw, 0, SpareRegisters{0});
  Binding bind = initial_allocation(*pb.problem);
  check_legal(bind);
  Netlist nl(bind);
  EXPECT_EQ(random_equivalence_check(nl, 3, 1), "");
}

TEST(EdgeCases, PureStateRotationLengthOne) {
  // st := st + 1 each step, schedulable in a single control step.
  Cdfg g("tick");
  const ValueId st = g.add_state("st");
  const ValueId one = g.add_const(1);
  const ValueId nxt = g.add_op(OpKind::kAdd, st, one, "inc");
  g.set_state_next(st, nxt);
  g.validate();
  HwSpec hw;
  EXPECT_EQ(min_schedule_length(g, hw), 1);
  Schedule s(g, hw, 1);
  s.validate();
  AllocProblem prob(s, FuPool::standard(FuBudget{1, 0}), SpareRegisters{0});
  Binding b = initial_allocation(prob);
  check_legal(b);
  // The storage occupies its register every step (len == L == 1).
  EXPECT_EQ(prob.lifetimes().storage(0).len, 1);
  Netlist nl(b);
  std::vector<std::vector<int64_t>> inputs(6);  // no input nodes
  const int64_t init[] = {5};
  const SimResult r = simulate(nl, inputs, init, 5);
  (void)r;  // no outputs to check; the state must still advance
  // Behavioural check via the evaluator path instead:
  Evaluator ev(g, init);
  for (int i = 0; i < 5; ++i) ev.step({});
  EXPECT_EQ(ev.states()[0], 10);
}

TEST(EdgeCases, AllConstOperands) {
  // An op whose both operands are constants: free interconnect, still
  // computes and lands in a register.
  Cdfg g("consts");
  const ValueId c1 = g.add_const(6);
  const ValueId c2 = g.add_const(7);
  g.add_output(g.add_op(OpKind::kMul, c1, c2, "p"), "o");
  g.validate();
  HwSpec hw;
  const ProblemBundle pb =
      make_problem_at_slack(std::move(g), hw, 0, SpareRegisters{0});
  Binding b = initial_allocation(*pb.problem);
  const CostBreakdown cost = evaluate_cost(b);
  EXPECT_EQ(cost.muxes, 0);
  Netlist nl(b);
  std::vector<std::vector<int64_t>> inputs(3);
  const SimResult r = simulate(nl, inputs, {}, 2);
  EXPECT_EQ(r.outputs[1][0], 42);
}

TEST(EdgeCases, DeadValueStillLandsSomewhere) {
  // A computed value nobody reads: one landing cell, no reads, legal, and
  // the rest of the design is unaffected.
  Cdfg g("dead");
  const ValueId a = g.add_input("a");
  const ValueId c = g.add_const(2);
  (void)g.add_op(OpKind::kAdd, a, c, "unused");
  g.add_output(g.add_op(OpKind::kMul, a, c, "used"), "o");
  g.validate();
  HwSpec hw;
  const ProblemBundle pb =
      make_problem_at_slack(std::move(g), hw, 1, SpareRegisters{1});
  Binding b = initial_allocation(*pb.problem);
  check_legal(b);
  Netlist nl(b);
  EXPECT_EQ(random_equivalence_check(nl, 3, 2), "");
}

TEST(EdgeCases, ValueReadTwiceBySameOp) {
  // x*x: one value feeding both operand slots of one multiplier.
  Cdfg g("square");
  const ValueId x = g.add_input("x");
  g.add_output(g.add_op(OpKind::kMul, x, x, "sq"), "o");
  g.validate();
  EXPECT_EQ(g.value(x).consumers.size(), 2u);
  HwSpec hw;
  const ProblemBundle pb =
      make_problem_at_slack(std::move(g), hw, 0, SpareRegisters{0});
  Binding b = initial_allocation(*pb.problem);
  check_legal(b);
  Netlist nl(b);
  EXPECT_EQ(random_equivalence_check(nl, 3, 3), "");
}

TEST(EdgeCases, LongHoldAcrossManyIdleSteps) {
  // A value produced at step 0 and consumed at step 19: 19 hold segments.
  Cdfg g("hold");
  const ValueId a = g.add_input("a");
  const ValueId c = g.add_const(3);
  const ValueId v = g.add_op(OpKind::kAdd, a, c, "v");
  g.add_output(v, "o");
  g.validate();
  Schedule s(g, HwSpec{}, 20);
  s.set_start(g.producer(v), 0);
  s.set_start(g.output_nodes()[0], 19);
  s.validate();
  AllocProblem prob(s, FuPool::standard(FuBudget{1, 0}), 2);
  Binding b = initial_allocation(prob);
  check_legal(b);
  EXPECT_EQ(prob.lifetimes().storage(prob.lifetimes().storage_of(v)).len, 19);
  // Keep the input and the value in distinct registers: pure holds, no mux.
  {
    StorageBinding& sa = b.sto(prob.lifetimes().storage_of(a));
    StorageBinding& sv = b.sto(prob.lifetimes().storage_of(v));
    sa.cells[0][0].reg = 0;
    for (auto& seg : sv.cells) seg[0].reg = 1;
    check_legal(b);
  }
  EXPECT_EQ(evaluate_cost(b).muxes, 0);
  Netlist nl(b);
  EXPECT_EQ(random_equivalence_check(nl, 2, 4), "");
}

TEST(EdgeCases, EveryOpOnOneFuSerialSchedule) {
  // A chain scheduled fully serially on a single ALU and multiplier.
  Cdfg g("serial");
  const ValueId a = g.add_input("a");
  const ValueId c = g.add_const(2);
  ValueId v = a;
  for (int i = 0; i < 5; ++i)
    v = g.add_op(i % 2 ? OpKind::kMul : OpKind::kAdd, v, c,
                 numbered("n", i));
  g.add_output(v, "o");
  g.validate();
  HwSpec hw;
  const ProblemBundle pb =
      make_problem_at_slack(std::move(g), hw, 2, SpareRegisters{1});
  EXPECT_EQ(pb.problem->fus().of_class(FuClass::kAlu).size(), 1u);
  EXPECT_EQ(pb.problem->fus().of_class(FuClass::kMul).size(), 1u);
  Binding b = initial_allocation(*pb.problem);
  Netlist nl(b);
  EXPECT_EQ(random_equivalence_check(nl, 3, 5), "");
}

TEST(EdgeCases, ManyOutputsShareOneValue) {
  Cdfg g("fanout");
  const ValueId a = g.add_input("a");
  const ValueId c = g.add_const(2);
  const ValueId v = g.add_op(OpKind::kAdd, a, c, "v");
  for (int i = 0; i < 4; ++i) g.add_output(v, numbered("o", i));
  g.validate();
  HwSpec hw;
  const ProblemBundle pb =
      make_problem_at_slack(std::move(g), hw, 1, SpareRegisters{1});
  Binding b = initial_allocation(*pb.problem);
  check_legal(b);
  Netlist nl(b);
  EXPECT_EQ(random_equivalence_check(nl, 3, 6), "");
}

TEST(EdgeCases, AllocatorHandlesLargeRandomGraphs) {
  RandomCdfgParams p;
  p.num_ops = 60;
  p.num_inputs = 4;
  p.num_states = 3;
  p.seed = 99;
  Cdfg g = make_random_cdfg(p);
  HwSpec hw;
  const ProblemBundle pb =
      make_problem_at_slack(std::move(g), hw, 3, SpareRegisters{2});
  AllocatorOptions opts;
  opts.improve.max_trials = 3;
  opts.improve.moves_per_trial = 500;
  const AllocationResult res = allocate(*pb.problem, opts);
  EXPECT_TRUE(verify(res.binding).empty());
  Netlist nl(res.binding);
  EXPECT_EQ(random_equivalence_check(nl, 3, 7), "");
}

TEST(EdgeCases, BindingCopyIsIndependent) {
  Cdfg g("copy");
  const ValueId a = g.add_input("a");
  const ValueId c = g.add_const(1);
  g.add_output(g.add_op(OpKind::kAdd, a, c, "v"), "o");
  g.validate();
  HwSpec hw;
  const ProblemBundle pb =
      make_problem_at_slack(std::move(g), hw, 1, SpareRegisters{1});
  Binding b1 = initial_allocation(*pb.problem);
  Binding b2 = b1;
  const NodeId op = pb.graph->operations()[0];
  b2.op(op).swap = !b1.op(op).swap;
  EXPECT_NE(b1.op(op).swap, b2.op(op).swap);
}

}  // namespace
}  // namespace salsa
