// Non-default hardware assumptions: two-step adders, three-step multipliers
// and the unrolled EWF. The whole pipeline — scheduling, lifetimes,
// allocation, simulation — must stay consistent under every timing variant.
#include <gtest/gtest.h>

#include "bench_suite/diffeq.h"
#include "bench_suite/ewf.h"
#include "cdfg/eval.h"
#include "core/allocator.h"
#include "core/verify.h"
#include "datapath/simulator.h"
#include "problem_at_slack.h"
#include "sched/asap_alap.h"

namespace salsa {
namespace {

TEST(HwVariants, SlowAdders) {
  HwSpec hw;
  hw.add_delay = 2;
  Cdfg g = make_diffeq();
  EXPECT_GT(min_schedule_length(g, hw), min_schedule_length(g, HwSpec{}));
  const auto ctx =
      make_problem_at_slack(make_diffeq(), hw, 1, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  check_legal(b);
  Netlist nl(b);
  EXPECT_EQ(random_equivalence_check(nl, 4, 3), "");
}

TEST(HwVariants, SlowAddersForbidPassThroughs) {
  // With two-step adders no FU class forwards combinationally in one step:
  // F4 must find no candidates and verify must reject a forced one.
  HwSpec hw;
  hw.add_delay = 2;
  const auto ctx = make_problem_at_slack(make_ewf(), hw, 2, SpareRegisters{2});
  Binding b = initial_allocation(*ctx.problem);
  Rng rng(1);
  // Manufacture transfers, then check the move never binds a pass-through.
  for (int i = 0; i < 50; ++i) apply_random_move(b, MoveKind::kSegMove, rng);
  for (int i = 0; i < 50; ++i)
    EXPECT_FALSE(apply_random_move(b, MoveKind::kBindPass, rng));
  // And a hand-forced pass-through is illegal.
  const Lifetimes& lt = ctx.problem->lifetimes();
  for (int sid = 0; sid < lt.num_storages() ; ++sid) {
    StorageBinding& sb = b.sto(sid);
    for (size_t seg = 1; seg < sb.cells.size(); ++seg) {
      Cell& c = sb.cells[seg][0];
      const Cell& parent = sb.cells[seg - 1][static_cast<size_t>(c.parent)];
      if (parent.reg == c.reg) continue;
      c.via = ctx.problem->fus().pass_capable()[0];
      EXPECT_FALSE(verify(b).empty());
      return;
    }
  }
  GTEST_SKIP() << "no transfer cell materialised";
}

TEST(HwVariants, ThreeCycleMultipliers) {
  HwSpec hw;
  hw.mul_delay = 3;
  const auto ctx =
      make_problem_at_slack(make_diffeq(), hw, 2, SpareRegisters{2});
  Binding b = initial_allocation(*ctx.problem);
  Netlist nl(b);
  EXPECT_EQ(random_equivalence_check(nl, 4, 5), "");
}

TEST(HwVariants, ThreeCyclePipelinedMultipliers) {
  HwSpec hw;
  hw.mul_delay = 3;
  hw.pipelined_mul = true;
  const auto ctx = make_problem_at_slack(make_ewf(), hw, 3, SpareRegisters{2});
  Binding b = initial_allocation(*ctx.problem);
  Netlist nl(b);
  EXPECT_EQ(random_equivalence_check(nl, 4, 7), "");
}

TEST(HwVariants, UnrolledEwfCensusAndBehaviour) {
  Cdfg g2 = make_ewf_unrolled(2);
  EXPECT_EQ(g2.count(OpKind::kAdd), 52);
  EXPECT_EQ(g2.count(OpKind::kMul), 16);
  EXPECT_EQ(g2.input_nodes().size(), 2u);
  EXPECT_EQ(g2.output_nodes().size(), 2u);
  EXPECT_EQ(g2.state_nodes().size(), 7u);
  // One unrolled iteration == two plain iterations.
  Cdfg g1 = make_ewf();
  Evaluator e1(g1), e2(g2);
  Rng rng(9);
  for (int it = 0; it < 3; ++it) {
    const int64_t xa = static_cast<int64_t>(rng.next() % 100);
    const int64_t xb = static_cast<int64_t>(rng.next() % 100);
    const int64_t ina[] = {xa};
    const int64_t inb[] = {xb};
    const auto ya = e1.step(ina);
    const auto yb = e1.step(inb);
    const int64_t in2[] = {xa, xb};
    const auto y2 = e2.step(in2);
    EXPECT_EQ(y2[0], ya[0]);
    EXPECT_EQ(y2[1], yb[0]);
  }
}

TEST(HwVariants, UnrolledEwfAllocatesAndSimulates) {
  HwSpec hw;
  Cdfg g = make_ewf_unrolled(2);
  const int cp = min_schedule_length(g, hw);
  const auto ctx =
      make_problem_at_slack(make_ewf_unrolled(2), hw, 2, SpareRegisters{1});
  EXPECT_GE(cp, 17);
  AllocatorOptions opts;
  opts.improve.max_trials = 3;
  opts.improve.moves_per_trial = 600;
  const AllocationResult res = allocate(*ctx.problem, opts);
  EXPECT_TRUE(verify(res.binding).empty());
  Netlist nl(res.binding);
  EXPECT_EQ(random_equivalence_check(nl, 4, 11), "");
}

}  // namespace
}  // namespace salsa
