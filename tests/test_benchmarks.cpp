// Census and structural checks of the remaining benchmark suite, generator
// properties of the random-CDFG factory, and the par-invariance regression
// for the parallel table generators.
#include <gtest/gtest.h>

#include "bench_suite/ar_filter.h"
#include "bench_suite/diffeq.h"
#include "bench_suite/fir.h"
#include "bench_suite/harness.h"
#include "bench_suite/random_cdfg.h"
#include "cdfg/eval.h"
#include "sched/asap_alap.h"

namespace salsa {
namespace {

TEST(Diffeq, Census) {
  Cdfg g = make_diffeq();
  EXPECT_EQ(g.count(OpKind::kMul), 6);
  EXPECT_EQ(g.count(OpKind::kAdd), 2);
  EXPECT_EQ(g.count(OpKind::kSub), 2);
  EXPECT_EQ(g.input_nodes().size(), 4u);
  EXPECT_EQ(g.output_nodes().size(), 3u);
}

TEST(Diffeq, EulerStepValues) {
  Cdfg g = make_diffeq();
  Evaluator ev(g);
  // x=1, y=2, u=3, dx=4.
  const int64_t in[] = {1, 2, 3, 4};
  const auto out = ev.step(in);  // x1, y1, u1
  EXPECT_EQ(out[0], 1 + 4);
  EXPECT_EQ(out[1], 2 + 3 * 4);
  EXPECT_EQ(out[2], 3 - 3 * 1 * 3 * 4 - 3 * 2 * 4);
}

TEST(ArFilter, Census) {
  Cdfg g = make_ar_filter();
  EXPECT_EQ(g.count(OpKind::kMul), 16);
  EXPECT_EQ(g.count(OpKind::kAdd), 12);
  EXPECT_EQ(g.state_nodes().size(), 4u);
  EXPECT_EQ(static_cast<int>(g.operations().size()), 28);
}

TEST(ArFilter, StateRecurrenceIsObservable) {
  Cdfg g = make_ar_filter();
  Evaluator ev(g);
  const int64_t in[] = {1};
  const auto y0 = ev.step(in);
  const auto y1 = ev.step(in);
  EXPECT_NE(y0[0], y1[0]) << "state feedback must alter the second output";
}

TEST(Fir8, Census) {
  Cdfg g = make_fir8();
  EXPECT_EQ(g.count(OpKind::kMul), 8);
  EXPECT_EQ(g.count(OpKind::kAdd), 7);
  EXPECT_EQ(g.count(OpKind::kNop), 7);
  EXPECT_EQ(g.state_nodes().size(), 7u);
}

TEST(Fir8, ComputesTappedDelaySum) {
  // Coefficients are 2 (current) then 3,5,7,9,11,13,15 down the delay line.
  Cdfg g = make_fir8();
  Evaluator ev(g);
  std::vector<int64_t> ys;
  for (int i = 0; i < 4; ++i) {
    const int64_t in[] = {i == 0 ? 1 : 0};  // impulse
    ys.push_back(ev.step(in)[0]);
  }
  EXPECT_EQ(ys[0], 2);  // c0 * 1
  EXPECT_EQ(ys[1], 3);  // first delay tap
  EXPECT_EQ(ys[2], 5);
  EXPECT_EQ(ys[3], 7);
}

TEST(Fir8, ShiftChainSchedulesDescending) {
  // The anti-dependences force shift_k to read z_{k-1} no later than the
  // step z_{k-1} is rewritten; a legal schedule exists and validates.
  Cdfg g = make_fir8();
  HwSpec hw;
  const int cp = min_schedule_length(g, hw);
  EXPECT_GE(cp, 8);
  EXPECT_LE(cp, 12);
}

class RandomCdfgProperties : public ::testing::TestWithParam<int> {};

TEST_P(RandomCdfgProperties, AlwaysWellFormedAndSchedulable) {
  RandomCdfgParams p;
  p.seed = static_cast<uint64_t>(GetParam());
  p.num_ops = 8 + GetParam() % 17;
  p.num_states = GetParam() % 4;
  p.num_inputs = 1 + GetParam() % 4;
  p.num_consts = GetParam() % 3;
  Cdfg g = make_random_cdfg(p);
  g.validate();
  EXPECT_EQ(g.state_nodes().size(), static_cast<size_t>(p.num_states));
  // Every non-constant value is consumed, becomes a state, or is an output.
  for (ValueId v = 0; v < g.num_values(); ++v) {
    if (g.is_const_value(v)) continue;
    bool used = !g.value(v).consumers.empty();
    for (NodeId sn : g.state_nodes())
      used |= g.node(sn).state_next == v || g.node(sn).out == v;
    used |= g.node(g.producer(v)).kind == OpKind::kInput;
    EXPECT_TRUE(used) << "value " << g.value(v).name << " is dead";
  }
  // Schedulable: the anti-dependence wiring never creates positive cycles.
  HwSpec hw;
  EXPECT_GT(min_schedule_length(g, hw), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCdfgProperties, ::testing::Range(1, 40));

// --- parallel table generators --------------------------------------------

TEST(TableRows, Table3RowOrderAndValuesThreadCountInvariant) {
  // The config-grid fan-out must not affect what the tables print: rows are
  // seeded by grid position and collected in index order, so the full row
  // set is byte-identical for every thread count. Two restarts per row, as
  // in the real tables, so each row's allocate() fans out inside the row
  // and runs inline.
  benchharness::TableBudget budget;
  budget.max_trials = 2;
  budget.moves_per_trial = 150;
  budget.restarts = 2;
  const auto seq = benchharness::table3_rows(budget, Parallelism{1});
  ASSERT_EQ(seq.size(), 8u);  // 4 schedules x {0, 2} spare registers
  for (int threads : {2, 8}) {
    const auto par = benchharness::table3_rows(budget, Parallelism{threads});
    EXPECT_EQ(par, seq) << "threads=" << threads;
  }
  // The grid enumerates schedules outermost, in ascending length.
  for (size_t i = 1; i < seq.size(); ++i)
    EXPECT_LE(seq[i - 1].steps, seq[i].steps);
}

TEST(TableRows, Table2RowOrderAndValuesThreadCountInvariant) {
  benchharness::TableBudget budget;
  budget.max_trials = 2;
  budget.moves_per_trial = 150;
  budget.restarts = 1;
  const auto seq = benchharness::table2_rows(budget, Parallelism{1});
  ASSERT_EQ(seq.size(), 15u);  // 5 schedules x {0, 1, 2} spare registers
  const auto par = benchharness::table2_rows(budget, Parallelism{4});
  EXPECT_EQ(par, seq);
  // Spot-check the grid shape the renderer's separators rely on.
  EXPECT_EQ(seq[0].steps, 17);
  EXPECT_FALSE(seq[0].pipelined);
  EXPECT_TRUE(seq[3].pipelined);
  EXPECT_EQ(seq[14].steps, 21);
}

}  // namespace
}  // namespace salsa
