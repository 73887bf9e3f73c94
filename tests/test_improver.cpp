#include <gtest/gtest.h>

#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "core/allocator.h"
#include "core/annealer.h"
#include "core/verify.h"

namespace salsa {
namespace {

ImproveParams quick_params(uint64_t seed) {
  ImproveParams p;
  p.max_trials = 6;
  p.moves_per_trial = 600;
  p.uphill_per_trial = 20;
  p.seed = seed;
  return p;
}

TEST(Improver, ReducesCostFromInitial) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding start = initial_allocation(*ctx.problem);
  const double before = evaluate_cost(start).total;
  ImproveParams p = quick_params(1);
  p.max_trials = 12;
  p.moves_per_trial = 3000;
  const ImproveResult res = improve(start, p);
  EXPECT_LT(res.cost.total, before);
  EXPECT_TRUE(verify(res.best).empty());
}

TEST(Improver, DeterministicForFixedSeed) {
  const auto ctx = make_problem(make_dct(), HwSpec{}, 10, SpareRegisters{1});
  Binding start = initial_allocation(*ctx.problem);
  const ImproveResult a = improve(start, quick_params(42));
  const ImproveResult b = improve(start, quick_params(42));
  EXPECT_DOUBLE_EQ(a.cost.total, b.cost.total);
  EXPECT_EQ(a.cost.muxes, b.cost.muxes);
  EXPECT_EQ(a.stats.accepted, b.stats.accepted);
}

TEST(Improver, StatsAreConsistent) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 19, SpareRegisters{1});
  Binding start = initial_allocation(*ctx.problem);
  const ImproveResult res = improve(start, quick_params(3));
  EXPECT_GT(res.stats.attempted, 0);
  EXPECT_LE(res.stats.accepted, res.stats.attempted);
  EXPECT_LE(res.stats.uphill, res.stats.accepted);
  EXPECT_GE(res.stats.trials, 1);
  EXPECT_LE(res.stats.trials, quick_params(3).max_trials);
}

TEST(Improver, UphillBudgetZeroIsGreedyDescent) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding start = initial_allocation(*ctx.problem);
  ImproveParams p = quick_params(5);
  p.uphill_per_trial = 0;
  const ImproveResult res = improve(p.max_trials ? start : start, p);
  EXPECT_EQ(res.stats.uphill, 0);
  EXPECT_LE(res.cost.total, evaluate_cost(start).total);
}

TEST(Improver, BestNeverWorseThanStart) {
  const auto ctx = make_problem(make_dct(), HwSpec{}, 12, SpareRegisters{0});
  Binding start = initial_allocation(*ctx.problem);
  for (uint64_t seed : {7u, 8u, 9u}) {
    const ImproveResult res = improve(start, quick_params(seed));
    EXPECT_LE(res.cost.total, evaluate_cost(start).total);
  }
}

TEST(Annealer, ProducesLegalResult) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding start = initial_allocation(*ctx.problem);
  AnnealParams p;
  p.num_temps = 8;
  p.moves_per_temp = 400;
  p.seed = 2;
  const ImproveResult res = anneal(start, p);
  EXPECT_TRUE(verify(res.best).empty());
  EXPECT_LE(res.cost.total, evaluate_cost(start).total);
}

TEST(Allocator, EndToEndWithRestarts) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  AllocatorOptions opts;
  opts.improve = quick_params(1);
  opts.restarts = 2;
  const AllocationResult res = allocate(*ctx.problem, opts);
  EXPECT_TRUE(verify(res.binding).empty());
  EXPECT_EQ(res.merging.muxes_before, res.cost.muxes);
  EXPECT_LE(res.merging.muxes_after, res.merging.muxes_before);
  EXPECT_EQ(res.stats.trials,
            res.stats.trials);  // accumulated over both restarts
  EXPECT_GE(res.stats.trials, 2);
}

TEST(Allocator, RestartsNeverHurt) {
  const auto ctx = make_problem(make_dct(), HwSpec{}, 10, SpareRegisters{1});
  AllocatorOptions one;
  one.improve = quick_params(1);
  one.restarts = 1;
  AllocatorOptions three = one;
  three.restarts = 3;
  const double c1 = allocate(*ctx.problem, one).cost.total;
  const double c3 = allocate(*ctx.problem, three).cost.total;
  EXPECT_LE(c3, c1);
}

}  // namespace
}  // namespace salsa
