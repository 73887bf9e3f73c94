#include <gtest/gtest.h>

#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "core/ils.h"
#include "core/initial.h"
#include "core/verify.h"

namespace salsa {
namespace {

IlsParams quick(uint64_t seed) {
  IlsParams p;
  p.iterations = 6;
  p.descent_moves = 1500;
  p.kick_moves = 5;
  p.seed = seed;
  return p;
}

TEST(Ils, ImprovesFromInitial) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding start = initial_allocation(*ctx.problem);
  const double before = evaluate_cost(start).total;
  const ImproveResult res = iterated_local_search(start, quick(1));
  EXPECT_LT(res.cost.total, before);
  EXPECT_TRUE(verify(res.best).empty());
}

TEST(Ils, DeterministicPerSeed) {
  const auto ctx = make_problem(make_dct(), HwSpec{}, 9, SpareRegisters{1});
  Binding start = initial_allocation(*ctx.problem);
  const ImproveResult a = iterated_local_search(start, quick(7));
  const ImproveResult b = iterated_local_search(start, quick(7));
  EXPECT_DOUBLE_EQ(a.cost.total, b.cost.total);
}

TEST(Ils, KicksReportedSeparately) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 19, SpareRegisters{1});
  Binding start = initial_allocation(*ctx.problem);
  const ImproveResult res = iterated_local_search(start, quick(2));
  // Kicks are cost-blind perturbations, not uphill acceptances of the
  // descent policy: they land in their own counter, and the pure-descent
  // loop itself never accepts uphill.
  EXPECT_GT(res.stats.kicks, 0);
  EXPECT_LE(res.stats.kicks,
            static_cast<long>(quick(2).iterations) * quick(2).kick_moves);
  EXPECT_EQ(res.stats.uphill, 0);
  EXPECT_EQ(res.stats.trials, quick(2).iterations);
}

TEST(Ils, NeverWorseThanStart) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{0});
  Binding start = initial_allocation(*ctx.problem);
  for (uint64_t seed : {3u, 4u, 5u}) {
    const ImproveResult res = iterated_local_search(start, quick(seed));
    EXPECT_LE(res.cost.total, evaluate_cost(start).total);
  }
}

TEST(Ils, CompetitiveWithTrialScheme) {
  // Same move budget: ILS should land within a couple of muxes of the
  // trial-based improver (often better — that is why it exists).
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding start = initial_allocation(*ctx.problem);
  ImproveParams trial;
  trial.max_trials = 10;
  trial.moves_per_trial = 3000;
  trial.seed = 9;
  const ImproveResult a = improve(start, trial);
  IlsParams ils;
  ils.iterations = 10;
  ils.descent_moves = 3000;
  ils.seed = 9;
  const ImproveResult b = iterated_local_search(start, ils);
  EXPECT_LE(b.cost.muxes, a.cost.muxes + 3);
}

}  // namespace
}  // namespace salsa
