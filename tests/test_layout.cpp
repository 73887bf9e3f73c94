#include <gtest/gtest.h>

#include "bench_suite/diffeq.h"
#include "bench_suite/ewf.h"
#include "core/improver.h"
#include "core/initial.h"
#include "layout/linear_placement.h"

namespace salsa {
namespace {

TEST(Layout, AffinityIsSymmetricAndPortFree) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  const auto w = module_affinity(b);
  const int n = static_cast<int>(w.size());
  EXPECT_EQ(n, ctx.problem->fus().size() + ctx.problem->num_regs());
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(w[static_cast<size_t>(i)][static_cast<size_t>(i)], 0);
    for (int j = 0; j < n; ++j)
      EXPECT_EQ(w[static_cast<size_t>(i)][static_cast<size_t>(j)],
                w[static_cast<size_t>(j)][static_cast<size_t>(i)]);
  }
}

TEST(Layout, PlacementIsAPermutation) {
  const auto ctx = make_problem(make_diffeq(), HwSpec{}, 10, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  const LinearPlacement p = place_linear(b, 3);
  std::vector<bool> used(p.slot_of.size(), false);
  for (int s : p.slot_of) {
    ASSERT_GE(s, 0);
    ASSERT_LT(s, static_cast<int>(p.slot_of.size()));
    EXPECT_FALSE(used[static_cast<size_t>(s)]);
    used[static_cast<size_t>(s)] = true;
  }
}

TEST(Layout, ReportedWirelengthMatchesEvaluator) {
  const auto ctx = make_problem(make_diffeq(), HwSpec{}, 10, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  const LinearPlacement p = place_linear(b, 5);
  EXPECT_DOUBLE_EQ(p.wirelength, placement_wirelength(b, p));
}

TEST(Layout, DescentBeatsRandomOrder) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  const LinearPlacement placed = place_linear(b, 7);
  // Identity placement as a baseline.
  LinearPlacement identity = placed;
  for (size_t i = 0; i < identity.slot_of.size(); ++i)
    identity.slot_of[i] = static_cast<int>(i);
  EXPECT_LE(placed.wirelength, placement_wirelength(b, identity));
}

TEST(Layout, DeterministicPerSeed) {
  const auto ctx = make_problem(make_diffeq(), HwSpec{}, 10, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  const LinearPlacement a = place_linear(b, 13);
  const LinearPlacement c = place_linear(b, 13);
  EXPECT_EQ(a.slot_of, c.slot_of);
  EXPECT_DOUBLE_EQ(a.wirelength, c.wirelength);
}

TEST(Layout, FewerConnectionsShorterWiring) {
  // The SALSA allocation of the quickstart loop has fewer connections than
  // an arbitrary initial allocation; its optimised wirelength should not be
  // longer. (A smoke test of the layout/allocation interaction, not a
  // theorem.)
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding rough = initial_allocation(*ctx.problem);
  ImproveParams params;
  params.max_trials = 6;
  params.moves_per_trial = 2000;
  const ImproveResult improved = improve(rough, params);
  const double w_rough = place_linear(rough, 5).wirelength;
  const double w_improved = place_linear(improved.best, 5).wirelength;
  EXPECT_LE(w_improved, w_rough * 1.1);
}

}  // namespace
}  // namespace salsa
