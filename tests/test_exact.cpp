// The exact branch-and-bound allocator as an optimality oracle: on tiny
// problems the heuristic searches must reach (and never beat, within the
// same binding subspace) the proven optimum.
#include <gtest/gtest.h>

#include "baseline/exact.h"
#include "baseline/traditional.h"
#include "bench_suite/diffeq.h"
#include "bench_suite/random_cdfg.h"
#include "core/allocator.h"
#include "core/verify.h"
#include "problem_at_slack.h"
#include "sched/asap_alap.h"

namespace salsa {
namespace {

Cdfg tiny_graph() {
  Cdfg g("tiny");
  const ValueId a = g.add_input("a");
  const ValueId b = g.add_input("b");
  const ValueId c = g.add_const(3);
  const ValueId v1 = g.add_op(OpKind::kAdd, a, b, "v1");
  const ValueId v2 = g.add_op(OpKind::kMul, v1, c, "v2");
  const ValueId v3 = g.add_op(OpKind::kAdd, v2, a, "v3");
  g.add_output(v3, "o");
  g.validate();
  return g;
}

TEST(Exact, FindsLegalOptimum) {
  const auto ctx =
      make_problem_at_slack(tiny_graph(), HwSpec{}, 1, SpareRegisters{1});
  const auto res = exact_traditional(*ctx.problem);
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(verify(res->best).empty());
  EXPECT_TRUE(res->best.is_traditional());
  EXPECT_GT(res->nodes_visited, 0);
}

TEST(Exact, NodeLimitAborts) {
  const auto ctx =
      make_problem_at_slack(make_diffeq(), HwSpec{}, 2, SpareRegisters{2});
  ExactOptions opts;
  opts.node_limit = 10;
  EXPECT_FALSE(exact_traditional(*ctx.problem, opts).has_value());
}

TEST(Exact, HeuristicNeverBeatsOptimumOnTraditionalSpace) {
  // The traditional allocator searches the same subspace (plus operand
  // swaps, so compare against swap-enumerating exact search).
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    RandomCdfgParams p;
    p.seed = seed;
    p.num_ops = 6;
    p.num_states = 1;
    p.num_inputs = 2;
    p.num_consts = 1;
    const auto ctx = make_problem_at_slack(make_random_cdfg(p), HwSpec{}, 2,
                                           SpareRegisters{1});
    ExactOptions opts;
    opts.enumerate_swaps = true;
    const auto exact = exact_traditional(*ctx.problem, opts);
    if (!exact) continue;  // enumeration too large for this seed
    TraditionalOptions topt;
    topt.improve.max_trials = 10;
    topt.improve.moves_per_trial = 2000;
    const AllocationResult heur = allocate_traditional(*ctx.problem, topt);
    EXPECT_GE(heur.cost.total, exact->cost.total - 1e-9) << "seed " << seed;
  }
}

TEST(Exact, HeuristicUsuallyReachesOptimum) {
  int reached = 0, total = 0;
  for (uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    RandomCdfgParams p;
    p.seed = seed;
    p.num_ops = 5;
    p.num_states = 0;
    p.num_inputs = 2;
    p.num_consts = 1;
    const auto ctx = make_problem_at_slack(make_random_cdfg(p), HwSpec{}, 2,
                                           SpareRegisters{1});
    ExactOptions opts;
    opts.enumerate_swaps = true;
    const auto exact = exact_traditional(*ctx.problem, opts);
    if (!exact) continue;
    ++total;
    TraditionalOptions topt;
    topt.improve.max_trials = 12;
    topt.improve.moves_per_trial = 3000;
    topt.restarts = 2;
    const AllocationResult heur = allocate_traditional(*ctx.problem, topt);
    if (heur.cost.total <= exact->cost.total + 1e-9) ++reached;
  }
  ASSERT_GT(total, 0);
  EXPECT_GE(reached * 2, total) << "heuristic reached optimum on " << reached
                                << "/" << total << " tiny cases";
}

TEST(Exact, ExtendedModelOptimumNoWorse) {
  // The extended binding model subsumes the traditional one, so a decent
  // extended search should match or beat the exact traditional optimum.
  const auto ctx =
      make_problem_at_slack(tiny_graph(), HwSpec{}, 2, SpareRegisters{1});
  ExactOptions opts;
  opts.enumerate_swaps = true;
  const auto exact = exact_traditional(*ctx.problem, opts);
  ASSERT_TRUE(exact.has_value());
  AllocatorOptions sopt;
  sopt.improve.max_trials = 10;
  sopt.improve.moves_per_trial = 2000;
  sopt.restarts = 2;
  const AllocationResult ext = allocate(*ctx.problem, sopt);
  EXPECT_LE(ext.cost.total, exact->cost.total + 1e-9);
}

TEST(Exact, SwapEnumerationHelpsOrEquals) {
  const auto ctx =
      make_problem_at_slack(tiny_graph(), HwSpec{}, 1, SpareRegisters{1});
  const auto without = exact_traditional(*ctx.problem);
  ExactOptions with_swaps;
  with_swaps.enumerate_swaps = true;
  const auto with = exact_traditional(*ctx.problem, with_swaps);
  ASSERT_TRUE(without && with);
  EXPECT_LE(with->cost.total, without->cost.total);
}

}  // namespace
}  // namespace salsa
