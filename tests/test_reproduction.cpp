// Integration test of the paper's headline claims on reduced search budgets
// (the full-budget numbers live in EXPERIMENTS.md / bench_table2_ewf):
//   C1 — the extended model never needs more interconnect than the
//        traditional model under the same engine;
//   C2 — the advantage appears at tight register budgets;
//   C4 — annealing underperforms the trial scheme at equal move budget.
#include <gtest/gtest.h>

#include "baseline/traditional.h"
#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "core/allocator.h"
#include "core/annealer.h"
#include "core/verify.h"

namespace salsa {
namespace {

struct Pair {
  int trad_merged;
  int salsa_merged;
};

Pair compare(const AllocProblem& prob, uint64_t seed) {
  ImproveParams params;
  params.max_trials = 8;
  params.moves_per_trial = 3000;
  params.seed = seed;

  TraditionalOptions topt;
  topt.improve = params;
  AllocationResult trad = allocate_traditional(prob, topt);

  AllocatorOptions sopt;
  sopt.improve = params;
  sopt.improve.seed = seed + 1;
  AllocationResult ext = allocate(prob, sopt);
  ImproveParams refine = params;
  refine.seed = seed + 2;
  ImproveResult r = improve(trad.binding, refine);
  const int ext_merged = std::min(merge_muxes(r.best).muxes_after,
                                  ext.merging.muxes_after);
  return Pair{trad.merging.muxes_after, ext_merged};
}

TEST(Reproduction, C1_ExtendedNeverWorse_Ewf17) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  const Pair p = compare(*ctx.problem, 5);
  EXPECT_LE(p.salsa_merged, p.trad_merged);
}

TEST(Reproduction, C1_ExtendedNeverWorse_Dct9) {
  const auto ctx = make_problem(make_dct(), HwSpec{}, 9, SpareRegisters{1});
  const Pair p = compare(*ctx.problem, 6);
  EXPECT_LE(p.salsa_merged, p.trad_merged);
}

TEST(Reproduction, C2_TightBudgetAdvantage_EwfPipelined) {
  // The paper's dramatic row: 17 steps, pipelined multipliers, minimum
  // registers. The extended model should win outright here.
  const auto ctx = make_problem(make_ewf(), HwSpec{.pipelined_mul = true}, 17,
                                SpareRegisters{0});
  const Pair p = compare(*ctx.problem, 7);
  EXPECT_LT(p.salsa_merged, p.trad_merged);
}

TEST(Reproduction, C4_AnnealingUnderperforms) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding start = initial_allocation(*ctx.problem);
  ImproveParams trial;
  trial.max_trials = 8;
  trial.moves_per_trial = 3000;
  trial.seed = 2;
  const double iter_cost = improve(start, trial).cost.total;
  AnnealParams ap;
  ap.num_temps = 8;
  ap.moves_per_temp = 3000;
  ap.initial_temp = 30.0;
  ap.seed = 2;
  const double anneal_cost = anneal(start, ap).cost.total;
  EXPECT_LT(iter_cost, anneal_cost);
}

TEST(Reproduction, ExtendedFeaturesAppearInWinners) {
  // At the tight budget some winning extended allocation actually uses the
  // model: segments in multiple registers, copies, or pass-throughs. (Not
  // every seed's winner does — a traditional-form local optimum can tie —
  // so scan a few seeds for one that exploits the freedom.)
  const auto ctx = make_problem(make_ewf(), HwSpec{.pipelined_mul = true}, 17,
                                SpareRegisters{0});
  bool found = false;
  for (uint64_t seed = 1; seed <= 10 && !found; ++seed) {
    AllocatorOptions sopt;
    sopt.improve.max_trials = 8;
    sopt.improve.moves_per_trial = 3000;
    sopt.improve.seed = seed;
    const AllocationResult ext = allocate(*ctx.problem, sopt);
    ASSERT_TRUE(verify(ext.binding).empty());
    found = !ext.binding.is_traditional();
  }
  EXPECT_TRUE(found)
      << "no tight-budget winner exploited the extended model in 10 seeds";
}

}  // namespace
}  // namespace salsa
