#include <gtest/gtest.h>

#include "baseline/traditional.h"
#include "bench_suite/diffeq.h"
#include "bench_suite/ewf.h"
#include "core/verify.h"

namespace salsa {
namespace {

TEST(Traditional, InitialIsContiguous) {
  const ProblemBundle ctx = make_problem(make_ewf(), {}, 17, SpareRegisters{1});
  Binding b = traditional_initial(*ctx.problem, 1);
  EXPECT_TRUE(verify(b).empty());
  EXPECT_TRUE(b.is_traditional());
}

TEST(Traditional, AllocatorKeepsModelRestriction) {
  const ProblemBundle ctx = make_problem(make_ewf(), {}, 17, SpareRegisters{1});
  TraditionalOptions opts;
  opts.improve.max_trials = 4;
  opts.improve.moves_per_trial = 800;
  const AllocationResult res = allocate_traditional(*ctx.problem, opts);
  EXPECT_TRUE(verify(res.binding).empty());
  EXPECT_TRUE(res.binding.is_traditional());
  EXPECT_EQ(res.cost.muxes, evaluate_cost(res.binding).muxes);
}

TEST(Traditional, BacktrackingHandlesTightBudgets) {
  // At the minimum register count a contiguous placement may need the exact
  // search; it must either succeed or throw a clear error — never crash.
  const ProblemBundle ctx = make_problem(make_ewf(), {}, 17, SpareRegisters{0});
  try {
    Binding b = traditional_initial(*ctx.problem, 1, /*retries=*/2);
    EXPECT_TRUE(b.is_traditional());
    EXPECT_TRUE(verify(b).empty());
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("contiguous"), std::string::npos);
  }
}

TEST(Traditional, DiffeqSmallCase) {
  const ProblemBundle ctx =
      make_problem(make_diffeq(), {}, 10, SpareRegisters{1});
  TraditionalOptions opts;
  opts.improve.max_trials = 3;
  opts.improve.moves_per_trial = 400;
  const AllocationResult res = allocate_traditional(*ctx.problem, opts);
  EXPECT_TRUE(res.binding.is_traditional());
}

}  // namespace
}  // namespace salsa
