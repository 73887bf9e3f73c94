#include <gtest/gtest.h>

#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "core/cost.h"
#include "core/initial.h"
#include "core/moves.h"
#include "core/verify.h"

namespace salsa {
namespace {

// Property: every move kind preserves binding legality, from any reachable
// state, for any seed.
struct MoveCase {
  const char* name;
  MoveKind kind;
};

class MovePreservesLegality : public ::testing::TestWithParam<MoveCase> {};

TEST_P(MovePreservesLegality, OnEwfWithSpareRegisters) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{2});
  Rng rng(2024);
  Binding b = initial_allocation(*ctx.problem);
  const MoveConfig all = MoveConfig::salsa_default();
  int applied = 0;
  for (int i = 0; i < 400; ++i) {
    // Interleave: scramble with random moves, then apply the move under
    // test and verify after each application.
    const MoveKind scramble = all.pick(rng);
    apply_random_move(b, scramble, rng);
    if (apply_random_move(b, GetParam().kind, rng)) {
      ++applied;
      const auto bad = verify(b);
      ASSERT_TRUE(bad.empty()) << move_name(GetParam().kind) << ": " << bad[0];
    }
  }
  EXPECT_GT(applied, 0) << "move never found a feasible instance";
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, MovePreservesLegality,
    ::testing::Values(MoveCase{"F1", MoveKind::kFuExchange},
                      MoveCase{"F2", MoveKind::kFuMove},
                      MoveCase{"F3", MoveKind::kOperandReverse},
                      MoveCase{"F4", MoveKind::kBindPass},
                      MoveCase{"F5", MoveKind::kUnbindPass},
                      MoveCase{"R1", MoveKind::kSegExchange},
                      MoveCase{"R2", MoveKind::kSegMove},
                      MoveCase{"R3", MoveKind::kValExchange},
                      MoveCase{"R4", MoveKind::kValMove},
                      MoveCase{"R5", MoveKind::kValSplit},
                      MoveCase{"R6", MoveKind::kValMerge},
                      MoveCase{"R7", MoveKind::kReadRetarget}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Moves, LongRandomWalkStaysLegalOnDct) {
  const auto ctx = make_problem(make_dct(), HwSpec{}, 10, SpareRegisters{3});
  Rng rng(7);
  Binding b = initial_allocation(*ctx.problem);
  const MoveConfig all = MoveConfig::salsa_default();
  for (int i = 0; i < 2000; ++i) {
    apply_random_move(b, all.pick(rng), rng);
    if (i % 200 == 0) {
      const auto bad = verify(b);
      ASSERT_TRUE(bad.empty()) << "after " << i << " moves: " << bad[0];
    }
  }
  EXPECT_TRUE(verify(b).empty());
}

TEST(Moves, TraditionalConfigPreservesTraditionalForm) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 19, SpareRegisters{2});
  Rng rng(11);
  Binding b =
      initial_allocation(*ctx.problem, InitialOptions{.allow_splits = false});
  ASSERT_TRUE(b.is_traditional());
  const MoveConfig trad = MoveConfig::traditional();
  for (int i = 0; i < 800; ++i) {
    apply_random_move(b, trad.pick(rng), rng);
  }
  EXPECT_TRUE(verify(b).empty());
  EXPECT_TRUE(b.is_traditional());
}

TEST(Moves, SplitThenMergeRoundTrips) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{3});
  Rng rng(3);
  Binding b = initial_allocation(*ctx.problem);
  const double cost0 = evaluate_cost(b).total;
  Binding c = b;
  int splits = 0;
  for (int i = 0; i < 50; ++i)
    splits += apply_random_move(c, MoveKind::kValSplit, rng);
  ASSERT_GT(splits, 0);
  // Merging must be able to remove every copy again.
  for (int i = 0; i < 5000; ++i)
    if (!apply_random_move(c, MoveKind::kValMerge, rng)) break;
  int copies = 0;
  for (int sid = 0; sid < ctx.problem->lifetimes().num_storages(); ++sid)
    for (const auto& seg : c.sto(sid).cells) copies += seg.size() > 1;
  EXPECT_EQ(copies, 0);
  EXPECT_TRUE(verify(c).empty());
  // The merged binding is a plain one-cell-per-segment allocation again, so
  // its register usage cannot exceed the starting point's by more than the
  // scratch registers the walk had available.
  EXPECT_LE(evaluate_cost(c).regs_used, ctx.problem->num_regs());
  (void)cost0;
}

TEST(Moves, OperandReverseTogglesBack) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{2});
  Rng rng(5);
  Binding b = initial_allocation(*ctx.problem);
  Binding c = b;
  // Two reversals of the same op cancel; with a fixed seed the same op is
  // picked when the state is identical.
  Rng r1(9), r2(9);
  ASSERT_TRUE(apply_random_move(c, MoveKind::kOperandReverse, r1));
  ASSERT_TRUE(apply_random_move(c, MoveKind::kOperandReverse, r2));
  for (NodeId n : ctx.graph->operations())
    EXPECT_EQ(b.op(n).swap, c.op(n).swap);
}

TEST(Moves, PassThroughBindAndUnbindInverse) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{3});
  Rng rng(13);
  Binding b = initial_allocation(*ctx.problem);
  // Create transfers first (segment moves), then bind/unbind passes.
  for (int i = 0; i < 60; ++i) apply_random_move(b, MoveKind::kSegMove, rng);
  const double before = evaluate_cost(b).total;
  Binding c = b;
  int bound = 0;
  for (int i = 0; i < 30; ++i)
    bound += apply_random_move(c, MoveKind::kBindPass, rng);
  if (bound == 0) GTEST_SKIP() << "no transfers to pass through";
  for (int i = 0; i < 500; ++i)
    if (!apply_random_move(c, MoveKind::kUnbindPass, rng)) break;
  EXPECT_DOUBLE_EQ(evaluate_cost(c).total, before);
}

TEST(Moves, ValMoveCollapsesCopies) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{3});
  Rng rng(17);
  Binding b = initial_allocation(*ctx.problem);
  for (int i = 0; i < 40; ++i) apply_random_move(b, MoveKind::kValSplit, rng);
  for (int i = 0; i < 300; ++i) apply_random_move(b, MoveKind::kValMove, rng);
  EXPECT_TRUE(verify(b).empty());
}

TEST(Moves, ConfigPickRespectsDisabledKinds) {
  MoveConfig c = MoveConfig::no_pass_through();
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const MoveKind k = c.pick(rng);
    EXPECT_NE(k, MoveKind::kBindPass);
    EXPECT_NE(k, MoveKind::kUnbindPass);
  }
  MoveConfig s = MoveConfig::no_split();
  for (int i = 0; i < 500; ++i) {
    const MoveKind k = s.pick(rng);
    EXPECT_NE(k, MoveKind::kValSplit);
    EXPECT_NE(k, MoveKind::kValMerge);
  }
}

TEST(Moves, NamesAreStable) {
  EXPECT_STREQ(move_name(MoveKind::kFuExchange), "F1:fu-exchange");
  EXPECT_STREQ(move_name(MoveKind::kValSplit), "R5:value-split");
  EXPECT_STREQ(move_name(MoveKind::kReadRetarget), "R7:read-retarget");
}

}  // namespace
}  // namespace salsa
