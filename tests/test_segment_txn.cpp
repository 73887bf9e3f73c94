// Segment-windowed transactions (DESIGN.md "Segment-windowed
// transactions"): the proof obligation is *identical cost integers*, not
// merely close ones — a windowed normalize/claim-staging walk must produce
// the exact deltas, cost breakdowns and bindings of the whole-storage walk
// it replaces. These tests drive the window-vs-whole differential
// (run_segment_diff) on every standard target plus a generated cascade,
// prove the seeded window-shrink mutation is caught, and pin byte-identical
// search trajectories with windows on vs off.
#include <gtest/gtest.h>

#include <string>

#include "analysis/digest.h"
#include "analysis/fuzz.h"
#include "core/initial.h"
#include "core/moves.h"
#include "core/search_engine.h"
#include "frontend/generate.h"
#include "util/rng.h"

namespace salsa {
namespace {

// --- window-vs-whole differential on the standard targets -------------------

class SegmentDiff : public ::testing::TestWithParam<std::string> {};

TEST_P(SegmentDiff, WindowedCostsMatchWholeStorageExactly) {
  FuzzTarget target(GetParam());
  FuzzParams p;
  p.seed = 20260809;
  p.transactions = 1200;
  p.name = "segment-" + GetParam();
  const SegmentDiffResult res = run_segment_diff(target.prob(), p);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.divergence, -1);
  EXPECT_EQ(res.transactions, p.transactions);
  EXPECT_GT(res.commits, 0);
  // The comparison is not vacuous: a healthy run must actually take the
  // windowed path (touch a sub-range, not fall back to whole-storage).
  EXPECT_GT(res.windowed, 0);
}

INSTANTIATE_TEST_SUITE_P(StandardTargets, SegmentDiff,
                         ::testing::ValuesIn(FuzzTarget::names()),
                         [](const auto& info) { return info.param; });

// The scaling corpus is where windowing pays: long storages whose segments
// a move touches one at a time. The differential must hold there too.
TEST(SegmentDiffGenerated, FilterCascadeMatchesWholeStorage) {
  GenParams gp;
  gp.family = GenFamily::kFilterCascade;
  gp.target_ops = 1000;
  gp.seed = 1;
  const GeneratedDesign d = generate_design(gp);
  FuzzParams p;
  p.seed = 5;
  p.transactions = 400;
  p.uniform_kinds = false;  // weighted draws: the tuned search's move mix
  p.name = "segment-cascade";
  const SegmentDiffResult res = run_segment_diff(*d.problem, p);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.divergence, -1);
  EXPECT_GT(res.commits, 0);
  EXPECT_GT(res.windowed, 0);
}

// A differential that cannot find feasible transactions proves nothing —
// starvation must fail loudly, never read as a clean pass.
TEST(SegmentDiffStarvation, StarvedRunIsAFailure) {
  FuzzTarget target("ewf");
  FuzzParams p;
  p.seed = 1;
  p.transactions = 100;
  p.proposal_cap_factor = 0;  // zero proposal budget: guaranteed starvation
  const SegmentDiffResult res = run_segment_diff(target.prob(), p);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("starved"), std::string::npos) << res.failure;
}

// --- mutation test: a shrunken claim window must be caught ------------------

TEST(SegmentMutation, SeededWindowShrinkIsCaught) {
  // Arm the one-shot hook: the Nth windowed re-add drops the last segment
  // from its claim window (add side only), leaving occupancy/refcount/key
  // drift behind. The differential forces hook-fired transactions to
  // commit, so the drift lands in committed state.
  FuzzTarget target("ewf");
  seg_window_hooks::break_claim_window_after =
      seg_window_hooks::windowed_txns + 25;
  FuzzParams p;
  p.seed = 17;
  p.transactions = 2000;
  p.name = "segment-mutant";
  const SegmentDiffResult res = run_segment_diff(target.prob(), p);
  const bool fired = seg_window_hooks::break_claim_window_after == 0;
  seg_window_hooks::break_claim_window_after = 0;  // disarm on any path
  ASSERT_TRUE(fired) << "the window-shrink hook never fired";
  ASSERT_FALSE(res.ok)
      << "a shrunken claim window slipped past the differential";
  EXPECT_GE(res.divergence, 0);
}

// --- search trajectories: windows on vs off ---------------------------------

TEST(SegmentTrajectory, WindowedSearchIsByteIdenticalToWholeStorage) {
  // Two engines from the same start binding — one windowed (the default),
  // one forced to whole-storage walks — driven by the same per-step RNG
  // streams derive_seed(99, step) must propose identical candidates
  // (feasibility, bit-identical delta) and walk digest-identical bindings.
  FuzzTarget target("ewf");
  const Binding start =
      initial_allocation(target.prob(), InitialOptions{.seed = 11});
  const MoveConfig moves = MoveConfig::salsa_default();
  SearchEngine win(start);
  SearchEngine whole(start);
  whole.set_segment_windows(false);
  long commits = 0;
  for (long step = 0; step < 600; ++step) {
    Rng rw(derive_seed(99, static_cast<uint64_t>(step)));
    Rng rf(derive_seed(99, static_cast<uint64_t>(step)));
    const auto dw = win.propose(moves.pick(rw), rw);
    const auto df = whole.propose(moves.pick(rf), rf);
    ASSERT_EQ(dw.has_value(), df.has_value()) << "step " << step;
    if (!dw) continue;
    ASSERT_EQ(*dw, *df) << "step " << step;  // bit-identical
    // Keep downhill moves plus a deterministic uphill slice.
    if (*dw > 0 && step % 5 != 0) {
      win.rollback();
      whole.rollback();
      continue;
    }
    win.commit();
    whole.commit();
    ++commits;
    ASSERT_EQ(digest_binding(win.binding()), digest_binding(whole.binding()))
        << "bindings diverged after commit at step " << step;
  }
  EXPECT_GT(commits, 0);
  EXPECT_EQ(win.cost().total, whole.cost().total);
  EXPECT_EQ(win.cost().connections, whole.cost().connections);
  EXPECT_EQ(win.cost().muxes, whole.cost().muxes);
  std::string why;
  EXPECT_TRUE(win.index_matches_rebuild(&why)) << why;
}

}  // namespace
}  // namespace salsa
