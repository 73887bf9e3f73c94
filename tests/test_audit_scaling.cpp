// The audit wall on the generated scaling corpus (frontend/generate.h):
// large-design sampling of the O(design) invariant battery (the size-based
// rate, AuditorOptions::every = 0), the exact every-transaction rate behind
// SALSA_CHECK=full (every = 1), the mutation proof that a *sampled* auditor
// still catches seeded index corruption, and the steady-state no-rehash pin
// on the engine's pre-reserved hash tables.
#include <gtest/gtest.h>

#include "analysis/auditor.h"
#include "analysis/fuzz.h"
#include "core/allocator.h"
#include "core/initial.h"
#include "core/moves.h"
#include "core/search_engine.h"
#include "frontend/generate.h"
#include "util/flat_map.h"
#include "util/rng.h"

namespace salsa {
namespace {

GeneratedDesign cascade(int target_ops) {
  GenParams p;
  p.family = GenFamily::kFilterCascade;
  p.target_ops = target_ops;
  p.seed = 1;
  return generate_design(p);
}

// Above the size threshold the auditor samples: the wall still stands (the
// fuzz run passes every audited battery) but only every ops/64-th
// transaction pays it — without this, a 10k-op audited search is O(design)
// per move and the scaling corpus is unusable under SALSA_CHECK=1.
TEST(AuditScaling, SamplingEngagesAboveThreshold) {
  const GeneratedDesign d = cascade(2500);
  ASSERT_GT(d.num_ops, AuditorOptions::kExactUpToOps)
      << "design must exceed the default threshold";
  FuzzParams p;
  p.seed = 3;
  p.transactions = 1500;
  p.name = "audit-scaling";
  const FuzzResult res = run_move_fuzz(*d.problem, p);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_GT(res.audit.audited, 0);
  EXPECT_LT(res.audit.audited, res.audit.txns)
      << "auditor audited every transaction of a " << d.num_ops
      << "-op design — large-design sampling did not engage";
  // ops/64 sampling: audited count lands near txns/(ops/64); x4 slack
  // tolerates the +1-phase rounding, none for an off-by-a-factor rate.
  const long expect = res.audit.txns / (static_cast<long>(d.num_ops) / 64);
  EXPECT_LE(res.audit.audited, 4 * (expect + 1));
}

// Designs at or below the threshold keep the historical exact behavior:
// every transaction is audited, nothing about small-design runs changed.
TEST(AuditScaling, SmallDesignsStillAuditEveryTransaction) {
  const GeneratedDesign d = cascade(400);
  ASSERT_LE(d.num_ops, AuditorOptions::kExactUpToOps);
  FuzzParams p;
  p.seed = 3;
  p.transactions = 300;
  p.name = "audit-small";
  const FuzzResult res = run_move_fuzz(*d.problem, p);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.audit.audited, res.audit.txns);
}

// every = 1 (what CheckMode::kAuditFull / SALSA_CHECK=full selects) audits
// every transaction on any size: the exact mode survives for pinning down
// which transaction first corrupts state.
TEST(AuditScaling, FullModeAuditsEveryTransactionOnLargeDesigns) {
  const GeneratedDesign d = cascade(2500);
  FuzzParams p;
  p.seed = 3;
  p.transactions = 40;  // every transaction is O(design): keep the run short
  p.audit.every = 1;
  p.name = "audit-full";
  const FuzzResult res = run_move_fuzz(*d.problem, p);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.audit.audited, res.audit.txns);
}

// SALSA_CHECK mapping: "full" is its own mode now, and the audit modes stay
// distinct from kOff/kFinal (run_search installs an auditor for both).
TEST(AuditScaling, CheckModeFullIsDistinctFromAudit) {
  EXPECT_NE(CheckMode::kAudit, CheckMode::kAuditFull);
}

// The mutation proof that sampling keeps the wall honest: corrupt the flat
// connection index between audited transactions (a FlatMap erase that skips
// its backward-shift compaction, orphaning displaced keys) and the sampled
// run must still fail — orphaned refcounts are *persistent* drift, so
// either FlatMap's own missing-key CHECK trips on a later decrement or the
// next audited commit's rebuild cross-check reports the divergence. A
// sampled auditor that let this run pass would mean sampling opened a
// window corruption can hide in.
TEST(AuditScaling, SampledAuditorStillCatchesSeededIndexCorruption) {
  const GeneratedDesign d = cascade(2500);
  // The 10th compacting erase: the engine's pre-reserved tables run at a
  // low load factor on this design, so probe chains are short and only a
  // few dozen erases per run displace anything (~16 under this seed) — the
  // mutation must land on one that does.
  flat_map_hooks::break_backward_shift_after =
      flat_map_hooks::erase_count + 10;
  FuzzParams p;
  p.seed = 5;
  p.transactions = 4000;
  p.commit_prob = 0.7;  // commit-biased: churn the index through erases
  p.name = "audit-mutation";
  const FuzzResult res = run_move_fuzz(*d.problem, p);
  EXPECT_EQ(flat_map_hooks::break_backward_shift_after, 0)
      << "the armed index mutation never fired; the run proved nothing";
  flat_map_hooks::break_backward_shift_after = 0;  // in case it never fired
  EXPECT_FALSE(res.ok)
      << "seeded index corruption survived a sampled audited fuzz run";
  EXPECT_LT(res.audit.audited, res.audit.txns + 1)
      << "sanity: the run must have been the sampled flavor";
}

// Steady-state no-rehash pin: the engine pre-reserves its two index tables
// from problem dimensions. After warmup, a long move loop on a mid-size
// generated design must never grow a table again: a rehash here is a
// mis-sized reserve silently reintroducing allocation stalls into the hot
// path.
TEST(AuditScaling, NoRehashInSteadyStateMoveLoop) {
  const GeneratedDesign d = cascade(2500);
  const Binding start =
      initial_allocation(*d.problem, InitialOptions{.seed = 5});
  SearchEngine eng(start);
  Rng rng(11);
  const MoveConfig moves = MoveConfig::salsa_default();
  long done = 0;
  auto drive = [&](long feasible_budget) {
    const long until = done + feasible_budget;
    for (long i = 0; i < 20 * feasible_budget && done < until; ++i) {
      if (!eng.propose(moves.pick(rng), rng)) continue;
      ++done;
      if (done % 2 == 0) {
        eng.commit();
      } else {
        eng.rollback();
      }
    }
  };
  drive(3000);  // warmup
  const size_t steady = eng.index_rehashes();
  drive(9000);
  EXPECT_GT(done, 10000) << "move loop starved; the pin saw too few moves";
  EXPECT_EQ(eng.index_rehashes(), steady)
      << "an engine table rehashed in the steady-state move loop";
}

}  // namespace
}  // namespace salsa
