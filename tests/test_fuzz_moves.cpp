// SalsaCheck end-to-end tests: the move fuzzer drives thousands of random
// legal/illegal transaction sequences through the SearchEngine under the
// full invariant auditor (verify + index-rebuild + cost + undo-digest
// checks, and the checkpoint-restore checks) on each standard target;
// mutation tests prove the digest checks catch a deliberately broken undo
// and a deliberately incomplete restore; and allocate()'s check modes run
// its searches audited or not without changing a result.
//
// Transaction counts are tuned per build: CI runs the fuzzer at >= 10000
// transactions per target (SALSA_FUZZ_TXNS); plain local ctest runs a
// lighter pass so the suite stays fast.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/digest.h"
#include "analysis/fuzz.h"
#include "core/allocator.h"
#include "core/initial.h"
#include "core/search_engine.h"
#include "core/verify.h"
#include "util/rng.h"

namespace salsa {
namespace {

long fuzz_transactions() {
  if (const char* env = std::getenv("SALSA_FUZZ_TXNS"))
    return std::atol(env);
  return 2000;
}

// --- the fuzzer under the full auditor -------------------------------------

class FuzzMoves : public ::testing::TestWithParam<std::string> {};

TEST_P(FuzzMoves, AuditedTransactionsStayClean) {
  FuzzTarget target(GetParam());
  FuzzParams p;
  p.seed = 20260807;
  p.transactions = fuzz_transactions();
  const FuzzResult res = run_move_fuzz(target.prob(), p);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.transactions, p.transactions);
  EXPECT_EQ(res.commits + res.rollbacks, res.transactions);
  // Uniform kind selection makes infeasible proposals ("illegal" move
  // attempts) inevitable; the auditor checked they left no trace.
  EXPECT_GT(res.infeasible, 0);
  EXPECT_EQ(res.audit.audited, res.audit.txns);  // every=1: all audited
  EXPECT_GE(res.audit.txns, res.transactions);
}

TEST_P(FuzzMoves, ThrottledAuditStillRuns) {
  FuzzTarget target(GetParam());
  FuzzParams p;
  p.seed = 7;
  p.transactions = 500;
  p.audit.every = 16;
  const FuzzResult res = run_move_fuzz(target.prob(), p);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_GT(res.audit.audited, 0);
  EXPECT_LT(res.audit.audited, res.audit.txns);
}

TEST_P(FuzzMoves, AuditedRestoresStayClean) {
  FuzzTarget target(GetParam());
  FuzzParams p;
  p.seed = 11;
  p.transactions = 2000;
  p.reset_every = 250;
  const FuzzResult res = run_move_fuzz(target.prob(), p);
  EXPECT_TRUE(res.ok) << res.failure;
  // Every restore is digest-checked against the checkpoint and, with no
  // sampling on these small targets, cross-checked against a rebuild.
  EXPECT_EQ(res.audit.restores, p.transactions / p.reset_every);
}

INSTANTIATE_TEST_SUITE_P(StandardTargets, FuzzMoves,
                         ::testing::ValuesIn(FuzzTarget::names()),
                         [](const auto& info) { return info.param; });

// --- mutation tests: a broken undo or restore must be caught ---------------

TEST(SalsaCheckMutation, BrokenUndoCaughtByDigestCheck) {
  FuzzTarget target("ewf");
  const auto artifacts =
      std::filesystem::temp_directory_path() / "salsa-fuzz-artifacts";
  std::filesystem::create_directories(artifacts);

  FuzzParams p;
  p.seed = 3;
  p.transactions = 2000;
  p.artifact_dir = artifacts.string();
  p.name = "broken-undo";
  p.inject_broken_undo_at = 25;
  const FuzzResult res = run_move_fuzz(target.prob(), p);
  ASSERT_FALSE(res.ok) << "a broken undo slipped past the auditor";
  EXPECT_NE(res.failure.find("rollback did not restore"), std::string::npos)
      << res.failure;
  // The failure artifact (seed + binding JSON) was written for CI upload.
  ASSERT_FALSE(res.artifact_path.empty());
  std::ifstream in(res.artifact_path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"seed\": 3"), std::string::npos);
  EXPECT_NE(content.str().find("\"binding\""), std::string::npos);
  EXPECT_NE(content.str().find("rollback did not restore"), std::string::npos);
  std::filesystem::remove(res.artifact_path);
}

TEST(SalsaCheckMutation, BrokenUndoCaughtAtEngineLevel) {
  FuzzTarget target("dct");
  Binding start = initial_allocation(target.prob(), InitialOptions{.seed = 9});
  InvariantAuditor auditor;
  SearchEngine eng(start);
  eng.set_observer(&auditor);
  Rng rng(42);
  const MoveConfig moves = MoveConfig::salsa_default();
  for (int attempt = 0; attempt < 1000; ++attempt) {
    if (!eng.propose(moves.pick(rng), rng)) continue;
    eng.inject_broken_undo_for_test();
    EXPECT_THROW(eng.rollback(), Error);
    return;
  }
  FAIL() << "no feasible move found";
}

TEST(SalsaCheckMutation, UnrestoredStorageCaughtByRestoreDigest) {
  FuzzTarget target("ewf");
  FuzzParams p;
  p.seed = 5;
  p.transactions = 2000;
  p.reset_every = 250;
  checkpoint_hooks::break_restore_after = checkpoint_hooks::restores + 2;
  const FuzzResult res = run_move_fuzz(target.prob(), p);
  const bool fired = checkpoint_hooks::break_restore_after == 0;
  checkpoint_hooks::break_restore_after = 0;
  ASSERT_TRUE(fired) << "the restore mutation never fired";
  ASSERT_FALSE(res.ok) << "an unrestored storage slipped past the auditor";
  EXPECT_NE(res.failure.find("restore did not return the binding"),
            std::string::npos)
      << res.failure;
  EXPECT_EQ(res.audit.restores, 2);
}

// --- digest canonicality ---------------------------------------------------

TEST(BindingDigest, EqualBindingsDigestEqual) {
  FuzzTarget target("ewf");
  const Binding a = initial_allocation(target.prob(), InitialOptions{.seed = 4});
  const Binding b = a;
  EXPECT_EQ(digest_binding(a), digest_binding(b));
}

TEST(BindingDigest, EveryFieldKindPerturbsTheDigest) {
  FuzzTarget target("ewf");
  const Binding base =
      initial_allocation(target.prob(), InitialOptions{.seed = 4});
  const uint64_t d0 = digest_binding(base);
  const AllocProblem& prob = target.prob();

  {  // op fu
    Binding b = base;
    b.op(prob.cdfg().operations()[0]).fu += 1;
    EXPECT_NE(digest_binding(b), d0);
  }
  {  // op swap
    Binding b = base;
    b.op(prob.cdfg().operations()[0]).swap ^= true;
    EXPECT_NE(digest_binding(b), d0);
  }
  {  // cell register
    Binding b = base;
    b.sto(0).cells[0][0].reg += 1;
    EXPECT_NE(digest_binding(b), d0);
  }
  {  // cell via
    Binding b = base;
    b.sto(0).cells[0][0].via = 0;
    EXPECT_NE(digest_binding(b), d0);
  }
  {  // cell parent
    Binding b = base;
    b.sto(0).cells[0][0].parent += 1;
    EXPECT_NE(digest_binding(b), d0);
  }
  {  // extra copy cell
    Binding b = base;
    b.sto(0).cells[0].push_back(b.sto(0).cells[0][0]);
    EXPECT_NE(digest_binding(b), d0);
  }
  {  // read retarget
    for (int sid = 0; sid < prob.lifetimes().num_storages(); ++sid) {
      if (prob.lifetimes().storage(sid).reads.empty()) continue;
      Binding b = base;
      b.sto(sid).read_cell[0] += 1;
      EXPECT_NE(digest_binding(b), d0);
      break;
    }
  }
}

TEST(BindingDigest, JsonDumpCarriesDigestAndCost) {
  FuzzTarget target("random");
  const Binding b = initial_allocation(target.prob(), InitialOptions{.seed = 2});
  const std::string json = binding_json(b);
  std::ostringstream want;
  want << std::hex << digest_binding(b);
  EXPECT_NE(json.find(want.str()), std::string::npos);
  EXPECT_NE(json.find("\"ops\""), std::string::npos);
  EXPECT_NE(json.find("\"storages\""), std::string::npos);
  EXPECT_NE(json.find("\"cost\""), std::string::npos);
}

// --- engine self-checks exposed for the auditor ----------------------------

TEST(IndexRebuild, CleanEngineMatchesRebuild) {
  FuzzTarget target("ewf");
  const Binding b = initial_allocation(target.prob(), InitialOptions{.seed = 6});
  SearchEngine eng(b);
  std::string why;
  EXPECT_TRUE(eng.index_matches_rebuild(&why)) << why;
}

// --- checked-mode wiring through allocate() --------------------------------

TEST(CheckedMode, AuditedAllocateProducesLegalResult) {
  FuzzTarget target("ewf");
  AllocatorOptions opts;
  opts.restarts = 2;
  opts.checked = CheckMode::kAudit;
  opts.improve.max_trials = 4;
  opts.improve.moves_per_trial = 300;
  const AllocationResult res = allocate(target.prob(), opts);
  EXPECT_TRUE(verify(res.binding).empty());
  // The auditor observes; it never steers the search.
  opts.checked = CheckMode::kFinal;
  EXPECT_EQ(res.binding, allocate(target.prob(), opts).binding);
}

TEST(CheckedMode, CheckedOffSkipsNothingObservable) {
  FuzzTarget target("random");
  AllocatorOptions opts;
  opts.improve.max_trials = 3;
  opts.improve.moves_per_trial = 200;
  opts.checked = CheckMode::kOff;
  const AllocationResult off = allocate(target.prob(), opts);
  opts.checked = CheckMode::kFinal;
  const AllocationResult fin = allocate(target.prob(), opts);
  // The knob controls checking only — results are identical either way.
  EXPECT_EQ(off.binding, fin.binding);
  EXPECT_EQ(off.cost.total, fin.cost.total);
}

}  // namespace
}  // namespace salsa
