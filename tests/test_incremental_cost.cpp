// Randomized equivalence test for the incremental-cost SearchEngine: on
// several benchmarks, thousands of move transactions are proposed and then
// either committed or rolled back at random. After every single step the
// engine's incrementally maintained cost breakdown must equal a fresh
// evaluate_cost of its binding, field for field, and a rollback must
// restore the binding (and occupancy) byte-identically. The checkpoint
// tests interleave checkpoint() and restore_checkpoint() with the
// transactions: every restore must land on the checkpoint with each derived
// structure equal to a rebuild, an improve()-style search over restores
// must follow the same trajectory as one that rebuilds its engine from the
// best binding at every reset, and allocate()'s warm-to-extended phase
// switch on one engine must match the extended phase on a fresh engine.
// The operand-swap tests drive F3's lighter touch, alone and mixed with
// F1/F2, against a rebuild after every decision.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/digest.h"
#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "bench_suite/random_cdfg.h"
#include "core/cost.h"
#include "core/improver.h"
#include "core/initial.h"
#include "core/search_engine.h"
#include "core/verify.h"
#include "frontend/generate.h"
#include "io/report.h"

namespace salsa {
namespace {

void expect_same_breakdown(const CostBreakdown& inc, const CostBreakdown& full,
                           long step) {
  ASSERT_EQ(inc.fus_used, full.fus_used) << "at step " << step;
  ASSERT_EQ(inc.regs_used, full.regs_used) << "at step " << step;
  ASSERT_EQ(inc.connections, full.connections) << "at step " << step;
  ASSERT_EQ(inc.muxes, full.muxes) << "at step " << step;
  ASSERT_EQ(inc.total, full.total) << "at step " << step;
}

void expect_same_occupancy(const Occupancy& a, const Occupancy& b, long step) {
  ASSERT_EQ(a.fu_user, b.fu_user) << "at step " << step;
  ASSERT_EQ(a.reg_sto, b.reg_sto) << "at step " << step;
}

// Applies `target` feasible transactions, committing or rolling back at
// random, checking the engine against the full evaluator at every step.
void run_equivalence(const AllocProblem& prob, uint64_t seed, long target) {
  Binding start = initial_allocation(prob, InitialOptions{.seed = seed});
  SearchEngine eng(start);
  const MoveConfig moves = MoveConfig::salsa_default();
  Rng rng(seed * 7919 + 1);

  long steps = 0;
  long committed = 0, rolled_back = 0;
  long proposals = 0;
  const long proposal_cap = target * 50;  // in case feasibility is scarce
  while (steps < target && proposals < proposal_cap) {
    ++proposals;
    const Binding before = eng.binding();
    const double total_before = eng.total();
    const auto delta = eng.propose(moves.pick(rng), rng);
    if (!delta) {
      // A failed proposal must leave no trace.
      ASSERT_EQ(eng.binding(), before);
      ASSERT_EQ(eng.total(), total_before);
      continue;
    }
    ++steps;
    if (rng.chance(0.5)) {
      eng.commit();
      ++committed;
      ASSERT_NEAR(eng.total(), total_before + *delta, 1e-9);
    } else {
      eng.rollback();
      ++rolled_back;
      ASSERT_EQ(eng.binding(), before) << "rollback not byte-identical";
      ASSERT_EQ(eng.total(), total_before);
    }
    expect_same_breakdown(eng.cost(), evaluate_cost(eng.binding()), steps);
    if (steps % 256 == 0) {
      expect_same_occupancy(eng.occupancy(), eng.binding().occupancy(), steps);
      ASSERT_TRUE(verify(eng.binding()).empty()) << "illegal at step " << steps;
    }
  }
  ASSERT_GE(steps, target) << "too few feasible moves";
  EXPECT_GT(committed, 0);
  EXPECT_GT(rolled_back, 0);
  expect_same_occupancy(eng.occupancy(), eng.binding().occupancy(), steps);
  ASSERT_TRUE(verify(eng.binding()).empty());
}

// The equivalence and checkpoint tests' problems: EWF, DCT and a random
// CDFG with two spare registers, and a generated 1k-op filter cascade.
ProblemBundle target_problem(const std::string& name) {
  constexpr SpareRegisters kSpare{2};
  if (name == "ewf") return make_problem(make_ewf(), HwSpec{}, 17, kSpare);
  if (name == "dct") return make_problem(make_dct(), HwSpec{}, 9, kSpare);
  if (name == "random") {
    RandomCdfgParams p;
    p.num_ops = 24;
    p.seed = 5;
    return make_problem(make_random_cdfg(p), HwSpec{}, 12, kSpare);
  }
  EXPECT_EQ(name, "cascade1k");
  return generate_design(GenParams{
      .family = GenFamily::kFilterCascade, .target_ops = 1000, .seed = 1});
}

TEST(IncrementalCost, MatchesFullEvalOnEwf) {
  run_equivalence(*target_problem("ewf").problem, 11, 5000);
}

TEST(IncrementalCost, MatchesFullEvalOnDct) {
  run_equivalence(*target_problem("dct").problem, 23, 5000);
}

TEST(IncrementalCost, MatchesFullEvalOnRandomCdfg) {
  run_equivalence(*target_problem("random").problem, 37, 5000);
}

// --- best-so-far checkpoint -------------------------------------------------

class CheckpointRestore : public ::testing::TestWithParam<std::string> {};

void expect_restore_exact(const SearchEngine& eng, const Binding& shadow,
                          long step) {
  ASSERT_EQ(eng.binding(), shadow) << "at step " << step;
  ASSERT_EQ(eng.checkpoint_binding(), shadow) << "at step " << step;
  ASSERT_EQ(eng.dirty_units(), 0u) << "at step " << step;
  std::string why;
  ASSERT_TRUE(eng.index_matches_rebuild(&why)) << "at step " << step << ": "
                                               << why;
  ASSERT_TRUE(eng.matches_full_eval()) << "at step " << step;
}

// Random commit / rollback / checkpoint / restore sequences, checked
// against a shadow copy of what the checkpoint must hold.
TEST_P(CheckpointRestore, RandomSequencesRestoreExactly) {
  const ProblemBundle t = target_problem(GetParam());
  const AllocProblem& prob = *t.problem;
  const Binding start = initial_allocation(prob, InitialOptions{.seed = 3});
  SearchEngine eng(start);
  Binding shadow = start;
  const MoveConfig moves = MoveConfig::salsa_default();
  Rng rng(91);
  // Percent of steps that checkpoint, and again that restore. The cascade
  // restores rarely, so its dirty sets grow large.
  const bool cascade = GetParam() == "cascade1k";
  const int pct = cascade ? 1 : 4;
  const long steps = cascade ? 1500 : 4000;
  long restores = 0, empty_restores = 0, fu_moved_back = 0;
  for (long step = 0; step < steps; ++step) {
    const int roll = rng.uniform(100);
    if (roll < pct) {
      eng.checkpoint();
      shadow = eng.binding();
      // A restore right after a checkpoint has an empty dirty set and must
      // leave everything as it is.
      const double total = eng.total();
      eng.restore_checkpoint();
      ++restores;
      ++empty_restores;
      ASSERT_EQ(eng.total(), total);
      ASSERT_NO_FATAL_FAILURE(expect_restore_exact(eng, shadow, step));
      continue;
    }
    if (roll < 2 * pct) {
      // Count restores that move an operation back to another FU, which
      // re-files it in the per-FU op index (covered by index_matches_rebuild).
      for (const NodeId n : prob.cdfg().operations()) {
        if (eng.binding().op(n).fu != shadow.op(n).fu) {
          ++fu_moved_back;
          break;
        }
      }
      empty_restores += eng.dirty_units() == 0;
      eng.restore_checkpoint();
      ++restores;
      ASSERT_NO_FATAL_FAILURE(expect_restore_exact(eng, shadow, step));
      continue;
    }
    if (!eng.propose(moves.pick(rng), rng)) continue;
    if (rng.chance(0.6)) {
      eng.commit();
      ASSERT_TRUE(eng.matches_full_eval()) << "at step " << step;
    } else {
      eng.rollback();
    }
    ASSERT_EQ(eng.checkpoint_binding(), shadow) << "at step " << step;
  }
  EXPECT_GE(restores, 20);
  EXPECT_GT(empty_restores, 0);
  EXPECT_GT(fu_moved_back, 0);
  ASSERT_TRUE(verify(eng.binding()).empty());
}

// improve()'s policy twice over one candidate stream: once restoring the
// engine's checkpoint, once rebuilding the engine (statics-sharing
// constructor) from a copy of the best binding at every reset — what the
// search did before the checkpoint existed. Every decision and the final
// bindings must agree.
TEST_P(CheckpointRestore, TrajectoryMatchesEngineRebuiltAtEveryReset) {
  const ProblemBundle t = target_problem(GetParam());
  const Binding start =
      initial_allocation(*t.problem, InitialOptions{.seed = 5});
  const MoveConfig moves = MoveConfig::salsa_default();
  struct Step {
    MoveKind kind;
    double delta;
    bool accepted;
    bool operator==(const Step&) const = default;
  };
  struct Run {
    std::vector<Step> steps;
    long resets = 0;
    uint64_t best_digest = 0;
    uint64_t working_digest = 0;
  };
  auto search = [&](bool incremental) {
    Run run;
    auto eng = std::make_unique<SearchEngine>(start);
    Binding best = start;  // the rebuilding side's copy
    double best_cost = eng->total();
    uint64_t i = 0;
    for (int trial = 0; trial < 40; ++trial) {
      int uphill_left = 4;
      bool improved = false;
      for (int m = 0; m < 100; ++m) {
        Rng r(derive_seed(77, i++));
        const MoveKind kind = moves.pick(r);
        const auto delta = eng->propose(kind, r);
        if (!delta) continue;
        bool accept = *delta <= 0;
        if (!accept && uphill_left > 0 && *delta <= 2) {
          accept = true;
          --uphill_left;
        }
        run.steps.push_back({kind, *delta, accept});
        if (!accept) {
          eng->rollback();
          continue;
        }
        eng->commit();
        if (eng->total() < best_cost - 1e-9) {
          best_cost = eng->total();
          improved = true;
          if (incremental) {
            eng->checkpoint();
          } else {
            best = eng->binding();
          }
        }
      }
      if (improved) continue;
      ++run.resets;
      if (incremental) {
        eng->restore_checkpoint();
      } else {
        eng = std::make_unique<SearchEngine>(best, *eng);
      }
    }
    run.best_digest =
        digest_binding(incremental ? eng->checkpoint_binding() : best);
    run.working_digest = digest_binding(eng->binding());
    return run;
  };
  const Run restored = search(true);
  const Run rebuilt = search(false);
  EXPECT_GT(restored.resets, 0);
  EXPECT_EQ(restored.resets, rebuilt.resets);
  ASSERT_EQ(restored.steps.size(), rebuilt.steps.size());
  for (size_t k = 0; k < restored.steps.size(); ++k)
    ASSERT_EQ(restored.steps[k], rebuilt.steps[k]) << "at decision " << k;
  EXPECT_EQ(restored.best_digest, rebuilt.best_digest);
  EXPECT_EQ(restored.working_digest, rebuilt.working_digest);
}

// allocate()'s restart on one engine: the traditional warm phase, a
// restore_checkpoint() to its best, then the extended phase. The extended
// phase run instead on a fresh engine built from the warm phase's best
// must decide the same proposals, reach the same best and working
// bindings, and count the same stats.
TEST_P(CheckpointRestore, PhaseSwitchMatchesFreshEngine) {
  const ProblemBundle t = target_problem(GetParam());
  const Binding start =
      initial_allocation(*t.problem, InitialOptions{.seed = 5});
  // Two long warm trials end on an improving one, so the switch's restore
  // has units to move back. (The cascade's start splits values, which
  // allocate() would not warm-start; the engine's switch is the same.)
  ImproveParams warm;
  warm.moves = MoveConfig::traditional();
  warm.max_trials = 2;
  warm.moves_per_trial = 1000;
  warm.seed = 11;
  ImproveParams ext;
  ext.max_trials = 8;
  ext.moves_per_trial = 300;
  ext.seed = 12;
  // Decided proposals from an engine's JSONL trace, each record without
  // its leading "step" field.
  auto decisions = [](const std::ostringstream& trace) {
    std::vector<std::string> out;
    std::istringstream lines(trace.str());
    for (std::string line; std::getline(lines, line);)
      out.push_back(line.substr(line.find(',')));
    return out;
  };

  SearchEngine one(start);
  std::ostringstream warm_trace, one_trace;
  one.set_trace(&warm_trace);
  const ImproveStats warm_stats = improve(one, warm);
  const auto warm_kinds = one.kind_stats();
  const size_t dirty_at_switch = one.dirty_units();
  one.restore_checkpoint();
  const Binding warm_best = one.checkpoint_binding();
  ASSERT_NO_FATAL_FAILURE(expect_restore_exact(one, warm_best, -1));
  one.set_trace(&one_trace);
  const ImproveStats one_stats = improve(one, ext);

  SearchEngine fresh(warm_best);
  std::ostringstream fresh_trace;
  fresh.set_trace(&fresh_trace);
  const ImproveStats fresh_stats = improve(fresh, ext);

  EXPECT_GT(warm_stats.accepted, 0);
  EXPECT_GT(dirty_at_switch, 0u);
  const std::vector<std::string> got = decisions(one_trace);
  const std::vector<std::string> want = decisions(fresh_trace);
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < got.size(); ++k)
    ASSERT_EQ(got[k], want[k]) << "at decision " << k;
  EXPECT_EQ(digest_binding(one.checkpoint_binding()),
            digest_binding(fresh.checkpoint_binding()));
  EXPECT_EQ(digest_binding(one.binding()), digest_binding(fresh.binding()));
  EXPECT_EQ(one_stats, fresh_stats);
  // The one engine's per-kind stats cover both phases: the warm phase's
  // plus exactly what the fresh engine counted.
  auto both = warm_kinds;
  for (size_t k = 0; k < both.size(); ++k) both[k] += fresh.kind_stats()[k];
  EXPECT_EQ(one.kind_stats(), both);
  // The trace's step counter runs on across the switch.
  const std::string first_step =
      "{\"step\":" + std::to_string(decisions(warm_trace).size() + 1) + ",";
  EXPECT_EQ(one_trace.str().rfind(first_step, 0), 0u) << first_step;
}

INSTANTIATE_TEST_SUITE_P(
    Problems, CheckpointRestore,
    ::testing::Values("ewf", "dct", "random", "cascade1k"),
    [](const auto& info) { return info.param; });

// --- operand-swap transactions ----------------------------------------------

// F3 takes the engine's operand-swap touch: it retires only the read
// generators feeding the op and leaves the op's FU claim and the produced
// storage's write generator live. Random commit/rollback sequences of F3
// alone, then of F3 mixed with F1/F2 moves that re-touch the same ops
// through the full touch, must keep every derived structure equal to a
// rebuild and the breakdown equal to a full evaluation after every
// decision, and a rollback must restore the binding byte-identically.
class OperandSwapTxn : public ::testing::TestWithParam<std::string> {};

TEST_P(OperandSwapTxn, CommitsAndRollbacksMatchRebuild) {
  const ProblemBundle t = target_problem(GetParam());
  const Binding start =
      initial_allocation(*t.problem, InitialOptions{.seed = 7});
  SearchEngine eng(start);
  MoveConfig swaps_only;
  swaps_only.weight[static_cast<size_t>(MoveKind::kOperandReverse)] = 1;
  MoveConfig mixed = swaps_only;
  mixed.weight[static_cast<size_t>(MoveKind::kOperandReverse)] = 2;
  mixed.weight[static_cast<size_t>(MoveKind::kFuExchange)] = 1;
  mixed.weight[static_cast<size_t>(MoveKind::kFuMove)] = 1;
  Rng rng(29);
  const long per_phase = GetParam() == "cascade1k" ? 100 : 1500;
  long swap_commits = 0, swap_rollbacks = 0, fu_commits = 0;
  for (const MoveConfig* moves : {&swaps_only, &mixed}) {
    long decided = 0;
    for (long proposals = 0; decided < per_phase && proposals < 50 * per_phase;
         ++proposals) {
      const MoveKind kind = moves->pick(rng);
      const Binding before = eng.binding();
      if (!eng.propose(kind, rng)) continue;
      ++decided;
      const bool keep = rng.chance(0.5);
      const bool swap = kind == MoveKind::kOperandReverse;
      if (keep) {
        eng.commit();
        ++(swap ? swap_commits : fu_commits);
      } else {
        eng.rollback();
        swap_rollbacks += swap;
        ASSERT_EQ(eng.binding(), before) << "rollback at decision " << decided;
      }
      std::string why;
      ASSERT_TRUE(eng.index_matches_rebuild(&why))
          << move_name(kind) << " at decision " << decided << ": " << why;
      ASSERT_TRUE(eng.matches_full_eval())
          << move_name(kind) << " at decision " << decided;
    }
    ASSERT_EQ(decided, per_phase) << "too few feasible moves";
  }
  EXPECT_GT(swap_commits, 0);
  EXPECT_GT(swap_rollbacks, 0);
  EXPECT_GT(fu_commits, 0);
  ASSERT_TRUE(verify(eng.binding()).empty());
}

INSTANTIATE_TEST_SUITE_P(Problems, OperandSwapTxn,
                         ::testing::Values("ewf", "dct", "cascade1k"),
                         [](const auto& info) { return info.param; });

TEST(IncrementalCost, TraceStreamsJsonlRecords) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding start = initial_allocation(*ctx.problem);
  std::ostringstream trace;
  ImproveParams p;
  p.max_trials = 2;
  p.moves_per_trial = 200;
  p.trace = &trace;
  improve(start, p);
  const std::string out = trace.str();
  ASSERT_FALSE(out.empty());
  // Every line is one JSON object with the expected fields.
  std::istringstream lines(out);
  std::string line;
  long records = 0;
  while (std::getline(lines, line)) {
    ++records;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"step\":"), std::string::npos);
    EXPECT_NE(line.find("\"move\":"), std::string::npos);
    EXPECT_NE(line.find("\"delta\":"), std::string::npos);
    EXPECT_NE(line.find("\"accepted\":"), std::string::npos);
    EXPECT_NE(line.find("\"uphill_left\":"), std::string::npos);
  }
  EXPECT_GT(records, 0);
}

TEST(IncrementalCost, PerKindStatsAndReport) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding start = initial_allocation(*ctx.problem);
  ImproveParams p;
  p.max_trials = 3;
  p.moves_per_trial = 500;
  const ImproveResult res = improve(start, p);
  long attempted = 0, accepted = 0;
  for (const MoveKindStats& mk : res.stats.by_kind) {
    attempted += mk.attempted;
    accepted += mk.accepted;
    EXPECT_LE(mk.accepted, mk.attempted);
  }
  EXPECT_EQ(attempted, res.stats.attempted);
  EXPECT_EQ(accepted, res.stats.accepted);
  const std::string report = search_stats_report(res.stats);
  EXPECT_NE(report.find("F2:fu-move"), std::string::npos);
  EXPECT_NE(report.find("accept%"), std::string::npos);
  EXPECT_NE(report.find("kicks"), std::string::npos);
}

}  // namespace
}  // namespace salsa
