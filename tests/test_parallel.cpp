// Parallel search runtime (util/thread_pool.h): the determinism contract —
// results are byte-identical for every thread count — plus the runtime's
// mechanics (index coverage, ordered results, exception propagation, inline
// nesting) and the SplitMix64 seed-stream derivation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "bench_suite/random_cdfg.h"
#include "core/allocator.h"
#include "core/sched_explore.h"
#include "core/verify.h"
#include "sched/fu_search.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace salsa {
namespace {

// ---------------------------------------------------------------- pool ----

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    const int n = 500;
    std::vector<std::atomic<int>> hits(n);
    parallel_for(Parallelism{threads}, n,
                 [&](int i) { hits[static_cast<size_t>(i)]++; });
    for (int i = 0; i < n; ++i) EXPECT_EQ(hits[static_cast<size_t>(i)], 1);
  }
}

TEST(ThreadPool, MapKeepsIndexOrder) {
  for (int threads : {1, 3, 8}) {
    const auto out =
        parallel_map(Parallelism{threads}, 100, [](int i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (int i = 0; i < 100; ++i)
      EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
  }
}

TEST(ThreadPool, PropagatesLowestIndexException) {
  for (int threads : {1, 4}) {
    std::atomic<int> ran{0};
    try {
      parallel_for(Parallelism{threads}, 64, [&](int i) {
        ran++;
        if (i == 7 || i == 50) throw std::runtime_error("boom " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 7");
    }
    // A failing sibling never cancels other indices.
    EXPECT_EQ(ran.load(), 64);
  }
}

TEST(ThreadPool, NestedSubmissionCompletes) {
  // An index that itself fans out: the inner call runs every index inline.
  for (int threads : {1, 2, 8}) {
    std::atomic<long> sum{0};
    parallel_for(Parallelism{threads}, 8, [&](int i) {
      parallel_for(Parallelism{threads}, 8,
                   [&](int j) { sum += i * 8 + j; });
    });
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
  }
}

TEST(ThreadPool, NestedCallsRunOnTheOuterIndexThread) {
  // Five outer indices on four threads leave three threads idle while the
  // last one runs, and each inner index sleeps long enough for an idle
  // thread to pick it up if the runtime let it. None may: a nested call
  // runs inline, so the whole run uses at most `threads` threads.
  const int threads = 4, outer = 5, inner = 16;
  std::vector<std::thread::id> outer_id(outer);
  std::vector<std::thread::id> inner_id(outer * inner);
  parallel_for(Parallelism{threads}, outer, [&](int i) {
    outer_id[static_cast<size_t>(i)] = std::this_thread::get_id();
    parallel_for(Parallelism{threads}, inner, [&](int j) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      inner_id[static_cast<size_t>(i * inner + j)] =
          std::this_thread::get_id();
    });
  });
  std::set<std::thread::id> used(outer_id.begin(), outer_id.end());
  for (int i = 0; i < outer; ++i) {
    for (int j = 0; j < inner; ++j) {
      const std::thread::id id = inner_id[static_cast<size_t>(i * inner + j)];
      EXPECT_EQ(id, outer_id[static_cast<size_t>(i)])
          << "inner index " << j << " of outer index " << i;
      used.insert(id);
    }
  }
  EXPECT_LE(used.size(), static_cast<size_t>(threads));
}

TEST(ThreadPool, ZeroAndOneIndexWork) {
  parallel_for(Parallelism{4}, 0, [](int) { FAIL(); });
  int hits = 0;
  parallel_for(Parallelism{4}, 1, [&](int) { ++hits; });
  EXPECT_EQ(hits, 1);
}

TEST(ThreadPool, ParallelismResolvesToAtLeastOne) {
  EXPECT_GE(Parallelism{}.resolve(), 1);
  EXPECT_EQ(Parallelism{3}.resolve(), 3);
  EXPECT_EQ(Parallelism::sequential_only().resolve(), 1);
  EXPECT_GE(default_thread_count(), 1);
}

// ---------------------------------------------------------- seed streams ----

TEST(SeedStreams, NearbyBasesAndStreamsDoNotCollide) {
  // The additive scheme this replaced (seed + r*7919) collides whenever two
  // user seeds differ by a multiple of the stride; the SplitMix64 streams
  // must keep a dense grid of nearby bases and small stream indices
  // pairwise distinct.
  std::set<uint64_t> seen;
  int count = 0;
  for (uint64_t base = 0; base < 64; ++base) {
    for (uint64_t stream = 0; stream < 64; ++stream) {
      seen.insert(derive_seed(base, stream));
      ++count;
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), count);
}

TEST(SeedStreams, DerivationIsAPureFunction) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
}

// ------------------------------------------------------------ allocate ----

AllocatorOptions restart_opts(int threads) {
  AllocatorOptions opts;
  opts.improve.max_trials = 4;
  opts.improve.moves_per_trial = 700;
  opts.improve.seed = 5;
  opts.initial.seed = 5;
  opts.restarts = 6;
  opts.parallelism.threads = threads;
  return opts;
}

void expect_identical(const AllocationResult& a, const AllocationResult& b) {
  EXPECT_EQ(a.binding, b.binding);
  EXPECT_EQ(a.cost.total, b.cost.total);  // exact, not approximate
  EXPECT_EQ(a.cost.muxes, b.cost.muxes);
  EXPECT_EQ(a.cost.connections, b.cost.connections);
  EXPECT_EQ(a.merging.muxes_after, b.merging.muxes_after);
  EXPECT_TRUE(a.stats == b.stats);
}

TEST(ParallelAllocate, EwfByteIdenticalAcrossThreadCounts) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  const AllocationResult ref = allocate(*ctx.problem, restart_opts(1));
  EXPECT_TRUE(verify(ref.binding).empty());
  for (int threads : {2, 8}) {
    const AllocationResult res = allocate(*ctx.problem, restart_opts(threads));
    expect_identical(ref, res);
  }
}

TEST(ParallelAllocate, DctByteIdenticalAcrossThreadCounts) {
  const auto ctx = make_problem(make_dct(), HwSpec{}, 9, SpareRegisters{2});
  const AllocationResult ref = allocate(*ctx.problem, restart_opts(1));
  EXPECT_TRUE(verify(ref.binding).empty());
  for (int threads : {2, 8}) {
    const AllocationResult res = allocate(*ctx.problem, restart_opts(threads));
    expect_identical(ref, res);
  }
}

TEST(ParallelAllocate, RandomCdfgByteIdenticalAcrossThreadCounts) {
  RandomCdfgParams p;
  p.num_ops = 16;
  p.seed = 9;
  const auto ctx =
      make_problem(make_random_cdfg(p), HwSpec{}, 8, SpareRegisters{1});
  const AllocationResult ref = allocate(*ctx.problem, restart_opts(1));
  for (int threads : {2, 8}) {
    const AllocationResult res = allocate(*ctx.problem, restart_opts(threads));
    expect_identical(ref, res);
  }
}

TEST(ParallelAllocate, StatsAccumulateAllRestarts) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  const AllocationResult res = allocate(*ctx.problem, restart_opts(8));
  EXPECT_GE(res.stats.trials, restart_opts(8).restarts);
}

TEST(ParallelAllocate, SingleRestartMatchesRestartZeroOfMany) {
  // The restart-0 seed stream must not depend on how many restarts run:
  // more restarts can only improve the result, never change its baseline.
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  AllocatorOptions one = restart_opts(4);
  one.restarts = 1;
  const double c1 = allocate(*ctx.problem, one).cost.total;
  const double c6 = allocate(*ctx.problem, restart_opts(4)).cost.total;
  EXPECT_LE(c6, c1);
}

// ---------------------------------------------------- explore_schedules ----

ScheduleExploreParams explore_opts(int threads) {
  ScheduleExploreParams p;
  p.variants = 4;
  p.alloc.improve.max_trials = 3;
  p.alloc.improve.moves_per_trial = 500;
  p.seed = 2;
  p.parallelism.threads = threads;
  return p;
}

TEST(ParallelExplore, ByteIdenticalAcrossThreadCounts) {
  Cdfg g = make_ewf();
  HwSpec hw;
  const FuBudget budget = schedule_min_fu(g, hw, 17).fus;
  const ScheduleExploreResult ref =
      explore_schedules(g, hw, 17, budget, explore_opts(1));
  ASSERT_TRUE(ref.allocation.has_value());
  for (int threads : {2, 8}) {
    const ScheduleExploreResult res =
        explore_schedules(g, hw, 17, budget, explore_opts(threads));
    ASSERT_TRUE(res.allocation.has_value());
    ASSERT_EQ(res.variant_costs.size(), ref.variant_costs.size());
    for (size_t i = 0; i < ref.variant_costs.size(); ++i) {
      EXPECT_EQ(res.variant_costs[i], ref.variant_costs[i]);
      EXPECT_TRUE(res.variant_stats[i] == ref.variant_stats[i]);
    }
    EXPECT_EQ(res.allocation->cost.total, ref.allocation->cost.total);
    EXPECT_EQ(res.allocation->cost.muxes, ref.allocation->cost.muxes);
    // The winning schedules must agree op for op (Binding::operator==
    // cannot compare across distinct AllocProblem instances).
    for (NodeId n : g.operations())
      EXPECT_EQ(res.schedule->start(n), ref.schedule->start(n));
  }
}

TEST(ParallelExplore, NestedParallelismStaysDeterministic) {
  // Variants in parallel, each allocating two restarts, which run inline on
  // the variant's thread — the composed run must still match the fully
  // sequential one.
  Cdfg g = make_ewf();
  HwSpec hw;
  const FuBudget budget = schedule_min_fu(g, hw, 17).fus;
  ScheduleExploreParams seq = explore_opts(1);
  seq.alloc.restarts = 2;
  seq.alloc.parallelism.threads = 1;
  ScheduleExploreParams par = explore_opts(4);
  par.alloc.restarts = 2;
  par.alloc.parallelism.threads = 4;
  const ScheduleExploreResult a = explore_schedules(g, hw, 17, budget, seq);
  const ScheduleExploreResult b = explore_schedules(g, hw, 17, budget, par);
  ASSERT_TRUE(a.allocation && b.allocation);
  EXPECT_EQ(a.allocation->cost.total, b.allocation->cost.total);
  EXPECT_EQ(a.variant_costs, b.variant_costs);
}

}  // namespace
}  // namespace salsa
