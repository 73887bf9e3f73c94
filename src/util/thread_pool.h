// Parallel search runtime: a small shared thread pool plus
// parallel_for/parallel_map helpers with a deterministic contract.
//
// The unit of parallel work everywhere in this codebase is an *independent
// index*: restart r of allocate(), variant v of explore_schedules(), lattice
// point p of schedule_min_fu(), seed s of a benchmark sweep. Each index owns
// its state (a private SearchEngine, a SplitMix64-derived seed stream — see
// util/rng.h:derive_seed) and returns a value; the reduction over results
// always runs on the calling thread in index order. Consequently results are
// byte-identical for every thread count, including 1 — the scheduler decides
// only *when* an index runs, never what it computes or how the results are
// combined.
//
// Execution model: a parallel_for posts a batch (an atomic index cursor over
// [0, n)) to the process-wide pool. The calling thread immediately starts
// stealing indices from its own batch; sleeping workers wake and steal from
// the oldest batch that still has unclaimed indices and a free participant
// slot. Nested parallelism needs no special casing: an index that itself
// calls parallel_for posts an inner batch and drains it the same way, so
// forward progress never depends on a worker being available — a pool with
// zero free workers degrades to sequential execution on the caller.
//
// Exceptions thrown by fn(i) are captured per index; after the batch
// completes, the exception with the lowest index is rethrown on the calling
// thread (again independent of thread count). Remaining indices still run —
// an index is never skipped because a sibling failed.
//
// Locking discipline (SalsaLint): the pool's shared state lives behind a
// capability-annotated salsa::Mutex (util/mutex.h) with every guarded
// member SALSA_GUARDED_BY-declared in thread_pool.cpp, so the Clang
// -Wthread-safety leg of CI proves lock/member discipline at compile time
// rather than trusting TSan to hit the interleaving.
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace salsa {

/// Thread-count knob threaded through option structs (AllocatorOptions,
/// ScheduleExploreParams, ...).
struct Parallelism {
  /// Maximum concurrent participants for one parallel_for (the calling
  /// thread counts as one). 0 = auto: the SALSA_THREADS environment
  /// variable if set, otherwise std::thread::hardware_concurrency().
  int threads = 0;

  /// Resolved participant count (always >= 1).
  int resolve() const;
  /// Sequential execution (resolve() == 1)?
  bool sequential() const { return resolve() <= 1; }

  static Parallelism sequential_only() { return Parallelism{1}; }
};

/// SALSA_THREADS if set to a positive count, else hardware concurrency.
/// SALSA_THREADS must be an integer in [0, 4096] (0 = hardware
/// concurrency); anything else fails.
int default_thread_count();

/// Runs fn(0), ..., fn(n-1) with at most `par.resolve()` concurrent
/// participants, blocking until every index has finished. The calling
/// thread participates. Deterministic contract: see file header.
void parallel_for(const Parallelism& par, int n,
                  const std::function<void(int)>& fn);

/// parallel_for that collects fn's return values in index order. T need not
/// be default-constructible (results are staged through std::optional).
template <typename Fn>
auto parallel_map(const Parallelism& par, int n, Fn&& fn)
    -> std::vector<decltype(fn(0))> {
  using T = decltype(fn(0));
  std::vector<std::optional<T>> staged(static_cast<size_t>(n));
  parallel_for(par, n,
               [&](int i) { staged[static_cast<size_t>(i)].emplace(fn(i)); });
  std::vector<T> out;
  out.reserve(static_cast<size_t>(n));
  for (auto& s : staged) out.push_back(std::move(*s));
  return out;
}

}  // namespace salsa
