// Parallel search runtime: parallel_for/parallel_map over independent
// indices, with a deterministic contract.
//
// The unit of parallel work everywhere in this codebase is an *independent
// index*: restart r of allocate(), variant v of explore_schedules(), row r
// of a paper table, seed s of a benchmark sweep. Each index owns its state
// (a private SearchEngine, a SplitMix64-derived seed stream — see
// util/rng.h:derive_seed) and returns a value; the reduction over results
// always runs on the calling thread in index order. Consequently results are
// byte-identical for every thread count, including 1 — the runtime decides
// only *where* an index runs, never what it computes or how the results are
// combined.
//
// Execution model: spawn and join. A parallel_for starts `participants - 1`
// threads; they and the calling thread claim indices from one atomic cursor
// over [0, n) until it passes n, and every thread is joined before the call
// returns. No thread outlives the call and nothing is shared between calls,
// so the runtime holds no lock. A parallel_for reached from inside an index
// of another one runs its indices inline on the calling thread, so one call
// tree never runs more threads than its outermost call's participants.
//
// Exceptions thrown by fn(i) are captured per index; after every index has
// run, the exception with the lowest index is rethrown on the calling
// thread (again independent of thread count). Remaining indices still run —
// an index is never skipped because a sibling failed.
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

  static Parallelism sequential_only() { return Parallelism{1}; }
};

/// SALSA_THREADS if set to a positive count, else hardware concurrency.
/// SALSA_THREADS must be an integer in [0, 4096] (0 = hardware
/// concurrency); anything else fails.
int default_thread_count();

/// Runs fn(0), ..., fn(n-1) with at most `par.resolve()` concurrent
/// participants (1 when called from inside another parallel_for), blocking
/// until every index has finished. The calling thread participates.
/// Deterministic contract: see file header.
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
