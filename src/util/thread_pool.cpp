#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>

#include "util/args.h"
#include "util/diagnostics.h"

namespace salsa {

namespace {

// True while this thread runs an index of a parallel_for, so a nested call
// runs inline instead of spawning.
// salsa-lint: allow(thread-local-scratch-discipline) a nesting flag, not scratch: every parallel_for saves it, sets it while its indices run and restores it
thread_local bool inside_parallel_for = false;

}  // namespace

int default_thread_count() {
  if (const char* env = std::getenv("SALSA_THREADS")) {
    const long long v = parse_int("SALSA_THREADS", env, 0, 4096);
    if (v >= 1) return static_cast<int>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

int Parallelism::resolve() const {
  return threads > 0 ? threads : default_thread_count();
}

void parallel_for(const Parallelism& par, int n,
                  const std::function<void(int)>& fn) {
  SALSA_CHECK_MSG(n >= 0, "parallel_for needs a non-negative index count");
  if (n == 0) return;
  const int participants =
      inside_parallel_for ? 1 : std::min(par.resolve(), n);
  std::vector<std::exception_ptr> errors(static_cast<size_t>(n));
  std::atomic<int> next{0};
  // One participant's share: claim indices until the cursor passes n.
  auto drain = [&] {
    const bool outer = inside_parallel_for;
    inside_parallel_for = true;
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        fn(i);
      } catch (...) {
        errors[static_cast<size_t>(i)] = std::current_exception();
      }
    }
    inside_parallel_for = outer;
  };
  {
    // A jthread joins when destroyed, so every helper is joined before
    // `errors`, `next` and `fn` go away, even if spawning a later one throws.
    std::vector<std::jthread> helpers;
    helpers.reserve(static_cast<size_t>(participants - 1));
    for (int t = 1; t < participants; ++t) helpers.emplace_back(drain);
    drain();
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace salsa
