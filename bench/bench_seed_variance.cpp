// Section 5 remark: "due to the random nature of the iterative improvement
// scheme, multiple trials are sometimes necessary to find the best result."
// This harness quantifies the run-to-run variance: the allocator is run with
// ten independent seeds per configuration and the min / median / max mux
// counts are reported, along with how many seeds reach the best value.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace salsa;
using namespace salsa::benchharness;

int main() {
  std::printf(
      "Run-to-run variance of the allocator (10 seeds per configuration)\n\n");
  struct Case {
    const char* name;
    Cdfg (*make)();
    int len;
    bool pipelined;
    int extra_regs;
  };
  const Case cases[] = {
      {"ewf@17", make_ewf, 17, false, 1},
      {"ewf@17P minregs", make_ewf, 17, true, 0},
      {"dct@9", make_dct, 9, false, 1},
  };
  TextTable t;
  t.header({"workload", "min", "median", "max", "seeds at min"});
  for (const Case& c : cases) {
    ProblemBundle b =
        make_problem(c.make(), HwSpec{.pipelined_mul = c.pipelined}, c.len,
                     SpareRegisters{c.extra_regs});
    // Independent seeds fan out with parallel_map; the per-seed results
    // come back in seed order, so the table is identical at any thread
    // count.
    std::vector<int> muxes = parallel_map(Parallelism{}, 10, [&](int i) {
      const uint64_t seed = static_cast<uint64_t>(i) + 1;
      AllocatorOptions opts;
      opts.improve = standard_improve(seed * 37);
      opts.improve.max_trials = 8;
      return allocate(*b.problem, opts).merging.muxes_after;
    });
    std::sort(muxes.begin(), muxes.end());
    const int best = muxes.front();
    const long at_min = std::count(muxes.begin(), muxes.end(), best);
    t.row({c.name, std::to_string(best), std::to_string(muxes[muxes.size() / 2]),
           std::to_string(muxes.back()), std::to_string(at_min) + "/10"});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Multiple restarts are part of the standard harness configuration for\n"
      "exactly this reason (AllocatorOptions::restarts).\n");
  return 0;
}
