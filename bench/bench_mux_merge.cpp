// Multiplexer-merging post-pass (Section 4): equivalent 2-1 mux counts
// before and after the greedy merge, across the benchmark suite, for both
// binding models.
#include <cstdio>

#include "bench_common.h"
#include "bench_suite/ar_filter.h"
#include "bench_suite/dct.h"
#include "bench_suite/diffeq.h"
#include "bench_suite/ewf.h"
#include "bench_suite/fir.h"
#include "util/table.h"

using namespace salsa;
using namespace salsa::benchharness;

int main() {
  std::printf("Mux merging — 2-1 equivalents before/after the post-pass\n\n");
  struct Case {
    const char* name;
    Cdfg (*make)();
    int extra_len;
    int extra_regs;
  };
  const Case cases[] = {
      {"ewf@17", make_ewf, 0, 1},    {"ewf@19", make_ewf, 2, 1},
      {"dct@9", make_dct, 2, 2},     {"ar@16", make_ar_filter, 1, 2},
      {"fir8", make_fir8, 1, 2},     {"diffeq", make_diffeq, 1, 1},
  };
  TextTable t;
  t.header({"workload", "model", "before", "after", "mux groups"});
  for (const Case& c : cases) {
    HwSpec hw;
    const int len = min_schedule_length(c.make(), hw) + c.extra_len;
    ProblemBundle b =
        make_problem(c.make(), HwSpec{}, len, SpareRegisters{c.extra_regs});
    const Comparison cmp = run_comparison(*b.problem, 7);
    if (cmp.traditional_feasible)
      t.row({c.name, "traditional",
             std::to_string(cmp.traditional.merging.muxes_before),
             std::to_string(cmp.traditional.merging.muxes_after),
             std::to_string(cmp.traditional.merging.muxes.size())});
    t.row({c.name, "salsa", std::to_string(cmp.salsa.merging.muxes_before),
           std::to_string(cmp.salsa.merging.muxes_after),
           std::to_string(cmp.salsa.merging.muxes.size())});
  }
  std::printf("%s\n", t.render().c_str());
  return 0;
}
