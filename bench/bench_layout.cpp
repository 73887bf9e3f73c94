// Future-work experiment #3 (Section 7): a first-order layout model.
// Modules (FUs + registers) are placed on a bit-slice row minimising
// connection-weighted wirelength; the table compares how the two binding
// models' allocations translate into wiring.
#include <cstdio>

#include "bench_common.h"
#include "bench_suite/ar_filter.h"
#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "layout/linear_placement.h"
#include "util/table.h"

using namespace salsa;
using namespace salsa::benchharness;

int main() {
  std::printf(
      "Linear-placement wirelength of allocated datapaths (1-D module row)\n\n");
  struct Case {
    const char* name;
    Cdfg (*make)();
    int len;
    int extra_regs;
  };
  const Case cases[] = {
      {"ewf@17", make_ewf, 17, 1},
      {"ewf@21", make_ewf, 21, 1},
      {"dct@9", make_dct, 9, 2},
      {"ar@16", make_ar_filter, 16, 2},
  };
  TextTable t;
  t.header({"workload", "model", "muxes", "connections", "wirelength"});
  for (const Case& c : cases) {
    ProblemBundle b = make_problem(c.make(), HwSpec{}, c.len,
                                   SpareRegisters{c.extra_regs});
    const Comparison cmp = run_comparison(*b.problem, 13);
    auto add_row = [&](const char* model, const AllocationResult& res) {
      const LinearPlacement p = place_linear(res.binding, 17);
      t.row({c.name, model, std::to_string(res.merging.muxes_after),
             std::to_string(res.cost.connections), fmt(p.wirelength, 0)});
    };
    if (cmp.traditional_feasible) add_row("traditional", cmp.traditional);
    add_row("salsa", cmp.salsa);
    t.separator();
  }
  std::printf("%s\n", t.render().c_str());
  return 0;
}
