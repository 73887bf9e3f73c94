// Register-file pressure of the two binding models: segments concentrate or
// spread register traffic differently, so grouping the allocated registers
// into port-limited files (2R/1W, four registers per file by default) can
// need different file counts for the same workload.
#include <cstdio>

#include "bench_common.h"
#include "bench_suite/ar_filter.h"
#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "regfile/regfile.h"
#include "util/table.h"

using namespace salsa;
using namespace salsa::benchharness;

int main() {
  std::printf(
      "Register-file binding (max 4 regs/file, 2 read + 1 write port)\n\n");
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
  const RegFileSpec spec{};
  TextTable t;
  t.header({"workload", "model", "regs used", "files", "lower bound",
            "status"});
  for (const Case& c : cases) {
    ProblemBundle b = make_problem(c.make(), HwSpec{}, c.len,
                                   SpareRegisters{c.extra_regs});
    const Comparison cmp = run_comparison(*b.problem, 17);
    auto add_row = [&](const char* model, const AllocationResult& res) {
      const RegFileAssignment asg = bind_register_files(res.binding, spec);
      const auto bad = verify_register_files(res.binding, spec, asg);
      t.row({c.name, model, std::to_string(res.binding.regs_used()),
             std::to_string(asg.num_files),
             std::to_string(register_file_lower_bound(res.binding, spec)),
             bad.empty() ? "ok" : "INVALID"});
    };
    if (cmp.traditional_feasible) add_row("traditional", cmp.traditional);
    add_row("salsa", cmp.salsa);
    t.separator();
  }
  std::printf("%s\n", t.render().c_str());
  return 0;
}
