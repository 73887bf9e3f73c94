// Regenerates the paper's Table 3: discrete-cosine-transform allocations for
// four schedules (Section 5 reports four schedules under the same hardware
// assumptions as the EWF). Columns as in bench_table2_ewf. Rows are computed
// in parallel (bench_suite/harness.h:table3_rows); ordering and values are
// identical for any thread count.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/table.h"

using namespace salsa;
using namespace salsa::benchharness;

int main() {
  std::printf("Table 3 — DCT allocations (equivalent 2-1 multiplexers)\n\n");
  const std::vector<TableRow> rows = table3_rows(TableBudget{});
  TextTable t;
  t.header({"csteps", "ALUs", "MULs", "regs", "trad", "trad+merge", "salsa",
            "salsa+merge", "winner"});
  for (size_t i = 0; i < rows.size(); ++i) {
    const TableRow& row = rows[i];
    const std::string trad =
        row.traditional_feasible ? std::to_string(row.trad_muxes) : "*";
    const std::string trad_m =
        row.traditional_feasible ? std::to_string(row.trad_merged) : "*";
    t.row({std::to_string(row.steps), std::to_string(row.alus),
           std::to_string(row.muls), std::to_string(row.regs), trad, trad_m,
           std::to_string(row.salsa_muxes), std::to_string(row.salsa_merged),
           row.winner});
    if (i + 1 == rows.size() || rows[i + 1].steps != row.steps) t.separator();
  }
  std::printf("%s\n", t.render().c_str());
  return 0;
}
