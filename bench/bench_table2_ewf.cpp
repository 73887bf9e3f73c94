// Regenerates the paper's Table 2: elliptic-wave-filter allocations across
// schedule lengths (17, 19, 21 control steps), multiplier pipelining, and
// register budgets (the schedule minimum plus 0/1/2 spares, the paper's
// storage-vs-interconnect trade-off). For each row it reports the
// equivalent-2-1-mux counts of the SALSA allocator and of the traditional
// binding model (the stand-in for the "best reported by other researchers"
// column — those tools all use the traditional model; see EXPERIMENTS.md).
//
// Rows are computed in parallel (bench_suite/harness.h:table2_rows);
// ordering and values are identical for any thread count.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/table.h"

using namespace salsa;
using namespace salsa::benchharness;

int main() {
  std::printf("Table 2 — EWF allocations (equivalent 2-1 multiplexers)\n");
  std::printf(
      "'trad' = traditional binding model under the same search engine;\n"
      "'salsa' = extended binding model; '*' marks rows where the\n"
      "traditional model has no feasible contiguous placement at all.\n\n");

  const std::vector<TableRow> rows = table2_rows(TableBudget{});

  TextTable t;
  t.header({"csteps", "mults", "ALUs", "MULs", "regs", "trad", "trad+merge",
            "salsa", "salsa+merge", "winner"});
  for (size_t i = 0; i < rows.size(); ++i) {
    const TableRow& row = rows[i];
    const std::string trad =
        row.traditional_feasible ? std::to_string(row.trad_muxes) : "*";
    const std::string trad_m =
        row.traditional_feasible ? std::to_string(row.trad_merged) : "*";
    t.row({std::to_string(row.steps), row.pipelined ? "pipe" : "non-pipe",
           std::to_string(row.alus), std::to_string(row.muls),
           std::to_string(row.regs), trad, trad_m,
           std::to_string(row.salsa_muxes), std::to_string(row.salsa_merged),
           row.winner});
    // One separator per (steps, pipelining) block, as the grid is ordered.
    if (i + 1 == rows.size() || rows[i + 1].steps != row.steps ||
        rows[i + 1].pipelined != row.pipelined)
      t.separator();
  }
  std::printf("%s\n", t.render().c_str());
  return 0;
}
