// Future-work experiment #1 (Section 7): bus-oriented interconnect [6] as
// an alternative to the point-to-point model. For each workload the binding
// is allocated point-to-point (traditional and SALSA), then its data
// movements are re-allocated onto shared buses; the table compares the two
// interconnect bills.
#include <cstdio>

#include "bench_common.h"
#include "bench_suite/ar_filter.h"
#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "interconnect/bus_model.h"
#include "util/table.h"

using namespace salsa;
using namespace salsa::benchharness;

int main() {
  std::printf(
      "Bus-oriented interconnect vs point-to-point (per allocated design)\n"
      "pt-muxes: equivalent 2-1 muxes after merging; buses/sink-muxes/\n"
      "extra-drivers: the bus re-allocation of the same data movements.\n\n");
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
  t.header({"workload", "model", "pt-muxes", "buses", "sink-muxes",
            "extra-drivers", "status"});
  for (const Case& c : cases) {
    ProblemBundle b = make_problem(c.make(), HwSpec{}, c.len,
                                   SpareRegisters{c.extra_regs});
    const Comparison cmp = run_comparison(*b.problem, 11);
    auto add_row = [&](const char* model, const AllocationResult& res) {
      const BusAllocation buses = bus_allocate(res.binding);
      const auto bad = verify_bus_allocation(res.binding, buses);
      t.row({c.name, model, std::to_string(res.merging.muxes_after),
             std::to_string(buses.num_buses()),
             std::to_string(buses.sink_muxes()),
             std::to_string(buses.extra_drivers()),
             bad.empty() ? "ok" : "INVALID"});
    };
    if (cmp.traditional_feasible) add_row("traditional", cmp.traditional);
    add_row("salsa", cmp.salsa);
    t.separator();
  }
  std::printf("%s\n", t.render().c_str());
  return 0;
}
