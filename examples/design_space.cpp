// Design-space exploration: the whole toolchain on one table. For each
// latency budget the EWF is scheduled with minimum FUs, allocated with the
// extended binding model, and characterised along every axis the library
// models — functional units, registers, interconnect (point-to-point muxes
// and bus re-allocation), register files, controller width, and estimated
// wirelength. The latency/area/interconnect trade-off curve this prints is
// the classic high-level-synthesis design-space picture.
//
// Usage: design_space [benchmark=ewf|dct|ar|ewf2]
#include <cstdio>

#include "bench_suite/ar_filter.h"
#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "core/allocator.h"
#include "datapath/controller.h"
#include "interconnect/bus_model.h"
#include "layout/linear_placement.h"
#include "regfile/regfile.h"
#include "sched/asap_alap.h"
#include "util/table.h"

using namespace salsa;

namespace {

int run(const Cdfg& g) {
  HwSpec hw;
  const int cp = min_schedule_length(g, hw);
  std::printf("design space of '%s' (critical path %d steps)\n\n",
              g.name().c_str(), cp);

  TextTable t;
  t.header({"steps", "ALUs", "MULs", "regs", "muxes", "buses", "regfiles",
            "ctrl bits", "wirelen"});
  for (int L = cp; L <= cp + 8; L += 2) {
    const ProblemBundle bundle = make_problem(g, hw, L, SpareRegisters{1});
    AllocatorOptions opts;
    opts.improve.max_trials = 8;
    opts.improve.moves_per_trial = 3000;
    const AllocationResult res = allocate(*bundle.problem, opts);

    Netlist nl(res.binding);
    const ControllerStats cs = analyze_controller(nl);
    const BusAllocation buses = bus_allocate(res.binding);
    const RegFileAssignment rf =
        bind_register_files(res.binding, RegFileSpec{});
    const LinearPlacement place = place_linear(res.binding, 7);

    t.row({std::to_string(L), std::to_string(bundle.fus.alu),
           std::to_string(bundle.fus.mul), std::to_string(res.cost.regs_used),
           std::to_string(res.merging.muxes_after),
           std::to_string(buses.num_buses()), std::to_string(rf.num_files),
           std::to_string(cs.total_bits()), fmt(place.wirelength, 0)});
  }
  std::printf("%s\n", t.render().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "ewf";
  // Argument errors are usage errors: a diagnostic and exit status 2.
  if (argc > 2) {
    std::fprintf(stderr,
                 "error: usage: design_space [benchmark=ewf|dct|ar|ewf2]\n");
    return 2;
  }
  if (which != "ewf" && which != "dct" && which != "ar" && which != "ewf2") {
    std::fprintf(stderr,
                 "error: unknown benchmark '%s' (expected ewf, dct, ar or "
                 "ewf2)\n",
                 which.c_str());
    return 2;
  }
  try {
    return run(which == "dct"    ? make_dct()
               : which == "ar"   ? make_ar_filter()
               : which == "ewf2" ? make_ewf_unrolled(2)
                                 : make_ewf());
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
