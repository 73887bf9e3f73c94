// salsa_cli — drive the full flow on a hand-written design file.
//
//   salsa_cli <design.salsa|design.expr> [--steps N] [--pipelined]
//             [--extra-regs N] [--traditional] [--verilog out.v]
//             [--report] [--buses] [--html out.html] [--vcd out.vcd] [--testbench out_tb.v]
//
// `.expr` files use the expression front end (src/frontend/expr.h); any
// other file uses the text format of src/io/text_format.h. If it
// contains a `schedule` section that schedule is used verbatim; otherwise
// the design is scheduled at --steps (default: the critical path) with the
// minimum-FU search.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "baseline/traditional.h"
#include "core/allocator.h"
#include "datapath/controller.h"
#include "datapath/simulator.h"
#include "datapath/testbench.h"
#include "datapath/vcd.h"
#include "datapath/verilog.h"
#include "frontend/expr.h"
#include "interconnect/bus_model.h"
#include "io/html_report.h"
#include "io/report.h"
#include "io/text_format.h"
#include "sched/asap_alap.h"
#include "sched/fu_search.h"
#include "util/args.h"
#include "util/rng.h"

using namespace salsa;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: salsa_cli <design.salsa> [--steps N] [--pipelined] "
                 "[--extra-regs N] [--traditional] [--verilog out.v] "
                 "[--report] [--buses] [--html out.html] [--vcd out.vcd] [--testbench out_tb.v]\n");
    return 2;
  }
  int steps = 0, extra_regs = 1;
  bool pipelined = false, traditional = false, want_report = false,
       want_buses = false;
  std::string verilog_path;
  std::string html_path;
  std::string vcd_path, tb_path;
  // Flag errors are usage errors: a diagnostic and exit status 2.
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--steps") {
        steps = static_cast<int>(int_flag(argc, argv, &i, 1, 100000));
      } else if (arg == "--pipelined") {
        pipelined = true;
      } else if (arg == "--extra-regs") {
        extra_regs = static_cast<int>(int_flag(argc, argv, &i, 0, 100000));
      } else if (arg == "--traditional") {
        traditional = true;
      } else if (arg == "--verilog") {
        if (i + 1 >= argc) fail("missing path after --verilog");
        verilog_path = argv[++i];
      } else if (arg == "--html") {
        if (i + 1 >= argc) fail("missing path after --html");
        html_path = argv[++i];
      } else if (arg == "--vcd") {
        if (i + 1 >= argc) fail("missing path after --vcd");
        vcd_path = argv[++i];
      } else if (arg == "--testbench") {
        if (i + 1 >= argc) fail("missing path after --testbench");
        tb_path = argv[++i];
      } else if (arg == "--report") {
        want_report = true;
      } else if (arg == "--buses") {
        want_buses = true;
      } else {
        fail("unknown flag '" + arg + "'");
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  try {
    std::ifstream in(argv[1]);
    if (!in) fail(std::string("cannot open ") + argv[1]);
    const std::string path = argv[1];
    ParsedDesign design;
    if (path.size() > 5 && path.substr(path.size() - 5) == ".expr") {
      design.cdfg = std::make_unique<Cdfg>(compile_expressions(in));
    } else {
      design = parse_design(in);
    }
    Cdfg& g = *design.cdfg;
    std::printf("parsed '%s': %d operations, %zu inputs, %zu states, %zu outputs\n",
                g.name().c_str(), static_cast<int>(g.operations().size()),
                g.input_nodes().size(), g.state_nodes().size(),
                g.output_nodes().size());

    HwSpec hw = design.hw;
    if (!design.schedule.has_value()) {
      hw.pipelined_mul = pipelined;
      const int cp = min_schedule_length(g, hw);
      if (steps == 0) steps = cp;
      if (steps < cp)
        fail("requested " + std::to_string(steps) +
             " steps; critical path is " + std::to_string(cp));
      design.schedule = schedule_min_fu(g, hw, steps).schedule;
      std::printf("scheduled into %d steps\n", steps);
    } else {
      std::printf("using the %d-step schedule from the design file\n",
                  design.schedule->length());
    }
    const Schedule& sched = *design.schedule;
    const FuBudget fus = peak_fu_demand(sched);
    AllocProblem prob(sched, FuPool::standard(fus),
                      SpareRegisters{extra_regs});
    std::printf("resources: %d ALUs, %d MULs, %d registers (min %d)\n",
                fus.alu, fus.mul, prob.num_regs(),
                prob.lifetimes().min_registers());

    AllocationResult res =
        traditional ? allocate_traditional(prob) : allocate(prob);
    std::printf(
        "\nallocation (%s model): %d connections, %d equivalent 2-1 muxes "
        "(%d after merging), %d registers used\n",
        traditional ? "traditional" : "extended", res.cost.connections,
        res.cost.muxes, res.merging.muxes_after, res.cost.regs_used);

    Netlist nl(res.binding);
    const ControllerStats cs = analyze_controller(nl);
    std::printf("controller: %d control bits (%d mux-select, %d reg-enable, "
                "%d fu-select), %d distinct words\n",
                cs.total_bits(), cs.mux_select_bits, cs.reg_enable_bits,
                cs.fu_select_bits, cs.distinct_words);

    const std::string check = random_equivalence_check(nl, 6, 1);
    std::printf("simulation check: %s\n", check.empty() ? "MATCH" : check.c_str());

    if (want_buses) {
      const BusAllocation buses = bus_allocate(res.binding);
      const auto bad = verify_bus_allocation(res.binding, buses);
      std::printf("bus-oriented interconnect: %d buses, %d sink-mux "
                  "equivalents, %d extra drivers (%s)\n",
                  buses.num_buses(), buses.sink_muxes(), buses.extra_drivers(),
                  bad.empty() ? "verified" : bad[0].c_str());
    }
    if (want_report) std::printf("\n%s", allocation_report(res.binding).c_str());
    if (!verilog_path.empty()) {
      write_file(verilog_path, to_verilog(nl, g.name()));
      std::printf("wrote %s\n", verilog_path.c_str());
    }
    if (!html_path.empty()) {
      write_file(html_path, html_report(res.binding, g.name()));
      std::printf("wrote %s\n", html_path.c_str());
    }
    if (!vcd_path.empty() || !tb_path.empty()) {
      // Shared deterministic stimulus for both artifacts.
      Rng rng(7);
      const int iterations = 8;
      std::vector<std::vector<int64_t>> stim(
          iterations + 1, std::vector<int64_t>(g.input_nodes().size(), 0));
      for (auto& vec : stim)
        for (auto& v : vec) v = static_cast<int64_t>(rng.next() % 100);
      std::vector<int64_t> states(g.state_nodes().size(), 0);
      if (!vcd_path.empty()) {
        write_file(vcd_path,
                   dump_vcd(nl, stim, states, iterations, g.name()));
        std::printf("wrote %s\n", vcd_path.c_str());
      }
      if (!tb_path.empty()) {
        write_file(tb_path,
                   to_testbench(nl, stim, states, iterations, g.name()));
        std::printf("wrote %s\n", tb_path.c_str());
      }
    }
    return check.empty() ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
