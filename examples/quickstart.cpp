// Quickstart: the full SALSA flow on a small hand-written CDFG.
//
//   1. describe a behaviour as a CDFG (values, operators, loop state);
//   2. schedule it (time-constrained, minimum functional units);
//   3. allocate a datapath with the extended binding model;
//   4. inspect the result: cost breakdown, register/FU usage, muxes;
//   5. prove it correct on the cycle-accurate simulator.
//
// This mirrors the paper's Figures 1 and 2: the same behaviour bound under
// the traditional model (one register per value) and under the SALSA model
// (per-step segments, copies, pass-throughs).
#include <cstdio>

#include "baseline/traditional.h"
#include "core/allocator.h"
#include "datapath/simulator.h"
#include "sched/asap_alap.h"
#include "util/table.h"

using namespace salsa;

namespace {

int run() {
  // A second-order IIR-ish loop: two states, three adds, two constant
  // multiplies — small enough to read, rich enough to show the model.
  Cdfg g("quickstart");
  const ValueId x = g.add_input("x");
  const ValueId s1 = g.add_state("s1");
  const ValueId s2 = g.add_state("s2");
  const ValueId k1 = g.add_const(3, "k1");
  const ValueId k2 = g.add_const(5, "k2");
  const ValueId t1 = g.add_op(OpKind::kAdd, x, s1, "t1");
  const ValueId m1 = g.add_op(OpKind::kMul, t1, k1, "m1");
  const ValueId t2 = g.add_op(OpKind::kAdd, m1, s2, "t2");
  const ValueId m2 = g.add_op(OpKind::kMul, t2, k2, "m2");
  const ValueId y = g.add_op(OpKind::kAdd, m2, t1, "y");
  g.set_state_next(s1, t2);
  g.set_state_next(s2, y);
  g.add_output(y, "y");
  g.validate();

  // Allocation problem, the paper's way: schedule at the minimum length
  // with the fewest FUs, then allow one register over the schedule's
  // minimum register demand.
  HwSpec hw;  // adders 1 step, multipliers 2 (the paper's assumptions)
  const int length = min_schedule_length(g, hw);
  const ProblemBundle bundle =
      make_problem(std::move(g), hw, length, SpareRegisters{1});
  const AllocProblem& prob = *bundle.problem;
  std::printf("scheduled '%s' into %d control steps: %d ALU(s), %d MUL(s)\n",
              bundle.graph->name().c_str(), length, bundle.fus.alu,
              bundle.fus.mul);
  std::printf("minimum registers for this schedule: %d\n\n",
              prob.lifetimes().min_registers());

  // Traditional binding model (Figure 1) vs the extended model (Figure 2).
  TraditionalOptions topt;
  topt.improve.max_trials = 8;
  topt.improve.moves_per_trial = 2000;
  const AllocationResult trad = allocate_traditional(prob, topt);

  AllocatorOptions sopt;
  sopt.improve.max_trials = 8;
  sopt.improve.moves_per_trial = 2000;
  const AllocationResult ext = allocate(prob, sopt);

  TextTable table;
  table.header({"model", "2-1 muxes", "after merge", "connections", "regs"});
  table.row({"traditional", std::to_string(trad.cost.muxes),
             std::to_string(trad.merging.muxes_after),
             std::to_string(trad.cost.connections),
             std::to_string(trad.cost.regs_used)});
  table.row({"SALSA (extended)", std::to_string(ext.cost.muxes),
             std::to_string(ext.merging.muxes_after),
             std::to_string(ext.cost.connections),
             std::to_string(ext.cost.regs_used)});
  std::printf("%s\n", table.render().c_str());

  // Dynamic proof: the allocated datapath computes what the CDFG computes.
  Netlist nl(ext.binding);
  const std::string mismatch = random_equivalence_check(nl, 8, 42);
  std::printf("datapath vs. behavioural reference over 8 iterations: %s\n",
              mismatch.empty() ? "MATCH" : mismatch.c_str());
  return mismatch.empty() ? 0 : 1;
}

}  // namespace

int main() {
  try {
    return run();
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
