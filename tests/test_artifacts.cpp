// The RTL export artifacts: VCD waveforms and the self-checking Verilog
// testbench. Structure-level checks (we do not run an external Verilog
// simulator here; the TB encodes the same contract the internal simulator
// proves cycle-accurately).
#include <gtest/gtest.h>

#include "bench_suite/diffeq.h"
#include "bench_suite/ewf.h"
#include "cdfg/eval.h"
#include "core/initial.h"
#include "datapath/testbench.h"
#include "datapath/vcd.h"

namespace salsa {
namespace {

std::vector<std::vector<int64_t>> stimuli(const Cdfg& g, int iterations,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int64_t>> in(
      static_cast<size_t>(iterations) + 1,
      std::vector<int64_t>(g.input_nodes().size(), 0));
  for (auto& vec : in)
    for (auto& v : vec) v = static_cast<int64_t>(rng.next() % 100);
  return in;
}

TEST(Vcd, HeaderAndVariablesWellFormed) {
  const auto ctx = make_problem(make_diffeq(), HwSpec{}, 10, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  Netlist nl(b);
  const auto in = stimuli(*ctx.graph, 3, 1);
  const std::string vcd = dump_vcd(nl, in, {}, 3, "diffeq");
  EXPECT_NE(vcd.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(vcd.find("$scope module diffeq $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  for (RegId r = 0; r < ctx.problem->num_regs(); ++r)
    EXPECT_NE(vcd.find(" r" + std::to_string(r) + " $end"),
              std::string::npos);
  // One timestamp marker per simulated step.
  size_t marks = 0, pos = 0;
  while ((pos = vcd.find("\n#", pos)) != std::string::npos) {
    ++marks;
    pos += 2;
  }
  EXPECT_EQ(marks, static_cast<size_t>(3 * ctx.schedule->length() + 1));
}

TEST(Vcd, OnlyChangesAreDumpedAfterTimeZero) {
  // A design whose register holds for many steps: the hold steps must not
  // re-dump the value.
  Cdfg g("hold");
  const ValueId a = g.add_input("a");
  const ValueId c = g.add_const(3);
  const ValueId v = g.add_op(OpKind::kAdd, a, c, "v");
  g.add_output(v, "o");
  g.validate();
  Schedule s(g, HwSpec{}, 10);
  s.set_start(g.producer(v), 0);
  s.set_start(g.output_nodes()[0], 9);
  s.validate();
  AllocProblem prob(s, FuPool::standard(FuBudget{1, 0}), 2);
  Binding b = initial_allocation(prob);
  Netlist nl(b);
  const auto in = stimuli(g, 2, 2);
  const std::string vcd = dump_vcd(nl, in, {}, 2, "hold");
  // Count value lines for register id of r1 ('"' is id index 1... use the
  // step-counter variable as baseline: it changes every step).
  size_t value_lines = 0, pos = 0;
  while ((pos = vcd.find("\nb", pos)) != std::string::npos) {
    ++value_lines;
    ++pos;
  }
  // Far fewer than regs*steps lines: holds are compressed.
  EXPECT_LT(value_lines, static_cast<size_t>(2 * 10 * prob.num_regs()));
}

TEST(Testbench, InstantiatesDutAndChecksOutputs) {
  const auto ctx = make_problem(make_diffeq(), HwSpec{}, 10, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  Netlist nl(b);
  const auto in = stimuli(*ctx.graph, 4, 3);
  const std::string tb = to_testbench(nl, in, {}, 4, "diffeq");
  EXPECT_NE(tb.find("module diffeq_tb;"), std::string::npos);
  EXPECT_NE(tb.find("diffeq #(.W(W)) dut(.clk(clk), .rst(rst)"),
            std::string::npos);
  EXPECT_NE(tb.find("TB PASS"), std::string::npos);
  EXPECT_NE(tb.find("$finish"), std::string::npos);
  // Every output is checked.
  for (NodeId n : ctx.graph->output_nodes())
    EXPECT_NE(tb.find("out_" + ctx.graph->node(n).name), std::string::npos);
}

TEST(Testbench, ExpectedValuesComeFromEvaluator) {
  const auto ctx = make_problem(make_diffeq(), HwSpec{}, 10, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  Netlist nl(b);
  const auto in = stimuli(*ctx.graph, 3, 4);
  Evaluator ref(*ctx.graph);
  const auto want = ref.step(in[0]);
  const std::string tb = to_testbench(nl, in, {}, 3, "diffeq");
  // The iteration-0 expected value of the first output appears literally.
  EXPECT_NE(tb.find("expect_mem[0][0] = 64'd" +
                    std::to_string(static_cast<uint64_t>(want[0]))),
            std::string::npos);
}

TEST(Testbench, PreloadsStateRegisters) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  Netlist nl(b);
  const auto in = stimuli(*ctx.graph, 3, 5);
  std::vector<int64_t> states(ctx.graph->state_nodes().size(), 9);
  const std::string tb = to_testbench(nl, in, states, 3, "ewf");
  EXPECT_NE(tb.find("dut.r"), std::string::npos);
  EXPECT_NE(tb.find(" = 64'd9;"), std::string::npos);
}

TEST(Testbench, RequiresBoundaryInputVector) {
  const auto ctx = make_problem(make_diffeq(), HwSpec{}, 10, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  Netlist nl(b);
  const auto in = stimuli(*ctx.graph, 2, 6);  // 3 vectors
  EXPECT_THROW(to_testbench(nl, in, {}, 3, "diffeq"), Error);
}

}  // namespace
}  // namespace salsa
