#include <gtest/gtest.h>

#include <regex>

#include "bench_suite/diffeq.h"
#include "bench_suite/ewf.h"
#include "core/initial.h"
#include "datapath/testbench.h"
#include "datapath/vcd.h"
#include "datapath/verilog.h"
#include "sched/fu_search.h"

namespace salsa {
namespace {

std::string emit(Cdfg graph, int len) {
  const ProblemBundle p =
      make_problem(std::move(graph), HwSpec{}, len, SpareRegisters{1});
  Binding b = initial_allocation(*p.problem);
  Netlist nl(b);
  return to_verilog(nl, p.graph->name(), 16);
}

TEST(Verilog, ModuleSkeleton) {
  const std::string v = emit(make_ewf(), 17);
  EXPECT_NE(v.find("module ewf"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  EXPECT_NE(v.find("input  wire clk"), std::string::npos);
  EXPECT_NE(v.find("in_inp"), std::string::npos);
  EXPECT_NE(v.find("out_outp"), std::string::npos);
}

TEST(Verilog, ControllerCountsModuloLength) {
  const std::string v = emit(make_ewf(), 17);
  EXPECT_NE(v.find("(step == 16)"), std::string::npos);
}

TEST(Verilog, DeclaresAllFusAndRegisters) {
  const std::string v = emit(make_ewf(), 17);
  EXPECT_NE(v.find("fu0_out"), std::string::npos);
  EXPECT_NE(v.find("reg [W-1:0] r0;"), std::string::npos);
  // Multiplier pipeline stage present.
  EXPECT_NE(v.find("_stage"), std::string::npos);
}

TEST(Verilog, AluSelectsIncludePassThroughDefault)
{
  const std::string v = emit(make_diffeq(), 10);
  EXPECT_NE(v.find("idle: pass-through"), std::string::npos);
}

TEST(Verilog, CaseBlocksAreBalanced) {
  const std::string v = emit(make_ewf(), 19);
  size_t cases = 0, endcases = 0, pos = 0;
  while ((pos = v.find("case (step)", pos)) != std::string::npos) {
    ++cases;
    pos += 4;
  }
  pos = 0;
  while ((pos = v.find("endcase", pos)) != std::string::npos) {
    ++endcases;
    pos += 4;
  }
  EXPECT_GT(cases, 0u);
  EXPECT_EQ(cases, endcases);
}

TEST(Verilog, PassThroughAllocationsEmit) {
  // A binding with a pass-through emits: the via ALU selects 'pass' at the
  // transfer step via its default/idle arm, and the routed in0 appears in
  // the mux case.
  Cdfg g("pt");
  const ValueId a = g.add_input("a");
  const ValueId b2 = g.add_input("b");
  const ValueId c = g.add_input("c");
  const ValueId d = g.add_input("d");
  const ValueId pp = g.add_op(OpKind::kAdd, a, b2, "p");
  const ValueId t = g.add_op(OpKind::kAdd, pp, c, "t");
  const ValueId q = g.add_op(OpKind::kAdd, d, c, "q");
  const ValueId s2 = g.add_op(OpKind::kAdd, d, a, "s");
  g.add_output(t, "ot");
  g.add_output(q, "oq");
  g.add_output(s2, "os");
  g.validate();
  Schedule sch(g, HwSpec{}, 5);
  sch.set_start(g.producer(pp), 0);
  sch.set_start(g.producer(t), 1);
  sch.set_start(g.producer(q), 1);
  sch.set_start(g.producer(s2), 3);
  sch.set_start(g.output_nodes()[0], 2);
  sch.set_start(g.output_nodes()[1], 2);
  sch.set_start(g.output_nodes()[2], 4);
  sch.validate();
  AllocProblem prob(sch, FuPool::standard(FuBudget{2, 0}), 9);
  Binding bind(prob);
  bind.op(g.producer(pp)).fu = 1;
  bind.op(g.producer(t)).fu = 0;
  bind.op(g.producer(q)).fu = 1;
  bind.op(g.producer(s2)).fu = 0;
  const Lifetimes& lt = prob.lifetimes();
  auto contiguous = [&](ValueId v, RegId r) {
    StorageBinding& sb = bind.sto(lt.storage_of(v));
    for (size_t seg = 0; seg < sb.cells.size(); ++seg)
      sb.cells[seg].assign(1, Cell{r, seg == 0 ? -1 : 0, kInvalidId});
  };
  contiguous(a, 0);
  contiguous(b2, 1);
  contiguous(c, 2);
  contiguous(pp, 3);
  contiguous(t, 5);
  contiguous(q, 6);
  contiguous(s2, 7);
  StorageBinding& w = bind.sto(lt.storage_of(d));
  for (int seg = 0; seg < 3; ++seg)
    w.cells[static_cast<size_t>(seg)].assign(
        1, Cell{4, seg == 0 ? -1 : 0, kInvalidId});
  w.cells[3].assign(1, Cell{3, 0, /*via=*/1});
  Netlist nl(bind);
  const std::string v = to_verilog(nl, "pt");
  // The pass route appears as an in0 case arm at the transfer step (2).
  EXPECT_NE(v.find("16'd2: fu1_in0 = r4;"), std::string::npos);
  // And r3 loads from the FU output at that step.
  EXPECT_NE(v.find("16'd2: r3 <= fu1_out;"), std::string::npos);
}

TEST(Verilog, SanitizesIdentifiers) {
  Cdfg g("weird name!");
  const ValueId a = g.add_input("in-1");
  const ValueId c = g.add_const(2);
  g.add_output(g.add_op(OpKind::kAdd, a, c, "x"), "out 0");
  g.validate();
  const ProblemBundle p =
      make_problem(std::move(g), HwSpec{}, 3, SpareRegisters{0});
  Binding b = initial_allocation(*p.problem);
  Netlist nl(b);
  const std::string v = to_verilog(nl, p.graph->name());
  EXPECT_NE(v.find("module weird_name_"), std::string::npos);
  EXPECT_NE(v.find("in_in_1"), std::string::npos);
  EXPECT_EQ(v.find("in-1"), std::string::npos);
}

// A schedule longer than 65,536 steps needs more than 16 counter bits: the
// module's step register and every sized step literal, the testbench's step
// wire and the VCD's step variable must all hold step L - 1.
TEST(Verilog, StepCounterHoldsLongSchedules) {
  constexpr int L = 70000;
  Cdfg g("long");
  const ValueId x = g.add_input("x");
  const ValueId p = g.add_op(OpKind::kMul, x, g.add_const(3, "k"), "p");
  const ValueId q = g.add_op(OpKind::kAdd, p, x, "q");
  const NodeId y = g.add_output(q, "y");
  g.validate();
  Schedule s(g, HwSpec{}, L);
  s.set_start(g.producer(p), 69986);
  s.set_start(g.producer(q), 69988);
  s.set_start(y, 69990);
  s.validate();
  AllocProblem prob(s, FuPool::standard(peak_fu_demand(s)),
                    SpareRegisters{0});
  const Binding b = initial_allocation(prob);
  const Netlist nl(b);

  const std::string v = to_verilog(nl, "long");
  EXPECT_NE(v.find("  reg [16:0] step;\n"), std::string::npos);
  EXPECT_NE(v.find("(step == 69999) ? 17'd0 : step + 17'd1;"),
            std::string::npos);
  EXPECT_NE(v.find("if (step == 17'd69990) out_y <= r"), std::string::npos);
  // Every sized decimal literal fits its declared width.
  const std::regex literal(R"((\d+)'d(\d+))");
  int literals = 0;
  for (auto it = std::sregex_iterator(v.begin(), v.end(), literal);
       it != std::sregex_iterator(); ++it, ++literals) {
    const int bits = std::stoi((*it)[1]);
    const long long value = std::stoll((*it)[2]);
    EXPECT_LT(value, 1LL << bits) << it->str();
  }
  EXPECT_GT(literals, 0);

  const std::vector<std::vector<int64_t>> inputs(2, std::vector<int64_t>{5});
  const std::string tb = to_testbench(nl, inputs, {}, 1, "long");
  EXPECT_NE(tb.find("  wire [16:0] t = cycle % 70000;\n"), std::string::npos);
  const std::string vcd = dump_vcd(nl, inputs, {}, 1, "long");
  EXPECT_NE(vcd.find("$var wire 17 "), std::string::npos);
}

}  // namespace
}  // namespace salsa
