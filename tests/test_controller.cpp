#include <gtest/gtest.h>

#include "bench_suite/dct.h"
#include "bench_suite/diffeq.h"
#include "bench_suite/ewf.h"
#include "core/initial.h"
#include "datapath/controller.h"

namespace salsa {
namespace {

TEST(Controller, StatsArePlausibleOnEwf) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  Netlist nl(b);
  const ControllerStats cs = analyze_controller(nl);
  // Every used register needs an enable; EWF touches all of them.
  EXPECT_EQ(cs.reg_enable_bits, b.regs_used());
  EXPECT_GT(cs.mux_select_bits, 0);
  // EWF ALUs execute only additions, so they need no op-select bits.
  EXPECT_EQ(cs.fu_select_bits, 0);
  EXPECT_GT(cs.distinct_words, 1);
  EXPECT_LE(cs.distinct_words, ctx.schedule->length());
}

TEST(Controller, SingleSourcePinsNeedNoSelectBits) {
  // One op, one register path: zero mux select bits.
  Cdfg g("mini");
  const ValueId a = g.add_input("a");
  const ValueId c = g.add_const(2);
  const ValueId v = g.add_op(OpKind::kAdd, a, c, "v");
  g.add_output(v, "o");
  g.validate();
  const ProblemBundle p =
      make_problem(std::move(g), HwSpec{}, 3, SpareRegisters{1});
  const Lifetimes& lt = p.problem->lifetimes();
  Binding b = initial_allocation(*p.problem);
  // Keep the two storages in distinct registers so every pin has one source.
  b.sto(lt.storage_of(a)).cells[0][0].reg = 0;
  b.sto(lt.storage_of(v)).cells[0][0].reg = 1;
  Netlist nl(b);
  const ControllerStats cs = analyze_controller(nl);
  EXPECT_EQ(cs.mux_select_bits, 0);
}

TEST(Controller, AluOpSelectBitsOnMixedKinds) {
  // The DCT runs adds and subs on its ALUs: one select bit per mixed ALU.
  const auto ctx = make_problem(make_dct(), HwSpec{}, 9, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  Netlist nl(b);
  EXPECT_GT(analyze_controller(nl).fu_select_bits, 0);
}

TEST(Controller, MoreMuxesMeansMoreSelectBits) {
  const auto tight = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{0});
  const auto loose = make_problem(make_ewf(), HwSpec{}, 21, SpareRegisters{2});
  const Binding tight_b = initial_allocation(*tight.problem);
  const Binding loose_b = initial_allocation(*loose.problem);
  const ControllerStats a = analyze_controller(Netlist(tight_b));
  const ControllerStats b = analyze_controller(Netlist(loose_b));
  EXPECT_GT(a.total_bits(), 0);
  EXPECT_GT(b.total_bits(), 0);
}

TEST(Controller, TableListsEveryStep) {
  const auto ctx = make_problem(make_diffeq(), HwSpec{}, 10, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  Netlist nl(b);
  const std::string table = controller_table(nl);
  for (int t = 0; t < ctx.schedule->length(); ++t)
    EXPECT_NE(table.find("step " + std::to_string(t) + ":"),
              std::string::npos);
  EXPECT_NE(table.find("load:"), std::string::npos);
}

TEST(Controller, DistinctWordsDetectRepetition) {
  // A design where several steps are pure holds has fewer distinct words
  // than steps.
  Cdfg g("hold");
  const ValueId a = g.add_input("a");
  const ValueId c = g.add_const(2);
  const ValueId v = g.add_op(OpKind::kAdd, a, c, "v");
  g.add_output(v, "o");
  g.validate();
  Schedule s(g, HwSpec{}, 8);
  s.set_start(g.producer(v), 0);
  s.set_start(g.output_nodes()[0], 7);  // value idles in a register
  s.validate();
  AllocProblem prob(s, FuPool::standard(FuBudget{1, 0}), 2);
  Binding b = initial_allocation(prob);
  Netlist nl(b);
  const ControllerStats cs = analyze_controller(nl);
  EXPECT_LT(cs.distinct_words, 8);
}

}  // namespace
}  // namespace salsa
