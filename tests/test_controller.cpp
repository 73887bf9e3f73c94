#include <gtest/gtest.h>

#include <memory>

#include "bench_suite/dct.h"
#include "bench_suite/diffeq.h"
#include "bench_suite/ewf.h"
#include "core/initial.h"
#include "datapath/controller.h"
#include "sched/fu_search.h"

namespace salsa {
namespace {

struct Ctx {
  std::unique_ptr<Cdfg> g;
  std::unique_ptr<Schedule> sched;
  std::unique_ptr<AllocProblem> prob;

  Ctx(Cdfg graph, int len, int extra_regs) {
    g = std::make_unique<Cdfg>(std::move(graph));
    sched = std::make_unique<Schedule>(
        schedule_min_fu(*g, HwSpec{}, len).schedule);
    prob = std::make_unique<AllocProblem>(
        *sched, FuPool::standard(peak_fu_demand(*sched)),
        Lifetimes(*sched).min_registers() + extra_regs);
  }
};

TEST(Controller, StatsArePlausibleOnEwf) {
  Ctx ctx(make_ewf(), 17, 1);
  Binding b = initial_allocation(*ctx.prob);
  Netlist nl(b);
  const ControllerStats cs = analyze_controller(nl);
  // Every used register needs an enable; EWF touches all of them.
  EXPECT_EQ(cs.reg_enable_bits, b.regs_used());
  EXPECT_GT(cs.mux_select_bits, 0);
  // EWF ALUs execute only additions, so they need no op-select bits.
  EXPECT_EQ(cs.fu_select_bits, 0);
  EXPECT_GT(cs.distinct_words, 1);
  EXPECT_LE(cs.distinct_words, ctx.sched->length());
}

TEST(Controller, SingleSourcePinsNeedNoSelectBits) {
  // One op, one register path: zero mux select bits.
  Cdfg g("mini");
  const ValueId a = g.add_input("a");
  const ValueId c = g.add_const(2);
  const ValueId v = g.add_op(OpKind::kAdd, a, c, "v");
  g.add_output(v, "o");
  g.validate();
  Schedule s = schedule_min_fu(g, HwSpec{}, 3).schedule;
  AllocProblem prob(s, FuPool::standard(peak_fu_demand(s)),
                    Lifetimes(s).min_registers() + 1);
  Binding b = initial_allocation(prob);
  // Keep the two storages in distinct registers so every pin has one source.
  b.sto(prob.lifetimes().storage_of(a)).cells[0][0].reg = 0;
  b.sto(prob.lifetimes().storage_of(v)).cells[0][0].reg = 1;
  Netlist nl(b);
  const ControllerStats cs = analyze_controller(nl);
  EXPECT_EQ(cs.mux_select_bits, 0);
}

TEST(Controller, AluOpSelectBitsOnMixedKinds) {
  // The DCT runs adds and subs on its ALUs: one select bit per mixed ALU.
  Ctx ctx(make_dct(), 9, 1);
  Binding b = initial_allocation(*ctx.prob);
  Netlist nl(b);
  EXPECT_GT(analyze_controller(nl).fu_select_bits, 0);
}

TEST(Controller, MoreMuxesMeansMoreSelectBits) {
  Ctx tight(make_ewf(), 17, 0);
  Ctx loose(make_ewf(), 21, 2);
  const Binding tight_b = initial_allocation(*tight.prob);
  const Binding loose_b = initial_allocation(*loose.prob);
  const ControllerStats a = analyze_controller(Netlist(tight_b));
  const ControllerStats b = analyze_controller(Netlist(loose_b));
  EXPECT_GT(a.total_bits(), 0);
  EXPECT_GT(b.total_bits(), 0);
}

TEST(Controller, TableListsEveryStep) {
  Ctx ctx(make_diffeq(), 10, 1);
  Binding b = initial_allocation(*ctx.prob);
  Netlist nl(b);
  const std::string table = controller_table(nl);
  for (int t = 0; t < ctx.sched->length(); ++t)
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
