#include <gtest/gtest.h>

#include "bench_suite/ar_filter.h"
#include "bench_suite/dct.h"
#include "bench_suite/diffeq.h"
#include "bench_suite/ewf.h"
#include "bench_suite/fir.h"
#include "sched/asap_alap.h"
#include "sched/force_directed.h"
#include "sched/fu_search.h"
#include "sched/list_scheduler.h"

namespace salsa {
namespace {

Cdfg chain() {
  // in -> add -> mul -> add -> out : cp = 1 + 2 + 1 = 4 plus output read.
  Cdfg g("chain");
  const ValueId in = g.add_input("in");
  const ValueId c = g.add_const(2);
  const ValueId a1 = g.add_op(OpKind::kAdd, in, c, "a1");
  const ValueId m = g.add_op(OpKind::kMul, a1, c, "m");
  const ValueId a2 = g.add_op(OpKind::kAdd, m, c, "a2");
  g.add_output(a2, "o");
  g.validate();
  return g;
}

TEST(AsapAlap, ChainLatencies) {
  Cdfg g = chain();
  HwSpec hw;
  const TimingModel tm(g, hw);
  // a1 at 0, m at 1 (a1 ready 1), a2 at 3 (m ready 3), out at 4.
  const NodeId a2 = g.producer(g.node(g.output_nodes()[0]).ins[0]);
  EXPECT_EQ(tm.asap()[static_cast<size_t>(a2)], 3);
  EXPECT_EQ(min_schedule_length(g, hw), 5);  // a2 ready at 4, read at 4
}

TEST(AsapAlap, AlapTightensToLength) {
  Cdfg g = chain();
  HwSpec hw;
  const int cp = min_schedule_length(g, hw);
  const TimingModel tm(g, hw);
  const auto alap = tm.alap(cp);
  ASSERT_TRUE(alap.has_value());
  for (NodeId n : g.operations()) {
    const auto i = static_cast<size_t>(n);
    EXPECT_EQ((*alap)[i], tm.asap()[i])
        << "critical-path schedule should have zero mobility";
  }
  EXPECT_FALSE(tm.alap(cp - 1).has_value());
}

TEST(AsapAlap, SlackGrowsWithLength) {
  Cdfg g = chain();
  HwSpec hw;
  const int cp = min_schedule_length(g, hw);
  const TimingModel tm(g, hw);
  const auto alap = tm.alap(cp + 3);
  ASSERT_TRUE(alap.has_value());
  for (NodeId n : g.operations()) {
    const auto i = static_cast<size_t>(n);
    EXPECT_EQ((*alap)[i] - tm.asap()[i], 3);
  }
}

TEST(AsapAlap, PipelinedMulSameLatency) {
  Cdfg g = chain();
  HwSpec np, p;
  p.pipelined_mul = true;
  // Pipelining changes occupancy, not latency: same critical path.
  EXPECT_EQ(min_schedule_length(g, np), min_schedule_length(g, p));
}

// A state whose next value is another state's value: the reader of the
// first state must finish before the second state's node, which is pinned
// to step 0, produces that value. No length fits, and the length search
// must say so instead of counting forever.
TEST(AsapAlap, NoFeasibleLengthThrows) {
  Cdfg g("stuck");
  const ValueId x = g.add_input("x");
  const ValueId s = g.add_state("s");
  const ValueId t = g.add_state("t");
  g.set_state_next(t, g.add_op(OpKind::kAdd, x, t, "w"));
  g.set_state_next(s, t);
  g.add_output(g.add_op(OpKind::kAdd, s, x, "q"), "y");
  g.validate();
  try {
    min_schedule_length(g, HwSpec{});
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CDFG 'stuck' fits no schedule"),
              std::string::npos)
        << e.what();
  }
}

TEST(AsapAlap, AntiDependenceExtendsLength) {
  // State read by a long chain, rewritten by a short op: the rewrite must
  // wait for the last read.
  Cdfg g("anti");
  const ValueId in = g.add_input("in");
  const ValueId st = g.add_state("st");
  const ValueId c = g.add_const(1);
  ValueId v = in;
  for (int i = 0; i < 4; ++i) v = g.add_op(OpKind::kAdd, v, c);
  const ValueId late_read = g.add_op(OpKind::kAdd, v, st, "late");
  g.add_output(late_read, "o");
  const ValueId next = g.add_op(OpKind::kAdd, in, c, "next");
  g.set_state_next(st, next);
  g.validate();
  const TimingModel tm(g, HwSpec{});
  // 'late' reads st at step 4; 'next' (delay 1) must not be ready before
  // step 5, so it starts at >= 4 even though its data is ready at 0.
  const NodeId next_node = g.producer(next);
  EXPECT_GE(tm.asap()[static_cast<size_t>(next_node)], 4);
}

// A graph no schedule can time ends in the timing model's salsa::Error,
// whichever scheduler meets it.
void expect_timing_error(const Cdfg& g, int length, const std::string& what) {
  const HwSpec hw;
  auto expect = [&](const char* who, auto&& call) {
    try {
      call();
      ADD_FAILURE() << who << " returned normally";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << who << ": " << e.what();
    }
  };
  expect("min_schedule_length", [&] { min_schedule_length(g, hw); });
  expect("list_schedule",
         [&] { (void)list_schedule(g, hw, length, FuBudget{4, 4}); });
  expect("force_directed_schedule",
         [&] { force_directed_schedule(g, hw, length); });
  expect("schedule_min_fu", [&] { schedule_min_fu(g, hw, length); });
}

TEST(TimingModel, StateWithoutNextValueThrows) {
  // Not validated: state s never gets a next value.
  Cdfg g("open");
  const ValueId x = g.add_input("x");
  const ValueId s = g.add_state("s");
  const ValueId y = g.add_op(OpKind::kAdd, s, x, "y");
  const NodeId o = g.add_output(y, "o");
  expect_timing_error(g, 4, "state 's' has no next-iteration value");
  // The schedule check says the same of a hand-built schedule.
  Schedule sched(g, HwSpec{}, 4);
  sched.set_start(o, 1);
  const auto v = sched.first_violation();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->message, "state 's' has no next-iteration value");
  EXPECT_EQ(v->node, g.producer(s));
}

TEST(TimingModel, PositiveLatencyCycleThrows) {
  // n = s + x becomes s's next content, and y = n + s reads the old content
  // of s after n is ready: s would have to be read after it is overwritten.
  Cdfg g("loop");
  const ValueId x = g.add_input("x");
  const ValueId s = g.add_state("s");
  const ValueId n = g.add_op(OpKind::kAdd, s, x, "n");
  g.set_state_next(s, n);
  g.add_output(g.add_op(OpKind::kAdd, n, s, "y"), "o");
  g.validate();
  expect_timing_error(g, 8, "CDFG 'loop' has an infeasible dependence cycle");
}

TEST(ListSchedule, RespectsFuBudget) {
  Cdfg g = make_dct();
  HwSpec hw;
  const auto s = list_schedule(g, hw, 12, FuBudget{3, 4});
  ASSERT_TRUE(s.has_value());
  const FuBudget peak = peak_fu_demand(*s);
  EXPECT_LE(peak.alu, 3);
  EXPECT_LE(peak.mul, 4);
  s->validate();
}

TEST(ListSchedule, InfeasibleBudgetFails) {
  Cdfg g = make_dct();
  HwSpec hw;
  EXPECT_FALSE(list_schedule(g, hw, 8, FuBudget{1, 1}).has_value());
}

TEST(ListSchedule, PipelinedMulPacksTighter) {
  Cdfg g = make_dct();
  HwSpec np, p;
  p.pipelined_mul = true;
  // 16 mults on 2 pipelined units fit lengths where 2 non-pipelined can't.
  EXPECT_TRUE(list_schedule(g, p, 12, FuBudget{3, 2}).has_value());
  EXPECT_FALSE(list_schedule(g, np, 12, FuBudget{3, 2}).has_value());
}

TEST(ForceDirected, ProducesValidMinimalSchedules) {
  for (bool pipe : {false, true}) {
    HwSpec hw;
    hw.pipelined_mul = pipe;
    Cdfg g = make_ewf();
    Schedule s = force_directed_schedule(g, hw, 17);
    s.validate();
    const FuBudget peak = peak_fu_demand(s);
    EXPECT_LE(peak.alu, 4);
    EXPECT_LE(peak.mul, pipe ? 2 : 3);
  }
}

TEST(ForceDirected, ThrowsBelowCriticalPath) {
  Cdfg g = make_ewf();
  HwSpec hw;
  EXPECT_THROW(force_directed_schedule(g, hw, 16), Error);
}

TEST(FuSearch, MatchesKnownEwfEnvelope) {
  Cdfg g = make_ewf();
  HwSpec hw;
  auto r17 = schedule_min_fu(g, hw, 17);
  EXPECT_EQ(r17.fus.alu, 3);
  EXPECT_EQ(r17.fus.mul, 2);
  auto r21 = schedule_min_fu(g, hw, 21);
  EXPECT_LE(r21.fus.alu, 2);
  EXPECT_LE(r21.fus.mul, 2);
}

TEST(FuSearch, LongerScheduleNeverNeedsMore) {
  Cdfg g = make_dct();
  HwSpec hw;
  auto a = schedule_min_fu(g, hw, 8);
  auto b = schedule_min_fu(g, hw, 14);
  EXPECT_LE(b.fus.alu + 4 * b.fus.mul, a.fus.alu + 4 * a.fus.mul);
}

struct BenchCase {
  const char* name;
  Cdfg (*make)();
  bool pipelined;
  int extra_steps;
};

class ScheduleAllBenchmarks : public ::testing::TestWithParam<BenchCase> {};

TEST_P(ScheduleAllBenchmarks, MinFuScheduleValidates) {
  const BenchCase& bc = GetParam();
  Cdfg g = bc.make();
  HwSpec hw;
  hw.pipelined_mul = bc.pipelined;
  const int L = min_schedule_length(g, hw) + bc.extra_steps;
  auto r = schedule_min_fu(g, hw, L);
  r.schedule.validate();
  const FuBudget peak = peak_fu_demand(r.schedule);
  EXPECT_EQ(peak.alu, r.fus.alu);
  EXPECT_EQ(peak.mul, r.fus.mul);
  EXPECT_GE(r.fus.alu, g.count(OpKind::kAdd) + g.count(OpKind::kSub) > 0 ? 1 : 0);
}

INSTANTIATE_TEST_SUITE_P(
    Benches, ScheduleAllBenchmarks,
    ::testing::Values(BenchCase{"ewf0", make_ewf, false, 0},
                      BenchCase{"ewf2", make_ewf, false, 2},
                      BenchCase{"ewf4", make_ewf, false, 4},
                      BenchCase{"ewfp0", make_ewf, true, 0},
                      BenchCase{"ewfp2", make_ewf, true, 2},
                      BenchCase{"dct0", make_dct, false, 0},
                      BenchCase{"dct3", make_dct, false, 3},
                      BenchCase{"dctp3", make_dct, true, 3},
                      BenchCase{"ar0", make_ar_filter, false, 0},
                      BenchCase{"ar3", make_ar_filter, false, 3},
                      BenchCase{"fir0", make_fir8, false, 0},
                      BenchCase{"fir2", make_fir8, false, 2},
                      BenchCase{"diffeq0", make_diffeq, false, 0},
                      BenchCase{"diffeq2", make_diffeq, false, 2}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace salsa
