#include <gtest/gtest.h>

#include <set>

#include "bench_suite/ar_filter.h"
#include "bench_suite/dct.h"
#include "bench_suite/diffeq.h"
#include "bench_suite/ewf.h"
#include "core/initial.h"
#include "core/moves.h"
#include "core/verify.h"
#include "interconnect/bus_model.h"
#include "problem_at_slack.h"
#include "sched/asap_alap.h"

namespace salsa {
namespace {

struct BusCase {
  const char* name;
  Cdfg (*make)();
  int extra_len;
  int extra_regs;
};

class BusAllocationValid : public ::testing::TestWithParam<BusCase> {};

TEST_P(BusAllocationValid, CarriesEveryConnection) {
  const BusCase& c = GetParam();
  const auto ctx = make_problem_at_slack(c.make(), HwSpec{}, c.extra_len,
                                         SpareRegisters{c.extra_regs});
  Binding b = initial_allocation(*ctx.problem);
  const BusAllocation alloc = bus_allocate(b);
  const auto bad = verify_bus_allocation(b, alloc);
  EXPECT_TRUE(bad.empty()) << (bad.empty() ? "" : bad[0]);
  EXPECT_GT(alloc.num_buses(), 0);
}

TEST_P(BusAllocationValid, StaysValidAfterMoveScramble) {
  const BusCase& c = GetParam();
  const auto ctx = make_problem_at_slack(c.make(), HwSpec{}, c.extra_len,
                                         SpareRegisters{c.extra_regs});
  Binding b = initial_allocation(*ctx.problem);
  Rng rng(99);
  const MoveConfig moves = MoveConfig::salsa_default();
  for (int i = 0; i < 300; ++i) apply_random_move(b, moves.pick(rng), rng);
  ASSERT_TRUE(verify(b).empty());
  const BusAllocation alloc = bus_allocate(b);
  EXPECT_TRUE(verify_bus_allocation(b, alloc).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Benches, BusAllocationValid,
    ::testing::Values(BusCase{"ewf", make_ewf, 0, 1},
                      BusCase{"ewf_loose", make_ewf, 2, 2},
                      BusCase{"dct", make_dct, 2, 2},
                      BusCase{"ar", make_ar_filter, 1, 2},
                      BusCase{"diffeq", make_diffeq, 1, 1}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(BusModel, BusCountBoundedByPeakTraffic) {
  const auto ctx =
      make_problem_at_slack(make_ewf(), HwSpec{}, 0, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  const BusAllocation alloc = bus_allocate(b);
  // Lower bound: max #distinct sources transmitting in any step.
  std::vector<std::set<uint64_t>> per_step(
      static_cast<size_t>(ctx.schedule->length()));
  for (const ConnUse& u : connection_uses(b)) {
    if (u.src.kind == Endpoint::Kind::kConstPort) continue;
    per_step[static_cast<size_t>(u.step)].insert(key_of(u.src));
  }
  size_t peak = 0;
  for (const auto& s : per_step) peak = std::max(peak, s.size());
  EXPECT_GE(alloc.num_buses(), static_cast<int>(peak));
  // And the greedy allocator should stay within a small factor of it.
  EXPECT_LE(alloc.num_buses(), static_cast<int>(peak) * 3 + 2);
}

TEST(BusModel, SingleTransferUsesOneBus) {
  // One producer feeding one consumer: exactly one bus, no sink muxes.
  Cdfg g("one");
  const ValueId a = g.add_input("a");
  const ValueId c = g.add_const(2);
  const ValueId v = g.add_op(OpKind::kAdd, a, c, "v");
  g.add_output(v, "o");
  g.validate();
  const ProblemBundle p =
      make_problem(std::move(g), HwSpec{}, 3, SpareRegisters{0});
  Binding b = initial_allocation(*p.problem);
  const BusAllocation alloc = bus_allocate(b);
  EXPECT_TRUE(verify_bus_allocation(b, alloc).empty());
  EXPECT_EQ(alloc.sink_muxes(), 0);
}

TEST(BusModel, BroadcastSharesOneBusPerStep) {
  // A value read by two consumers in the same step: one transmission.
  Cdfg g("bcast");
  const ValueId a = g.add_input("a");
  const ValueId b1 = g.add_input("b");
  const ValueId v = g.add_op(OpKind::kAdd, a, b1, "v");
  const ValueId w1 = g.add_op(OpKind::kAdd, v, a, "w1");
  const ValueId w2 = g.add_op(OpKind::kAdd, v, b1, "w2");
  g.add_output(w1, "o1");
  g.add_output(w2, "o2");
  g.validate();
  Schedule s(g, HwSpec{}, 4);
  s.set_start(g.producer(v), 0);
  s.set_start(g.producer(w1), 1);
  s.set_start(g.producer(w2), 1);
  s.set_start(g.output_nodes()[0], 2);
  s.set_start(g.output_nodes()[1], 2);
  s.validate();
  AllocProblem prob(s, FuPool::standard(FuBudget{2, 0}), SpareRegisters{0});
  Binding bind = initial_allocation(prob);
  const BusAllocation alloc = bus_allocate(bind);
  EXPECT_TRUE(verify_bus_allocation(bind, alloc).empty());
  // v's register broadcasts to both ALUs at step 1 over a single bus slot.
  for (const Bus& bus : alloc.buses)
    for (size_t i = 0; i < bus.schedule.size(); ++i)
      for (size_t j = i + 1; j < bus.schedule.size(); ++j)
        EXPECT_FALSE(bus.schedule[i].second == bus.schedule[j].second &&
                     bus.schedule[i].first != bus.schedule[j].first);
}

TEST(BusModel, VerifierCatchesMissingTap) {
  const auto ctx =
      make_problem_at_slack(make_diffeq(), HwSpec{}, 1, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  BusAllocation alloc = bus_allocate(b);
  ASSERT_FALSE(alloc.taps.empty());
  alloc.taps.pop_back();
  EXPECT_FALSE(verify_bus_allocation(b, alloc).empty());
}

TEST(BusModel, VerifierCatchesDoubleDrive) {
  const auto ctx =
      make_problem_at_slack(make_diffeq(), HwSpec{}, 1, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  BusAllocation alloc = bus_allocate(b);
  // Find a bus with a scheduled slot and clone the slot with another driver.
  for (Bus& bus : alloc.buses) {
    if (bus.schedule.empty()) continue;
    bus.drivers.push_back(Endpoint{Endpoint::Kind::kRegOut, 63});
    bus.schedule.emplace_back(static_cast<int>(bus.drivers.size()) - 1,
                              bus.schedule[0].second);
    EXPECT_FALSE(verify_bus_allocation(b, alloc).empty());
    return;
  }
  FAIL() << "no scheduled bus found";
}

}  // namespace
}  // namespace salsa
