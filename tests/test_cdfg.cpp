#include <gtest/gtest.h>

#include "cdfg/cdfg.h"
#include "cdfg/dot.h"
#include "cdfg/eval.h"

namespace salsa {
namespace {

Cdfg tiny() {
  Cdfg g("tiny");
  const ValueId a = g.add_input("a");
  const ValueId b = g.add_input("b");
  const ValueId c = g.add_const(5);
  const ValueId s = g.add_op(OpKind::kAdd, a, b, "s");
  const ValueId p = g.add_op(OpKind::kMul, s, c, "p");
  g.add_output(p, "o");
  g.validate();
  return g;
}

TEST(Cdfg, BuilderWiresProducersAndConsumers) {
  Cdfg g = tiny();
  EXPECT_EQ(g.count(OpKind::kAdd), 1);
  EXPECT_EQ(g.count(OpKind::kMul), 1);
  EXPECT_EQ(g.input_nodes().size(), 2u);
  EXPECT_EQ(g.output_nodes().size(), 1u);
  // The add consumes both inputs.
  const ValueId a = g.node(g.input_nodes()[0]).out;
  ASSERT_EQ(g.value(a).consumers.size(), 1u);
  EXPECT_EQ(g.node(g.value(a).consumers[0]).kind, OpKind::kAdd);
}

TEST(Cdfg, TopoOrderRespectsDependences) {
  Cdfg g = tiny();
  const auto order = g.topo_order();
  std::vector<int> pos(static_cast<size_t>(g.num_nodes()));
  for (size_t i = 0; i < order.size(); ++i)
    pos[static_cast<size_t>(order[i])] = static_cast<int>(i);
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    for (ValueId in : g.node(n).ins)
      EXPECT_LT(pos[static_cast<size_t>(g.producer(in))],
                pos[static_cast<size_t>(n)]);
}

TEST(Cdfg, ConstValuesAreDetected) {
  Cdfg g = tiny();
  int consts = 0;
  for (ValueId v = 0; v < g.num_values(); ++v) consts += g.is_const_value(v);
  EXPECT_EQ(consts, 1);
}

TEST(Cdfg, StateRequiresNext) {
  Cdfg g("s");
  const ValueId st = g.add_state("st");
  const ValueId one = g.add_const(1);
  (void)g.add_op(OpKind::kAdd, st, one, "n");
  EXPECT_THROW(g.validate(), Error);  // state_next not set
}

TEST(Cdfg, StateNextOnNonStateThrows) {
  Cdfg g("s");
  const ValueId a = g.add_input("a");
  const ValueId b = g.add_const(2);
  const ValueId n = g.add_op(OpKind::kAdd, a, b);
  EXPECT_THROW(g.set_state_next(a, n), Error);
}

TEST(Cdfg, StateNextTwiceThrows) {
  Cdfg g("s");
  const ValueId st = g.add_state("st");
  const ValueId one = g.add_const(1);
  const ValueId n = g.add_op(OpKind::kAdd, st, one, "n");
  g.set_state_next(st, n);
  EXPECT_THROW(g.set_state_next(st, n), Error);
}

TEST(Cdfg, StateFedByConstantThrows) {
  Cdfg g("s");
  const ValueId st = g.add_state("st");
  const ValueId one = g.add_const(1);
  (void)g.add_op(OpKind::kAdd, st, one, "n");
  EXPECT_THROW(g.set_state_next(st, one), Error);
}

// A state chained into another (a's next content is b's value) shares b's
// storage, so a read of b's next content is a read of a's storage too.
TEST(Cdfg, ChainedStateStorageReadDownstream) {
  Cdfg g("s");
  const ValueId x = g.add_input("x");
  const ValueId a = g.add_state("a");
  const ValueId b = g.add_state("b");
  const ValueId n = g.add_op(OpKind::kAdd, x, g.add_const(1), "n");
  g.set_state_next(a, b);
  g.set_state_next(b, n);
  (void)g.add_output(n, "y");
  EXPECT_NO_THROW(g.validate());
  Cdfg unread("s");
  const ValueId ux = unread.add_input("x");
  const ValueId ua = unread.add_state("a");
  const ValueId ub = unread.add_state("b");
  unread.set_state_next(ua, ub);
  unread.set_state_next(
      ub, unread.add_op(OpKind::kAdd, ux, unread.add_const(1), "n"));
  (void)unread.add_output(unread.add_op(OpKind::kMul, ux, ux), "y");
  EXPECT_THROW(unread.validate(), Error);
}

TEST(Cdfg, OpKindPredicates) {
  EXPECT_TRUE(is_binary(OpKind::kAdd));
  EXPECT_TRUE(is_binary(OpKind::kSub));
  EXPECT_TRUE(is_binary(OpKind::kMul));
  EXPECT_FALSE(is_binary(OpKind::kNop));
  EXPECT_TRUE(is_operation(OpKind::kNop));
  EXPECT_FALSE(is_operation(OpKind::kInput));
  EXPECT_TRUE(is_commutative(OpKind::kAdd));
  EXPECT_TRUE(is_commutative(OpKind::kMul));
  EXPECT_FALSE(is_commutative(OpKind::kSub));
}

TEST(Eval, CombinationalArithmetic) {
  Cdfg g = tiny();
  Evaluator ev(g);
  const int64_t in[] = {3, 4};
  const auto out = ev.step(in);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (3 + 4) * 5);
}

TEST(Eval, SubtractionOrderMatters) {
  Cdfg g("sub");
  const ValueId a = g.add_input("a");
  const ValueId b = g.add_input("b");
  g.add_output(g.add_op(OpKind::kSub, a, b, "d"), "o");
  g.validate();
  Evaluator ev(g);
  const int64_t in[] = {10, 3};
  EXPECT_EQ(ev.step(in)[0], 7);
}

TEST(Eval, StateCarriesAcrossIterations) {
  // Accumulator: st' = st + in; out = st (pre-update value via direct read).
  Cdfg g("acc");
  const ValueId in = g.add_input("in");
  const ValueId st = g.add_state("st");
  const ValueId nxt = g.add_op(OpKind::kAdd, st, in, "sum");
  g.set_state_next(st, nxt);
  g.add_output(nxt, "o");
  g.validate();
  const int64_t init[] = {100};
  Evaluator ev(g, init);
  const int64_t one[] = {1};
  EXPECT_EQ(ev.step(one)[0], 101);
  EXPECT_EQ(ev.step(one)[0], 102);
  EXPECT_EQ(ev.step(one)[0], 103);
  EXPECT_EQ(ev.states()[0], 103);
}

TEST(Eval, NopForwards) {
  Cdfg g("nop");
  const ValueId a = g.add_input("a");
  g.add_output(g.add_nop(a, "n"), "o");
  g.validate();
  Evaluator ev(g);
  const int64_t in[] = {-17};
  EXPECT_EQ(ev.step(in)[0], -17);
}

TEST(Eval, WrappingOverflowIsDefined) {
  EXPECT_EQ(apply_op(OpKind::kAdd, INT64_MAX, 1), INT64_MIN);
  EXPECT_EQ(apply_op(OpKind::kMul, INT64_MAX, 2), -2);
}

TEST(Dot, ContainsAllNodesAndEdges) {
  Cdfg g = tiny();
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"s\""), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(Dot, ScheduledVariantRanksBySteps) {
  Cdfg g = tiny();
  std::vector<int> starts(static_cast<size_t>(g.num_nodes()), 0);
  const std::string dot = to_dot(g, starts, 3);
  EXPECT_NE(dot.find("rank=same"), std::string::npos);
  EXPECT_NE(dot.find("step 2"), std::string::npos);
}

}  // namespace
}  // namespace salsa
