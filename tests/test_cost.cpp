#include <gtest/gtest.h>

#include <memory>

#include "core/cost.h"
#include "core/initial.h"
#include "core/verify.h"
#include "sched/fu_search.h"

namespace salsa {
namespace {

// One ALU, one computed value read late: in -> a1 = in + c, out at step 3.
// Value a1 is ready at step 1 and read at step 3 (segments at steps 1,2,3).
class TinyFixture {
 public:
  TinyFixture() {
    g_ = std::make_unique<Cdfg>("tiny");
    in = g_->add_input("in");
    c = g_->add_const(7);
    a1 = g_->add_op(OpKind::kAdd, in, c, "a1");
    out_node = g_->add_output(a1, "o");
    a1_node = g_->producer(a1);
    g_->validate();
    sched_ = std::make_unique<Schedule>(*g_, HwSpec{}, 4);
    sched_->set_start(a1_node, 0);
    sched_->set_start(out_node, 3);
    prob_ = std::make_unique<AllocProblem>(*sched_,
                                           FuPool::standard(FuBudget{1, 0}), 3);
  }

  AllocProblem& prob() { return *prob_; }

  // Contiguous binding: input in r_in, a1 in r_a for its whole life.
  Binding contiguous(RegId r_in, RegId r_a) {
    Binding b(*prob_);
    b.op(a1_node).fu = 0;
    const Lifetimes& lt = prob_->lifetimes();
    for (auto [v, r] : {std::pair{in, r_in}, std::pair{a1, r_a}}) {
      StorageBinding& sb = b.sto(lt.storage_of(v));
      for (size_t seg = 0; seg < sb.cells.size(); ++seg)
        sb.cells[seg].assign(1, Cell{r, seg == 0 ? -1 : 0, kInvalidId});
    }
    return b;
  }

  ValueId in, c, a1;
  NodeId a1_node, out_node;

 private:
  std::unique_ptr<Cdfg> g_;
  std::unique_ptr<Schedule> sched_;
  std::unique_ptr<AllocProblem> prob_;
};

TEST(Cost, ContiguousBindingHasNoMuxes) {
  TinyFixture f;
  Binding b = f.contiguous(1, 0);
  check_legal(b);
  const CostBreakdown cost = evaluate_cost(b);
  EXPECT_EQ(cost.muxes, 0);
  // in-port->r1, r1->alu.in0, alu.out->r0, r0->outport. Constant is free.
  EXPECT_EQ(cost.connections, 4);
  EXPECT_EQ(cost.regs_used, 2);
  EXPECT_EQ(cost.fus_used, 1);
}

TEST(Cost, ConstantOperandsAreFree) {
  TinyFixture f;
  Binding b = f.contiguous(1, 0);
  // The constant reaches alu.in1 in the netlist but contributes nothing.
  bool const_seen = false;
  for (const ConnUse& u : connection_uses(b))
    if (u.src.kind == Endpoint::Kind::kConstPort) const_seen = true;
  EXPECT_TRUE(const_seen);
  EXPECT_EQ(evaluate_cost(b).muxes, 0);
}

TEST(Cost, SegmentTransferAddsConnection) {
  TinyFixture f;
  Binding b = f.contiguous(1, 0);
  // Move a1's segments 1..2 to register 2: one direct reg->reg transfer.
  const int sid = f.prob().lifetimes().storage_of(f.a1);
  StorageBinding& sb = b.sto(sid);
  ASSERT_EQ(sb.cells.size(), 3u);  // live steps 1..3
  sb.cells[1][0] = Cell{2, 0, kInvalidId};
  sb.cells[2][0] = Cell{2, 0, kInvalidId};
  check_legal(b);
  const CostBreakdown cost = evaluate_cost(b);
  // inport->r1, r1->alu.in0, alu.out->r0, r0->r2, r2->outport.
  EXPECT_EQ(cost.connections, 5);
  EXPECT_EQ(cost.muxes, 0);
  EXPECT_EQ(cost.regs_used, 3);
}

TEST(Cost, PassThroughSharesPinAndCreatesMux) {
  TinyFixture f;
  Binding b = f.contiguous(1, 0);
  // Route the transfer through the ALU (idle at step 1): its in0 now sees
  // both r1 (operand read, step 0) and r0 (pass, step 1) — one 2-1 mux.
  const int sid = f.prob().lifetimes().storage_of(f.a1);
  StorageBinding& sb = b.sto(sid);
  sb.cells[1][0] = Cell{2, 0, /*via=*/0};
  sb.cells[2][0] = Cell{2, 0, kInvalidId};
  check_legal(b);
  const CostBreakdown cost = evaluate_cost(b);
  EXPECT_EQ(cost.muxes, 1);
  // inport->r1, r1->alu.in0, r0->alu.in0, alu.out->r0, alu.out->r2,
  // r2->outport.
  EXPECT_EQ(cost.connections, 6);
}

TEST(Cost, ValueCopyFansOutProducer) {
  TinyFixture f;
  Binding b = f.contiguous(1, 0);
  // A second copy of a1's first segment in r2: the producer latches into
  // two registers (fan-out: two connections, no mux).
  const int sid = f.prob().lifetimes().storage_of(f.a1);
  StorageBinding& sb = b.sto(sid);
  sb.cells[0].push_back(Cell{2, -1, kInvalidId});
  check_legal(b);
  const CostBreakdown cost = evaluate_cost(b);
  EXPECT_EQ(cost.muxes, 0);
  EXPECT_EQ(cost.connections, 5);
  EXPECT_EQ(cost.regs_used, 3);
}

TEST(Cost, WeightsScaleTotal) {
  TinyFixture f;
  Binding b = f.contiguous(1, 0);
  const CostBreakdown cost = evaluate_cost(b);
  const CostWeights& w = kCostWeights;
  EXPECT_DOUBLE_EQ(cost.total, w.fu * cost.fus_used + w.reg * cost.regs_used +
                                   w.mux * cost.muxes +
                                   w.conn * cost.connections);
}

TEST(Cost, KeysDistinguishKindsAndIds) {
  EXPECT_NE(pack(Endpoint{Endpoint::Kind::kFuOut, 1}),
            pack(Endpoint{Endpoint::Kind::kRegOut, 1}));
  EXPECT_NE(pack(Pin{Pin::Kind::kFuIn0, 2}),
            pack(Pin{Pin::Kind::kFuIn1, 2}));
  EXPECT_NE(pack(Pin{Pin::Kind::kRegIn, 0}),
            pack(Pin{Pin::Kind::kRegIn, 1}));
}

}  // namespace
}  // namespace salsa
