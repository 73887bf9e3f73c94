#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "binding_corpus.h"
#include "core/cost.h"
#include "core/initial.h"
#include "core/verify.h"
#include "sched/fu_search.h"

namespace salsa {
namespace {

// ---- reference: the map-based one-driver pass verify() replaced ------------
// verify() now keeps the first driver of each (pin, step) in a dense table;
// this std::map pass is what it must keep matching, message for message.
std::vector<std::string> reference_driver_pass(const Binding& b) {
  std::vector<std::string> bad;
  std::map<std::pair<uint64_t, int>, uint64_t> driver;
  for (const ConnUse& u : connection_uses(b)) {
    const auto pin_step = std::make_pair(pack(u.sink), u.step);
    const uint64_t src = pack(u.src);
    auto [it, inserted] = driver.emplace(pin_step, src);
    if (!inserted && it->second != src) {
      std::ostringstream os;
      os << "module input pin driven by two sources at step " << u.step;
      bad.push_back(os.str());
    }
  }
  return bad;
}

// verify(), with its full list checked against the reference: the
// structural rules' messages as verify() reports them, then, on a
// structurally sound binding (the only kind verify() runs the driver pass
// on), the map-based pass's messages.
std::vector<std::string> checked_verify(const Binding& b) {
  const std::vector<std::string> got = verify(b);
  std::vector<std::string> want = got;
  std::erase_if(want, [](const std::string& m) {
    return m.starts_with("module input pin driven by two sources");
  });
  if (want.empty()) want = reference_driver_pass(b);
  EXPECT_EQ(got, want);
  return got;
}

// True if any complaint mentions `needle` — the per-rule tests assert the
// *intended* rule fired, not just that verify() found something.
bool mentions(const std::vector<std::string>& bad, const std::string& needle) {
  return std::any_of(bad.begin(), bad.end(), [&](const std::string& m) {
    return m.find(needle) != std::string::npos;
  });
}

// Shared problem: EWF at 17 steps with two spare registers so corruption
// experiments have room.
class VerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bundle_ = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{2});
    binding_ = std::make_unique<Binding>(initial_allocation(*bundle_.problem));
  }

  // First storage with at least `min_len` segments.
  int long_storage(int min_len) const {
    const Lifetimes& lt = bundle_.problem->lifetimes();
    for (int sid = 0; sid < lt.num_storages(); ++sid)
      if (lt.storage(sid).len >= min_len) return sid;
    ADD_FAILURE() << "no storage of length " << min_len;
    return 0;
  }

  ProblemBundle bundle_;
  std::unique_ptr<Binding> binding_;
};

TEST_F(VerifyTest, InitialAllocationIsClean) {
  EXPECT_TRUE(checked_verify(*binding_).empty());
}

TEST_F(VerifyTest, DetectsUnboundOp) {
  binding_->op(bundle_.graph->operations()[0]).fu = kInvalidId;
  EXPECT_FALSE(checked_verify(*binding_).empty());
}

TEST_F(VerifyTest, DetectsWrongFuClass) {
  // Bind an add to a multiplier.
  for (NodeId n : bundle_.graph->operations()) {
    if (bundle_.graph->node(n).kind == OpKind::kAdd) {
      binding_->op(n).fu = bundle_.problem->fus().of_class(FuClass::kMul)[0];
      break;
    }
  }
  EXPECT_FALSE(checked_verify(*binding_).empty());
}

TEST_F(VerifyTest, DetectsFuDoubleBooking) {
  // Two adds at the same step forced onto one ALU.
  NodeId first = kInvalidId;
  for (NodeId n : bundle_.graph->operations()) {
    if (fu_class_of(bundle_.graph->node(n).kind) != FuClass::kAlu) continue;
    if (first == kInvalidId) {
      first = n;
      continue;
    }
    for (NodeId m : bundle_.graph->operations()) {
      if (m != first &&
          fu_class_of(bundle_.graph->node(m).kind) == FuClass::kAlu &&
          bundle_.schedule->start(m) == bundle_.schedule->start(first)) {
        binding_->op(m).fu = binding_->op(first).fu;
        EXPECT_FALSE(checked_verify(*binding_).empty());
        return;
      }
    }
  }
  GTEST_SKIP() << "no conflicting pair in this schedule";
}

TEST_F(VerifyTest, DetectsSwapOnNonCommutative) {
  // EWF has no subtractions, so build the case directly on a nop-free op:
  // force the flag on an op and temporarily claim it non-commutative is not
  // possible here; instead check adds are allowed to swap.
  for (NodeId n : bundle_.graph->operations())
    if (is_commutative(bundle_.graph->node(n).kind)) {
      binding_->op(n).swap = true;
      break;
    }
  EXPECT_TRUE(checked_verify(*binding_).empty());
}

TEST_F(VerifyTest, DetectsRegisterConflict) {
  const Lifetimes& lt = bundle_.problem->lifetimes();
  // Find two storages live at the same step and collide them.
  for (int a = 0; a < lt.num_storages(); ++a) {
    for (int b = a + 1; b < lt.num_storages(); ++b) {
      for (int seg = 0; seg < lt.storage(a).len; ++seg) {
        const int step = lt.storage(a).step_at(seg, bundle_.schedule->length());
        const int bseg = lt.seg_at_step(b, step);
        if (bseg < 0) continue;
        binding_->sto(b).cells[static_cast<size_t>(bseg)][0].reg =
            binding_->sto(a).cells[static_cast<size_t>(seg)][0].reg;
        EXPECT_FALSE(checked_verify(*binding_).empty());
        return;
      }
    }
  }
  FAIL() << "no overlapping storages found";
}

TEST_F(VerifyTest, DetectsMissingCell) {
  const int sid = long_storage(2);
  binding_->sto(sid).cells[1].clear();
  EXPECT_FALSE(checked_verify(*binding_).empty());
}

TEST_F(VerifyTest, DetectsBadParentIndex) {
  const int sid = long_storage(2);
  binding_->sto(sid).cells[1][0].parent = 7;  // out of range
  EXPECT_FALSE(checked_verify(*binding_).empty());
}

TEST_F(VerifyTest, DetectsSeg0Parent) {
  const int sid = long_storage(1);
  binding_->sto(sid).cells[0][0].parent = 0;
  EXPECT_FALSE(checked_verify(*binding_).empty());
}

TEST_F(VerifyTest, DetectsViaOnHold) {
  // Find a hold pair (cell sharing its parent's register) and give it a via.
  const Lifetimes& lt = bundle_.problem->lifetimes();
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    StorageBinding& sb = binding_->sto(sid);
    for (size_t seg = 1; seg < sb.cells.size(); ++seg) {
      Cell& cell = sb.cells[seg][0];
      if (cell.reg != sb.cells[seg - 1][static_cast<size_t>(cell.parent)].reg)
        continue;
      cell.via = bundle_.problem->fus().pass_capable()[0];
      EXPECT_FALSE(checked_verify(*binding_).empty());
      return;
    }
  }
  GTEST_SKIP() << "no hold cells in this allocation";
}

TEST_F(VerifyTest, DetectsPassThroughOnBusyFu) {
  const Lifetimes& lt = bundle_.problem->lifetimes();
  // Create a real transfer, then route it through a busy FU.
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    if (lt.storage(sid).len < 2) continue;
    StorageBinding& sb = binding_->sto(sid);
    // Find a register free at the second segment's step to transfer into.
    const int step = lt.storage(sid).step_at(1, bundle_.schedule->length());
    const int tstep = lt.storage(sid).step_at(0, bundle_.schedule->length());
    const Occupancy occ = binding_->occupancy();
    RegId target = kInvalidId;
    for (RegId r = 0; r < bundle_.problem->num_regs(); ++r)
      if (occ.reg_free(r, step)) target = r;
    if (target == kInvalidId) continue;
    // Busy pass-capable FU at tstep.
    FuId busy = kInvalidId;
    for (FuId f : bundle_.problem->fus().pass_capable())
      if (!occ.fu_free(f, tstep)) busy = f;
    if (busy == kInvalidId) continue;
    sb.cells[1][0] = Cell{target, 0, busy};
    EXPECT_FALSE(checked_verify(*binding_).empty());
    return;
  }
  GTEST_SKIP() << "no suitable transfer site";
}

TEST_F(VerifyTest, DetectsNonPassCapableVia) {
  const Lifetimes& lt = bundle_.problem->lifetimes();
  const auto muls = bundle_.problem->fus().of_class(FuClass::kMul);
  ASSERT_FALSE(muls.empty());
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    if (lt.storage(sid).len < 2) continue;
    StorageBinding& sb = binding_->sto(sid);
    const int step = lt.storage(sid).step_at(1, bundle_.schedule->length());
    const Occupancy occ = binding_->occupancy();
    for (RegId r = 0; r < bundle_.problem->num_regs(); ++r) {
      if (!occ.reg_free(r, step)) continue;
      sb.cells[1][0] = Cell{r, 0, muls[0]};
      EXPECT_FALSE(checked_verify(*binding_).empty());
      return;
    }
  }
  GTEST_SKIP() << "no suitable transfer site";
}

TEST_F(VerifyTest, DetectsBadReadTarget) {
  const Lifetimes& lt = bundle_.problem->lifetimes();
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    if (lt.storage(sid).reads.empty()) continue;
    binding_->sto(sid).read_cell[0] = 5;  // only one cell exists
    EXPECT_FALSE(checked_verify(*binding_).empty());
    return;
  }
  FAIL() << "no reads found";
}

TEST_F(VerifyTest, DetectsMalformedCellTable) {
  binding_->sto(0).cells.emplace_back();  // one segment row too many
  EXPECT_TRUE(mentions(checked_verify(*binding_), "malformed cell table"));
}

TEST_F(VerifyTest, DetectsInvalidCellRegister) {
  binding_->sto(0).cells[0][0].reg =
      bundle_.problem->num_regs();  // out of range
  EXPECT_TRUE(mentions(checked_verify(*binding_), "invalid register"));
}

TEST_F(VerifyTest, DetectsDuplicateCopyCells) {
  auto& cells = binding_->sto(0).cells[0];
  cells.push_back(cells[0]);  // a copy in the same register is meaningless
  EXPECT_TRUE(mentions(checked_verify(*binding_), "duplicate cells"));
}

TEST_F(VerifyTest, DetectsSeg0PassThrough) {
  binding_->sto(0).cells[0][0].via = bundle_.problem->fus().pass_capable()[0];
  EXPECT_TRUE(
      mentions(checked_verify(*binding_), "seg-0 cell with a pass-through"));
}

TEST_F(VerifyTest, DetectsInvalidViaFu) {
  const Lifetimes& lt = bundle_.problem->lifetimes();
  const Occupancy occ = binding_->occupancy();
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    if (lt.storage(sid).len < 2) continue;
    StorageBinding& sb = binding_->sto(sid);
    const int step = lt.storage(sid).step_at(1, bundle_.schedule->length());
    const RegId prev_reg = sb.cells[0][0].reg;
    for (RegId r = 0; r < bundle_.problem->num_regs(); ++r) {
      if (r == prev_reg || !occ.reg_free(r, step)) continue;
      sb.cells[1][0] =
          Cell{r, 0, bundle_.problem->fus().size()};  // via out of range
      EXPECT_TRUE(mentions(checked_verify(*binding_), "invalid FU"));
      return;
    }
  }
  GTEST_SKIP() << "no suitable transfer site";
}

TEST_F(VerifyTest, DetectsMalformedReadTable) {
  const Lifetimes& lt = bundle_.problem->lifetimes();
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    if (lt.storage(sid).reads.empty()) continue;
    binding_->sto(sid).read_cell.push_back(0);  // one read entry too many
    EXPECT_TRUE(mentions(checked_verify(*binding_), "malformed read table"));
    return;
  }
  FAIL() << "no reads found";
}

// Two verifier rules are defensive and unreachable by mutating a binding
// alone: "occupies steps past the schedule end" can only fire on a schedule
// that Schedule's own validation would have rejected, and "pin driven by two
// sources" requires two connection uses that the structural passes above
// would already have flagged. They stay in verify() as belt-and-braces for
// bindings built by hand. The one-driver table's conflict branch therefore
// stays uncovered; checked_verify() still runs the table against the
// map-based reference on every binding these tests build, and the test below
// on the whole reference corpus, where any mis-indexed row or step shows up
// as a spurious conflict.

TEST(VerifyReference, MatchesMapDriverPassOnCorpus) {
  const BindingCorpus corpus = build_binding_corpus();
  for (const CorpusBinding& cb : corpus.bindings)
    EXPECT_TRUE(checked_verify(cb.binding).empty()) << cb.label;
}

// --- cyclic (mod-L) lifetimes ----------------------------------------------

TEST_F(VerifyTest, LoopStatesYieldWrappingStorages) {
  int wrapping = 0;
  for (const Storage& s : bundle_.problem->lifetimes().storages())
    wrapping += s.wraps;
  EXPECT_GT(wrapping, 0) << "EWF loop states should wrap the iteration edge";
  EXPECT_TRUE(checked_verify(*binding_).empty());
}

TEST_F(VerifyTest, DetectsModLRegisterConflictAcrossWrapBoundary) {
  // Collide a register *in the wrapped part* of a cyclic live range (steps
  // below birth, i.e. past the iteration edge) with a storage born early.
  const Lifetimes& lt = bundle_.problem->lifetimes();
  const int L = bundle_.schedule->length();
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    const Storage& s = lt.storage(sid);
    if (!s.wraps) continue;
    for (int seg = 0; seg < s.len; ++seg) {
      const int step = s.step_at(seg, L);
      if (step >= s.birth) continue;  // not yet past the boundary
      for (int other = 0; other < lt.num_storages(); ++other) {
        if (other == sid) continue;
        const int oseg = lt.seg_at_step(other, step);
        if (oseg < 0) continue;
        binding_->sto(other).cells[static_cast<size_t>(oseg)][0].reg =
            binding_->sto(sid).cells[static_cast<size_t>(seg)][0].reg;
        EXPECT_TRUE(mentions(checked_verify(*binding_),
                             "holds two storages at step " +
                                 std::to_string(step)));
        return;
      }
    }
  }
  GTEST_SKIP() << "no wrapped overlap in this allocation";
}

TEST(VerifyRules, AcceptsTransferAcrossTheWrapBoundary) {
  // A register chain may legally hop registers exactly at the iteration
  // edge: the pass-through runs at step L-1 and the new register is
  // occupied from step 0 of the next iteration. The min-FU schedule keeps
  // every ALU busy at step L-1, so grant one spare unit to host the hop.
  Cdfg g = make_ewf();
  const Schedule sched = schedule_min_fu(g, HwSpec{}, 17).schedule;
  FuBudget budget = peak_fu_demand(sched);
  budget.alu += 1;
  AllocProblem prob(sched, FuPool::standard(budget), SpareRegisters{2});
  Binding b = initial_allocation(prob);
  const Lifetimes& lt = prob.lifetimes();
  const int L = sched.length();
  const Occupancy occ = b.occupancy();
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    const Storage& s = lt.storage(sid);
    if (!s.wraps) continue;
    for (int seg = 1; seg < s.len; ++seg) {
      if (s.step_at(seg, L) != 0) continue;  // seg-1 sits at step L-1
      StorageBinding& sb = b.sto(sid);
      const RegId prev_reg = sb.cells[static_cast<size_t>(seg) - 1][0].reg;
      for (RegId r = 0; r < prob.num_regs(); ++r) {
        if (r == prev_reg || !occ.reg_free(r, 0)) continue;
        for (FuId f : prob.fus().pass_capable()) {
          if (!occ.fu_free(f, L - 1)) continue;
          sb.cells[static_cast<size_t>(seg)][0] = Cell{r, 0, f};
          EXPECT_TRUE(checked_verify(b).empty());
          return;
        }
      }
    }
  }
  FAIL() << "no wrap-boundary transfer site despite the spare ALU";
}

TEST_F(VerifyTest, DetectsDuplicateCopyCellAtWrappedSegment) {
  const Lifetimes& lt = bundle_.problem->lifetimes();
  const int L = bundle_.schedule->length();
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    const Storage& s = lt.storage(sid);
    if (!s.wraps) continue;
    for (int seg = 0; seg < s.len; ++seg) {
      if (s.step_at(seg, L) >= s.birth) continue;
      auto& cells = binding_->sto(sid).cells[static_cast<size_t>(seg)];
      cells.push_back(cells[0]);
      EXPECT_TRUE(mentions(checked_verify(*binding_), "duplicate cells"));
      return;
    }
  }
  GTEST_SKIP() << "no wrapping storage";
}

// --- rules needing a different problem than the fixture's ------------------

TEST(VerifyRules, FlagsSwapOnNonCommutativeOp) {
  // EWF has no subtractions, so the fixture can't reach this rule; DCT can.
  const ProblemBundle p =
      make_problem(make_dct(), HwSpec{}, 9, SpareRegisters{1});
  Binding b = initial_allocation(*p.problem);
  for (NodeId n : p.graph->operations()) {
    if (is_commutative(p.graph->node(n).kind)) continue;
    b.op(n).swap = true;
    EXPECT_TRUE(mentions(checked_verify(b), "swapped operands"));
    return;
  }
  FAIL() << "DCT should contain non-commutative ops";
}

TEST(VerifyRules, FlagsPassThroughOnMultiCycleFuClass) {
  // Pass-capable multipliers: a via there is structurally well-formed but
  // illegal because the class's delay is 2, not the 1-step forward a
  // pass-through provides.
  Cdfg g = make_ewf();
  const Schedule sched = schedule_min_fu(g, HwSpec{}, 17).schedule;
  AllocProblem prob(
      sched,
      FuPool::standard(peak_fu_demand(sched), true, /*mul_can_pass=*/true),
      SpareRegisters{2});
  Binding b = initial_allocation(prob);
  const Lifetimes& lt = prob.lifetimes();
  const auto muls = prob.fus().of_class(FuClass::kMul);
  ASSERT_FALSE(muls.empty());
  const Occupancy occ = b.occupancy();
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    if (lt.storage(sid).len < 2) continue;
    StorageBinding& sb = b.sto(sid);
    const int step = lt.storage(sid).step_at(1, sched.length());
    const int tstep = lt.storage(sid).step_at(0, sched.length());
    const RegId prev_reg = sb.cells[0][0].reg;
    for (RegId r = 0; r < prob.num_regs(); ++r) {
      if (r == prev_reg || !occ.reg_free(r, step)) continue;
      for (FuId m : muls) {
        if (!occ.fu_free(m, tstep)) continue;
        sb.cells[1][0] = Cell{r, 0, m};
        EXPECT_TRUE(mentions(checked_verify(b), "multi-cycle"));
        return;
      }
    }
  }
  GTEST_SKIP() << "no suitable transfer site";
}

TEST(VerifyRules, FlagsPassThroughCollidingWithResultLanding) {
  // With pipelined multipliers an op occupies its FU only at its start step
  // but still lands a result one step later; a pass-through there is free
  // by occupancy yet collides on the FU output port.
  Cdfg g = make_ewf();
  HwSpec hw;
  hw.pipelined_mul = true;
  const Schedule sched = schedule_min_fu(g, hw, 17).schedule;
  AllocProblem prob(sched,
                    FuPool::standard(peak_fu_demand(sched), true, true),
                    SpareRegisters{2});
  Binding b = initial_allocation(prob);
  const Lifetimes& lt = prob.lifetimes();
  const int L = sched.length();
  const Occupancy occ = b.occupancy();
  for (NodeId n : g.operations()) {
    if (g.node(n).kind != OpKind::kMul) continue;
    const FuId m = b.op(n).fu;
    const int fin = (sched.start(n) + hw.delay(OpKind::kMul) - 1) % L;
    if (!occ.fu_free(m, fin)) continue;
    for (int sid = 0; sid < lt.num_storages(); ++sid) {
      const Storage& s = lt.storage(sid);
      for (int seg = 1; seg < s.len; ++seg) {
        if (s.step_at(seg - 1, L) != fin) continue;
        StorageBinding& sb = b.sto(sid);
        const int step = s.step_at(seg, L);
        const RegId prev_reg =
            sb.cells[static_cast<size_t>(seg) - 1][0].reg;
        for (RegId r = 0; r < prob.num_regs(); ++r) {
          if (r == prev_reg || !occ.reg_free(r, step)) continue;
          sb.cells[static_cast<size_t>(seg)][0] = Cell{r, 0, m};
          EXPECT_TRUE(
              mentions(checked_verify(b), "collides with a result landing"));
          return;
        }
      }
    }
  }
  GTEST_SKIP() << "no suitable collision site";
}

TEST_F(VerifyTest, CheckLegalThrowsWithDetails) {
  binding_->op(bundle_.graph->operations()[0]).fu = kInvalidId;
  try {
    check_legal(*binding_);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("illegal binding"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace salsa
