#include <gtest/gtest.h>

#include "bench_suite/ewf.h"
#include "bench_suite/fir.h"
#include "core/lifetime.h"
#include "sched/force_directed.h"
#include "sched/fu_search.h"

namespace salsa {
namespace {

// A hand-scheduled accumulator: st' = st + in, out = st'.
struct AccFixture {
  Cdfg g{"acc"};
  ValueId in, st, sum;
  NodeId sum_node, out_node;

  AccFixture() {
    in = g.add_input("in");
    st = g.add_state("st");
    sum = g.add_op(OpKind::kAdd, st, in, "sum");
    g.set_state_next(st, sum);
    out_node = g.add_output(sum, "o");
    sum_node = g.producer(sum);
    g.validate();
  }
};

TEST(Lifetime, MergesStateWithNextContent) {
  AccFixture f;
  Schedule s(f.g, HwSpec{}, 4);
  s.set_start(f.sum_node, 1);  // reads st at 1, sum ready at 2
  s.set_start(f.out_node, 2);
  Lifetimes lt(s);
  // One merged storage (st+sum) and one input storage.
  EXPECT_EQ(lt.num_storages(), 2);
  EXPECT_EQ(lt.storage_of(f.st), lt.storage_of(f.sum));
  const Storage& sto = lt.storage(lt.storage_of(f.st));
  // Born when sum is ready (step 2), read at step 2 (output) and wraps to
  // step 1 of the next iteration (the state read).
  EXPECT_EQ(sto.birth, 2);
  EXPECT_TRUE(sto.wraps);
  // Live steps: 2, 3, 0, 1 — the full period.
  EXPECT_EQ(sto.len, 4);
  EXPECT_EQ(sto.producer, f.sum_node);
}

TEST(Lifetime, ReadSegmentsMapToSteps) {
  AccFixture f;
  Schedule s(f.g, HwSpec{}, 4);
  s.set_start(f.sum_node, 1);
  s.set_start(f.out_node, 3);
  Lifetimes lt(s);
  const Storage& sto = lt.storage(lt.storage_of(f.st));
  for (const StorageRead& r : sto.reads)
    EXPECT_EQ(sto.step_at(r.seg, 4), r.step);
}

TEST(Lifetime, InputLifetimeSpansToLastRead) {
  AccFixture f;
  Schedule s(f.g, HwSpec{}, 5);
  s.set_start(f.sum_node, 3);
  s.set_start(f.out_node, 4);
  Lifetimes lt(s);
  const Storage& sto = lt.storage(lt.storage_of(f.in));
  EXPECT_EQ(sto.birth, 0);
  EXPECT_FALSE(sto.wraps);
  EXPECT_EQ(sto.len, 4);  // steps 0..3
  EXPECT_EQ(sto.producer, kInvalidId);
}

TEST(Lifetime, DemandCountsOverlaps) {
  AccFixture f;
  Schedule s(f.g, HwSpec{}, 4);
  s.set_start(f.sum_node, 1);
  s.set_start(f.out_node, 2);
  Lifetimes lt(s);
  // State storage live everywhere (len 4); input live at steps 0..1.
  EXPECT_EQ(lt.demand()[0], 2);
  EXPECT_EQ(lt.demand()[1], 2);
  EXPECT_EQ(lt.demand()[2], 1);
  EXPECT_EQ(lt.demand()[3], 1);
  EXPECT_EQ(lt.min_registers(), 2);
}

TEST(Lifetime, SegAtStepOutsideArcIsMinusOne) {
  AccFixture f;
  Schedule s(f.g, HwSpec{}, 4);
  s.set_start(f.sum_node, 1);
  s.set_start(f.out_node, 2);
  Lifetimes lt(s);
  const int input_sto = lt.storage_of(f.in);
  EXPECT_GE(lt.seg_at_step(input_sto, 0), 0);
  EXPECT_EQ(lt.seg_at_step(input_sto, 3), -1);
}

TEST(Lifetime, EwfStorageCensus) {
  Cdfg g = make_ewf();
  HwSpec hw;
  Schedule s = force_directed_schedule(g, hw, 17);
  Lifetimes lt(s);
  // 34 op results + 1 input, with 7 values merged into their states.
  EXPECT_EQ(lt.num_storages(), 35);
  int wrapping = 0;
  for (int sid = 0; sid < lt.num_storages(); ++sid)
    wrapping += lt.storage(sid).wraps;
  EXPECT_GT(wrapping, 0) << "EWF states must cross the iteration boundary";
  EXPECT_GE(lt.min_registers(), 10);
  EXPECT_LE(lt.min_registers(), 15);
}

TEST(Lifetime, EveryReadInsideArc) {
  Cdfg g = make_ewf();
  HwSpec hw;
  for (int L : {17, 19, 21}) {
    Schedule s = schedule_min_fu(g, hw, L).schedule;
    Lifetimes lt(s);
    for (int sid = 0; sid < lt.num_storages(); ++sid) {
      const Storage& sto = lt.storage(sid);
      for (const StorageRead& r : sto.reads) {
        EXPECT_GE(r.seg, 0);
        EXPECT_LT(r.seg, sto.len);
      }
    }
  }
}

TEST(Lifetime, FirNopChainsShareStorageWithStates) {
  Cdfg g = make_fir8();
  HwSpec hw;
  Schedule s = force_directed_schedule(g, hw, 12);
  Lifetimes lt(s);
  // Each shift Nop's result merges with its target state: 7 taps + input +
  // 8 products + 7 accumulator sums + shift results merged away.
  for (NodeId sn : g.state_nodes()) {
    const Node& st = g.node(sn);
    EXPECT_EQ(lt.storage_of(st.out), lt.storage_of(st.state_next));
  }
}

TEST(Lifetime, DemandMatchesStorageSum) {
  Cdfg g = make_ewf();
  HwSpec hw;
  Schedule s = force_directed_schedule(g, hw, 19);
  Lifetimes lt(s);
  long total_live = 0;
  for (int sid = 0; sid < lt.num_storages(); ++sid)
    total_live += lt.storage(sid).len;
  long demand_sum = 0;
  for (int d : lt.demand()) demand_sum += d;
  EXPECT_EQ(total_live, demand_sum);
}

// --- Packed live-mask cross-checks (cyclic edge cases) ---------------------
// The packed rows of live_masks() must agree bit-for-bit with the scalar
// arc arithmetic (seg_at_step / step_at) on every storage of every schedule,
// including the awkward arcs: single-segment lifetimes, full-period wrapping
// state storages, and wrap-around arcs straddling the iteration boundary.

TEST(Lifetime, MinimalSingleSegmentLifetime) {
  AccFixture f;
  Schedule s(f.g, HwSpec{}, 4);
  s.set_start(f.sum_node, 0);  // reads `in` at its birth step
  s.set_start(f.out_node, 1);
  Lifetimes lt(s);
  const int sid = lt.storage_of(f.in);
  const Storage& sto = lt.storage(sid);
  // Born and last read in step 0: the shortest legal arc, one segment.
  EXPECT_EQ(sto.birth, 0);
  EXPECT_EQ(sto.len, 1);
  EXPECT_FALSE(sto.wraps);
  EXPECT_EQ(lt.live_masks().popcount_row(sid), 1);
  EXPECT_TRUE(lt.live_masks().test(sid, 0));
  EXPECT_EQ(lt.seg_at_step(sid, 0), 0);
  EXPECT_EQ(lt.seg_at_step(sid, 1), -1);
  ASSERT_EQ(lt.steps_of(sid).size(), 1u);
  EXPECT_EQ(lt.steps_of(sid)[0], 0);
}

TEST(Lifetime, FullPeriodWrappingMaskIsAllOnes) {
  AccFixture f;
  Schedule s(f.g, HwSpec{}, 4);
  s.set_start(f.sum_node, 1);
  s.set_start(f.out_node, 2);
  Lifetimes lt(s);
  // The merged state storage is born at 2 and wraps to the state read at 1
  // of the next iteration: live at every step, len == L.
  const int sid = lt.storage_of(f.st);
  const Storage& sto = lt.storage(sid);
  ASSERT_TRUE(sto.wraps);
  ASSERT_EQ(sto.len, 4);
  EXPECT_EQ(lt.live_masks().popcount_row(sid), 4);
  for (int t = 0; t < 4; ++t) EXPECT_TRUE(lt.live_masks().test(sid, t)) << t;
}

TEST(Lifetime, WrappingMasksStraddleTheBoundary) {
  Cdfg g = make_ewf();
  HwSpec hw;
  const int L = 17;
  Schedule s = force_directed_schedule(g, hw, L);
  Lifetimes lt(s);
  int straddling = 0;
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    const Storage& sto = lt.storage(sid);
    if (!sto.wraps || sto.birth == 0) continue;
    ++straddling;
    // A wrapping arc born mid-cycle contributes its tail span [birth, L)
    // and head span [0, birth + len - L): both sides of the boundary set...
    EXPECT_TRUE(lt.live_masks().test(sid, L - 1)) << "sid " << sid;
    EXPECT_TRUE(lt.live_masks().test(sid, 0)) << "sid " << sid;
    // ...and, unless it covers the full period, the step right after the
    // head span is dead.
    if (sto.len < L) {
      const int dead = sto.birth + sto.len - L;
      EXPECT_FALSE(lt.live_masks().test(sid, dead)) << "sid " << sid;
      EXPECT_EQ(lt.seg_at_step(sid, dead), -1) << "sid " << sid;
    }
  }
  EXPECT_GT(straddling, 0) << "EWF must have boundary-straddling storages";
}

TEST(Lifetime, LiveMasksMatchSegAtStepEverywhere) {
  Cdfg g = make_ewf();
  HwSpec hw;
  for (int L : {17, 19, 21}) {
    Schedule s = schedule_min_fu(g, hw, L).schedule;
    Lifetimes lt(s);
    ASSERT_EQ(lt.live_masks().rows(), lt.num_storages());
    ASSERT_EQ(lt.live_masks().bits(), L);
    for (int sid = 0; sid < lt.num_storages(); ++sid) {
      for (int t = 0; t < L; ++t)
        ASSERT_EQ(lt.live_masks().test(sid, t), lt.seg_at_step(sid, t) != -1)
            << "L " << L << " sid " << sid << " step " << t;
      // steps_of is the precomputed step_at table, one entry per segment.
      const Storage& sto = lt.storage(sid);
      ASSERT_EQ(lt.steps_of(sid).size(), static_cast<size_t>(sto.len));
      for (int seg = 0; seg < sto.len; ++seg)
        ASSERT_EQ(lt.steps_of(sid)[static_cast<size_t>(seg)],
                  sto.step_at(seg, L));
    }
  }
}

TEST(Lifetime, OverlapsMatchesScalarDoubleLoop) {
  Cdfg g = make_ewf();
  HwSpec hw;
  const int L = 19;
  Schedule s = force_directed_schedule(g, hw, L);
  Lifetimes lt(s);
  for (int a = 0; a < lt.num_storages(); ++a) {
    for (int b = a; b < lt.num_storages(); ++b) {
      bool scalar = false;
      for (int t = 0; t < L && !scalar; ++t)
        scalar = lt.seg_at_step(a, t) != -1 && lt.seg_at_step(b, t) != -1;
      ASSERT_EQ(lt.overlaps(a, b), scalar) << "sids " << a << ", " << b;
      ASSERT_EQ(lt.overlaps(b, a), scalar);
    }
  }
}

}  // namespace
}  // namespace salsa
