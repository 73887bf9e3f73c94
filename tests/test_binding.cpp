#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bench_suite/ar_filter.h"
#include "bench_suite/dct.h"
#include "bench_suite/diffeq.h"
#include "bench_suite/ewf.h"
#include "bench_suite/fir.h"
#include "core/initial.h"
#include "core/verify.h"
#include "frontend/generate.h"
#include "sched/fu_search.h"

namespace salsa {
namespace {

TEST(Binding, InitialAllocationIsLegalOnAllBenchmarks) {
  {
    const auto f = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{0});
    check_legal(initial_allocation(*f.problem));
  }
  {
    const auto f = make_problem(make_dct(), HwSpec{}, 10, SpareRegisters{0});
    check_legal(initial_allocation(*f.problem));
  }
  {
    const auto f =
        make_problem(make_ar_filter(), HwSpec{}, 16, SpareRegisters{0});
    check_legal(initial_allocation(*f.problem));
  }
  {
    const auto f = make_problem(make_fir8(), HwSpec{}, 11, SpareRegisters{0});
    check_legal(initial_allocation(*f.problem));
  }
  {
    const auto f = make_problem(make_diffeq(), HwSpec{}, 9, SpareRegisters{0});
    check_legal(initial_allocation(*f.problem));
  }
}

TEST(Binding, InitialIsDeterministicPerSeed) {
  const auto f = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{0});
  Binding a = initial_allocation(*f.problem, InitialOptions{.seed = 5});
  Binding b = initial_allocation(*f.problem, InitialOptions{.seed = 5});
  for (NodeId n : f.graph->operations()) EXPECT_EQ(a.op(n).fu, b.op(n).fu);
  for (int sid = 0; sid < f.problem->lifetimes().num_storages(); ++sid)
    for (size_t seg = 0; seg < a.sto(sid).cells.size(); ++seg)
      EXPECT_EQ(a.sto(sid).cells[seg][0].reg, b.sto(sid).cells[seg][0].reg);
}

TEST(Binding, OccupancyAccountsForEveryCellAndOp) {
  const auto f = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{0});
  Binding b = initial_allocation(*f.problem);
  const Occupancy occ = b.occupancy();
  // Every op occupies its FU at its start step.
  for (NodeId n : f.graph->operations())
    EXPECT_EQ(occ.fu_user[static_cast<size_t>(b.op(n).fu)]
                         [static_cast<size_t>(f.schedule->start(n))],
              n);
  // Register occupancy total equals the sum of storage lifetimes.
  long cells = 0;
  for (const auto& per_reg : occ.reg_sto)
    for (int user : per_reg) cells += user >= 0;
  long lens = 0;
  for (int sid = 0; sid < f.problem->lifetimes().num_storages(); ++sid)
    lens += f.problem->lifetimes().storage(sid).len;
  EXPECT_EQ(cells, lens);
}

TEST(Binding, RegsUsedWithinBudget) {
  const auto f = make_problem(make_dct(), HwSpec{}, 12, SpareRegisters{2});
  Binding b = initial_allocation(*f.problem);
  EXPECT_LE(b.regs_used(), f.problem->num_regs());
  EXPECT_GE(b.regs_used(), f.problem->lifetimes().min_registers());
}

TEST(Binding, InitialIsTraditionalWhenContiguous) {
  const auto f = make_problem(make_diffeq(), HwSpec{}, 9, SpareRegisters{2});
  Binding b =
      initial_allocation(*f.problem, InitialOptions{.allow_splits = false});
  EXPECT_TRUE(b.is_traditional());
}

TEST(Binding, NormalizeClearsViaOnHolds) {
  const auto f = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{2});
  Binding b = initial_allocation(*f.problem);
  // Manufacture a hold with a stale via and check normalize clears it.
  for (int sid = 0; sid < f.problem->lifetimes().num_storages(); ++sid) {
    StorageBinding& sb = b.sto(sid);
    if (sb.cells.size() < 2) continue;
    sb.cells[1][0].via = 0;  // parent reg == own reg → stale
    b.normalize();
    EXPECT_EQ(sb.cells[1][0].via, kInvalidId);
    break;
  }
}

TEST(Binding, ProblemRejectsTooFewRegisters) {
  Cdfg g = make_ewf();
  HwSpec hw;
  Schedule s = schedule_min_fu(g, hw, 17).schedule;
  FuPool pool = FuPool::standard(peak_fu_demand(s));
  const int min_regs = Lifetimes(s).min_registers();
  EXPECT_THROW(AllocProblem(s, pool, min_regs - 1), Error);
}

TEST(Binding, ProblemRejectsTooFewFus) {
  Cdfg g = make_ewf();
  HwSpec hw;
  Schedule s = schedule_min_fu(g, hw, 17).schedule;
  const FuBudget peak = peak_fu_demand(s);
  FuPool pool = FuPool::standard(FuBudget{peak.alu - 1, peak.mul});
  EXPECT_THROW(AllocProblem(s, pool, SpareRegisters{5}), Error);
}

// The problem recipe against the two-step build it replaced: schedule, then
// an absolute budget of the schedule's minimum plus the spare count.
void expect_same_problem(const AllocProblem& got, const AllocProblem& ref) {
  EXPECT_EQ(got.num_regs(), ref.num_regs());
  EXPECT_EQ(got.lifetimes().num_storages(), ref.lifetimes().num_storages());
  ASSERT_EQ(got.fus().size(), ref.fus().size());
  for (FuId f = 0; f < ref.fus().size(); ++f) {
    EXPECT_EQ(got.fus().fu(f).name, ref.fus().fu(f).name);
    EXPECT_EQ(got.fus().fu(f).cls, ref.fus().fu(f).cls);
    EXPECT_EQ(got.fus().fu(f).can_pass, ref.fus().fu(f).can_pass);
  }
}

TEST(ProblemRecipe, MatchesTwoStepBuildOnPaperGrids) {
  struct Row {
    Cdfg (*make)();
    int steps;
    bool pipelined;
    int spare;
  };
  std::vector<Row> rows;  // Table 2 (EWF), then Table 3 (DCT)
  for (const auto& [steps, pipelined] : {std::pair{17, false}, {17, true},
                                         {19, false}, {19, true}, {21, false}})
    for (int spare = 0; spare <= 2; ++spare)
      rows.push_back({make_ewf, steps, pipelined, spare});
  for (int steps : {7, 9, 11, 13})
    for (int spare : {0, 2}) rows.push_back({make_dct, steps, false, spare});

  for (const Row& r : rows) {
    const HwSpec hw{.pipelined_mul = r.pipelined};
    const ProblemBundle b =
        make_problem(r.make(), hw, r.steps, SpareRegisters{r.spare});
    const Cdfg g = r.make();
    const FuSearchResult sr = schedule_min_fu(g, hw, r.steps);
    const FuPool pool = FuPool::standard(sr.fus);
    const AllocProblem ref(sr.schedule, pool,
                           r.spare + Lifetimes(sr.schedule).min_registers());
    SCOPED_TRACE(g.name() + " at " + std::to_string(r.steps) + " steps" +
                 (r.pipelined ? ", pipelined" : "") + ", spare " +
                 std::to_string(r.spare));
    expect_same_problem(*b.problem, ref);
    expect_same_problem(
        AllocProblem(sr.schedule, pool, SpareRegisters{r.spare}), ref);
    EXPECT_EQ(b.fus.alu, sr.fus.alu);
    EXPECT_EQ(b.fus.mul, sr.fus.mul);
    for (NodeId n = 0; n < g.num_nodes(); ++n)
      ASSERT_EQ(b.schedule->start(n), sr.schedule.start(n));
  }
}

TEST(ProblemRecipe, MatchesTwoStepBuildOnGeneratedFamilies) {
  for (const GenFamily f :
       {GenFamily::kFilterCascade, GenFamily::kGemmPipeline,
        GenFamily::kLayeredDag, GenFamily::kMemoryTraffic}) {
    const GenParams p{.family = f, .target_ops = 1000, .seed = 1};
    const GeneratedDesign d = generate_design(p);
    const AllocProblem ref(
        *d.schedule, FuPool::standard(d.fus),
        p.spare.count + Lifetimes(*d.schedule).min_registers());
    SCOPED_TRACE(gen_family_name(f));
    expect_same_problem(*d.problem, ref);
  }
}

TEST(ProblemRecipe, RejectsNegativeSpareCount) {
  const ProblemBundle b =
      make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{0});
  try {
    const AllocProblem p(*b.schedule, FuPool::standard(b.fus),
                         SpareRegisters{-1});
    FAIL() << "a negative spare count was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("spare register budget"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{-1}),
               Error);
}

TEST(FuPoolTest, StandardPoolShapes) {
  FuPool p = FuPool::standard(FuBudget{2, 3});
  EXPECT_EQ(p.size(), 5);
  EXPECT_EQ(p.of_class(FuClass::kAlu).size(), 2u);
  EXPECT_EQ(p.of_class(FuClass::kMul).size(), 3u);
  EXPECT_EQ(p.pass_capable().size(), 2u);  // ALUs pass, muls do not
  FuPool p2 = FuPool::standard(FuBudget{1, 1}, true, true);
  EXPECT_EQ(p2.pass_capable().size(), 2u);
}

}  // namespace
}  // namespace salsa
