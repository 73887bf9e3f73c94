#include <gtest/gtest.h>

#include "bench_suite/dct.h"
#include "bench_suite/diffeq.h"
#include "bench_suite/ewf.h"
#include "core/initial.h"
#include "core/moves.h"
#include "core/verify.h"
#include "regfile/regfile.h"

namespace salsa {
namespace {

TEST(RegFile, ActivityMatchesConnections) {
  const auto ctx = make_problem(make_diffeq(), HwSpec{}, 10, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  const RegActivity act = register_activity(b);
  // Every used register both loads and is read at least once (diffeq has no
  // dead values).
  int active = 0;
  for (RegId r = 0; r < ctx.problem->num_regs(); ++r) {
    bool any_read = false, any_write = false;
    for (int t = 0; t < ctx.schedule->length(); ++t) {
      any_read |= act.reads[static_cast<size_t>(r)][static_cast<size_t>(t)];
      any_write |= act.writes[static_cast<size_t>(r)][static_cast<size_t>(t)];
    }
    if (any_read || any_write) {
      ++active;
      EXPECT_TRUE(any_write) << "read-only register R" << r;
    }
  }
  EXPECT_EQ(active, b.regs_used());
}

struct SpecCase {
  const char* name;
  RegFileSpec spec;
};

class RegFileBinding : public ::testing::TestWithParam<SpecCase> {};

TEST_P(RegFileBinding, AssignmentVerifiesOnEwf) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  const RegFileSpec& spec = GetParam().spec;
  const RegFileAssignment asg = bind_register_files(b, spec);
  const auto bad = verify_register_files(b, spec, asg);
  EXPECT_TRUE(bad.empty()) << (bad.empty() ? "" : bad[0]);
  EXPECT_GE(asg.num_files, register_file_lower_bound(b, spec));
}

TEST_P(RegFileBinding, AssignmentVerifiesAfterScramble) {
  const auto ctx = make_problem(make_dct(), HwSpec{}, 10, SpareRegisters{2});
  Binding b = initial_allocation(*ctx.problem);
  Rng rng(5);
  const MoveConfig moves = MoveConfig::salsa_default();
  for (int i = 0; i < 300; ++i) apply_random_move(b, moves.pick(rng), rng);
  ASSERT_TRUE(verify(b).empty());
  const RegFileSpec& spec = GetParam().spec;
  const RegFileAssignment asg = bind_register_files(b, spec);
  EXPECT_TRUE(verify_register_files(b, spec, asg).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Specs, RegFileBinding,
    ::testing::Values(SpecCase{"default", RegFileSpec{}},
                      SpecCase{"single_reg", RegFileSpec{1, 1, 1}},
                      SpecCase{"wide", RegFileSpec{8, 4, 2}},
                      SpecCase{"one_read_port", RegFileSpec{4, 1, 1}}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(RegFile, SingleRegisterFilesEqualUsedRegisters) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  const RegFileSpec spec{1, 2, 1};
  const RegFileAssignment asg = bind_register_files(b, spec);
  EXPECT_EQ(asg.num_files, b.regs_used());
}

TEST(RegFile, UnusedRegistersGetNoFile) {
  const auto ctx = make_problem(make_diffeq(), HwSpec{}, 10, SpareRegisters{3});
  Binding b = initial_allocation(*ctx.problem);
  const RegFileAssignment asg = bind_register_files(b, RegFileSpec{});
  int unassigned = 0;
  for (int f : asg.file_of) unassigned += f < 0;
  EXPECT_EQ(unassigned, ctx.problem->num_regs() - b.regs_used());
}

TEST(RegFile, VerifierCatchesOverfullFile) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  const RegFileSpec spec{2, 2, 1};
  RegFileAssignment asg = bind_register_files(b, spec);
  // Cram every used register into file 0.
  for (auto& f : asg.file_of)
    if (f >= 0) f = 0;
  EXPECT_FALSE(verify_register_files(b, spec, asg).empty());
}

TEST(RegFile, LowerBoundRespectsPorts) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  // With one read port per file, the peak concurrent read count forces at
  // least that many files.
  const RegFileSpec spec{16, 1, 16};
  const int lb = register_file_lower_bound(b, spec);
  EXPECT_GE(lb, 2) << "EWF reads several registers per step";
  const RegFileAssignment asg = bind_register_files(b, spec);
  EXPECT_GE(asg.num_files, lb);
  EXPECT_TRUE(verify_register_files(b, spec, asg).empty());
}

}  // namespace
}  // namespace salsa
