#include <gtest/gtest.h>

#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "bench_suite/fir.h"
#include "cdfg/eval.h"
#include "core/initial.h"
#include "io/report.h"
#include "io/text_format.h"
#include "util/rng.h"
#include "sched/fu_search.h"

namespace salsa {
namespace {

const char* kBiquad = R"(
# comment line
cdfg biquad
input x
state s1
const 3 a1
mul p1 s1 a1
add w x p1     # trailing comment
nop s1n w
next s1 s1n
output yout w
)";

TEST(TextFormat, ParsesBasicDesign) {
  ParsedDesign d = parse_design_string(kBiquad);
  const Cdfg& g = *d.cdfg;
  EXPECT_EQ(g.name(), "biquad");
  EXPECT_EQ(g.count(OpKind::kMul), 1);
  EXPECT_EQ(g.count(OpKind::kAdd), 1);
  EXPECT_EQ(g.count(OpKind::kNop), 1);
  EXPECT_EQ(g.state_nodes().size(), 1u);
  EXPECT_FALSE(d.schedule.has_value());
}

TEST(TextFormat, ParsesScheduleSection) {
  std::string text = std::string(kBiquad) +
                     "schedule 6\nat p1 0\nat w 2\nat s1n 3\nat yout 3\n";
  ParsedDesign d = parse_design_string(text);
  ASSERT_TRUE(d.schedule.has_value());
  EXPECT_EQ(d.schedule->length(), 6);
  const Cdfg& g = *d.cdfg;
  for (NodeId n : g.operations()) {
    if (g.node(n).name == "w") {
      EXPECT_EQ(d.schedule->start(n), 2);
    }
  }
}

TEST(TextFormat, PipelinedFlag) {
  std::string text = std::string(kBiquad) +
                     "schedule 6 pipelined\nat p1 0\nat w 2\nat s1n 3\nat "
                     "yout 3\n";
  ParsedDesign d = parse_design_string(text);
  EXPECT_TRUE(d.hw.pipelined_mul);
}

struct BadCase {
  const char* name;
  const char* text;
  int line;  // the line the diagnostic must name
};

class TextFormatRejects : public ::testing::TestWithParam<BadCase> {};

TEST_P(TextFormatRejects, WithLineNumberedError) {
  const std::string want =
      "parse error at line " + std::to_string(GetParam().line) + ": ";
  try {
    parse_design_string(GetParam().text);
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).rfind(want, 0), 0u) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TextFormatRejects,
    ::testing::Values(
        BadCase{"unknown_directive", "cdfg x\nfrobnicate y\n", 2},
        BadCase{"unknown_value", "cdfg x\ninput a\nadd s a b\n", 3},
        BadCase{"redefined_value", "cdfg x\ninput a\ninput a\n", 3},
        BadCase{"bad_arity", "cdfg x\ninput a\nadd s a\n", 3},
        BadCase{"bad_const", "cdfg x\nconst zz\n", 2},
        BadCase{"const_trailing_junk", "cdfg x\nconst 3abc a1\n", 2},
        BadCase{"const_hex", "cdfg x\ninput a\nconst 0x10\n", 3},
        BadCase{"const_exponent", "cdfg x\nconst 1e3 k\n", 2},
        BadCase{"at_before_schedule", "cdfg x\ninput a\nat a 3\n", 3},
        BadCase{"bad_schedule_flag",
                "cdfg x\ninput a\nnop n a\noutput o n\nschedule 3 fast\n", 5},
        BadCase{"unknown_at_node",
                "cdfg x\ninput a\nnop n a\noutput o n\nschedule 3\nat q 1\n",
                6},
        BadCase{"schedule_zero",
                "cdfg x\ninput a\nnop y a\noutput o y\nschedule 0\n", 5},
        BadCase{"schedule_negative",
                "cdfg x\ninput a\nnop y a\noutput o y\nschedule -1\n", 5},
        BadCase{"schedule_huge",
                "cdfg x\ninput a\nnop y a\noutput o y\nschedule 2000000000\n"
                "at y 0\nat o 1\n",
                5},
        BadCase{"schedule_trailing_junk",
                "cdfg x\ninput a\nnop y a\noutput o y\nschedule 3abc\n", 5},
        BadCase{"at_trailing_junk",
                "cdfg x\ninput a\nnop y a\noutput o y\nschedule 3\nat y 0x\n"
                "at o 1\n",
                6},
        BadCase{"at_out_of_range",
                "cdfg x\ninput a\nnop y a\noutput o y\nschedule 3\nat y 0\n"
                "at o 3\n",
                7},
        BadCase{"next_twice",
                "cdfg x\ninput a\nstate s\nadd w a s\nnext s w\nnext s w\n"
                "output o w\n",
                6},
        BadCase{"next_target_not_state",
                "cdfg x\ninput a\nstate s\nadd w a s\nnext w w\nnext s w\n"
                "output o w\n",
                5},
        BadCase{"next_from_const",
                "cdfg x\ninput a\nstate s\nconst 3 k\nadd w a s\nnext s k\n"
                "output o w\n",
                6},
        BadCase{"next_from_state",
                "cdfg x\ninput a\nstate s\nstate t\nadd w a t\nnext t w\n"
                "next s t\nadd q s a\noutput o q\n",
                7},
        BadCase{"next_from_input",
                "cdfg x\ninput a\nstate s\nadd q s a\nnext s a\noutput o q\n",
                5},
        BadCase{"next_value_feeds_two_states",
                "cdfg x\ninput a\nstate s\nstate t\nadd w a s\nadd v w t\n"
                "next s w\nnext t w\noutput o v\n",
                8},
        BadCase{"output_of_const",
                "cdfg x\ninput a\nconst 3 k\nadd w a k\noutput o w\n"
                "output o3 k\n",
                6},
        // Every operation and output gets exactly one `at`: a node left
        // unpinned is named at the `schedule` line, a second `at` at its own.
        BadCase{"operations_without_at",
                "cdfg z\ninput x\nconst 3 c\nmul p x c\nadd q x x\n"
                "add r p q\noutput y r\nschedule 6\nat r 3\nat y 4\n",
                8},
        BadCase{"output_without_at",
                "cdfg z\ninput x\nadd q x x\noutput y q\nschedule 3\n"
                "at q 0\n",
                5},
        BadCase{"second_at",
                "cdfg z\ninput x\nadd q x x\noutput y q\nschedule 3\n"
                "at q 1\nat q 0\nat y 2\n",
                7},
        // State rules name the `state` line, schedule rules the node's `at`
        // line.
        BadCase{"state_without_next",
                "cdfg x\ninput a\nstate s\nadd w a s\noutput o w\n", 3},
        BadCase{"state_never_read",
                "cdfg x\ninput a\nstate s\nadd w a a\nadd q a a\n"
                "next s w\noutput o q\n",
                3},
        BadCase{"at_reads_before_ready",
                "cdfg x\ninput a\nadd w a a\nadd v w a\noutput o v\n"
                "schedule 4\nat w 0\nat v 0\nat o 2\n",
                8},
        BadCase{"result_not_ready_before_period_end",
                "cdfg x\ninput a\nmul w a a\noutput o w\nschedule 3\n"
                "at w 1\nat o 2\n",
                6},
        BadCase{"state_next_ready_before_last_read",
                "cdfg x\ninput a\nstate s\nadd w a s\nadd q s a\nnext s w\n"
                "output o q\nschedule 3\nat w 0\nat q 1\nat o 2\n",
                3}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(TextFormat, RoundTripsBenchmarks) {
  for (Cdfg original : {make_ewf(), make_dct(), make_fir8()}) {
    const std::string text = write_design(original);
    ParsedDesign d = parse_design_string(text);
    const Cdfg& g = *d.cdfg;
    EXPECT_EQ(g.name(), original.name());
    EXPECT_EQ(g.num_nodes(), original.num_nodes());
    for (OpKind k : {OpKind::kAdd, OpKind::kSub, OpKind::kMul, OpKind::kNop})
      EXPECT_EQ(g.count(k), original.count(k));
    // Behavioural equivalence on shared stimuli.
    Evaluator e1(original), e2(g);
    Rng rng(1);
    for (int it = 0; it < 4; ++it) {
      std::vector<int64_t> in(original.input_nodes().size());
      for (auto& v : in) v = static_cast<int64_t>(rng.next() % 100);
      // Input order may differ; match by name.
      std::vector<int64_t> in2(in.size());
      for (size_t i = 0; i < g.input_nodes().size(); ++i) {
        const std::string& name = g.node(g.input_nodes()[i]).name;
        for (size_t j = 0; j < original.input_nodes().size(); ++j)
          if (original.node(original.input_nodes()[j]).name == name)
            in2[i] = in[j];
      }
      EXPECT_EQ(e1.step(in), e2.step(in2));
    }
  }
}

TEST(TextFormat, RoundTripsSchedule) {
  Cdfg g = make_ewf();
  HwSpec hw;
  Schedule s = schedule_min_fu(g, hw, 18).schedule;
  const std::string text = write_design(g, &s);
  ParsedDesign d = parse_design_string(text);
  ASSERT_TRUE(d.schedule.has_value());
  EXPECT_EQ(d.schedule->length(), 18);
  d.schedule->validate();
  // Node-by-node start equality (names are preserved).
  const Cdfg& g2 = *d.cdfg;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (!is_operation(g.node(n).kind)) continue;
    for (NodeId m = 0; m < g2.num_nodes(); ++m) {
      if (g2.node(m).name == g.node(n).name) {
        EXPECT_EQ(d.schedule->start(m), s.start(n)) << g.node(n).name;
      }
    }
  }
}

TEST(Report, ContainsFuTableAndChains) {
  Cdfg g = make_ewf();
  HwSpec hw;
  Schedule s = schedule_min_fu(g, hw, 17).schedule;
  AllocProblem prob(s, FuPool::standard(peak_fu_demand(s)),
                    Lifetimes(s).min_registers() + 1);
  Binding b = initial_allocation(prob);
  const std::string rep = allocation_report(b);
  EXPECT_NE(rep.find("allocation report: ewf"), std::string::npos);
  EXPECT_NE(rep.find("equivalent 2-1 muxes"), std::string::npos);
  EXPECT_NE(rep.find("storage chains:"), std::string::npos);
  EXPECT_NE(rep.find("sv2"), std::string::npos);
}

TEST(Report, ChainShowsTransfersAndCopies) {
  Cdfg g("chain");
  const ValueId a = g.add_input("a");
  const ValueId c = g.add_const(1);
  const ValueId v = g.add_op(OpKind::kAdd, a, c, "v");
  g.add_output(v, "o");
  g.validate();
  Schedule s(g, HwSpec{}, 4);
  s.set_start(g.producer(v), 0);
  s.set_start(g.output_nodes()[0], 3);
  AllocProblem prob(s, FuPool::standard(FuBudget{1, 0}), 3);
  Binding b = initial_allocation(prob);
  StorageBinding& sb = b.sto(prob.lifetimes().storage_of(v));
  sb.cells[1][0].reg = 2;  // transfer
  b.normalize();
  sb.cells[2][0].reg = 2;
  sb.cells[2].push_back(Cell{1, 0, kInvalidId});  // copy (parent in reg 2)
  b.normalize();
  const std::string chain = storage_chain(b, prob.lifetimes().storage_of(v));
  EXPECT_NE(chain.find("->"), std::string::npos);
  EXPECT_NE(chain.find("+"), std::string::npos);
}

}  // namespace
}  // namespace salsa
