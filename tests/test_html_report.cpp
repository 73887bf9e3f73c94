#include <gtest/gtest.h>

#include "bench_suite/ewf.h"
#include "core/initial.h"
#include "core/moves.h"
#include "io/html_report.h"

namespace salsa {
namespace {

TEST(HtmlReport, ContainsAllSections) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  const std::string html = html_report(b, "EWF allocation");
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("<h1>EWF allocation</h1>"), std::string::npos);
  EXPECT_NE(html.find("Functional units"), std::string::npos);
  EXPECT_NE(html.find("Registers"), std::string::npos);
  EXPECT_NE(html.find("Multiplexers"), std::string::npos);
  EXPECT_NE(html.find("</html>"), std::string::npos);
}

TEST(HtmlReport, ShowsEveryFuAndRegister) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  const std::string html = html_report(b, "x");
  for (FuId f = 0; f < ctx.problem->fus().size(); ++f)
    EXPECT_NE(html.find("<th>" + ctx.problem->fus().fu(f).name + "</th>"),
              std::string::npos);
  for (RegId r = 0; r < ctx.problem->num_regs(); ++r)
    EXPECT_NE(html.find("<th>R" + std::to_string(r) + "</th>"),
              std::string::npos);
}

TEST(HtmlReport, MarksPassThroughs) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{2});
  Binding b = initial_allocation(*ctx.problem);
  Rng rng(3);
  // Create transfers and bind at least one pass-through.
  for (int i = 0; i < 100; ++i) apply_random_move(b, MoveKind::kSegMove, rng);
  bool bound = false;
  for (int i = 0; i < 100 && !bound; ++i)
    bound = apply_random_move(b, MoveKind::kBindPass, rng);
  if (!bound) GTEST_SKIP() << "no pass-through materialised";
  const std::string html = html_report(b, "x");
  EXPECT_NE(html.find("class=\"pass\""), std::string::npos);
}

TEST(HtmlReport, EscapesMarkup) {
  Cdfg g("x<y>&z");
  const ValueId a = g.add_input("a<b");
  const ValueId c = g.add_const(1);
  g.add_output(g.add_op(OpKind::kAdd, a, c, "v<1>"), "o");
  g.validate();
  const ProblemBundle p =
      make_problem(std::move(g), HwSpec{}, 3, SpareRegisters{0});
  Binding b = initial_allocation(*p.problem);
  const std::string html = html_report(b, p.graph->name());
  EXPECT_NE(html.find("x&lt;y&gt;&amp;z"), std::string::npos);
  EXPECT_EQ(html.find("v<1>"), std::string::npos);
}

TEST(HtmlReport, StepColumnsMatchScheduleLength) {
  const auto ctx = make_problem(make_ewf(), HwSpec{}, 19, SpareRegisters{1});
  Binding b = initial_allocation(*ctx.problem);
  const std::string html = html_report(b, "x");
  EXPECT_NE(html.find("<th>18</th>"), std::string::npos);
  EXPECT_EQ(html.find("<th>19</th>"), std::string::npos);
}

}  // namespace
}  // namespace salsa
