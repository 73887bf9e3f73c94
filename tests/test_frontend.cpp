#include <gtest/gtest.h>

#include "cdfg/eval.h"
#include "core/initial.h"
#include "datapath/simulator.h"
#include "frontend/expr.h"
#include "sched/asap_alap.h"
#include "sched/fu_search.h"

namespace salsa {
namespace {

TEST(Expr, CompilesStraightLineArithmetic) {
  Cdfg g = compile_expr_string(R"(
design poly
input x
y = 3*x*x + 5*x + 7
out y
)");
  EXPECT_EQ(g.name(), "poly");
  Evaluator ev(g);
  const int64_t in[] = {4};
  EXPECT_EQ(ev.step(in)[0], 3 * 4 * 4 + 5 * 4 + 7);
}

TEST(Expr, PrecedenceAndParentheses) {
  Cdfg g = compile_expr_string(R"(
design prec
input a
input b
y1 = a + b * 3
y2 = (a + b) * 3
y3 = a - b - 1
out y1
out y2
out y3
)");
  Evaluator ev(g);
  const int64_t in[] = {10, 2};
  const auto out = ev.step(in);
  EXPECT_EQ(out[0], 10 + 2 * 3);
  EXPECT_EQ(out[1], (10 + 2) * 3);
  EXPECT_EQ(out[2], 10 - 2 - 1);  // left-associative
}

TEST(Expr, UnaryMinusFoldsLiteralsAndLowersVariables) {
  Cdfg g = compile_expr_string(R"(
design neg
input x
y1 = -3 * x
y2 = -x + 5
out y1
out y2
)");
  Evaluator ev(g);
  const int64_t in[] = {7};
  const auto out = ev.step(in);
  EXPECT_EQ(out[0], -21);
  EXPECT_EQ(out[1], -7 + 5);
}

TEST(Expr, ConstantsAreShared) {
  Cdfg g = compile_expr_string(R"(
design shared
input x
y = 3*x + 3
out y
)");
  EXPECT_EQ(g.count(OpKind::kConst), 1) << "literal 3 must be deduplicated";
}

TEST(Expr, StatesAndUpdates) {
  Cdfg g = compile_expr_string(R"(
design acc
input x
state s
sum = s + x
s := sum
out sum
)");
  const int64_t init[] = {100};
  Evaluator ev(g, init);
  const int64_t one[] = {1};
  EXPECT_EQ(ev.step(one)[0], 101);
  EXPECT_EQ(ev.step(one)[0], 102);
}

TEST(Expr, StateMoveBecomesNop) {
  Cdfg g = compile_expr_string(R"(
design shift
input x
state z1
state z2
y = z1 + z2
z1 := x
z2 := z1
out y
)");
  EXPECT_EQ(g.count(OpKind::kNop), 2);  // both updates are plain moves
  const int64_t init[] = {10, 20};
  Evaluator ev(g, init);
  const int64_t in[] = {1};
  EXPECT_EQ(ev.step(in)[0], 30);   // old z1 + old z2
  EXPECT_EQ(ev.step(in)[0], 11);   // z1=1(x), z2=10(old z1)
}

TEST(Expr, SharedNextValueGetsPrivateCopy) {
  Cdfg g = compile_expr_string(R"(
design twostates
input x
state a
state b
w = x + 1
a := w
b := w
y = a + b
out y
)");
  // The two states must not merge into one storage.
  g.validate();
  EXPECT_EQ(g.state_nodes().size(), 2u);
  const Node& sa = g.node(g.state_nodes()[0]);
  const Node& sb = g.node(g.state_nodes()[1]);
  EXPECT_NE(sa.state_next, sb.state_next);
}

// A state whose merged storage is never read — neither the state value nor
// its next-iteration value has a consumer — is rejected by name when the
// graph is validated, before lifetime analysis could trip over it.
TEST(Expr, UnreadStateIsDiagnosedByName) {
  try {
    compile_expr_string(R"(design unread
input x
state z3
z3 := x + 1
y = x * 2
out y
)");
    FAIL() << "expected error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("state 'z3' is never read"),
              std::string::npos)
        << e.what();
  }
}

struct ExprError {
  const char* name;
  const char* text;
  int line;  // the line the diagnostic must name
};

class ExprRejects : public ::testing::TestWithParam<ExprError> {};

TEST_P(ExprRejects, WithLineNumber) {
  const std::string want =
      "expr error at line " + std::to_string(GetParam().line) + ": ";
  try {
    compile_expr_string(GetParam().text);
    FAIL() << "expected error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).rfind(want, 0), 0u) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ExprRejects,
    ::testing::Values(
        ExprError{"unknown_name", "design d\ny = q + 1\nout y\n", 2},
        ExprError{"reassignment", "design d\ninput x\ny = x\ny = x\nout y\n",
                  4},
        ExprError{"update_non_state", "design d\ninput x\nx := x\n", 3},
        ExprError{"double_update",
                  "design d\ninput x\nstate s\na = s + x\ns := a\ns := a\n",
                  6},
        // State rules found after the last line name the `state` line.
        ExprError{"missing_update",
                  "design d\ninput x\nstate s\ny = s + x\nout y\n", 3},
        ExprError{"second_state_never_updated",
                  "design d\ninput x\nstate s\nstate t\ny = s + t\n"
                  "s := y\nout y\n",
                  4},
        ExprError{"state_never_read",
                  "design d\ninput x\nstate z\nz := x + 1\ny = x * 2\n"
                  "out y\n",
                  3},
        ExprError{"bad_char", "design d\ninput x\ny = x @ 2\nout y\n", 3},
        ExprError{"unbalanced_paren",
                  "design d\ninput x\ny = (x + 1\nout y\n", 3},
        ExprError{"trailing_tokens",
                  "design d\ninput x\ny = x + 1 2\nout y\n", 3},
        ExprError{"unknown_output",
                  "design d\ninput x\ny = x + 1\nout z\n", 4},
        ExprError{"literal_overflow",
                  "design d\ninput x\ny = 99999999999999999999*x\nout y\n",
                  3}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Expr, CompiledDesignsAllocateAndSimulate) {
  Cdfg g = compile_expr_string(R"(
design lattice
input x
state r1
state r2
t1 = x + 3*r1
t2 = t1 + 5*r2
y = 7*t2 - x
r1 := t1
r2 := t2
out y
)");
  HwSpec hw;
  const int len = min_schedule_length(g, hw) + 1;
  Schedule s = schedule_min_fu(g, hw, len).schedule;
  AllocProblem prob(s, FuPool::standard(peak_fu_demand(s)),
                    Lifetimes(s).min_registers() + 1);
  Binding b = initial_allocation(prob);
  Netlist nl(b);
  EXPECT_EQ(random_equivalence_check(nl, 5, 3), "");
}

}  // namespace
}  // namespace salsa
