// Move-set ablation (Section 3's design choices): how much of the extended
// model's benefit comes from each ingredient? Runs the same improvement
// engine with (a) the traditional move set, (b) extended without
// pass-throughs, (c) extended without value splitting, and (d) the full
// SALSA move set — all from the same initial allocation and with the same
// move budget.
#include <cstdio>

#include "bench_common.h"
#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "core/initial.h"
#include "util/table.h"

using namespace salsa;
using namespace salsa::benchharness;

namespace {

void ablate(const char* name, const AllocProblem& prob, TextTable& t) {
  struct Config {
    const char* label;
    MoveConfig moves;
  };
  const Config configs[] = {
      {"traditional moves", MoveConfig::traditional()},
      {"no pass-throughs", MoveConfig::no_pass_through()},
      {"no value splits", MoveConfig::no_split()},
      {"full SALSA", MoveConfig::salsa_default()},
  };
  // A common warm start: the best contiguous allocation the traditional
  // engine can find, so every configuration begins from the same point.
  Binding start = [&] {
    try {
      TraditionalOptions topt;
      topt.improve = standard_improve(5);
      return allocate_traditional(prob, topt).binding;
    } catch (const Error&) {
      return initial_allocation(prob);
    }
  }();
  const CostBreakdown base = evaluate_cost(start);
  for (const Config& cfg : configs) {
    ImproveParams p = standard_improve(17);
    p.moves = cfg.moves;
    const ImproveResult r = improve(start, p);
    t.row({name, cfg.label, std::to_string(base.muxes),
           std::to_string(r.cost.muxes), std::to_string(r.cost.connections),
           fmt(r.cost.total, 0)});
  }
  t.separator();
}

}  // namespace

int main() {
  std::printf(
      "Move-set ablation — improvement from a common traditional-model "
      "start\n\n");
  TextTable t;
  t.header({"workload", "move set", "start muxes", "muxes", "conns", "cost"});
  {
    ProblemBundle b =
        make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{0});
    ablate("ewf@17 (min regs)", *b.problem, t);
  }
  {
    ProblemBundle b =
        make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{2});
    ablate("ewf@17 (+2 regs)", *b.problem, t);
  }
  {
    ProblemBundle b =
        make_problem(make_dct(), HwSpec{}, 9, SpareRegisters{2});
    ablate("dct@9 (+2 regs)", *b.problem, t);
  }
  std::printf("%s\n", t.render().c_str());
  return 0;
}
