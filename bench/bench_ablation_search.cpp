// Search-scheme ablation (Section 4): the authors first tried simulated
// annealing, found it "produced poor results and seldom converged", and
// replaced it with the trial-based iterative improvement scheme. This
// harness reruns that comparison with matched move budgets, plus a pure
// greedy descent (uphill budget zero) and a sweep of the per-trial uphill
// allowance.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_suite/ewf.h"
#include "core/annealer.h"
#include "core/ils.h"
#include "core/initial.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace salsa;
using namespace salsa::benchharness;

int main() {
  std::printf("Search ablation on EWF @ 17 steps, min+1 registers\n\n");
  ProblemBundle b =
      make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding start = initial_allocation(*b.problem);
  const CostBreakdown base = evaluate_cost(start);
  std::printf("initial allocation: %d muxes, %d connections, cost %.0f\n\n",
              base.muxes, base.connections, base.total);

  constexpr long kBudget = 60000;  // total proposed moves per scheme

  TextTable t;
  t.header({"scheme", "muxes", "conns", "cost", "accepted", "uphill"});

  // Every configuration of every scheme family is an independent search
  // from the same start; fan them out with parallel_map and render the
  // rows in sweep order afterwards (identical table at any thread count).
  const auto add_rows = [&](const std::vector<std::string>& labels,
                            const std::vector<ImproveResult>& results) {
    for (size_t i = 0; i < results.size(); ++i) {
      const ImproveResult& r = results[i];
      t.row({labels[i], std::to_string(r.cost.muxes),
             std::to_string(r.cost.connections), fmt(r.cost.total, 0),
             std::to_string(r.stats.accepted),
             std::to_string(r.stats.uphill)});
    }
  };

  const std::vector<int> uphills = {0, 10, 40, 200};
  std::vector<std::string> uphill_labels;
  for (int uphill : uphills)
    uphill_labels.push_back("iter-improve, uphill=" + std::to_string(uphill));
  add_rows(uphill_labels,
           parallel_map(Parallelism{}, static_cast<int>(uphills.size()),
                        [&](int i) {
                          ImproveParams p;
                          p.max_trials = 12;
                          p.moves_per_trial =
                              static_cast<int>(kBudget / p.max_trials);
                          p.uphill_per_trial = uphills[static_cast<size_t>(i)];
                          p.seed = 3;
                          return improve(start, p);
                        }));
  t.separator();

  const std::vector<int> kicks = {4, 8};
  std::vector<std::string> kick_labels;
  for (int kick : kicks)
    kick_labels.push_back("iterated local search, kick=" +
                          std::to_string(kick));
  add_rows(kick_labels,
           parallel_map(Parallelism{}, static_cast<int>(kicks.size()),
                        [&](int i) {
                          IlsParams p;
                          p.iterations = 12;
                          p.descent_moves =
                              static_cast<int>(kBudget / (p.iterations + 1));
                          p.kick_moves = kicks[static_cast<size_t>(i)];
                          p.seed = 3;
                          return iterated_local_search(start, p);
                        }));
  t.separator();

  const std::vector<double> temps = {5.0, 30.0, 120.0};
  std::vector<std::string> temp_labels;
  for (double t0 : temps) temp_labels.push_back("annealing, T0=" + fmt(t0, 0));
  add_rows(temp_labels,
           parallel_map(Parallelism{}, static_cast<int>(temps.size()),
                        [&](int i) {
                          AnnealParams p;
                          p.num_temps = 12;
                          p.moves_per_temp =
                              static_cast<int>(kBudget / p.num_temps);
                          p.initial_temp = temps[static_cast<size_t>(i)];
                          p.cooling = 0.8;
                          p.seed = 3;
                          return anneal(start, p);
                        }));
  std::printf("%s\n", t.render().c_str());
  return 0;
}
