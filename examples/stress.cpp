// Soak test: random CDFGs through the complete pipeline — generate,
// schedule, allocate (extended model), statically verify, and prove the
// datapath equivalent to the behavioural reference. Any failure prints the
// reproducing seed and stops.
//
// Usage: stress [iterations=100] [base_seed=1]
#include <cstdio>
#include <limits>

#include "bench_suite/random_cdfg.h"
#include "core/allocator.h"
#include "core/verify.h"
#include "datapath/simulator.h"
#include "sched/asap_alap.h"
#include "util/args.h"

using namespace salsa;

int main(int argc, char** argv) {
  int iterations = 100;
  uint64_t base = 1;
  // Argument errors are usage errors: a diagnostic and exit status 2.
  try {
    if (argc > 3) fail("usage: stress [iterations=100] [base_seed=1]");
    if (argc > 1)
      iterations =
          static_cast<int>(parse_int("iterations", argv[1], 1, 1000000));
    if (argc > 2)
      base = static_cast<uint64_t>(parse_int(
          "base_seed", argv[2], 0, std::numeric_limits<long long>::max()));
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  int passed = 0;
  for (int i = 0; i < iterations; ++i) {
    const uint64_t seed = base + static_cast<uint64_t>(i);
    try {
      RandomCdfgParams p;
      p.seed = seed;
      p.num_ops = 8 + static_cast<int>(seed % 40);
      p.num_inputs = 1 + static_cast<int>(seed % 4);
      p.num_states = static_cast<int>(seed % 4);
      p.num_consts = static_cast<int>(seed % 3);
      p.mul_frac = 0.2 + 0.02 * static_cast<double>(seed % 10);
      Cdfg g = make_random_cdfg(p);

      HwSpec hw;
      hw.pipelined_mul = seed % 2 == 0;
      const int len =
          min_schedule_length(g, hw) + static_cast<int>(seed % 5);
      const ProblemBundle bundle =
          make_problem(std::move(g), hw, len,
                       SpareRegisters{static_cast<int>(seed % 3)});
      AllocatorOptions opts;
      opts.improve.max_trials = 3;
      opts.improve.moves_per_trial = 400;
      opts.improve.seed = seed;
      const AllocationResult res = allocate(*bundle.problem, opts);
      check_legal(res.binding);
      Netlist nl(res.binding);
      const std::string err = random_equivalence_check(nl, 4, seed);
      if (!err.empty()) {
        std::printf("FAIL seed=%llu: %s\n",
                    static_cast<unsigned long long>(seed), err.c_str());
        return 1;
      }
      ++passed;
    } catch (const Error& e) {
      std::printf("FAIL seed=%llu: exception: %s\n",
                  static_cast<unsigned long long>(seed), e.what());
      return 1;
    }
    if ((i + 1) % 25 == 0)
      std::printf("  %d/%d designs verified\n", i + 1, iterations);
  }
  std::printf("stress: %d/%d random designs allocated and verified\n", passed,
              iterations);
  return 0;
}
