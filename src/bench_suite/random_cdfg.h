// Random CDFG generation for property-based testing: arbitrary well-formed
// graphs (optionally with loop-carried states) whose allocations must always
// verify statically and match the behavioural evaluator on the datapath
// simulator, whatever the seed.
#pragma once

#include "cdfg/cdfg.h"

namespace salsa {

struct RandomCdfgParams {
  int num_inputs = 3;
  int num_consts = 2;
  int num_states = 2;
  int num_ops = 20;
  double mul_frac = 0.3;  ///< fraction of ops that are multiplications
  uint64_t seed = 1;
};

/// Builds a random, validated CDFG: every state is read and rewritten with a
/// feasible anti-dependence, every non-constant value is consumed (by an op,
/// a state rewrite, or an output).
Cdfg make_random_cdfg(const RandomCdfgParams& params);

}  // namespace salsa
