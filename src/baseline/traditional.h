// Traditional-binding-model allocator (the Section 1 model every prior
// approach in the paper uses): each value stays in a single register for its
// whole lifetime, no copies, no pass-throughs. Implemented on the same
// binding representation and improvement engine with the move set restricted
// to F1/F2/F3/R3/R4, so SALSA-vs-traditional comparisons isolate the binding
// model itself.
#pragma once

#include "core/allocator.h"

namespace salsa {

struct TraditionalOptions {
  ImproveParams improve = [] {
    ImproveParams p;
    p.moves = MoveConfig::traditional();
    return p;
  }();
  int restarts = 1;
};

/// Places every storage contiguously in one register (greedy with retries,
/// then exact backtracking — cyclic lifetimes can make contiguous placement
/// a genuine circular-arc colouring problem). Throws if no contiguous
/// placement exists within the register budget.
Binding traditional_initial(const AllocProblem& prob, uint64_t seed = 1,
                            int retries = 32);

/// Full traditional allocation: contiguous initial placement + restricted
/// iterative improvement.
AllocationResult allocate_traditional(const AllocProblem& prob,
                                      const TraditionalOptions& opts = {});

}  // namespace salsa
