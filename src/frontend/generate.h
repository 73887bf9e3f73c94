// Parameterized CDFG generator for the large-design scaling corpus: the
// 1992 benchmarks (EWF, 34 ops; DCT, ~48 ops) cannot expose super-linear
// move-loop costs, so this module manufactures deterministic, seedable
// design families from ~1k to ~100k operators:
//
//   * kFilterCascade — parallel channels of chained direct-form-II biquad
//     sections (higher-order elliptic/FIR cascades): serial critical paths,
//     long schedules, loop-carried state per section. 10 ops per section
//     (5 mul / 4 add-sub / 1 pass-through).
//   * kGemmPipeline — a T x T output tile of K-deep multiply-accumulate
//     chains (tiled GEMM): wide, input-heavy, register-pressure-bound.
//     2K-1 ops per output element, no states.
//   * kLayeredDag — layers x width random DAG with a bounded operand
//     window; loop-carried states are read only at layer 0 and rewritten
//     from final-layer values, so anti-dependences are satisfiable by
//     construction (no reachability search, unlike
//     bench_suite/random_cdfg.cpp — that is what lets this family scale).
//   * kMemoryTraffic — parallel address-generator/data-compute stream
//     pairs: each stream walks an affine address (state * stride + base,
//     stepped per iteration) beside a MAC chain over its input, and emits
//     the (addr, data) outputs in adjacent pairs: the address and data
//     streams a load/store unit would consume, with affine state walkers
//     beside MAC chains.
//
// Determinism contract: generation draws only integer Rng variates (no
// float thresholds), the list-scheduler path runs without jitter, and
// design_digest() pins the full structure (graph + schedule + resources) so
// tests can assert cross-platform byte-identical corpora per (family,
// target_ops, seed).
#pragma once

#include <string>

#include "cdfg/cdfg.h"
#include "core/resources.h"
#include "sched/list_scheduler.h"

namespace salsa {

enum class GenFamily {
  kFilterCascade,
  kGemmPipeline,
  kLayeredDag,
  kMemoryTraffic,
};

/// Short family mnemonic ("cascade", "gemm", "dag", "mem") for bench/audit
/// labels.
const char* gen_family_name(GenFamily f);

struct GenParams {
  GenFamily family = GenFamily::kLayeredDag;
  /// Approximate operator (Add/Sub/Mul/Nop) count; the family's natural
  /// granularity (section, tile element, layer) rounds it up.
  int target_ops = 1000;
  uint64_t seed = 1;
  SpareRegisters spare{2};
};

/// A generated allocation problem: the bundle owns the graph and schedule
/// the AllocProblem refers into. Its schedule comes from the list-scheduler
/// path below, not from schedule_min_fu.
struct GeneratedDesign : ProblemBundle {
  int num_ops = 0;  ///< actual operator count (>= target_ops, rounded up)
};

/// Builds the family's validated CDFG alone (no schedule).
Cdfg generate_cdfg(const GenParams& p);

/// generate_cdfg + deterministic list-scheduler path: derives the schedule
/// length from the critical path plus slack and the FU budget from per-class
/// occupancy, growing both on list-scheduler infeasibility (bounded retries,
/// no randomness), then wraps everything in an AllocProblem with `spare`
/// registers over the minimum. Throws if no legal schedule is found within
/// the retry budget.
GeneratedDesign generate_design(const GenParams& p);

/// FNV-1a digest over the complete generated design — every node (kind,
/// operands, constant payload, state rewiring), every schedule start, the
/// FU budget and the register count. Platform-stable (fixed little-endian
/// field order); tests pin these per (family, target_ops, seed).
uint64_t design_digest(const GeneratedDesign& d);

}  // namespace salsa
