// Cycle-accurate simulation of an allocated datapath. The simulator executes
// the netlist's routing tables step by step — registers latch at step edges,
// FUs read their input pins at operation start and deliver results after
// their delay, pass-throughs forward pin 0 — and samples the output ports.
// It compiles the netlist once into per-step lists (every route resolved)
// and then runs each step as straight-line loops over flat arrays.
// Comparing the streams against cdfg/eval.h on random stimuli is the
// project's dynamic correctness check for allocations.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "datapath/netlist.h"

namespace salsa {

struct SimResult {
  /// outputs[iteration][k] — k-th output node (order of cdfg.output_nodes()).
  std::vector<std::vector<int64_t>> outputs;
};

/// Optional cycle trace: register contents at the end of every global step
/// (after the step-edge latches). Feed to datapath/vcd.h for waveforms.
struct SimTrace {
  /// regs[gstep][r] — register r after the edge ending global step gstep.
  std::vector<std::vector<int64_t>> regs;
};

/// The register image "before time zero": cells occupying step 0 hold
/// initial states, iteration-0 inputs, or zeros (boundary-born dead values).
/// simulate() and the rescanning reference kept in the tests both start
/// from it, so their differential starts from one well-defined state.
std::vector<int64_t> initial_register_image(
    const Netlist& nl, std::span<const std::vector<int64_t>> inputs,
    std::span<const int64_t> initial_states);

/// Simulates `iterations` loop iterations. `inputs[i]` provides the input
/// values of iteration i (order of cdfg.input_nodes()); `initial_states`
/// seeds the state nodes (order of cdfg.state_nodes(); empty = zeros).
/// The input loads at the end of iteration i read inputs[i + 1]; past the
/// last provided row they are skipped. When `trace` is non-null, per-step
/// register snapshots are recorded.
SimResult simulate(const Netlist& nl,
                   std::span<const std::vector<int64_t>> inputs,
                   std::span<const int64_t> initial_states, int iterations,
                   SimTrace* trace = nullptr);

/// Runs the datapath against the behavioural evaluator on the same stimuli.
/// Returns an empty string when all output streams match, else a
/// description of the first mismatch. Iterations do not overlap, so the
/// streams must match from iteration 0, loop designs included.
std::string compare_with_reference(const Netlist& nl,
                                   std::span<const std::vector<int64_t>> inputs,
                                   std::span<const int64_t> initial_states,
                                   int iterations);

/// Convenience: random-stimulus equivalence check.
std::string random_equivalence_check(const Netlist& nl, int iterations,
                                     uint64_t seed);

}  // namespace salsa
