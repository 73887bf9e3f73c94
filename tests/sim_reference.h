// The rescanning simulator that simulate() (datapath/simulator.h) replaced,
// kept verbatim as the test-only reference, the way test_initial keeps the
// exhaustive scorer. Every global step it rescans every FU action, register
// load and output sample, and for each FU every action again to decide
// whether a pass-through may forward — quadratic, but with no compiled
// tables to get wrong. The compiled engine must match it in every output
// value and every per-step register snapshot. diff_against_reference()
// checks that contract; random_reference_diff() runs it on seeded random
// stimuli.
#pragma once

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "cdfg/eval.h"
#include "datapath/simulator.h"
#include "util/rng.h"

namespace salsa {

/// Execution state of the datapath.
struct Machine {
  std::vector<int64_t> regs;        // current register contents
  std::vector<int64_t> fu_result;   // result present at each FU output "now"
  std::vector<bool> fu_has_result;  // whether fu_result is meaningful
};

inline SimResult simulate_reference(
    const Netlist& nl, std::span<const std::vector<int64_t>> inputs,
    std::span<const int64_t> initial_states, int iterations,
    SimTrace* trace = nullptr) {
  const Binding& b = nl.binding();
  const AllocProblem& prob = b.prob();
  const Cdfg& g = prob.cdfg();
  const Schedule& sched = prob.sched();
  const int L = sched.length();

  SALSA_CHECK_MSG(static_cast<int>(inputs.size()) >= iterations,
                  "simulate: not enough input vectors");
  const auto input_nodes = g.input_nodes();
  const auto output_nodes = g.output_nodes();
  auto input_index = [&](NodeId n) {
    for (size_t i = 0; i < input_nodes.size(); ++i)
      if (input_nodes[i] == n) return static_cast<int>(i);
    fail("unknown input node");
  };

  Machine m;
  m.regs = initial_register_image(nl, inputs, initial_states);
  m.fu_result.assign(static_cast<size_t>(prob.fus().size()), 0);
  m.fu_has_result.assign(static_cast<size_t>(prob.fus().size()), false);

  // Multi-cycle operations in flight: (finish step global, fu, value).
  struct Pending {
    long finish;  // global step at whose end the result lands at the FU output
    FuId fu;
    int64_t value;
  };
  std::vector<Pending> pending;

  auto read_endpoint = [&](const Endpoint& e, const Machine& mm,
                           long gstep) -> int64_t {
    switch (e.kind) {
      case Endpoint::Kind::kRegOut:
        return mm.regs[static_cast<size_t>(e.id)];
      case Endpoint::Kind::kConstPort:
        return g.node(e.id).cvalue;
      case Endpoint::Kind::kInPort: {
        // Input port carries the *next* iteration's value at the boundary
        // load (step L-1) — see the connection enumeration.
        const long iter = gstep / L + 1;
        SALSA_CHECK(iter < static_cast<long>(inputs.size()));
        return inputs[static_cast<size_t>(iter)]
                     [static_cast<size_t>(input_index(e.id))];
      }
      case Endpoint::Kind::kFuOut: {
        SALSA_CHECK_MSG(mm.fu_has_result[static_cast<size_t>(e.id)],
                        "FU output read while no result is present");
        return mm.fu_result[static_cast<size_t>(e.id)];
      }
    }
    fail("bad endpoint");
  };

  SimResult result;
  result.outputs.assign(static_cast<size_t>(iterations), {});
  for (auto& o : result.outputs) o.assign(output_nodes.size(), 0);

  for (long gstep = 0; gstep < static_cast<long>(iterations) * L; ++gstep) {
    const int t = static_cast<int>(gstep % L);
    const long iter = gstep / L;

    // Phase 1: operations starting now read their input pins and compute.
    for (const FuAction& a : nl.fu_actions()) {
      if (a.step != t) continue;
      const Node& nd = g.node(a.node);
      auto in_val = [&](int slot) {
        const Pin pin{slot == 0 ? Pin::Kind::kFuIn0 : Pin::Kind::kFuIn1,
                      a.fu};
        const auto src = nl.source_of(pin, t);
        SALSA_CHECK_MSG(src.has_value(), "operand pin has no route");
        return read_endpoint(*src, m, gstep);
      };
      // A set swap flag exchanges the pins of a commutative operation, so
      // computing on the pins directly is always correct.
      const int64_t value = nd.kind == OpKind::kNop
                                ? in_val(0)
                                : apply_op(nd.kind, in_val(0), in_val(1));
      const int d = sched.hw().delay(nd.kind);
      pending.push_back(Pending{gstep + d - 1, a.fu, value});
    }

    // Phase 2: results landing at FU outputs at the end of this step.
    std::vector<bool> fresh(m.fu_has_result.size(), false);
    std::vector<int64_t> fresh_val(m.fu_result.size(), 0);
    for (size_t i = 0; i < pending.size();) {
      if (pending[i].finish == gstep) {
        fresh[static_cast<size_t>(pending[i].fu)] = true;
        fresh_val[static_cast<size_t>(pending[i].fu)] = pending[i].value;
        pending[i] = pending.back();
        pending.pop_back();
      } else {
        ++i;
      }
    }
    // Pass-throughs forward pin 0 combinationally during this step.
    for (FuId f = 0; f < prob.fus().size(); ++f) {
      if (fresh[static_cast<size_t>(f)]) continue;
      bool executing = false;
      for (const FuAction& a : nl.fu_actions()) {
        const int occ = sched.hw().occupancy(g.node(a.node).kind);
        if (a.fu == f && t >= a.step && t < a.step + occ) {
          executing = true;
          break;
        }
      }
      if (executing) continue;
      const auto src = nl.source_of(Pin{Pin::Kind::kFuIn0, f}, t);
      if (src.has_value()) {
        fresh[static_cast<size_t>(f)] = true;
        fresh_val[static_cast<size_t>(f)] = read_endpoint(*src, m, gstep);
      }
    }

    // Phase 3: output ports sample during this step (before the edge).
    for (const OutSample& o : nl.out_samples())
      if (o.step == t) {
        size_t k = 0;
        while (output_nodes[k] != o.node) ++k;
        result.outputs[static_cast<size_t>(iter)][k] =
            m.regs[static_cast<size_t>(o.reg)];
      }

    // Phase 4: register loads at the end of the step. All sources are read
    // against the pre-edge machine state, with FU outputs taking the values
    // that land at this edge.
    Machine pre = m;
    for (size_t f = 0; f < fresh.size(); ++f) {
      if (fresh[f]) {
        pre.fu_has_result[f] = true;
        pre.fu_result[f] = fresh_val[f];
      }
    }
    for (const RegLoad& ld : nl.reg_loads()) {
      if (ld.step != t) continue;
      if (ld.src.kind == Endpoint::Kind::kInPort &&
          iter + 1 >= static_cast<long>(inputs.size()))
        continue;  // past the last provided iteration
      m.regs[static_cast<size_t>(ld.reg)] = read_endpoint(ld.src, pre, gstep);
    }
    m.fu_has_result = pre.fu_has_result;
    m.fu_result = pre.fu_result;
    if (trace != nullptr) trace->regs.push_back(m.regs);
  }
  return result;
}

/// Runs simulate() and the reference on the same stimuli and compares every
/// output value and every per-step register snapshot. Returns "" when they
/// agree, else the first divergence (global step, register/output, values).
inline std::string diff_against_reference(
    const Netlist& nl, std::span<const std::vector<int64_t>> inputs,
    std::span<const int64_t> initial_states, int iterations) {
  SimTrace ref_trace, trace;
  const SimResult ref =
      simulate_reference(nl, inputs, initial_states, iterations, &ref_trace);
  const SimResult got = simulate(nl, inputs, initial_states, iterations, &trace);
  const Cdfg& g = nl.binding().prob().cdfg();
  std::ostringstream os;
  for (int i = 0; i < iterations; ++i) {
    const auto& want = ref.outputs[static_cast<size_t>(i)];
    const auto& have = got.outputs[static_cast<size_t>(i)];
    for (size_t k = 0; k < want.size(); ++k)
      if (want[k] != have[k]) {
        os << "iteration " << i << ", output '"
           << g.node(g.output_nodes()[k]).name << "': compiled=" << have[k]
           << " reference=" << want[k];
        return os.str();
      }
  }
  if (ref_trace.regs.size() != trace.regs.size()) {
    os << "trace lengths differ: compiled=" << trace.regs.size()
       << " reference=" << ref_trace.regs.size();
    return os.str();
  }
  for (size_t gs = 0; gs < ref_trace.regs.size(); ++gs)
    for (size_t r = 0; r < ref_trace.regs[gs].size(); ++r)
      if (ref_trace.regs[gs][r] != trace.regs[gs][r]) {
        os << "global step " << gs << ", r" << r
           << ": compiled=" << trace.regs[gs][r]
           << " reference=" << ref_trace.regs[gs][r];
        return os.str();
      }
  return {};
}

/// Seeded random-stimulus differential: iterations + 1 input rows (the last
/// one feeds the final boundary load) and random initial states.
inline std::string random_reference_diff(const Netlist& nl, int iterations,
                                         uint64_t seed) {
  const Cdfg& g = nl.binding().prob().cdfg();
  Rng rng(seed);
  auto rnd = [&] { return static_cast<int64_t>(rng.next() % 2001) - 1000; };
  std::vector<std::vector<int64_t>> inputs(
      static_cast<size_t>(iterations) + 1,
      std::vector<int64_t>(g.input_nodes().size(), 0));
  for (auto& vec : inputs)
    for (auto& v : vec) v = rnd();
  std::vector<int64_t> states(g.state_nodes().size(), 0);
  for (auto& v : states) v = rnd();
  return diff_against_reference(nl, inputs, states, iterations);
}

}  // namespace salsa
