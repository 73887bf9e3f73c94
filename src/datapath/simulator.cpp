#include "datapath/simulator.h"

#include <sstream>

#include "cdfg/eval.h"
#include "util/rng.h"

namespace salsa {

std::vector<int64_t> initial_register_image(
    const Netlist& nl, std::span<const std::vector<int64_t>> inputs,
    std::span<const int64_t> initial_states) {
  const Binding& b = nl.binding();
  const AllocProblem& prob = b.prob();
  const Cdfg& g = prob.cdfg();
  const Lifetimes& lt = prob.lifetimes();

  const auto state_nodes = g.state_nodes();
  std::vector<int64_t> states(state_nodes.size(), 0);
  if (!initial_states.empty()) {
    SALSA_CHECK(initial_states.size() == state_nodes.size());
    states.assign(initial_states.begin(), initial_states.end());
  }
  auto state_index = [&](int sid) -> int {
    for (ValueId v : lt.storage(sid).members) {
      const NodeId p = g.producer(v);
      if (g.node(p).kind == OpKind::kState)
        for (size_t i = 0; i < state_nodes.size(); ++i)
          if (state_nodes[i] == p) return static_cast<int>(i);
    }
    return -1;
  };

  std::vector<int64_t> regs(static_cast<size_t>(prob.num_regs()), 0);

  // Preload: cells occupying step 0 were written "before time zero" — they
  // hold initial states, iteration-0 inputs, or junk (dead values).
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    const Storage& s = lt.storage(sid);
    const int seg = lt.seg_at_step(sid, 0);
    if (seg < 0) continue;
    int64_t v = 0;
    const int sx = state_index(sid);
    if (sx >= 0) {
      v = states[static_cast<size_t>(sx)];
    } else if (s.producer == kInvalidId) {
      SALSA_CHECK(!inputs.empty());
      v = inputs[0][nl.routes().index().port(g.producer(s.members[0]))];
    } else if (!s.wraps && s.birth == 0) {
      // Non-state value born at the boundary: produced by iteration -1,
      // never read before being rewritten; zero is fine.
      v = 0;
    } else {
      continue;  // storage born later this iteration; no preload needed
    }
    for (const Cell& c : b.sto(sid).cells[static_cast<size_t>(seg)])
      regs[static_cast<size_t>(c.reg)] = v;
  }
  return regs;
}

SimResult simulate(const Netlist& nl,
                   std::span<const std::vector<int64_t>> inputs,
                   std::span<const int64_t> initial_states, int iterations,
                   SimTrace* trace) {
  const AllocProblem& prob = nl.binding().prob();
  const Cdfg& g = prob.cdfg();
  const Schedule& sched = prob.sched();
  const int L = sched.length();
  const int nfu = prob.fus().size();

  SALSA_CHECK_MSG(static_cast<int>(inputs.size()) >= iterations,
                  "simulate: not enough input vectors");
  const PinIndex& index = nl.routes().index();

  // Compile: resolve every route once and bucket the work by control step.
  // A result lands at start + delay - 1 of the same iteration (Schedule::
  // validate keeps it inside the period), so the landings, and with them
  // the idle FUs that pass pin 0 through, are the same every iteration. A
  // pass-through runs as a nop that starts and lands within its step.
  struct Start {
    size_t slot;  // where the result waits until it lands
    OpKind op;
    Endpoint in0, in1;
  };
  struct Land {
    FuId fu;
    size_t slot;
  };
  struct Sample {
    size_t out;
    RegId reg;
  };
  struct Step {
    std::vector<Start> starts;
    std::vector<Land> lands;
    std::vector<Sample> samples;
    std::vector<RegLoad> loads;
  };
  std::vector<Step> steps(static_cast<size_t>(L));
  auto at = [&](int t) -> Step& { return steps[static_cast<size_t>(t)]; };
  // busy(f, t): FU f executes or lands a result at step t, so no pass.
  std::vector<char> busy_at(static_cast<size_t>(nfu) * static_cast<size_t>(L));
  auto busy = [&](FuId f, int t) -> char& {
    return busy_at[static_cast<size_t>(f) * static_cast<size_t>(L) +
                   static_cast<size_t>(t)];
  };
  size_t slots = 0;
  for (const FuAction& a : nl.fu_actions()) {
    const OpKind op = g.node(a.node).kind;
    auto route = [&](Pin::Kind pin) {
      const auto src = nl.source_of(Pin{pin, a.fu}, a.step);
      SALSA_CHECK_MSG(src.has_value(), "operand pin has no route");
      return *src;
    };
    // A nop reads pin 0 only; apply_op passes its first operand through.
    const Endpoint in0 = route(Pin::Kind::kFuIn0);
    const Endpoint in1 = op == OpKind::kNop ? in0 : route(Pin::Kind::kFuIn1);
    const int land = a.step + sched.hw().delay(op) - 1;
    SALSA_CHECK_MSG(land < L, "simulate: result lands outside the period");
    at(a.step).starts.push_back(Start{slots, op, in0, in1});
    at(land).lands.push_back(Land{a.fu, slots++});
    busy(a.fu, land) = 1;
    for (int t = a.step; t < a.step + sched.hw().occupancy(op); ++t)
      busy(a.fu, t) = 1;
  }
  for (FuId f = 0; f < nfu; ++f)
    for (int t = 0; t < L; ++t) {
      const auto src = nl.source_of(Pin{Pin::Kind::kFuIn0, f}, t);
      if (busy(f, t) || !src.has_value()) continue;
      at(t).starts.push_back(Start{slots, OpKind::kNop, *src, *src});
      at(t).lands.push_back(Land{f, slots++});
    }
  for (const OutSample& o : nl.out_samples())
    at(o.step).samples.push_back(Sample{index.port(o.node), o.reg});
  for (const RegLoad& ld : nl.reg_loads()) at(ld.step).loads.push_back(ld);

  // Execute: registers, FU outputs and waiting results in flat arrays.
  std::vector<int64_t> regs = initial_register_image(nl, inputs, initial_states);
  std::vector<int64_t> fu_out(static_cast<size_t>(nfu), 0);
  std::vector<char> fu_has(static_cast<size_t>(nfu), 0);
  std::vector<int64_t> waiting(slots, 0);
  std::vector<int64_t> latched;  // register loads read before any is written
  size_t iter = 0;
  auto read = [&](const Endpoint& e) -> int64_t {
    const size_t id = static_cast<size_t>(e.id);
    switch (e.kind) {
      case Endpoint::Kind::kRegOut:
        return regs[id];
      case Endpoint::Kind::kConstPort:
        return g.node(e.id).cvalue;
      case Endpoint::Kind::kInPort:
        // The port carries the *next* iteration's value at the boundary
        // load (step L-1) — see the connection enumeration.
        SALSA_CHECK(iter + 1 < inputs.size());
        return inputs[iter + 1][index.port(e.id)];
      case Endpoint::Kind::kFuOut:
        SALSA_CHECK_MSG(fu_has[id], "FU output read while no result is present");
        return fu_out[id];
    }
    fail("bad endpoint");
  };
  // No input row is left to load after the last provided iteration.
  auto loads_now = [&](const RegLoad& ld) {
    return ld.src.kind != Endpoint::Kind::kInPort || iter + 1 < inputs.size();
  };

  SimResult result;
  result.outputs.assign(static_cast<size_t>(iterations),
                        std::vector<int64_t>(g.output_nodes().size(), 0));
  for (; iter < static_cast<size_t>(iterations); ++iter) {
    for (const Step& s : steps) {
      // Starting operations read their pins against the previous edge;
      // then the results due at this step's edge reach the FU outputs.
      for (const Start& st : s.starts)
        waiting[st.slot] = apply_op(st.op, read(st.in0), read(st.in1));
      for (const Land& l : s.lands) {
        fu_out[static_cast<size_t>(l.fu)] = waiting[l.slot];
        fu_has[static_cast<size_t>(l.fu)] = 1;
      }
      // Output ports sample the registers before the edge.
      for (const Sample& o : s.samples)
        result.outputs[iter][o.out] = regs[static_cast<size_t>(o.reg)];
      // Registers latch at the edge, from the pre-edge registers and the
      // FU outputs that land at this edge.
      latched.clear();
      for (const RegLoad& ld : s.loads)
        if (loads_now(ld)) latched.push_back(read(ld.src));
      size_t next = 0;
      for (const RegLoad& ld : s.loads)
        if (loads_now(ld)) regs[static_cast<size_t>(ld.reg)] = latched[next++];
      if (trace != nullptr) trace->regs.push_back(regs);
    }
  }
  return result;
}

std::string compare_with_reference(const Netlist& nl,
                                   std::span<const std::vector<int64_t>> inputs,
                                   std::span<const int64_t> initial_states,
                                   int iterations) {
  const Cdfg& g = nl.binding().prob().cdfg();
  Evaluator ref(g, initial_states);
  SimResult hw = simulate(nl, inputs, initial_states, iterations);
  for (int i = 0; i < iterations; ++i) {
    const auto want = ref.step(inputs[static_cast<size_t>(i)]);
    const auto& got = hw.outputs[static_cast<size_t>(i)];
    for (size_t k = 0; k < want.size(); ++k) {
      if (want[k] != got[k]) {
        std::ostringstream os;
        os << "iteration " << i << ", output '"
           << g.node(g.output_nodes()[k]).name << "': datapath=" << got[k]
           << " reference=" << want[k];
        return os.str();
      }
    }
  }
  return {};
}

std::string random_equivalence_check(const Netlist& nl, int iterations,
                                     uint64_t seed) {
  const Cdfg& g = nl.binding().prob().cdfg();
  Rng rng(seed);
  auto rnd = [&] {
    return static_cast<int64_t>(rng.next() % 2001) - 1000;
  };
  std::vector<std::vector<int64_t>> inputs(
      static_cast<size_t>(iterations) + 1,
      std::vector<int64_t>(g.input_nodes().size(), 0));
  for (auto& vec : inputs)
    for (auto& v : vec) v = rnd();
  std::vector<int64_t> states(g.state_nodes().size(), 0);
  for (auto& v : states) v = rnd();
  return compare_with_reference(nl, inputs, states, iterations);
}

}  // namespace salsa
