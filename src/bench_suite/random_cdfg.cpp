#include "bench_suite/random_cdfg.h"

#include <algorithm>

#include "util/rng.h"
#include "util/strings.h"

namespace salsa {

namespace {

// True if any node in `targets` is reachable from `from` along data edges.
bool reaches_any(const Cdfg& g, NodeId from, const std::vector<NodeId>& targets) {
  std::vector<bool> seen(static_cast<size_t>(g.num_nodes()), false);
  std::vector<NodeId> stack{from};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (seen[static_cast<size_t>(n)]) continue;
    seen[static_cast<size_t>(n)] = true;
    if (std::find(targets.begin(), targets.end(), n) != targets.end())
      return true;
    if (g.node(n).out == kInvalidId) continue;
    for (NodeId c : g.value(g.node(n).out).consumers) stack.push_back(c);
  }
  return false;
}

}  // namespace

Cdfg make_random_cdfg(const RandomCdfgParams& p) {
  SALSA_CHECK_MSG(p.num_ops >= p.num_states + 1,
                  "need at least one op per state plus one");
  Rng rng(p.seed);
  Cdfg g("random_" + std::to_string(p.seed));

  std::vector<ValueId> pool;  // candidate operands
  std::vector<ValueId> states;
  for (int i = 0; i < p.num_inputs; ++i)
    pool.push_back(g.add_input("in" + std::to_string(i)));
  for (int i = 0; i < p.num_consts; ++i)
    pool.push_back(g.add_const(rng.range(-9, 9), numbered("k", i)));
  for (int i = 0; i < p.num_states; ++i) {
    const ValueId s = g.add_state("st" + std::to_string(i));
    states.push_back(s);
    pool.push_back(s);
  }
  if (pool.empty()) pool.push_back(g.add_input("in0"));

  constexpr double kSubFrac = 0.2;  // fraction of ops that are subtractions
  std::vector<ValueId> computed;
  for (int i = 0; i < p.num_ops; ++i) {
    OpKind kind = OpKind::kAdd;
    const double roll = rng.uniform01();
    if (roll < p.mul_frac) {
      kind = OpKind::kMul;
    } else if (roll < p.mul_frac + kSubFrac) {
      kind = OpKind::kSub;
    }
    // The first ops consume the states so every state is read.
    ValueId a, bb;
    if (i < p.num_states) {
      a = states[static_cast<size_t>(i)];
      bb = pool[static_cast<size_t>(rng.uniform(static_cast<int>(pool.size())))];
    } else {
      a = pool[static_cast<size_t>(rng.uniform(static_cast<int>(pool.size())))];
      bb = pool[static_cast<size_t>(rng.uniform(static_cast<int>(pool.size())))];
    }
    const ValueId v = g.add_op(kind, a, bb, "op" + std::to_string(i));
    computed.push_back(v);
    pool.push_back(v);
  }

  // Rewire each state to a computed value that cannot reach any of the
  // state's readers (keeps the anti-dependence satisfiable).
  std::vector<ValueId> used_next;
  for (ValueId s : states) {
    const std::vector<NodeId> readers = g.value(s).consumers;
    ValueId next = kInvalidId;
    for (auto it = computed.rbegin(); it != computed.rend(); ++it) {
      // A value may feed only one state: merged-state storages cannot carry
      // two distinct initial contents.
      if (std::find(used_next.begin(), used_next.end(), *it) !=
          used_next.end())
        continue;
      if (!reaches_any(g, g.producer(*it), readers)) {
        next = *it;
        break;
      }
    }
    if (next == kInvalidId) {
      // Synthesize a fresh combiner of two late values; it reaches nothing.
      const ValueId a = computed.back();
      const ValueId bb =
          computed[static_cast<size_t>(rng.uniform(
              static_cast<int>(computed.size())))];
      next = g.add_op(OpKind::kAdd, a, bb, "stfix" + std::to_string(s));
      computed.push_back(next);
    }
    used_next.push_back(next);
    g.set_state_next(s, next);
  }

  // Every unconsumed computed value becomes an output.
  int outs = 0;
  for (ValueId v : computed)
    if (g.value(v).consumers.empty()) {
      bool is_state_next = false;
      for (NodeId sn : g.state_nodes())
        if (g.node(sn).state_next == v) is_state_next = true;
      if (!is_state_next) g.add_output(v, "out" + std::to_string(outs++));
    }
  if (outs == 0 && !computed.empty()) g.add_output(computed.back(), "out0");

  g.validate();
  return g;
}

}  // namespace salsa
