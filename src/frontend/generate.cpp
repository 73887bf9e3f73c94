#include "frontend/generate.h"

#include <string>
#include <vector>

#include "analysis/digest.h"
#include "sched/asap_alap.h"
#include "sched/fu_search.h"
#include "util/rng.h"
#include "util/strings.h"

namespace salsa {

const char* gen_family_name(GenFamily f) {
  switch (f) {
    case GenFamily::kFilterCascade:
      return "cascade";
    case GenFamily::kGemmPipeline:
      return "gemm";
    case GenFamily::kLayeredDag:
      return "dag";
    case GenFamily::kMemoryTraffic:
      return "mem";
  }
  return "?";
}

namespace {

// Shared coefficient pool: a handful of nonzero constants reused by every
// section keeps the value table lean (per-section constants would add 5
// nodes per biquad for values that never occupy a register anyway).
std::vector<ValueId> coefficient_pool(Cdfg& g, Rng& rng, int n) {
  std::vector<ValueId> coeffs;
  coeffs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    int v = rng.range(-9, 9);
    if (v == 0) v = 1;
    coeffs.push_back(g.add_const(v, numbered("k", i)));
  }
  return coeffs;
}

// Parallel channels of chained direct-form-II biquads. Each section is the
// classic recurrence
//   w  = in + a1*s1 + a2*s2        (2 mul, 2 add)
//   y  = b0*w + b1*s1 + b2*s2      (3 mul, 2 add/sub)
//   s1' = w,  s2' = pass(s1)       (1 nop)
// so a channel of C sections is 10*C ops with a serial critical path, and
// the op count scales through the channel count, not the path length —
// a single 100k-op chain would drag the schedule length (and every
// steps-indexed table) along with it.
Cdfg make_cascade(const GenParams& p, Rng& rng) {
  Cdfg g(std::string("gen_cascade_") + std::to_string(p.seed));
  constexpr int kSections = 16;  // biquads per channel
  const int per_channel = 10 * kSections;
  const int channels = (p.target_ops + per_channel - 1) / per_channel;
  const std::vector<ValueId> coeffs = coefficient_pool(g, rng, 8);
  auto coeff = [&]() {
    return coeffs[static_cast<size_t>(
        rng.uniform(static_cast<int>(coeffs.size())))];
  };

  for (int ch = 0; ch < channels; ++ch) {
    ValueId in = g.add_input(numbered("x", ch));
    for (int s = 0; s < kSections; ++s) {
      const ValueId s1 = g.add_state(numbered("s1_", ch * kSections + s));
      const ValueId s2 = g.add_state(numbered("s2_", ch * kSections + s));
      const ValueId t1 = g.add_op(OpKind::kMul, coeff(), s1);
      const ValueId t2 = g.add_op(OpKind::kMul, coeff(), s2);
      const ValueId t3 = g.add_op(OpKind::kAdd, t1, t2);
      const ValueId w = g.add_op(OpKind::kAdd, in, t3);
      const ValueId u0 = g.add_op(OpKind::kMul, coeff(), w);
      const ValueId u1 = g.add_op(OpKind::kMul, coeff(), s1);
      const ValueId u2 = g.add_op(OpKind::kMul, coeff(), s2);
      const ValueId u3 =
          g.add_op(s % 2 ? OpKind::kSub : OpKind::kAdd, u1, u2);
      const ValueId y = g.add_op(OpKind::kAdd, u0, u3);
      const ValueId s2n = g.add_nop(s1);
      g.set_state_next(s1, w);
      g.set_state_next(s2, s2n);
      in = y;  // next section's input
    }
    g.add_output(in, numbered("y", ch));
  }
  g.validate();
  return g;
}

// T x T output tile of K-deep MAC chains: out[i][j] = sum_k a[i][k]*b[k][j],
// accumulated serially. 2K-1 ops per element, no loop-carried state, every
// a-row / b-column input fanned out across T chains — the wide,
// register-pressure-bound end of the corpus.
Cdfg make_gemm(const GenParams& p, Rng& /*rng*/) {
  Cdfg g(std::string("gen_gemm_") + std::to_string(p.seed));
  constexpr int kDepth = 8;  // K: MAC-chain depth per tile element
  const int per_elem = 2 * kDepth - 1;
  int tile = 1;
  while ((tile + 1) * (tile + 1) * per_elem <= p.target_ops) ++tile;
  if (tile * tile * per_elem < p.target_ops) ++tile;

  std::vector<ValueId> a(static_cast<size_t>(tile * kDepth));
  std::vector<ValueId> b(static_cast<size_t>(kDepth * tile));
  for (int i = 0; i < tile; ++i)
    for (int k = 0; k < kDepth; ++k)
      a[static_cast<size_t>(i * kDepth + k)] =
          g.add_input(numbered("a", i) + numbered("_", k));
  for (int k = 0; k < kDepth; ++k)
    for (int j = 0; j < tile; ++j)
      b[static_cast<size_t>(k * tile + j)] =
          g.add_input(numbered("b", k) + numbered("_", j));

  for (int i = 0; i < tile; ++i)
    for (int j = 0; j < tile; ++j) {
      ValueId acc = g.add_op(OpKind::kMul, a[static_cast<size_t>(i * kDepth)],
                             b[static_cast<size_t>(j)]);
      for (int k = 1; k < kDepth; ++k) {
        const ValueId m =
            g.add_op(OpKind::kMul, a[static_cast<size_t>(i * kDepth + k)],
                     b[static_cast<size_t>(k * tile + j)]);
        acc = g.add_op(OpKind::kAdd, acc, m);
      }
      g.add_output(acc, numbered("o", i) + numbered("_", j));
    }
  g.validate();
  return g;
}

// Layers x width random DAG with a bounded operand window. States are read
// only by layer-0 ops and rewritten from final-layer values; final-layer
// values have no operation consumers (the window never reaches forward), so
// the state anti-dependence is satisfiable by construction and no
// reachability search is needed — the property that lets this family scale
// where bench_suite/random_cdfg.cpp's reaches_any() walk cannot.
Cdfg make_layered_dag(const GenParams& p, Rng& rng) {
  Cdfg g(std::string("gen_dag_") + std::to_string(p.seed));
  constexpr int kWidth = 64;   // ops per layer
  constexpr int kWindow = 3;   // operand window in layers
  constexpr int kMulPct = 35;  // % of ops that are multiplies
  constexpr int kSubPct = 20;  // % of ops that are subtractions
  const int layers = (p.target_ops + kWidth - 1) / kWidth < 2
                         ? 2
                         : (p.target_ops + kWidth - 1) / kWidth;
  constexpr int num_inputs = kWidth / 2 + 1;
  constexpr int num_states = kWidth / 4 > 8 ? 8 : kWidth / 4;

  std::vector<ValueId> pool;  // layer-0 operand candidates
  std::vector<ValueId> states;
  for (int i = 0; i < num_inputs; ++i)
    pool.push_back(g.add_input(numbered("in", i)));
  const std::vector<ValueId> coeffs = coefficient_pool(g, rng, 4);
  pool.insert(pool.end(), coeffs.begin(), coeffs.end());
  for (int i = 0; i < num_states; ++i) {
    const ValueId s = g.add_state(numbered("st", i));
    states.push_back(s);
    pool.push_back(s);
  }

  auto pick_kind = [&]() {
    const int roll = rng.uniform(100);
    if (roll < kMulPct) return OpKind::kMul;
    if (roll < kMulPct + kSubPct) return OpKind::kSub;
    return OpKind::kAdd;
  };

  std::vector<std::vector<ValueId>> layer_vals(
      static_cast<size_t>(layers));
  std::vector<ValueId> window_vals;
  for (int l = 0; l < layers; ++l) {
    // Operand window: the previous kWindow layers' values (layer 0 draws
    // from the input/const/state pool instead).
    window_vals.clear();
    for (int back = 1; back <= kWindow && l - back >= 0; ++back) {
      const auto& prev = layer_vals[static_cast<size_t>(l - back)];
      window_vals.insert(window_vals.end(), prev.begin(), prev.end());
    }
    const std::vector<ValueId>& src = l == 0 ? pool : window_vals;
    auto pick = [&]() {
      return src[static_cast<size_t>(
          rng.uniform(static_cast<int>(src.size())))];
    };
    for (int i = 0; i < kWidth; ++i) {
      // The first layer-0 ops consume the states so every state is read.
      const ValueId va = (l == 0 && i < num_states)
                             ? states[static_cast<size_t>(i)]
                             : pick();
      layer_vals[static_cast<size_t>(l)].push_back(
          g.add_op(pick_kind(), va, pick()));
    }
  }

  // Rewire each state to a distinct final-layer value (a value may feed only
  // one state: merged-state storages cannot carry two initial contents).
  const std::vector<ValueId>& last = layer_vals[static_cast<size_t>(layers - 1)];
  std::vector<char> is_state_next(static_cast<size_t>(g.num_values()), 0);
  for (int i = 0; i < num_states; ++i) {
    const ValueId next = last[static_cast<size_t>(i) % last.size()];
    g.set_state_next(states[static_cast<size_t>(i)], next);
    is_state_next[static_cast<size_t>(next)] = 1;
  }

  // Every unconsumed computed value becomes an output (state rewrites count
  // as consumption, mirroring random_cdfg).
  int outs = 0;
  for (const auto& layer : layer_vals)
    for (ValueId v : layer) {
      if (!g.value(v).consumers.empty()) continue;
      if (!is_state_next[static_cast<size_t>(v)])
        g.add_output(v, numbered("out", outs++));
    }
  if (outs == 0) g.add_output(last.back(), "out0");
  g.validate();
  return g;
}

// Parallel (address, data) stream pairs. Per stream: an affine address
// walker addr = a*stride + base with a' = a + step (3 ops), and a MAC chain
// of kChain stages folding the stream input into a running data state
// (2 ops per stage). Outputs are emitted in (addr, data) adjacent pairs.
Cdfg make_memory_traffic(const GenParams& p, Rng& rng) {
  Cdfg g(std::string("gen_mem_") + std::to_string(p.seed));
  // kChain >= 2 keeps the data chain's final op (the state-next producer)
  // from reading the data state directly — same anti-dependence rule.
  constexpr int kChain = 4;
  const int per_stream = 5 + 2 * kChain;  // 4 addr ops, 2/stage, 1 output nop
  const int streams = (p.target_ops + per_stream - 1) / per_stream;
  const std::vector<ValueId> coeffs = coefficient_pool(g, rng, 8);
  auto coeff = [&]() {
    return coeffs[static_cast<size_t>(
        rng.uniform(static_cast<int>(coeffs.size())))];
  };

  for (int j = 0; j < streams; ++j) {
    const ValueId in = g.add_input(numbered("m", j));
    // Affine address walker. The state's next-content producer must not
    // read the state itself (the list scheduler's anti-dependence rule
    // blocks direct self-accumulation), so the step add reads a same-
    // iteration pass-through copy instead: a' = nop(a) + step.
    const ValueId a = g.add_state(numbered("a", j));
    const ValueId stride = g.add_const(rng.range(1, 7), numbered("str", j));
    const ValueId step = g.add_const(rng.range(1, 9), numbered("stp", j));
    const ValueId addr = g.add_op(OpKind::kAdd,
                                  g.add_op(OpKind::kMul, a, stride), coeff());
    g.set_state_next(a, g.add_op(OpKind::kAdd, g.add_nop(a), step));

    const ValueId d = g.add_state(numbered("d", j));
    ValueId data = d;
    for (int s = 0; s < kChain; ++s)
      data = g.add_op(s % 2 ? OpKind::kSub : OpKind::kAdd,
                      g.add_op(OpKind::kMul, in, coeff()), data);
    g.set_state_next(d, data);

    g.add_output(addr, numbered("addr", j));
    // The data output taps the chain through a pass-through: a state-next
    // value's storage wraps the iteration boundary, which output sampling
    // cannot read (the other families avoid state-next outputs the same way).
    g.add_output(g.add_nop(data), numbered("data", j));
  }
  g.validate();
  return g;
}

}  // namespace

Cdfg generate_cdfg(const GenParams& p) {
  SALSA_CHECK_MSG(p.target_ops >= 1, "generate_cdfg needs target_ops >= 1");
  Rng rng(derive_seed(p.seed, static_cast<uint64_t>(p.family)));
  switch (p.family) {
    case GenFamily::kFilterCascade:
      return make_cascade(p, rng);
    case GenFamily::kGemmPipeline:
      return make_gemm(p, rng);
    case GenFamily::kLayeredDag:
      return make_layered_dag(p, rng);
    case GenFamily::kMemoryTraffic:
      return make_memory_traffic(p, rng);
  }
  fail("unknown GenFamily");
}

GeneratedDesign generate_design(const GenParams& p) {
  GeneratedDesign d;
  d.graph = std::make_unique<Cdfg>(generate_cdfg(p));
  const Cdfg& g = *d.graph;

  const HwSpec hw;
  d.num_ops = static_cast<int>(g.operations().size());

  // Length: critical path plus a slack margin. Budget: the occupancy bound
  // at that length plus 1/8 headroom — list scheduling is a heuristic, so
  // infeasibility grows the budget (and, every other retry, the length)
  // deterministically until a schedule fits.
  const int minlen = min_schedule_length(g, hw);
  constexpr int kSlackEighths = 2;  // margin over the critical path: +25%
  int length = minlen + (minlen * kSlackEighths) / 8 + 2;
  const FuBudget occ = occupancy_bound(g, hw, length);
  auto with_headroom = [](int base) { return base + base / 8 + 1; };
  FuBudget budget{with_headroom(occ.alu),
                  occ.mul == 0 ? 0 : with_headroom(occ.mul)};

  for (int attempt = 0;; ++attempt) {
    std::optional<Schedule> sched = list_schedule(g, hw, length, budget);
    if (sched) {
      d.schedule = std::make_unique<Schedule>(std::move(*sched));
      break;
    }
    SALSA_CHECK_MSG(attempt < 10,
                    "generate_design: no legal schedule within the retry "
                    "budget for target_ops=" +
                        std::to_string(p.target_ops));
    budget.alu += budget.alu / 4 + 1;
    if (budget.mul > 0) budget.mul += budget.mul / 4 + 1;
    if (attempt % 2 == 1) length += minlen / 8 + 1;
  }

  d.fus = budget;
  d.problem = std::make_unique<AllocProblem>(
      *d.schedule, FuPool::standard(budget), p.spare);
  return d;
}

uint64_t design_digest(const GeneratedDesign& d) {
  Fnv1a h;
  const Cdfg& g = *d.graph;
  h.i32(g.num_nodes());
  h.i32(g.num_values());
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const Node& node = g.node(n);
    h.byte(static_cast<uint8_t>(node.kind));
    h.i32(static_cast<int32_t>(node.ins.size()));
    for (ValueId v : node.ins) h.i32(v);
    h.i32(node.out);
    h.u64(static_cast<uint64_t>(node.cvalue));
    h.i32(node.state_next);
  }
  h.i32(d.schedule->length());
  for (NodeId n = 0; n < g.num_nodes(); ++n) h.i32(d.schedule->start(n));
  h.i32(d.fus.alu);
  h.i32(d.fus.mul);
  h.i32(d.problem->num_regs());
  return h.value();
}

}  // namespace salsa
