#include "core/cost.h"

#include <algorithm>

namespace salsa {

PinIndex::PinIndex(const AllocProblem& prob)
    : fus_(static_cast<size_t>(prob.fus().size())),
      regs_(static_cast<size_t>(prob.num_regs())),
      inputs_(prob.cdfg().input_nodes()),
      outputs_(prob.cdfg().output_nodes()),
      port_(static_cast<size_t>(prob.cdfg().num_nodes()), kNoPort) {
  for (size_t i = 0; i < inputs_.size(); ++i)
    port_[static_cast<size_t>(inputs_[i])] = i;
  for (size_t i = 0; i < outputs_.size(); ++i)
    port_[static_cast<size_t>(outputs_[i])] = i;
}

Pin PinIndex::pin_at(size_t id) const {
  SALSA_DCHECK(id < num_pins());
  if (id < fus_) return {Pin::Kind::kFuIn0, static_cast<int>(id)};
  if (id < 2 * fus_) return {Pin::Kind::kFuIn1, static_cast<int>(id - fus_)};
  if (id < 2 * fus_ + regs_)
    return {Pin::Kind::kRegIn, static_cast<int>(id - 2 * fus_)};
  return {Pin::Kind::kOutPort, outputs_[id - 2 * fus_ - regs_]};
}

Endpoint PinIndex::source_at(size_t id) const {
  SALSA_DCHECK(id < num_sources());
  if (id < fus_) return {Endpoint::Kind::kFuOut, static_cast<int>(id)};
  if (id < fus_ + regs_)
    return {Endpoint::Kind::kRegOut, static_cast<int>(id - fus_)};
  return {Endpoint::Kind::kInPort, inputs_[id - fus_ - regs_]};
}

RouteTable::RouteTable(const AllocProblem& prob)
    : index_(prob),
      steps_(static_cast<size_t>(prob.sched().length())),
      driver_(index_.num_pins() * steps_, kNoDriver) {}

std::vector<ConnUse> connection_uses(const Binding& b) {
  const AllocProblem& prob = b.prob();
  const Cdfg& g = prob.cdfg();
  const Schedule& sched = prob.sched();
  const Lifetimes& lt = prob.lifetimes();
  const int L = sched.length();

  std::vector<ConnUse> uses;
  uses.reserve(256);

  // Helper: the endpoint producing a value read by an operation. Constants
  // come from the constant port of their node; everything else is read from
  // the register cell the read record names.
  auto operand_source = [&](int sid, int read_idx) -> Endpoint {
    return Endpoint{Endpoint::Kind::kRegOut, b.read_reg(sid, read_idx)};
  };

  // Reads: operand fetches and output samples.
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    const Storage& s = lt.storage(sid);
    for (size_t ri = 0; ri < s.reads.size(); ++ri) {
      const StorageRead& r = s.reads[ri];
      const Node& cn = g.node(r.consumer);
      const Endpoint src = operand_source(sid, static_cast<int>(ri));
      if (cn.kind == OpKind::kOutput) {
        uses.push_back({src, Pin{Pin::Kind::kOutPort, r.consumer}, r.step});
      } else {
        const OpBind& ob = b.op(r.consumer);
        const int slot = ob.swap ? 1 - r.operand : r.operand;
        uses.push_back(
            {src,
             Pin{slot == 0 ? Pin::Kind::kFuIn0 : Pin::Kind::kFuIn1, ob.fu},
             r.step});
      }
    }
  }

  // Constant operands (free in the cost function but needed by the netlist).
  for (NodeId n : g.operations()) {
    const Node& nd = g.node(n);
    for (size_t k = 0; k < nd.ins.size(); ++k) {
      if (!g.is_const_value(nd.ins[k])) continue;
      const OpBind& ob = b.op(n);
      const int slot = ob.swap ? 1 - static_cast<int>(k) : static_cast<int>(k);
      uses.push_back({Endpoint{Endpoint::Kind::kConstPort,
                               g.producer(nd.ins[k])},
                      Pin{slot == 0 ? Pin::Kind::kFuIn0 : Pin::Kind::kFuIn1,
                          ob.fu},
                      sched.start(n)});
    }
  }

  // Cell writes: producer latches, environment input loads, transfers.
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    const Storage& s = lt.storage(sid);
    const StorageBinding& sb = b.sto(sid);
    for (int seg = 0; seg < s.len; ++seg) {
      const int wstep = (s.step_at(seg, L) - 1 + L) % L;  // write happens here
      for (const Cell& c : sb.cells[static_cast<size_t>(seg)]) {
        const Pin sink{Pin::Kind::kRegIn, c.reg};
        if (seg == 0) {
          if (s.producer == kInvalidId) {
            // Primary input: loaded from the input port at the iteration
            // boundary (the step before birth, i.e. L-1).
            const NodeId in_node = g.producer(s.members[0]);
            uses.push_back(
                {Endpoint{Endpoint::Kind::kInPort, in_node}, sink, wstep});
          } else {
            uses.push_back({Endpoint{Endpoint::Kind::kFuOut,
                                     b.op(s.producer).fu},
                            sink, wstep});
          }
          continue;
        }
        const Cell& parent =
            sb.cells[static_cast<size_t>(seg) - 1][static_cast<size_t>(c.parent)];
        if (parent.reg == c.reg) continue;  // hold: no interconnect
        if (c.via == kInvalidId) {
          uses.push_back(
              {Endpoint{Endpoint::Kind::kRegOut, parent.reg}, sink, wstep});
        } else {
          // Pass-through: parent register -> FU input 0 -> FU output -> reg.
          uses.push_back({Endpoint{Endpoint::Kind::kRegOut, parent.reg},
                          Pin{Pin::Kind::kFuIn0, c.via}, wstep});
          uses.push_back(
              {Endpoint{Endpoint::Kind::kFuOut, c.via}, sink, wstep});
        }
      }
    }
  }
  return uses;
}

CostBreakdown evaluate_cost(const Binding& b) {
  CostBreakdown out;
  out.fus_used = b.fus_used();
  out.regs_used = b.regs_used();

  auto uses = connection_uses(b);
  // Distinct (sink, src) pair keys; constants are free (Section 5).
  std::vector<uint64_t> pairs;
  pairs.reserve(uses.size());
  for (const ConnUse& u : uses) {
    if (u.src.kind == Endpoint::Kind::kConstPort) continue;
    pairs.push_back(pair_key(u.sink, u.src));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  out.connections = static_cast<int>(pairs.size());
  // Equivalent 2-1 muxes: per sink pin (the key's high half), sources - 1.
  for (size_t i = 0; i < pairs.size();) {
    size_t j = i;
    while (j < pairs.size() && pairs[j] >> 32 == pairs[i] >> 32) ++j;
    out.muxes += static_cast<int>(j - i) - 1;
    i = j;
  }
  out.total = weighted_cost(out.fus_used, out.regs_used, out.muxes,
                            out.connections);
  return out;
}

}  // namespace salsa
