// Point-to-point interconnect derivation and the weighted cost function
// (Section 4). Interconnect is derived directly from the FU and register
// binding: every distinct (source → module-input-pin) pair is a connection,
// and an input pin fed by k distinct non-constant sources costs k-1
// equivalent 2-1 multiplexers — the metric reported in Tables 2 and 3.
// Constant operands are free (Section 5).
//
// The same connection enumeration fills the route table (which source
// drives each module input pin at each control step) that the legality
// check, the mux-merging post-pass and the datapath netlist read.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/binding.h"
#include "util/diagnostics.h"

namespace salsa {

/// A data source in the datapath.
struct Endpoint {
  enum class Kind : uint8_t { kFuOut, kRegOut, kInPort, kConstPort };
  Kind kind;
  int id;  ///< FuId, RegId, input-node NodeId, or const-node NodeId

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

/// A data sink (module input pin) in the datapath.
struct Pin {
  enum class Kind : uint8_t { kFuIn0, kFuIn1, kRegIn, kOutPort };
  Kind kind;
  int id;  ///< FuId, RegId, or output-node NodeId

  friend bool operator==(const Pin&, const Pin&) = default;
};

/// One use of a connection: data flows from src to sink during `step`
/// (for kRegIn sinks the register latches at the end of that step).
struct ConnUse {
  Endpoint src;
  Pin sink;
  int step;
};

/// Compact 32-bit endpoint/pin keys: kind in the top four bits, id below,
/// so ascending keys order by kind, then id, and a (sink, source) pair
/// packs into one 64-bit key (pair_key). The one key encoding of
/// connections. Ids are node/FU/register indices, far below 2^28.
inline uint32_t pack(const Endpoint& e) {
  SALSA_DCHECK(e.id >= 0 && e.id < (1 << 28));
  return (static_cast<uint32_t>(e.kind) << 28) | static_cast<uint32_t>(e.id);
}

inline uint32_t pack(const Pin& p) {
  SALSA_DCHECK(p.id >= 0 && p.id < (1 << 28));
  return (static_cast<uint32_t>(p.kind) << 28) | static_cast<uint32_t>(p.id);
}

/// The (sink, source) pair key: the sink's pack() in the high half, the
/// source's in the low half, so one sink's pairs are adjacent in key order.
/// The key of the search engine's connection index, the constructive
/// start's connection tracker and evaluate_cost.
inline uint64_t pair_key(const Pin& sink, const Endpoint& src) {
  return (static_cast<uint64_t>(pack(sink)) << 32) | pack(src);
}

/// The endpoint a pack()ed key names.
inline Endpoint unpack_endpoint(uint32_t key) {
  return {static_cast<Endpoint::Kind>(key >> 28),
          static_cast<int>(key & ((1u << 28) - 1))};
}

/// Dense ids for a problem's module input pins and non-constant sources,
/// the one numbering of its interconnect (DESIGN.md, "Interconnect index").
/// Pins: FU input 0, FU input 1, register inputs, then output ports by
/// output position. Sources: FU outputs, register outputs, then input ports
/// by input position. Ids ascend in pack() order.
class PinIndex {
 public:
  explicit PinIndex(const AllocProblem& prob);

  size_t num_pins() const { return 2 * fus_ + regs_ + outputs_.size(); }
  size_t num_sources() const { return fus_ + regs_ + inputs_.size(); }

  size_t pin(const Pin& p) const {
    SALSA_DCHECK(p.id >= 0);
    const size_t id = static_cast<size_t>(p.id);
    return p.kind == Pin::Kind::kFuIn0   ? id
           : p.kind == Pin::Kind::kFuIn1 ? fus_ + id
           : p.kind == Pin::Kind::kRegIn ? 2 * fus_ + id
                                         : 2 * fus_ + regs_ + port(p.id);
  }
  /// Constant sources have no id.
  size_t source(const Endpoint& e) const {
    SALSA_DCHECK(e.id >= 0 && e.kind != Endpoint::Kind::kConstPort);
    const size_t id = static_cast<size_t>(e.id);
    return e.kind == Endpoint::Kind::kFuOut    ? id
           : e.kind == Endpoint::Kind::kRegOut ? fus_ + id
                                               : fus_ + regs_ + port(e.id);
  }
  Pin pin_at(size_t id) const;
  Endpoint source_at(size_t id) const;

  /// Position of an input node in cdfg.input_nodes(), or of an output node
  /// in cdfg.output_nodes().
  size_t port(NodeId n) const {
    SALSA_DCHECK(port_[static_cast<size_t>(n)] != kNoPort);
    return port_[static_cast<size_t>(n)];
  }

 private:
  static constexpr size_t kNoPort = ~size_t{0};
  size_t fus_;
  size_t regs_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::vector<size_t> port_;  ///< per node
};

/// The driver of every module input pin at every control step: one row per
/// PinIndex pin, holding a pack()ed source (constants included) per step.
class RouteTable {
 public:
  /// No pack()ed endpoint has kind 15.
  static constexpr uint32_t kNoDriver = ~0u;

  explicit RouteTable(const AllocProblem& prob);

  const PinIndex& index() const { return index_; }

  /// Routes u.src to u.sink at u.step. The first use of a (pin, step) sets
  /// its driver; a use with another source leaves it and returns false.
  bool route(const ConnUse& u) {
    SALSA_DCHECK(u.step >= 0 && static_cast<size_t>(u.step) < steps_);
    uint32_t& d = driver_[index_.pin(u.sink) * steps_ +
                          static_cast<size_t>(u.step)];
    const uint32_t src = pack(u.src);
    if (d == kNoDriver) d = src;
    return d == src;
  }

  /// The pack()ed driver of pin `pin` at each step, kNoDriver where none.
  std::span<const uint32_t> row(size_t pin) const {
    return {driver_.data() + pin * steps_, steps_};
  }

  /// The source driving a pin at a step, if any.
  std::optional<Endpoint> driver(const Pin& pin, int step) const {
    const uint32_t d = row(index_.pin(pin))[static_cast<size_t>(step)];
    if (d == kNoDriver) return std::nullopt;
    return unpack_endpoint(d);
  }

 private:
  PinIndex index_;
  size_t steps_;
  std::vector<uint32_t> driver_;  ///< row-major, pins x steps
};

/// Enumerates every routed data flow of the binding with the control step it
/// occurs at: operand reads, output samples, producer result latches,
/// environment input loads, and inter-register transfers (direct or via
/// pass-through FUs). The binding must be structurally complete.
std::vector<ConnUse> connection_uses(const Binding& b);

/// Weights of the allocation cost function (Section 4: a weighted sum of
/// functional unit, register and interconnect costs; interconnect is
/// evaluated on the point-to-point model). FU and register *budgets* are
/// inputs of each experiment, so the weights emphasise interconnect.
struct CostWeights {
  double fu;    ///< per functional unit actually used
  double reg;   ///< per register actually used
  double mux;   ///< per equivalent 2-1 multiplexer
  double conn;  ///< per point-to-point connection (wire)
};
inline constexpr CostWeights kCostWeights{0.0, 5.0, 10.0, 1.0};

/// The weighted sum of the four counts — of a binding's totals, or of the
/// differences a move made to them.
constexpr double weighted_cost(int fus, int regs, int muxes, int conns) {
  return kCostWeights.fu * fus + kCostWeights.reg * regs +
         kCostWeights.mux * muxes + kCostWeights.conn * conns;
}

struct CostBreakdown {
  int fus_used = 0;
  int regs_used = 0;
  int connections = 0;  ///< distinct non-constant (src, sink) pairs
  int muxes = 0;        ///< equivalent 2-1 multiplexers before merging
  double total = 0;     ///< weighted_cost of the four counts
};

/// Evaluates the allocation cost function on a binding.
CostBreakdown evaluate_cost(const Binding& b);

}  // namespace salsa
