// Point-to-point interconnect derivation and the weighted cost function
// (Section 4). Interconnect is derived directly from the FU and register
// binding: every distinct (source → module-input-pin) pair is a connection,
// and an input pin fed by k distinct non-constant sources costs k-1
// equivalent 2-1 multiplexers — the metric reported in Tables 2 and 3.
// Constant operands are free (Section 5).
//
// The same connection enumeration drives the datapath netlist builder and
// the mux-merging post-pass, which additionally need the control step at
// which each connection carries data.
#pragma once

#include <cstdint>
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

/// Dense orderable keys, used to group and deduplicate connections.
uint64_t key_of(const Endpoint& e);
uint64_t key_of(const Pin& p);

/// Compact 32-bit endpoint/pin keys: kind in the top four bits, id below,
/// so a (sink, source) pair packs into one 64-bit key — the pair key of the
/// search engine's connection index and of the constructive start's
/// connection tracker. Ids are node/FU/register indices, far below 2^28.
inline uint32_t pack(const Endpoint& e) {
  SALSA_DCHECK(e.id >= 0 && e.id < (1 << 28));
  return (static_cast<uint32_t>(e.kind) << 28) | static_cast<uint32_t>(e.id);
}

inline uint32_t pack(const Pin& p) {
  SALSA_DCHECK(p.id >= 0 && p.id < (1 << 28));
  return (static_cast<uint32_t>(p.kind) << 28) | static_cast<uint32_t>(p.id);
}

/// Enumerates every routed data flow of the binding with the control step it
/// occurs at: operand reads, output samples, producer result latches,
/// environment input loads, and inter-register transfers (direct or via
/// pass-through FUs). The binding must be structurally complete.
std::vector<ConnUse> connection_uses(const Binding& b);

struct CostBreakdown {
  int fus_used = 0;
  int regs_used = 0;
  int connections = 0;  ///< distinct non-constant (src, sink) pairs
  int muxes = 0;        ///< equivalent 2-1 multiplexers before merging
  double total = 0;     ///< weighted sum per the problem's CostWeights
};

/// Evaluates the allocation cost function on a binding.
CostBreakdown evaluate_cost(const Binding& b);

}  // namespace salsa
