// Datapath netlist: the structural view of a legal binding. Its route table
// gives, for every module input pin and control step, the unique source
// driving it (derived from the point-to-point connection enumeration), plus
// the per-step controller actions (which ops execute where, which registers
// load, which outputs sample). The simulator executes this structure; the
// Verilog emitter prints it.
#pragma once

#include <optional>
#include <vector>

#include "core/cost.h"

namespace salsa {

/// An operation execution slot: op `node` starts on FU `fu` at step `step`.
struct FuAction {
  NodeId node;
  FuId fu;
  int step;
};

/// A register load: register `reg` latches from `src` at the end of `step`.
struct RegLoad {
  RegId reg;
  Endpoint src;
  int step;
};

/// An output sample: output node `node` reads register `reg` during `step`.
struct OutSample {
  NodeId node;
  RegId reg;
  int step;
};

class Netlist {
 public:
  /// Builds the netlist of a legal binding (throws on illegal bindings).
  /// The binding is borrowed, not copied: it (and its AllocProblem) must
  /// outlive the Netlist, so a temporary binding does not compile.
  explicit Netlist(const Binding& b);
  Netlist(Binding&&) = delete;

  const Binding& binding() const { return *b_; }

  /// Source driving a pin at a step, if any.
  std::optional<Endpoint> source_of(const Pin& pin, int step) const {
    return routes_.driver(pin, step);
  }
  const RouteTable& routes() const { return routes_; }

  const std::vector<FuAction>& fu_actions() const { return fu_actions_; }
  const std::vector<RegLoad>& reg_loads() const { return reg_loads_; }
  const std::vector<OutSample>& out_samples() const { return out_samples_; }

 private:
  const Binding* b_;
  RouteTable routes_;
  std::vector<FuAction> fu_actions_;
  std::vector<RegLoad> reg_loads_;
  std::vector<OutSample> out_samples_;
};

}  // namespace salsa
