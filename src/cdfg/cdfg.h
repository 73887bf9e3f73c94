// Control/data-flow graph (CDFG) intermediate representation.
//
// A Cdfg holds operator nodes (inputs, constants, loop-carried states,
// arithmetic ops, outputs) and the data values flowing between them. Loop
// benchmarks (e.g. the elliptic wave filter) are modelled with State nodes:
// a State node produces the value read by the current iteration, and is told
// (via set_state_next) which computed value becomes its content for the next
// iteration. Scheduling and allocation treat the pair as one cyclic storage
// entity whose lifetime wraps around the iteration boundary.
//
// The "slack nodes" of the paper (Section 2) are not materialised as extra
// graph nodes: a slack node per control step of a value's lifetime is exactly
// a value *segment*, and segments are enumerated by core/lifetime.* from the
// schedule. This keeps the graph purely behavioural while the binding layer
// owns the segment/cell structure.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/diagnostics.h"

namespace salsa {

using NodeId = int32_t;
using ValueId = int32_t;
inline constexpr int32_t kInvalidId = -1;

/// Kinds of CDFG nodes. Add/Sub/Mul are the binary operators the benchmark
/// suite needs; Nop exists so tests can build explicit pass-through chains.
enum class OpKind : uint8_t {
  kInput,   ///< Primary input; value readable from control step 0.
  kConst,   ///< Compile-time constant; free (no register, no mux cost).
  kState,   ///< Loop-carried state; readable from step 0, rewritten each
            ///< iteration by the value named via set_state_next().
  kAdd,
  kSub,
  kMul,
  kNop,     ///< Unary identity (explicit pass-through in didactic examples).
  kOutput,  ///< Sink; consumes one value at its scheduled step.
};

/// True for nodes that take two value operands.
bool is_binary(OpKind k);
/// True for nodes executed on a functional unit (Add/Sub/Mul/Nop).
bool is_operation(OpKind k);
/// True for Add and Mul (operand order does not matter).
bool is_commutative(OpKind k);
/// Short mnemonic ("add", "mul", ...) for display.
const char* op_name(OpKind k);

struct Node {
  OpKind kind = OpKind::kInput;
  std::string name;
  /// Operand values: two for binary ops, one for Output/Nop, none otherwise.
  std::vector<ValueId> ins;
  /// Produced value; kInvalidId for Output nodes.
  ValueId out = kInvalidId;
  /// Constant payload (kConst only).
  int64_t cvalue = 0;
  /// For kState: the value that becomes this state's content next iteration.
  ValueId state_next = kInvalidId;
};

/// A broken rule: its message and the node it concerns (kInvalidId for a
/// rule about the graph as a whole). Readers map the node to a source line.
struct Violation {
  std::string message;
  NodeId node = kInvalidId;
};

struct Value {
  std::string name;
  NodeId producer = kInvalidId;
  /// Consumer nodes; a node appears once per operand slot it uses this value
  /// in (so a node reading v twice appears twice).
  std::vector<NodeId> consumers;
};

/// A behavioural CDFG. Build with the add_* methods, then seal with
/// validate(). All ids are dense indices, stable across the object lifetime.
class Cdfg {
 public:
  explicit Cdfg(std::string name = "cdfg") : name_(std::move(name)) {}

  // ---- construction -------------------------------------------------------
  ValueId add_input(std::string name);
  ValueId add_const(int64_t value, std::string name = "");
  ValueId add_state(std::string name);
  /// Adds a binary operation (Add/Sub/Mul) and returns its result value.
  ValueId add_op(OpKind kind, ValueId a, ValueId b, std::string name = "");
  /// Adds a unary Nop and returns its result value.
  ValueId add_nop(ValueId a, std::string name = "");
  NodeId add_output(ValueId v, std::string name = "");
  /// Declares that `next` becomes the content of state value `state` at the
  /// next iteration. Must be called exactly once per State node.
  void set_state_next(ValueId state, ValueId next);

  /// The first broken structural rule (operand arity, state wiring, no
  /// dangling values, every state read, no intra-iteration cycle), if any.
  std::optional<Violation> first_violation() const;
  /// Throws salsa::Error with first_violation()'s message. Idempotent.
  void validate() const;

  // ---- access -------------------------------------------------------------
  const std::string& name() const { return name_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_values() const { return static_cast<int>(values_.size()); }
  const Node& node(NodeId n) const { return nodes_[static_cast<size_t>(n)]; }
  const Value& value(ValueId v) const { return values_[static_cast<size_t>(v)]; }

  /// Producer node of a value (always valid after validate()).
  NodeId producer(ValueId v) const { return value(v).producer; }

  /// Nodes in a topological order of intra-iteration data dependences
  /// (state/input/const first; state-next edges are loop-carried and do not
  /// constrain the order).
  std::vector<NodeId> topo_order() const;

  /// Number of operation nodes of the given kind.
  int count(OpKind k) const;
  /// All operation nodes (is_operation(kind)).
  std::vector<NodeId> operations() const;
  /// All State node ids.
  std::vector<NodeId> state_nodes() const;
  /// All Input node ids.
  std::vector<NodeId> input_nodes() const;
  /// All Output node ids.
  std::vector<NodeId> output_nodes() const;

  /// True if the value is produced by a Const node (free in the cost model).
  bool is_const_value(ValueId v) const;

 private:
  NodeId new_node(Node n);
  ValueId new_value(std::string name, NodeId producer);

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<Value> values_;
};

}  // namespace salsa
