#include "cdfg/cdfg.h"

#include <algorithm>
#include <numeric>

#include "util/strings.h"

namespace salsa {

bool is_binary(OpKind k) {
  return k == OpKind::kAdd || k == OpKind::kSub || k == OpKind::kMul;
}

bool is_operation(OpKind k) {
  return k == OpKind::kAdd || k == OpKind::kSub || k == OpKind::kMul ||
         k == OpKind::kNop;
}

bool is_commutative(OpKind k) { return k == OpKind::kAdd || k == OpKind::kMul; }

const char* op_name(OpKind k) {
  switch (k) {
    case OpKind::kInput: return "input";
    case OpKind::kConst: return "const";
    case OpKind::kState: return "state";
    case OpKind::kAdd: return "add";
    case OpKind::kSub: return "sub";
    case OpKind::kMul: return "mul";
    case OpKind::kNop: return "nop";
    case OpKind::kOutput: return "output";
  }
  return "?";
}

NodeId Cdfg::new_node(Node n) {
  nodes_.push_back(std::move(n));
  return static_cast<NodeId>(nodes_.size() - 1);
}

ValueId Cdfg::new_value(std::string name, NodeId producer) {
  Value v;
  v.name = std::move(name);
  v.producer = producer;
  values_.push_back(std::move(v));
  return static_cast<ValueId>(values_.size() - 1);
}

ValueId Cdfg::add_input(std::string name) {
  Node n;
  n.kind = OpKind::kInput;
  n.name = name;
  NodeId id = new_node(std::move(n));
  ValueId v = new_value(std::move(name), id);
  nodes_[static_cast<size_t>(id)].out = v;
  return v;
}

ValueId Cdfg::add_const(int64_t value, std::string name) {
  if (name.empty()) name = numbered("c", value);
  Node n;
  n.kind = OpKind::kConst;
  n.name = name;
  n.cvalue = value;
  NodeId id = new_node(std::move(n));
  ValueId v = new_value(std::move(name), id);
  nodes_[static_cast<size_t>(id)].out = v;
  return v;
}

ValueId Cdfg::add_state(std::string name) {
  Node n;
  n.kind = OpKind::kState;
  n.name = name;
  NodeId id = new_node(std::move(n));
  ValueId v = new_value(std::move(name), id);
  nodes_[static_cast<size_t>(id)].out = v;
  return v;
}

ValueId Cdfg::add_op(OpKind kind, ValueId a, ValueId b, std::string name) {
  SALSA_CHECK_MSG(is_binary(kind), "add_op expects a binary OpKind");
  SALSA_CHECK(a >= 0 && a < num_values() && b >= 0 && b < num_values());
  Node n;
  n.kind = kind;
  n.ins = {a, b};
  if (name.empty())
    name = std::string(op_name(kind)) + std::to_string(num_nodes());
  n.name = name;
  NodeId id = new_node(std::move(n));
  values_[static_cast<size_t>(a)].consumers.push_back(id);
  values_[static_cast<size_t>(b)].consumers.push_back(id);
  ValueId v = new_value(std::move(name), id);
  nodes_[static_cast<size_t>(id)].out = v;
  return v;
}

ValueId Cdfg::add_nop(ValueId a, std::string name) {
  SALSA_CHECK(a >= 0 && a < num_values());
  Node n;
  n.kind = OpKind::kNop;
  n.ins = {a};
  if (name.empty()) name = "nop" + std::to_string(num_nodes());
  n.name = name;
  NodeId id = new_node(std::move(n));
  values_[static_cast<size_t>(a)].consumers.push_back(id);
  ValueId v = new_value(std::move(name), id);
  nodes_[static_cast<size_t>(id)].out = v;
  return v;
}

NodeId Cdfg::add_output(ValueId v, std::string name) {
  SALSA_CHECK(v >= 0 && v < num_values());
  Node n;
  n.kind = OpKind::kOutput;
  n.ins = {v};
  if (name.empty()) name = "out" + std::to_string(num_nodes());
  n.name = std::move(name);
  NodeId id = new_node(std::move(n));
  values_[static_cast<size_t>(v)].consumers.push_back(id);
  return id;
}

void Cdfg::set_state_next(ValueId state, ValueId next) {
  SALSA_CHECK(state >= 0 && state < num_values());
  SALSA_CHECK(next >= 0 && next < num_values());
  Node& sn = nodes_[static_cast<size_t>(producer(state))];
  SALSA_CHECK_MSG(sn.kind == OpKind::kState,
                  "set_state_next target is not a State value");
  SALSA_CHECK_MSG(sn.state_next == kInvalidId,
                  "set_state_next called twice for the same state");
  SALSA_CHECK_MSG(!is_const_value(next), "state cannot be fed by a constant");
  sn.state_next = next;
}

std::optional<Violation> Cdfg::first_violation() const {
  for (NodeId id = 0; id < num_nodes(); ++id) {
    const Node& n = node(id);
    const size_t want_ins = is_binary(n.kind)                        ? 2
                            : (n.kind == OpKind::kNop ||
                               n.kind == OpKind::kOutput)            ? 1
                                                                     : 0;
    if (n.ins.size() != want_ins)
      return Violation{"node '" + n.name + "' has wrong operand count", id};
    if (n.kind == OpKind::kOutput) {
      if (n.out != kInvalidId)
        return Violation{"output node produces a value", id};
    } else {
      if (n.out == kInvalidId || value(n.out).producer != id)
        return Violation{
            "node '" + n.name + "' has inconsistent output wiring", id};
    }
    if (n.kind == OpKind::kState && n.state_next == kInvalidId)
      return Violation{"state '" + n.name + "' has no next-iteration value",
                       id};
    if (n.kind != OpKind::kState && n.state_next != kInvalidId)
      return Violation{"non-state node '" + n.name + "' has state_next set",
                       id};
  }
  for (ValueId v = 0; v < num_values(); ++v) {
    const Value& val = value(v);
    if (val.producer == kInvalidId)
      return Violation{"value '" + val.name + "' has no producer"};
    for (NodeId c : val.consumers) {
      const Node& cn = node(c);
      if (std::count(cn.ins.begin(), cn.ins.end(), v) <
          std::count(val.consumers.begin(), val.consumers.end(), c))
        return Violation{"consumer list of value '" + val.name +
                         "' is inconsistent"};
    }
  }
  // A state and its next-iteration value share one storage (core/lifetime.h
  // merges them, transitively); some value of that storage must be read,
  // or it has no live range to allocate.
  std::vector<ValueId> root(static_cast<size_t>(num_values()));
  std::iota(root.begin(), root.end(), 0);
  auto find = [&](ValueId v) {
    while (root[static_cast<size_t>(v)] != v) v = root[static_cast<size_t>(v)];
    return v;
  };
  const std::vector<NodeId> states = state_nodes();
  for (NodeId id : states)
    root[static_cast<size_t>(find(node(id).out))] = find(node(id).state_next);
  std::vector<bool> read(static_cast<size_t>(num_values()), false);
  for (ValueId v = 0; v < num_values(); ++v)
    if (!value(v).consumers.empty()) read[static_cast<size_t>(find(v))] = true;
  for (NodeId id : states)
    if (!read[static_cast<size_t>(find(node(id).out))])
      return Violation{"state '" + node(id).name +
                           "' is never read: neither it nor its "
                           "next-iteration value has a consumer",
                       id};
  // The intra-iteration dependence graph must be acyclic; topo_order()
  // throws on a cycle.
  try {
    (void)topo_order();
  } catch (const Error& e) {
    return Violation{e.what()};
  }
  return std::nullopt;
}

void Cdfg::validate() const {
  if (const auto v = first_violation()) fail(v->message);
}

std::vector<NodeId> Cdfg::topo_order() const {
  std::vector<int> pending(static_cast<size_t>(num_nodes()), 0);
  for (NodeId id = 0; id < num_nodes(); ++id)
    pending[static_cast<size_t>(id)] = static_cast<int>(node(id).ins.size());
  std::vector<NodeId> ready, order;
  order.reserve(static_cast<size_t>(num_nodes()));
  for (NodeId id = 0; id < num_nodes(); ++id)
    if (pending[static_cast<size_t>(id)] == 0) ready.push_back(id);
  while (!ready.empty()) {
    NodeId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    if (node(id).out == kInvalidId) continue;
    for (NodeId c : value(node(id).out).consumers)
      if (--pending[static_cast<size_t>(c)] == 0) ready.push_back(c);
  }
  if (static_cast<int>(order.size()) != num_nodes())
    fail("CDFG '" + name_ + "' has an intra-iteration dependence cycle");
  return order;
}

int Cdfg::count(OpKind k) const {
  int n = 0;
  for (const Node& nd : nodes_)
    if (nd.kind == k) ++n;
  return n;
}

std::vector<NodeId> Cdfg::operations() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < num_nodes(); ++id)
    if (is_operation(node(id).kind)) out.push_back(id);
  return out;
}

std::vector<NodeId> Cdfg::state_nodes() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < num_nodes(); ++id)
    if (node(id).kind == OpKind::kState) out.push_back(id);
  return out;
}

std::vector<NodeId> Cdfg::input_nodes() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < num_nodes(); ++id)
    if (node(id).kind == OpKind::kInput) out.push_back(id);
  return out;
}

std::vector<NodeId> Cdfg::output_nodes() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < num_nodes(); ++id)
    if (node(id).kind == OpKind::kOutput) out.push_back(id);
  return out;
}

bool Cdfg::is_const_value(ValueId v) const {
  return node(producer(v)).kind == OpKind::kConst;
}

}  // namespace salsa
