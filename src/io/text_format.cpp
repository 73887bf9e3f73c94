#include "io/text_format.h"

#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "util/args.h"

namespace salsa {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok[0] == '#') break;
    out.push_back(tok);
  }
  return out;
}

[[noreturn]] void parse_fail(int line_no, const std::string& msg) {
  fail("parse error at line " + std::to_string(line_no) + ": " + msg);
}

// parse_int with the line number on its diagnostic.
int64_t parse_int_at(int line_no, const std::string& what,
                     const std::string& text, int64_t lo, int64_t hi) {
  try {
    return parse_int(what, text, lo, hi);
  } catch (const Error& e) {
    parse_fail(line_no, e.what());
  }
}

// The longest schedule accepted, the bound salsa_cli puts on --steps.
constexpr int kMaxScheduleLength = 100000;

}  // namespace

ParsedDesign parse_design(std::istream& in) {
  ParsedDesign design;
  design.cdfg = std::make_unique<Cdfg>("unnamed");
  Cdfg* g = design.cdfg.get();

  std::map<std::string, ValueId> values;
  std::map<std::string, NodeId> named_nodes;  // operators and outputs
  struct PendingNext {
    std::string state, value;
    int line;
  };
  std::vector<PendingNext> nexts;
  struct PendingAt {
    std::string node, step;
    int line;
  };
  std::vector<PendingAt> ats;
  std::vector<int> node_line;  // the line that declared each node
  bool have_schedule = false;
  int sched_length = 0;
  int schedule_line = 0;
  bool pipelined = false;

  auto value_of = [&](const std::string& name, int line_no) {
    const auto it = values.find(name);
    if (it == values.end()) parse_fail(line_no, "unknown value '" + name + "'");
    return it->second;
  };
  auto define = [&](const std::string& name, ValueId v, int line_no) {
    if (!values.emplace(name, v).second)
      parse_fail(line_no, "value '" + name + "' defined twice");
  };

  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto tok = tokenize(line);
    if (tok.empty()) continue;
    const std::string& kw = tok[0];
    auto need = [&](size_t n) {
      if (tok.size() != n + 1)
        parse_fail(line_no, "'" + kw + "' expects " + std::to_string(n) +
                                " argument(s)");
    };
    if (kw == "cdfg") {
      need(1);
      *g = Cdfg(tok[1]);
      values.clear();
      named_nodes.clear();
    } else if (kw == "input") {
      need(1);
      define(tok[1], g->add_input(tok[1]), line_no);
    } else if (kw == "state") {
      need(1);
      define(tok[1], g->add_state(tok[1]), line_no);
    } else if (kw == "const") {
      if (tok.size() != 2 && tok.size() != 3)
        parse_fail(line_no, "'const' expects a value and an optional name");
      const int64_t v =
          parse_int_at(line_no, "constant", tok[1],
                       std::numeric_limits<int64_t>::min(),
                       std::numeric_limits<int64_t>::max());
      const std::string name = tok.size() == 3 ? tok[2] : "c" + tok[1];
      define(name, g->add_const(v, name), line_no);
    } else if (kw == "add" || kw == "sub" || kw == "mul") {
      need(3);
      const OpKind kind = kw == "add"   ? OpKind::kAdd
                          : kw == "sub" ? OpKind::kSub
                                        : OpKind::kMul;
      const ValueId v = g->add_op(kind, value_of(tok[2], line_no),
                                  value_of(tok[3], line_no), tok[1]);
      define(tok[1], v, line_no);
      named_nodes[tok[1]] = g->producer(v);
    } else if (kw == "nop") {
      need(2);
      const ValueId v = g->add_nop(value_of(tok[2], line_no), tok[1]);
      define(tok[1], v, line_no);
      named_nodes[tok[1]] = g->producer(v);
    } else if (kw == "output") {
      need(2);
      const ValueId v = value_of(tok[2], line_no);
      // Constants reach FU operands only; no route carries one to a port.
      if (g->is_const_value(v))
        parse_fail(line_no, "output '" + tok[1] + "' reads constant '" +
                                tok[2] + "'; compute it through an operation");
      const NodeId n = g->add_output(v, tok[1]);
      if (!named_nodes.emplace(tok[1], n).second)
        parse_fail(line_no, "node name '" + tok[1] + "' reused");
    } else if (kw == "next") {
      need(2);
      nexts.push_back({tok[1], tok[2], line_no});
    } else if (kw == "schedule") {
      if (tok.size() != 2 && tok.size() != 3)
        parse_fail(line_no, "'schedule' expects a length and optional 'pipelined'");
      sched_length = static_cast<int>(parse_int_at(
          line_no, "schedule length", tok[1], 1, kMaxScheduleLength));
      if (tok.size() == 3) {
        if (tok[2] != "pipelined")
          parse_fail(line_no, "unknown schedule flag '" + tok[2] + "'");
        pipelined = true;
      }
      have_schedule = true;
      schedule_line = line_no;
    } else if (kw == "at") {
      need(2);
      if (!have_schedule) parse_fail(line_no, "'at' before 'schedule'");
      ats.push_back({tok[1], tok[2], line_no});
    } else {
      parse_fail(line_no, "unknown directive '" + kw + "'");
    }
    node_line.resize(static_cast<size_t>(g->num_nodes()), line_no);
  }
  // A broken rule names its node's `at` line, else the line declaring the
  // node (a state's `state` line). Every value is defined before its use,
  // so no rule about the graph as a whole can break here.
  const auto reject = [&](const Violation& v, const std::map<NodeId, int>& at) {
    if (v.node == kInvalidId) fail(v.message);
    const auto it = at.find(v.node);
    parse_fail(
        it != at.end() ? it->second : node_line[static_cast<size_t>(v.node)],
        v.message);
  };

  // A state's next value is computed by an operation (a bare state, input
  // or constant is copied through a nop), and one value feeds at most one
  // state: a state and its next value share one storage, which carries one
  // initial value.
  std::map<ValueId, int> state_line, value_line;  // first `next` of each
  for (const PendingNext& pn : nexts) {
    const ValueId st = value_of(pn.state, pn.line);
    const ValueId next = value_of(pn.value, pn.line);
    if (g->node(g->producer(st)).kind != OpKind::kState)
      parse_fail(pn.line, "'next' target '" + pn.state + "' is not a state");
    if (!is_operation(g->node(g->producer(next)).kind))
      parse_fail(pn.line, "next value '" + pn.value + "' of state '" +
                              pn.state +
                              "' is not computed by an operation; copy it "
                              "through a nop");
    const auto [st_it, st_fresh] = state_line.emplace(st, pn.line);
    if (!st_fresh)
      parse_fail(pn.line, "state '" + pn.state +
                              "' already has a next value at line " +
                              std::to_string(st_it->second));
    const auto [v_it, v_fresh] = value_line.emplace(next, pn.line);
    if (!v_fresh)
      parse_fail(pn.line, "value '" + pn.value +
                              "' already feeds a state at line " +
                              std::to_string(v_it->second) +
                              "; copy it through a nop");
    g->set_state_next(st, next);
  }
  if (const auto v = g->first_violation()) reject(*v, {});

  if (have_schedule) {
    design.hw.pipelined_mul = pipelined;
    design.schedule.emplace(*g, design.hw, sched_length);
    // Every operation and output gets exactly one start: a second `at` is
    // rejected at its own line, a missing one at the `schedule` line.
    std::map<NodeId, int> at_line;
    for (const PendingAt& pa : ats) {
      const auto it = named_nodes.find(pa.node);
      if (it == named_nodes.end())
        parse_fail(pa.line, "unknown node '" + pa.node + "'");
      const auto [first, fresh] = at_line.emplace(it->second, pa.line);
      if (!fresh)
        parse_fail(pa.line, "node '" + pa.node +
                                "' already has a start at line " +
                                std::to_string(first->second));
      design.schedule->set_start(
          it->second,
          static_cast<int>(parse_int_at(pa.line, "step of '" + pa.node + "'",
                                        pa.step, 0, sched_length - 1)));
    }
    for (NodeId n = 0; n < g->num_nodes(); ++n) {
      const Node& nd = g->node(n);
      if ((is_operation(nd.kind) || nd.kind == OpKind::kOutput) &&
          !at_line.contains(n))
        parse_fail(schedule_line, "node '" + nd.name + "' has no 'at' start");
    }
    if (const auto v = design.schedule->first_violation()) reject(*v, at_line);
  }
  return design;
}

ParsedDesign parse_design_string(const std::string& text) {
  std::istringstream is(text);
  return parse_design(is);
}

std::string write_design(const Cdfg& g, const Schedule* schedule) {
  std::ostringstream os;
  os << "cdfg " << g.name() << "\n";
  // Emit in node order: sources first is guaranteed by construction order
  // being a valid topological order for values, but operators may reference
  // later-defined values in cyclic graphs only through 'next' lines, which
  // come last — so plain node order works except for operator operand
  // forward references. Use a topological order of the nodes to be safe.
  for (NodeId n : g.topo_order()) {
    const Node& nd = g.node(n);
    switch (nd.kind) {
      case OpKind::kInput:
        os << "input " << nd.name << "\n";
        break;
      case OpKind::kState:
        os << "state " << nd.name << "\n";
        break;
      case OpKind::kConst:
        os << "const " << nd.cvalue << " " << nd.name << "\n";
        break;
      case OpKind::kAdd:
      case OpKind::kSub:
      case OpKind::kMul:
        os << op_name(nd.kind) << " " << nd.name << " "
           << g.value(nd.ins[0]).name << " " << g.value(nd.ins[1]).name
           << "\n";
        break;
      case OpKind::kNop:
        os << "nop " << nd.name << " " << g.value(nd.ins[0]).name << "\n";
        break;
      case OpKind::kOutput:
        break;  // emitted below, in declaration order
    }
  }
  // Outputs in their original order (a topological order may permute them,
  // and output position is meaningful to evaluators and simulators).
  for (NodeId n : g.output_nodes())
    os << "output " << g.node(n).name << " " << g.value(g.node(n).ins[0]).name
       << "\n";
  for (NodeId sn : g.state_nodes()) {
    const Node& st = g.node(sn);
    os << "next " << st.name << " " << g.value(st.state_next).name << "\n";
  }
  if (schedule != nullptr) {
    os << "schedule " << schedule->length()
       << (schedule->hw().pipelined_mul ? " pipelined" : "") << "\n";
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      const Node& nd = g.node(n);
      if (is_operation(nd.kind) || nd.kind == OpKind::kOutput)
        os << "at " << nd.name << " " << schedule->start(n) << "\n";
    }
  }
  return os.str();
}

}  // namespace salsa
