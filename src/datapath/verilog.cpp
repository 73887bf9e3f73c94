#include "datapath/verilog.h"

#include <cctype>
#include <map>
#include <sstream>

#include "util/strings.h"

namespace salsa {

namespace {

std::string sanitize(const std::string& name) {
  std::string out;
  for (char c : name)
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_') ? c : '_';
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])))
    out = "n_" + out;
  return out;
}

std::string endpoint_expr(const Cdfg& g, const Endpoint& e) {
  switch (e.kind) {
    case Endpoint::Kind::kRegOut:
      return numbered("r", e.id);
    case Endpoint::Kind::kFuOut:
      return "fu" + std::to_string(e.id) + "_out";
    case Endpoint::Kind::kInPort:
      return "in_" + sanitize(g.node(e.id).name);
    case Endpoint::Kind::kConstPort:
      return "const_" + std::to_string(e.id);
  }
  return "1'bx";
}

}  // namespace

std::string to_verilog(const Netlist& nl, const std::string& module_name,
                       int width) {
  const Binding& b = nl.binding();
  const AllocProblem& prob = b.prob();
  const Cdfg& g = prob.cdfg();
  const Schedule& sched = prob.sched();
  const int L = sched.length();
  std::ostringstream os;

  os << "// Generated by the SALSA allocator — schedule of " << L
     << " control steps,\n// " << prob.fus().size() << " FUs, "
     << b.regs_used() << " registers, " << nl.muxes().muxes_after
     << " equivalent 2-1 muxes (after merging).\n";
  os << "module " << sanitize(module_name) << " #(parameter W = " << width
     << ") (\n  input  wire clk,\n  input  wire rst";
  for (NodeId n : g.input_nodes())
    os << ",\n  input  wire [W-1:0] in_" << sanitize(g.node(n).name);
  for (NodeId n : g.output_nodes())
    os << ",\n  output reg  [W-1:0] out_" << sanitize(g.node(n).name);
  os << "\n);\n\n";

  // Controller: modulo-L step counter.
  os << "  // controller\n  reg [15:0] step;\n"
     << "  always @(posedge clk) begin\n"
     << "    if (rst) step <= 0;\n"
     << "    else step <= (step == " << L - 1 << ") ? 16'd0 : step + 16'd1;\n"
     << "  end\n\n";

  // Constants.
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    if (g.node(n).kind == OpKind::kConst)
      os << "  wire [W-1:0] const_" << n << " = " << g.node(n).cvalue
         << ";\n";
  os << "\n";

  // Registers.
  for (RegId r = 0; r < prob.num_regs(); ++r)
    os << "  reg [W-1:0] r" << r << ";\n";
  os << "\n";

  // FU input pins: per-step multiplexers.
  for (FuId f = 0; f < prob.fus().size(); ++f) {
    for (int slot = 0; slot < 2; ++slot) {
      const Pin pin{slot == 0 ? Pin::Kind::kFuIn0 : Pin::Kind::kFuIn1, f};
      std::map<int, Endpoint> routes;
      for (int t = 0; t < L; ++t) {
        const auto src = nl.source_of(pin, t);
        if (src) routes.emplace(t, *src);
      }
      if (routes.empty()) continue;
      os << "  reg [W-1:0] fu" << f << "_in" << slot << ";\n"
         << "  always @(*) begin\n    case (step)\n";
      for (const auto& [t, src] : routes)
        os << "      16'd" << t << ": fu" << f << "_in" << slot << " = "
           << endpoint_expr(g, src) << ";\n";
      os << "      default: fu" << f << "_in" << slot << " = {W{1'bx}};\n"
         << "    endcase\n  end\n";
    }
  }
  os << "\n";

  // FU operation selects and datapath logic.
  for (FuId f = 0; f < prob.fus().size(); ++f) {
    const FuInst& fu = prob.fus().fu(f);
    // Steps at which each op kind starts on this FU.
    std::map<int, OpKind> starts;
    for (const FuAction& a : nl.fu_actions())
      if (a.fu == f) starts.emplace(a.step, g.node(a.node).kind);
    if (fu.cls == FuClass::kAlu) {
      os << "  // " << fu.name << ": combinational ALU (add/sub/pass)\n";
      os << "  reg [1:0] fu" << f << "_sel;  // 0=add 1=sub 2=pass\n"
         << "  always @(*) begin\n    case (step)\n";
      for (int t = 0; t < L; ++t) {
        const auto it = starts.find(t);
        if (it != starts.end()) {
          const int sel = it->second == OpKind::kSub ? 1
                          : it->second == OpKind::kNop ? 2
                                                       : 0;
          os << "      16'd" << t << ": fu" << f << "_sel = 2'd" << sel
             << ";\n";
        }
      }
      os << "      default: fu" << f << "_sel = 2'd2;  // idle: pass-through\n"
         << "    endcase\n  end\n";
      os << "  wire [W-1:0] fu" << f << "_out = (fu" << f
         << "_sel == 2'd0) ? fu" << f << "_in0 + fu" << f << "_in1 :\n"
         << "                       (fu" << f << "_sel == 2'd1) ? fu" << f
         << "_in0 - fu" << f << "_in1 : fu" << f << "_in0;\n\n";
    } else {
      os << "  // " << fu.name << ": two-stage multiplier (delay "
         << sched.hw().mul_delay << ", "
         << (sched.hw().pipelined_mul ? "pipelined" : "non-pipelined")
         << ")\n";
      os << "  reg [W-1:0] fu" << f << "_stage;\n"
         << "  always @(posedge clk) fu" << f << "_stage <= fu" << f
         << "_in0 * fu" << f << "_in1;\n"
         << "  wire [W-1:0] fu" << f << "_out = fu" << f << "_stage;\n\n";
    }
  }

  // Register load schedules.
  os << "  // register loads\n  always @(posedge clk) begin\n";
  for (RegId r = 0; r < prob.num_regs(); ++r) {
    std::map<int, Endpoint> loads;
    for (const RegLoad& ld : nl.reg_loads())
      if (ld.reg == r) loads.emplace(ld.step, ld.src);
    if (loads.empty()) continue;
    os << "    case (step)\n";
    for (const auto& [t, src] : loads)
      os << "      16'd" << t << ": r" << r << " <= "
         << endpoint_expr(g, src) << ";\n";
    os << "      default: ;\n    endcase\n";
  }
  os << "  end\n\n";

  // Output sampling.
  os << "  // output sampling\n  always @(posedge clk) begin\n";
  for (const OutSample& o : nl.out_samples())
    os << "    if (step == 16'd" << o.step << ") out_"
       << sanitize(g.node(o.node).name) << " <= r" << o.reg << ";\n";
  os << "  end\n\nendmodule\n";
  return os.str();
}

}  // namespace salsa
