#include "datapath/testbench.h"

#include <algorithm>
#include <sstream>

#include "cdfg/eval.h"
#include "datapath/simulator.h"
#include "datapath/verilog.h"

namespace salsa {

std::string to_testbench(const Netlist& nl,
                         std::span<const std::vector<int64_t>> inputs,
                         std::span<const int64_t> initial_states,
                         int iterations, const std::string& module_name,
                         int width) {
  const Binding& b = nl.binding();
  const AllocProblem& prob = b.prob();
  const Cdfg& g = prob.cdfg();
  const Lifetimes& lt = prob.lifetimes();
  const int L = prob.sched().length();
  SALSA_CHECK_MSG(static_cast<int>(inputs.size()) >= iterations + 1,
                  "testbench needs iterations+1 input vectors (boundary load)");

  // Reference outputs, masked to the module width by the $display checks.
  Evaluator ref(g, initial_states);
  std::vector<std::vector<int64_t>> expected;
  for (int i = 0; i < iterations; ++i)
    expected.push_back(ref.step(inputs[static_cast<size_t>(i)]));

  const auto in_nodes = g.input_nodes();
  const auto out_nodes = g.output_nodes();
  const std::string mod = verilog_identifier(module_name);
  std::ostringstream os;
  os << "// Self-checking testbench for " << mod
     << " — stimulus and expected values from the behavioural evaluator.\n"
     << "`timescale 1ns/1ns\n"
     << "module " << mod << "_tb;\n"
     << "  localparam W = " << width << ";\n"
     << "  reg clk = 0, rst = 1;\n"
     << "  always #5 clk = ~clk;\n";
  for (NodeId n : in_nodes)
    os << "  reg [W-1:0] in_" << verilog_identifier(g.node(n).name) << ";\n";
  for (NodeId n : out_nodes)
    os << "  wire [W-1:0] out_" << verilog_identifier(g.node(n).name) << ";\n";

  os << "  " << mod << " #(.W(W)) dut(.clk(clk), .rst(rst)";
  for (NodeId n : in_nodes) {
    const std::string s = verilog_identifier(g.node(n).name);
    os << ", .in_" << s << "(in_" << s << ")";
  }
  for (NodeId n : out_nodes) {
    const std::string s = verilog_identifier(g.node(n).name);
    os << ", .out_" << s << "(out_" << s << ")";
  }
  os << ");\n\n";

  // Stimulus and expected-value memories.
  os << "  reg [63:0] stim [0:" << iterations << "][0:"
     << (in_nodes.empty() ? 0 : in_nodes.size() - 1) << "];\n";
  os << "  reg [63:0] expect_mem [0:" << iterations - 1 << "][0:"
     << (out_nodes.empty() ? 0 : out_nodes.size() - 1) << "];\n";
  os << "  integer errors = 0;\n  integer cycle = 0;\n\n  initial begin\n";
  for (int i = 0; i <= iterations; ++i)
    for (size_t k = 0; k < in_nodes.size(); ++k)
      os << "    stim[" << i << "][" << k << "] = 64'd"
         << static_cast<uint64_t>(inputs[static_cast<size_t>(i)][k]) << ";\n";
  for (int i = 0; i < iterations; ++i)
    for (size_t k = 0; k < out_nodes.size(); ++k)
      os << "    expect_mem[" << i << "][" << k << "] = 64'd"
         << static_cast<uint64_t>(expected[static_cast<size_t>(i)][k])
         << ";\n";
  // Preload the registers holding step-0 cells of states and inputs, from
  // the image the simulator starts from: the datapath assumes them written
  // "before time zero".
  const std::vector<int64_t> image =
      initial_register_image(nl, inputs, initial_states);
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    const Storage& s = lt.storage(sid);
    const int seg = lt.seg_at_step(sid, 0);
    const bool state =
        std::any_of(s.members.begin(), s.members.end(), [&](ValueId v) {
          return g.node(g.producer(v)).kind == OpKind::kState;
        });
    if (seg < 0 || (!state && s.producer != kInvalidId)) continue;
    for (const Cell& c : b.sto(sid).cells[static_cast<size_t>(seg)])
      os << "    dut.r" << c.reg << " = 64'd"
         << static_cast<uint64_t>(image[static_cast<size_t>(c.reg)]) << ";\n";
  }
  os << "    @(posedge clk);\n    #1 rst = 0;\n  end\n\n";

  // Drive inputs per cycle: the ports are sampled at the boundary (step "
  os << "  always @(posedge clk) if (!rst) cycle <= cycle + 1;\n"
     << "  wire [" << step_counter_bits(L) - 1 << ":0] t = cycle % " << L
     << ";\n"
     << "  wire [31:0] iter = cycle / " << L << ";\n";
  for (size_t k = 0; k < in_nodes.size(); ++k) {
    const std::string s = verilog_identifier(g.node(in_nodes[k]).name);
    os << "  always @(*) in_" << s << " = (t == " << L - 1
       << ") ? stim[iter+1][" << k << "][W-1:0] : stim[iter][" << k
       << "][W-1:0];\n";
  }
  os << "\n  // Checks: each output register is compared one cycle after "
        "its sample step.\n";
  os << "  always @(posedge clk) begin\n    if (!rst) begin\n";
  for (const OutSample& o : nl.out_samples()) {
    const size_t k = nl.routes().index().port(o.node);
    const std::string s = verilog_identifier(g.node(o.node).name);
    os << "      if (t == " << o.step << " && iter < " << iterations
       << ") begin\n"
       << "        #2;\n"
       << "        if (out_" << s << " !== expect_mem[iter][" << k
       << "][W-1:0]) begin\n"
       << "          $display(\"MISMATCH iter=%0d out_" << s
       << "=%0d expected=%0d\", iter, out_" << s << ", expect_mem[iter][" << k
       << "][W-1:0]);\n"
       << "          errors = errors + 1;\n        end\n      end\n";
  }
  os << "    end\n  end\n\n";
  os << "  initial begin\n    #" << (iterations * L + 4) * 10 << ";\n"
     << "    if (errors == 0) $display(\"TB PASS\");\n"
     << "    else $display(\"TB FAIL: %0d mismatches\", errors);\n"
     << "    $finish;\n  end\nendmodule\n";
  return os.str();
}

}  // namespace salsa
