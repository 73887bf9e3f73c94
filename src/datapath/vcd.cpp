#include "datapath/vcd.h"

#include <sstream>

#include "datapath/verilog.h"

namespace salsa {

namespace {

// Compact printable identifier per VCD variable (! .. ~ alphabet).
std::string vcd_id(int index) {
  std::string id;
  do {
    id += static_cast<char>('!' + index % 94);
    index /= 94;
  } while (index > 0);
  return id;
}

std::string bits_of(int64_t v) {
  std::string out = "b";
  bool leading = true;
  for (int bit = 63; bit >= 0; --bit) {
    const bool one = (static_cast<uint64_t>(v) >> bit) & 1;
    if (one) leading = false;
    if (!leading || bit == 0) out += one ? '1' : '0';
  }
  return out;
}

}  // namespace

std::string dump_vcd(const Netlist& nl,
                     std::span<const std::vector<int64_t>> inputs,
                     std::span<const int64_t> initial_states, int iterations,
                     const std::string& module_name) {
  const AllocProblem& prob = nl.binding().prob();
  const int nreg = prob.num_regs();
  const int L = prob.sched().length();

  SimTrace trace;
  (void)simulate(nl, inputs, initial_states, iterations, &trace);

  std::ostringstream os;
  os << "$date today $end\n$version salsa datapath simulator $end\n"
     << "$timescale 1ns $end\n$scope module " << module_name << " $end\n";
  os << "$var wire " << step_counter_bits(L) << " " << vcd_id(nreg)
     << " step $end\n";
  for (RegId r = 0; r < nreg; ++r)
    os << "$var wire 64 " << vcd_id(r) << " r" << r << " $end\n";
  os << "$upscope $end\n$enddefinitions $end\n";

  std::vector<int64_t> last(static_cast<size_t>(nreg), 0);
  bool first = true;
  for (size_t g = 0; g < trace.regs.size(); ++g) {
    os << "#" << g << "\n";
    os << bits_of(static_cast<int64_t>(g % static_cast<size_t>(L))) << " "
       << vcd_id(nreg) << "\n";
    for (RegId r = 0; r < nreg; ++r) {
      const int64_t v = trace.regs[g][static_cast<size_t>(r)];
      if (first || v != last[static_cast<size_t>(r)]) {
        os << bits_of(v) << " " << vcd_id(r) << "\n";
        last[static_cast<size_t>(r)] = v;
      }
    }
    first = false;
  }
  os << "#" << trace.regs.size() << "\n";
  return os.str();
}

}  // namespace salsa
