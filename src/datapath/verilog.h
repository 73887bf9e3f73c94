// Structural Verilog emission of an allocated datapath: registers with
// load-enable schedules, ALU/multiplier instances with per-step operation
// selects, per-pin input multiplexers (case over the control-step counter),
// and the modulo-L step counter acting as the controller. The emitted module
// is a faithful RTL rendering of the netlist the simulator executes.
#pragma once

#include <string>

#include "datapath/netlist.h"

namespace salsa {

/// Emits one synthesisable Verilog-2001 module named `module_name`. The
/// emitted ALU is combinational and the multiplier one register stage fed
/// at its start step, so a design with an ALU operation under
/// HwSpec::add_delay != 1 or a multiply under HwSpec::mul_delay != 2 throws
/// salsa::Error naming the field and its value.
std::string to_verilog(const Netlist& nl, const std::string& module_name,
                       int width = 16);

/// The Verilog identifier of a design or port name: every character other
/// than a letter, digit or '_' becomes '_', and a name that is empty or
/// starts with a digit gets an "n_" prefix. The module and its testbench
/// (datapath/testbench.h) name ports and modules through it.
std::string verilog_identifier(const std::string& name);

/// Width of the modulo-L control-step counter: enough bits for step L - 1,
/// and never fewer than 16.
int step_counter_bits(int L);

}  // namespace salsa
