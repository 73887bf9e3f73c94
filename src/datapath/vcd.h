// VCD (value change dump) waveform export: runs the cycle-accurate
// simulator with a register trace and writes an IEEE-1364 VCD file, so an
// allocation's register activity can be inspected in any waveform viewer
// alongside the emitted Verilog.
#pragma once

#include <span>
#include <string>

#include "datapath/simulator.h"

namespace salsa {

/// Simulates `iterations` iterations on the given stimuli and renders the
/// register waveforms as VCD text (one timestep per control step, 64-bit
/// vector variables named r0..rN plus the step counter). The golden VCD
/// tests pin the dumps of EWF and DCT byte for byte.
std::string dump_vcd(const Netlist& nl,
                     std::span<const std::vector<int64_t>> inputs,
                     std::span<const int64_t> initial_states, int iterations,
                     const std::string& module_name);

}  // namespace salsa
