// The command-line boundary, shared by the tools (salsa_cli, salsa_audit),
// the examples and the environment knobs that take a number
// (SALSA_THREADS). Every malformed value — a missing value, trailing junk,
// overflow, a number out of range — is a salsa::Error naming the flag or
// variable; the tools print it as "error: ..." and exit 2, never reading a
// silent zero the way atoi/atol/atof would. An output file that cannot be
// written is a salsa::Error too, never a "wrote" line over nothing.
#pragma once

#include <string>
#include <vector>

namespace salsa {

/// `text` as a whole decimal integer in [lo, hi]; otherwise fails with
/// "<what> expects an integer in [lo, hi], got '<text>'".
long long parse_int(const std::string& what, const std::string& text,
                    long long lo, long long hi);

/// The value after flag argv[*i] (advancing *i); fails with "missing value
/// after <flag>" when the flag ends argv.
std::string flag_value(int argc, char** argv, int* i);

/// flag_value() parsed by parse_int, named after the flag.
long long int_flag(int argc, char** argv, int* i, long long lo, long long hi);

/// flag_value() as a whole finite decimal number in [lo, hi].
double real_flag(int argc, char** argv, int* i, double lo, double hi);

/// flag_value() as a non-empty comma-separated list of integers, each in
/// [lo, hi].
std::vector<int> int_list_flag(int argc, char** argv, int* i, int lo, int hi);

/// Writes `text` to the file at `path`, replacing it; fails with "cannot
/// write <path>" if the file cannot be opened or the write does not
/// complete.
void write_file(const std::string& path, const std::string& text);

}  // namespace salsa
