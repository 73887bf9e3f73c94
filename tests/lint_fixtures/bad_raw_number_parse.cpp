// Known-bad fixture for raw-number-parse: a design-file reader that parses
// its numbers with the C and C++ library calls instead of util/args.h.
// This file is linted, never compiled — it demonstrates the shapes the
// check must catch: std::stoll reads "3abc" as 3 and throws a bare
// std::exception with no line number, atoi reads junk as 0, and strtod
// without an end-pointer check reads "1e3x" as 1000.
// salsa-lint: expect(raw-number-parse)
#include <cstdlib>
#include <string>

namespace salsa {

long long read_constant(const std::string& tok) { return std::stoll(tok); }

int read_step(const char* tok) { return atoi(tok); }

double read_weight(const std::string& tok) {
  return std::strtod(tok.c_str(), nullptr);
}

}  // namespace salsa
