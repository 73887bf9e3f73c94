#include "util/args.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "util/diagnostics.h"

namespace salsa {

long long parse_int(const std::string& what, const std::string& text,
                    long long lo, long long hi) {
  // strtoll skips leading whitespace; the value must not have any.
  const char* s = text.c_str();
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(s, &end, 10);
  if (end == s || std::isspace(static_cast<unsigned char>(*s)) ||
      *end != '\0' || errno == ERANGE || n < lo || n > hi)
    fail(what + " expects an integer in [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "], got '" + text + "'");
  return n;
}

std::string flag_value(int argc, char** argv, int* i) {
  if (*i + 1 >= argc) fail(std::string("missing value after ") + argv[*i]);
  return argv[++*i];
}

long long int_flag(int argc, char** argv, int* i, long long lo, long long hi) {
  const std::string flag = argv[*i];
  return parse_int(flag, flag_value(argc, argv, i), lo, hi);
}

double real_flag(int argc, char** argv, int* i, double lo, double hi) {
  const std::string flag = argv[*i];
  const std::string text = flag_value(argc, argv, i);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() ||
      std::isspace(static_cast<unsigned char>(text.front())) ||
      *end != '\0' || errno == ERANGE || !std::isfinite(v) || v < lo ||
      v > hi) {
    char range[64];
    std::snprintf(range, sizeof range, "[%g, %g]", lo, hi);
    fail(flag + " expects a number in " + range + ", got '" + text + "'");
  }
  return v;
}

std::vector<int> int_list_flag(int argc, char** argv, int* i, int lo, int hi) {
  const std::string flag = argv[*i];
  const std::string text = flag_value(argc, argv, i);
  std::vector<int> out;
  size_t start = 0;
  for (;;) {
    const size_t comma = text.find(',', start);
    out.push_back(static_cast<int>(
        parse_int(flag, text.substr(start, comma - start), lo, hi)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.close();
  if (!out) fail("cannot write " + path);
}

}  // namespace salsa
