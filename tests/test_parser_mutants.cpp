// Mutation test of the input boundary: seeded mutants of the shipped
// designs go through the two front ends in process. Each mutant must parse
// or end in a salsa::Error that names its line; one that parses must go
// through the problem recipe at its critical path, which may reject it with
// an Error but never with an internal SALSA_CHECK. Mutants are line
// deletes, duplicates and swaps, token and number substitutions, keyword
// changes, truncations and operator insertions, 1-8 per mutant.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/resources.h"
#include "frontend/expr.h"
#include "io/text_format.h"
#include "sched/asap_alap.h"
#include "util/rng.h"

namespace salsa {
namespace {

constexpr int kMutantsPerBase = 2000;

std::string read_design(const std::string& file) {
  std::ifstream in(std::string(SALSA_DESIGNS_DIR) + "/" + file);
  EXPECT_TRUE(in.good()) << "cannot read " << file;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tok;
  std::istringstream is(line);
  for (std::string t; is >> t;) tok.push_back(t);
  return tok;
}

std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

struct Grammar {
  std::vector<std::string> keywords;   ///< a line's first token
  std::vector<std::string> operators;  ///< inserted inside a line
};

const Grammar kSalsa{{"cdfg", "input", "const", "state", "add", "sub", "mul",
                      "nop", "output", "next", "schedule", "at", "pipelined",
                      "#", ""},
                     {"#", "+", "-", "*", "=", "(", ")", ":", "@"}};
const Grammar kExpr{{"design", "input", "state", "out", "y", "z1", "x", "#",
                     "="},
                    {"+", "-", "*", "(", ")", "=", ":=", "@", "#", "--"}};

// Numbers a substitution draws from: in range, at and past the parsers'
// bounds, and malformed literals.
const std::vector<std::string> kNumbers{
    "0", "1", "2", "-1", "7", "65535", "100000", "100001", "2147483648",
    "99999999999999999999", "-9223372036854775808", "9223372036854775807",
    "0x10", "1e3", "3abc", "+5", "--3"};

class Mutator {
 public:
  Mutator(const std::string& base, const Grammar& grammar, uint64_t seed)
      : base_(split_lines(base)), grammar_(grammar), rng_(seed) {
    for (const std::string& line : base_)
      for (const std::string& t : split_tokens(line)) pool_.push_back(t);
  }

  std::string next() {
    std::vector<std::string> lines = base_;
    const int edits = rng_.range(1, 8);
    for (int e = 0; e < edits; ++e) mutate(lines);
    std::string text = join(lines, "\n");
    if (!lines.empty()) text += "\n";
    return text;
  }

 private:
  int pick(size_t n) { return rng_.uniform(static_cast<int>(n)); }

  void mutate(std::vector<std::string>& lines) {
    if (lines.empty()) {
      lines.push_back(pool_[static_cast<size_t>(pick(pool_.size()))]);
      return;
    }
    const size_t at = static_cast<size_t>(pick(lines.size()));
    std::vector<std::string> tok = split_tokens(lines[at]);
    switch (rng_.uniform(8)) {
      case 0:  // line delete
        lines.erase(lines.begin() + static_cast<ptrdiff_t>(at));
        return;
      case 1:  // line duplicate
        lines.insert(lines.begin() + static_cast<ptrdiff_t>(at), lines[at]);
        return;
      case 2:  // line swap
        std::swap(lines[at], lines[static_cast<size_t>(pick(lines.size()))]);
        return;
      case 3:  // token substitution, from the design's own tokens
        if (tok.empty()) return;
        tok[static_cast<size_t>(pick(tok.size()))] =
            pool_[static_cast<size_t>(pick(pool_.size()))];
        break;
      case 4:  // number substitution
        if (tok.empty()) return;
        tok[static_cast<size_t>(pick(tok.size()))] =
            kNumbers[static_cast<size_t>(pick(kNumbers.size()))];
        break;
      case 5:  // keyword change
        if (tok.empty()) return;
        tok[0] = grammar_.keywords[static_cast<size_t>(
            pick(grammar_.keywords.size()))];
        break;
      case 6: {  // truncation: cut the text inside this line, drop the rest
        const size_t cut = static_cast<size_t>(pick(lines[at].size() + 1));
        lines[at].resize(cut);
        lines.resize(at + 1);
        return;
      }
      default: {  // operator insertion at a character position
        std::string& line = lines[at];
        line.insert(static_cast<size_t>(pick(line.size() + 1)),
                    " " + grammar_.operators[static_cast<size_t>(
                              pick(grammar_.operators.size()))] +
                        " ");
        return;
      }
    }
    lines[at] = join(tok, " ");
  }

  std::vector<std::string> base_;
  const Grammar& grammar_;
  std::vector<std::string> pool_;
  Rng rng_;
};

bool names_a_line(const std::string& msg) {
  for (const char* prefix : {"parse error at line ", "expr error at line "}) {
    const std::string p(prefix);
    if (msg.rfind(p, 0) != 0) continue;
    size_t i = p.size();
    const size_t digits = i;
    while (i < msg.size() && msg[i] >= '0' && msg[i] <= '9') ++i;
    return i > digits && msg.compare(i, 2, ": ") == 0;
  }
  return false;
}

struct Tally {
  int parsed = 0;
  int recipe_ok = 0;
};

// Runs one mutant through the contract; returns a failure description, or
// "" when the mutant kept it.
std::string check_mutant(const std::string& text, bool expr, Tally* tally) {
  std::unique_ptr<Cdfg> graph;
  HwSpec hw;
  try {
    if (expr) {
      graph = std::make_unique<Cdfg>(compile_expr_string(text));
    } else {
      ParsedDesign d = parse_design_string(text);
      graph = std::move(d.cdfg);
      hw = d.hw;
    }
  } catch (const Error& e) {
    if (names_a_line(e.what())) return "";
    return std::string("error without a line: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("non-salsa exception: ") + e.what();
  }
  ++tally->parsed;
  try {
    const int cp = min_schedule_length(*graph, hw);
    const ProblemBundle pb = make_problem(*graph, hw, cp, SpareRegisters{1});
    if (pb.problem) ++tally->recipe_ok;
  } catch (const Error& e) {
    if (std::string(e.what()).rfind("SALSA_CHECK failed", 0) == 0)
      return std::string("internal check in the recipe: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("non-salsa exception in the recipe: ") + e.what();
  }
  return "";
}

void run_mutants(const std::string& base, const Grammar& grammar, bool expr,
                 uint64_t seed, Tally* tally) {
  Mutator m(base, grammar, seed);
  for (int i = 0; i < kMutantsPerBase; ++i) {
    const std::string text = m.next();
    const std::string why = check_mutant(text, expr, tally);
    ASSERT_EQ(why, "") << "mutant " << i << " (seed " << seed << "):\n"
                       << text;
  }
  std::printf("%d mutants: %d parsed, %d built at the critical path\n",
              kMutantsPerBase, tally->parsed, tally->recipe_ok);
}

TEST(ParserMutants, BaseDesignsParseAndBuild) {
  Tally t;
  EXPECT_EQ(check_mutant(read_design("biquad.salsa"), false, &t), "");
  EXPECT_EQ(check_mutant(read_design("fir4.expr"), true, &t), "");
  EXPECT_EQ(t.recipe_ok, 2);
}

TEST(ParserMutants, SalsaTextRejectsWithALineOrBuilds) {
  const std::string base = read_design("biquad.salsa");
  Tally t;
  run_mutants(base, kSalsa, false, 11, &t);
  // The mutator must reach both sides of the boundary.
  EXPECT_GT(t.parsed, kMutantsPerBase / 100);
  EXPECT_LT(t.parsed, kMutantsPerBase / 2);
  EXPECT_GT(t.recipe_ok, 0);
}

TEST(ParserMutants, ScheduledSalsaTextRejectsWithALineOrBuilds) {
  // biquad with a schedule section, so the schedule and `at` lines mutate
  // too.
  const ParsedDesign d = parse_design_string(read_design("biquad.salsa"));
  const ProblemBundle pb = make_problem(
      *d.cdfg, d.hw, min_schedule_length(*d.cdfg, d.hw) + 1, SpareRegisters{});
  const std::string base = write_design(*pb.graph, pb.schedule.get());
  Tally t;
  run_mutants(base, kSalsa, false, 12, &t);
  EXPECT_GT(t.parsed, kMutantsPerBase / 100);
  EXPECT_LT(t.parsed, kMutantsPerBase / 2);
  EXPECT_GT(t.recipe_ok, 0);
}

TEST(ParserMutants, ExprTextRejectsWithALineOrBuilds) {
  const std::string base = read_design("fir4.expr");
  Tally t;
  run_mutants(base, kExpr, true, 13, &t);
  EXPECT_GT(t.parsed, kMutantsPerBase / 100);
  EXPECT_LT(t.parsed, kMutantsPerBase / 2);
  EXPECT_GT(t.recipe_ok, 0);
}

}  // namespace
}  // namespace salsa
