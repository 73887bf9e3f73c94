#include "frontend/expr.h"

#include <cctype>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "util/args.h"

namespace salsa {

namespace {

// ---------------------------------------------------------------------------
// Lexer

enum class Tok : uint8_t {
  kIdent,
  kNumber,
  kPlus,
  kMinus,
  kStar,
  kLParen,
  kRParen,
  kEnd,  // end of line
};

struct Token {
  Tok kind;
  std::string text;
  int64_t number = 0;
};

class Lexer {
 public:
  Lexer(const std::string& line, int line_no)
      : line_(line), line_no_(line_no) {
    advance();
  }

  const Token& peek() const { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

  [[noreturn]] void error(const std::string& msg) const {
    fail("expr error at line " + std::to_string(line_no_) + ": " + msg);
  }

 private:
  void advance() {
    while (pos_ < line_.size() &&
           std::isspace(static_cast<unsigned char>(line_[pos_])))
      ++pos_;
    if (pos_ >= line_.size() || line_[pos_] == '#') {
      current_ = Token{Tok::kEnd, ""};
      return;
    }
    const char c = line_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t end = pos_;
      while (end < line_.size() &&
             (std::isalnum(static_cast<unsigned char>(line_[end])) ||
              line_[end] == '_'))
        ++end;
      current_ = Token{Tok::kIdent, line_.substr(pos_, end - pos_)};
      pos_ = end;
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t end = pos_;
      while (end < line_.size() &&
             std::isdigit(static_cast<unsigned char>(line_[end])))
        ++end;
      const std::string text = line_.substr(pos_, end - pos_);
      int64_t value = 0;
      try {
        value = parse_int("literal", text, 0,
                          std::numeric_limits<int64_t>::max());
      } catch (const Error& e) {
        error(e.what());
      }
      current_ = Token{Tok::kNumber, text, value};
      pos_ = end;
      return;
    }
    ++pos_;
    switch (c) {
      case '+': current_ = Token{Tok::kPlus, "+"}; return;
      case '-': current_ = Token{Tok::kMinus, "-"}; return;
      case '*': current_ = Token{Tok::kStar, "*"}; return;
      case '(': current_ = Token{Tok::kLParen, "("}; return;
      case ')': current_ = Token{Tok::kRParen, ")"}; return;
      default:
        error(std::string("unexpected character '") + c + "'");
    }
  }

  const std::string& line_;
  int line_no_;
  size_t pos_ = 0;
  Token current_;
};

// ---------------------------------------------------------------------------
// Compiler

class Compiler {
 public:
  Compiler() : g_("expr") {}

  Cdfg take() && {
    finish();
    return std::move(g_);
  }

  void feed(const std::string& raw_line, int line_no) {
    line_no_ = line_no;
    // Split off the statement head before lexing the expression side.
    std::istringstream head(raw_line);
    std::string first;
    if (!(head >> first) || first[0] == '#') return;

    if (first == "design") {
      std::string name;
      if (!(head >> name)) err("'design' expects a name");
      g_ = Cdfg(name);
      names_.clear();
      consts_.clear();
      states_.clear();
      used_next_.clear();
      outputs_.clear();
      return;
    }
    if (first == "input") {
      std::string name;
      if (!(head >> name)) err("'input' expects a name");
      define(name, g_.add_input(name));
      return;
    }
    if (first == "state") {
      std::string name;
      if (!(head >> name)) err("'state' expects a name");
      define(name, g_.add_state(name));
      states_.emplace(name, StateInfo{false, line_no_});
      return;
    }
    if (first == "out" || first == "output") {
      std::string name;
      if (!(head >> name)) err("'out' expects a name");
      outputs_.push_back({name, line_no_});
      return;
    }

    // Assignment: `name = expr` or `name := expr`.
    std::string op;
    if (!(head >> op) || (op != "=" && op != ":=")) {
      err("expected '<name> = <expr>', '<name> := <expr>', or a directive, "
          "got '" + first + "'");
    }
    std::string rest;
    std::getline(head, rest);
    Lexer lex(rest, line_no_);
    const ValueId value = parse_expr(lex);
    if (lex.peek().kind != Tok::kEnd) lex.error("trailing tokens");
    if (op == "=") {
      // Fresh single-assignment name.
      define(first, named_value(value, first));
    } else {
      const auto it = states_.find(first);
      if (it == states_.end()) err("':=' target '" + first + "' is not a state");
      if (it->second.updated) err("state '" + first + "' updated twice");
      it->second.updated = true;
      // A state's next content must be a computed value; wrap moves of
      // inputs/states in an explicit Nop (a register-to-register move).
      // Likewise a value feeding two states gets a private copy for the
      // second (merged-state storages cannot carry two initial contents).
      ValueId next = value;
      if (!is_operation(g_.node(g_.producer(next)).kind) ||
          used_next_.count(next))
        next = g_.add_nop(next, first + "_mv");
      used_next_.insert(next);
      g_.set_state_next(lookup(first), next);
    }
  }

 private:
  struct StateInfo {
    bool updated = false;
    int line = 0;  ///< the `state` line
  };

  [[noreturn]] void err(const std::string& msg) const {
    fail("expr error at line " + std::to_string(line_no_) + ": " + msg);
  }

  void define(const std::string& name, ValueId v) {
    if (!names_.emplace(name, v).second)
      err("name '" + name + "' defined twice");
  }

  ValueId lookup(const std::string& name) const {
    const auto it = names_.find(name);
    if (it == names_.end()) err("unknown name '" + name + "'");
    return it->second;
  }

  ValueId constant(int64_t v) {
    const auto it = consts_.find(v);
    if (it != consts_.end()) return it->second;
    const ValueId c = g_.add_const(v);
    consts_.emplace(v, c);
    return c;
  }

  // Gives the final op of an assignment the assigned name, when it is an op
  // created by this compiler (ops get synthetic names during parsing).
  ValueId named_value(ValueId v, const std::string& name) {
    // Renaming nodes post-hoc is not supported by the IR; instead wrap
    // non-operation values so every assigned name exists as a node.
    if (!is_operation(g_.node(g_.producer(v)).kind))
      return g_.add_nop(v, name);
    return v;
  }

  // expr   := term (('+'|'-') term)*
  // term   := factor ('*' factor)*
  // factor := IDENT | NUMBER | '-' factor | '(' expr ')'
  ValueId parse_expr(Lexer& lex) {
    ValueId acc = parse_term(lex);
    while (lex.peek().kind == Tok::kPlus || lex.peek().kind == Tok::kMinus) {
      const Tok op = lex.take().kind;
      const ValueId rhs = parse_term(lex);
      acc = g_.add_op(op == Tok::kPlus ? OpKind::kAdd : OpKind::kSub, acc,
                      rhs);
    }
    return acc;
  }

  ValueId parse_term(Lexer& lex) {
    ValueId acc = parse_factor(lex);
    while (lex.peek().kind == Tok::kStar) {
      lex.take();
      const ValueId rhs = parse_factor(lex);
      acc = g_.add_op(OpKind::kMul, acc, rhs);
    }
    return acc;
  }

  ValueId parse_factor(Lexer& lex) {
    const Token t = lex.take();
    switch (t.kind) {
      case Tok::kIdent:
        return lookup(t.text);
      case Tok::kNumber:
        return constant(t.number);
      case Tok::kMinus: {
        // Fold a literal; otherwise lower to (0 - x).
        if (lex.peek().kind == Tok::kNumber)
          return constant(-lex.take().number);
        const ValueId x = parse_factor(lex);
        return g_.add_op(OpKind::kSub, constant(0), x);
      }
      case Tok::kLParen: {
        const ValueId v = parse_expr(lex);
        if (lex.take().kind != Tok::kRParen) lex.error("expected ')'");
        return v;
      }
      default:
        lex.error("expected an operand, got '" + t.text + "'");
    }
  }

  // State rules, checked once the program is read, name the `state` line;
  // no other graph rule can break here.
  void finish() {
    for (const auto& [name, info] : states_)
      if (!info.updated) {
        line_no_ = info.line;
        err("state '" + name + "' is never updated (':=')");
      }
    for (const auto& [name, line] : outputs_) {
      line_no_ = line;
      g_.add_output(lookup(name), name + "_out");
    }
    if (const auto v = g_.first_violation()) {
      if (v->node == kInvalidId || g_.node(v->node).kind != OpKind::kState)
        fail(v->message);
      line_no_ = states_.at(g_.node(v->node).name).line;
      err(v->message);
    }
  }

  Cdfg g_;
  int line_no_ = 0;
  std::map<std::string, ValueId> names_;
  std::map<int64_t, ValueId> consts_;
  std::map<std::string, StateInfo> states_;
  std::set<ValueId> used_next_;
  std::vector<std::pair<std::string, int>> outputs_;
};

}  // namespace

Cdfg compile_expressions(std::istream& in) {
  Compiler c;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) c.feed(line, ++line_no);
  return std::move(c).take();
}

Cdfg compile_expr_string(const std::string& text) {
  std::istringstream is(text);
  return compile_expressions(is);
}

}  // namespace salsa
