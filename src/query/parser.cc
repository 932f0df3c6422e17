#include "query/parser.h"

#include <cctype>
#include <set>
#include <string>
#include <vector>

namespace lpb {
namespace {

class Scanner {
 public:
  explicit Scanner(const std::string& text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeTurnstile() {
    SkipSpace();
    if (pos_ + 1 < text_.size() && text_[pos_] == ':' && text_[pos_ + 1] == '-') {
      pos_ += 2;
      return true;
    }
    return false;
  }

  // Identifier: [A-Za-z_][A-Za-z0-9_]*
  bool Ident(std::string* out) {
    SkipSpace();
    size_t start = pos_;
    auto is_start = [](char c) {
      return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
    };
    auto is_cont = [](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    if (pos_ >= text_.size() || !is_start(text_[pos_])) return false;
    ++pos_;
    while (pos_ < text_.size() && is_cont(text_[pos_])) ++pos_;
    *out = text_.substr(start, pos_ - start);
    return true;
  }

  size_t pos() const { return pos_; }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

struct RawAtom {
  std::string name;
  std::vector<std::string> vars;
};

bool ParseAtom(Scanner& scan, RawAtom* atom, std::string* error) {
  if (!scan.Ident(&atom->name)) {
    if (error) *error = "expected relation name";
    return false;
  }
  if (!scan.Consume('(')) {
    if (error) *error = "expected '(' after relation name";
    return false;
  }
  do {
    std::string var;
    if (!scan.Ident(&var)) {
      if (error) *error = "expected variable name";
      return false;
    }
    atom->vars.push_back(std::move(var));
  } while (scan.Consume(','));
  if (!scan.Consume(')')) {
    if (error) *error = "expected ')' after variable list";
    return false;
  }
  return true;
}

}  // namespace

std::optional<Query> ParseQuery(const std::string& text, std::string* error) {
  Scanner scan(text);
  RawAtom first;
  if (!ParseAtom(scan, &first, error)) return std::nullopt;

  std::vector<RawAtom> body;
  std::string head_name;
  std::vector<std::string> head_vars;
  bool has_head = false;

  if (scan.ConsumeTurnstile()) {
    has_head = true;
    head_name = first.name;
    head_vars = first.vars;
    RawAtom atom;
    if (!ParseAtom(scan, &atom, error)) return std::nullopt;
    body.push_back(std::move(atom));
  } else {
    body.push_back(std::move(first));
  }
  while (scan.Consume(',')) {
    RawAtom atom;
    if (!ParseAtom(scan, &atom, error)) return std::nullopt;
    body.push_back(std::move(atom));
  }
  scan.Consume('.');
  if (!scan.AtEnd()) {
    if (error) *error = "unexpected trailing input";
    return std::nullopt;
  }

  // Validate before interning: a VarSet holds kMaxVars variables, and
  // Query::AddVar only asserts that.
  std::set<std::string> body_vars;
  for (const RawAtom& atom : body) {
    body_vars.insert(atom.vars.begin(), atom.vars.end());
  }
  if (body_vars.size() > static_cast<size_t>(kMaxVars)) {
    if (error) {
      *error = "query has " + std::to_string(body_vars.size()) +
               " variables; at most " + std::to_string(kMaxVars) +
               " are supported";
    }
    return std::nullopt;
  }
  // Full conjunctive queries only: the head lists exactly the body
  // variables, so every head variable is guarded by some atom.
  if (has_head &&
      std::set<std::string>(head_vars.begin(), head_vars.end()) != body_vars) {
    if (error) *error = "head must list exactly the body variables (full CQ)";
    return std::nullopt;
  }

  Query query(has_head ? head_name : "Q");
  // Intern head variables first so their ids follow the head order.
  for (const std::string& v : head_vars) query.AddVar(v);
  for (const RawAtom& atom : body) query.AddAtom(atom.name, atom.vars);
  return query;
}

}  // namespace lpb
