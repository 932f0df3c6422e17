#include "relation/csv.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

namespace lpb {
namespace {

std::vector<std::string> SplitLine(const std::string& line, char delim) {
  std::vector<std::string> fields;
  std::string field;
  for (char c : line) {
    if (c == delim) {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c != '\r') {
      field += c;
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

std::string Trim(const std::string& s) {
  size_t a = 0, b = s.size();
  while (a < b && std::isspace(static_cast<unsigned char>(s[a]))) ++a;
  while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1]))) --b;
  return s.substr(a, b - a);
}

bool ParseValue(const std::string& field, Value* out) {
  const std::string t = Trim(field);
  if (t.empty()) return false;
  constexpr Value kMax = std::numeric_limits<Value>::max();
  Value v = 0;
  for (char c : t) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    const Value digit = static_cast<Value>(c - '0');
    if (v > (kMax - digit) / 10) return false;  // above 2^64 - 1
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

}  // namespace

std::optional<Relation> RelationFromCsv(const std::string& name,
                                        const std::string& text,
                                        const CsvOptions& options,
                                        std::string* error) {
  std::istringstream in(text);
  std::string line;
  int arity = -1;
  bool saw_header = false;
  std::vector<std::string> attrs;
  std::vector<std::vector<Value>> rows;
  size_t line_no = 0;

  while (std::getline(in, line)) {
    ++line_no;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::vector<std::string> fields = SplitLine(line, options.delimiter);
    if (options.has_header && !saw_header) {
      saw_header = true;
      arity = static_cast<int>(fields.size());
      for (std::string& f : fields) attrs.push_back(Trim(f));
      continue;
    }
    if (arity < 0) {
      arity = static_cast<int>(fields.size());
      for (int c = 0; c < arity; ++c) attrs.push_back("c" + std::to_string(c));
    }
    if (static_cast<int>(fields.size()) != arity) {
      if (error) {
        *error = "line " + std::to_string(line_no) + ": expected " +
                 std::to_string(arity) + " fields, got " +
                 std::to_string(fields.size());
      }
      return std::nullopt;
    }
    std::vector<Value> row(arity);
    for (int c = 0; c < arity; ++c) {
      if (!ParseValue(fields[c], &row[c])) {
        if (error) {
          *error = "line " + std::to_string(line_no) + ": field " +
                   std::to_string(c) + " is not an unsigned integer";
        }
        return std::nullopt;
      }
    }
    rows.push_back(std::move(row));
  }
  if (arity < 0) {
    if (error) *error = "no data rows";
    return std::nullopt;
  }
  Relation rel(name, std::move(attrs));
  rel.Reserve(rows.size());
  for (const auto& row : rows) rel.AddRow(row);
  return rel;
}

std::optional<Relation> LoadRelationCsv(const std::string& name,
                                        const std::string& path,
                                        const CsvOptions& options,
                                        std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return RelationFromCsv(name, buf.str(), options, error);
}

std::string RelationToCsv(const Relation& rel, const CsvOptions& options) {
  std::string out;
  if (options.has_header) {
    for (int c = 0; c < rel.arity(); ++c) {
      if (c) out += options.delimiter;
      out += rel.attr(c);
    }
    out += '\n';
  }
  char buf[32];
  for (size_t r = 0; r < rel.NumRows(); ++r) {
    for (int c = 0; c < rel.arity(); ++c) {
      if (c) out += options.delimiter;
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(rel.At(r, c)));
      out += buf;
    }
    out += '\n';
  }
  return out;
}

bool SaveRelationCsv(const Relation& rel, const std::string& path,
                     const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) return false;
  out << RelationToCsv(rel, options);
  return static_cast<bool>(out);
}

}  // namespace lpb
