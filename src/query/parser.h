// A tiny Datalog-style parser for join queries.
//
// Grammar (whitespace-insensitive):
//   query := [head ":-"] atom ("," atom)* ["."]
//   head  := ident "(" ident ("," ident)* ")"
//   atom  := ident "(" ident ("," ident)* ")"
// Example: "Q(X,Y,Z) :- R(X,Y), S(Y,Z), T(Z,X)". The head, if present, must
// list exactly the body variables (full conjunctive queries only), and a
// query has at most kMaxVars (util/bits.h) distinct variables.
#ifndef LPB_QUERY_PARSER_H_
#define LPB_QUERY_PARSER_H_

#include <optional>
#include <string>

#include "query/query.h"

namespace lpb {

// Parses `text` into a Query. Returns std::nullopt and fills *error (if
// non-null) on malformed input.
std::optional<Query> ParseQuery(const std::string& text,
                                std::string* error = nullptr);

}  // namespace lpb

#endif  // LPB_QUERY_PARSER_H_
