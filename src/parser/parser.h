// Recursive-descent parser for PathLog programs, clauses, and
// references. Grammar (after lexing, cf. lexer.h for the dot rule):
//
//   program   := clause*
//   clause    := sigclause | rule | query
//   sigclause := simple '[' sig (';' sig)* ']' '.'
//   sig       := simple args? ('=>' | '=>>') simple
//   rule      := ref ('<-' literals)? '.'
//   query     := '?-' literals '.'
//   literals  := literal (',' literal)*
//   literal   := 'not'? ref
//   ref       := primary postfix*
//   postfix   := '.' simple args? | '..' simple args?
//              | '[' filter (';' filter)* ']' | ':' simple
//   primary   := name | int | string | var | '(' ref ')'
//   simple    := name | var | '(' ref ')'
//   args      := '@(' ref (',' ref)* ')'
//   filter    := ref args? ('->' ref | '->>' setOrRef)?   // no arrow: selector
//   setOrRef  := '{' ref (',' ref)* '}' | ref
//
// The selector form `[t]` abbreviates `[self->t]` (XSQL-style selectors,
// paper section 4.1).

#ifndef PATHLOG_PARSER_PARSER_H_
#define PATHLOG_PARSER_PARSER_H_

#include <memory>
#include <string_view>

#include "ast/program.h"
#include "ast/ref.h"
#include "base/result.h"

namespace pathlog {

class ClauseParser;

/// Reads a program one clause at a time. Tokens are lexed on demand, a
/// clause's worth at a time, so a caller that handles each clause and
/// drops it before reading the next never holds more than one clause's
/// tokens and AST — Database::Load streams a bulk load this way.
class ClauseReader {
 public:
  explicit ClauseReader(std::string_view source);
  ~ClauseReader();
  ClauseReader(const ClauseReader&) = delete;
  ClauseReader& operator=(const ClauseReader&) = delete;

  /// Parses the next clause and appends it to `*out` (one rule, fact,
  /// trigger or query, or the declarations of one signature clause).
  /// False at the end of the input. A ParseError names the line and
  /// column of the clause that fails to lex or parse; the reader must
  /// not be called again after one.
  Result<bool> Next(Program* out);

 private:
  std::unique_ptr<ClauseParser> parser_;
};

/// Parses a whole program (facts, rules, queries, signatures): a
/// ClauseReader run to the end of its input.
Result<Program> ParseProgram(std::string_view source);

/// Parses a single reference; the input must contain nothing else.
Result<RefPtr> ParseRef(std::string_view source);

/// Parses a single rule or fact clause ("head <- body." or "head.").
Result<Rule> ParseRule(std::string_view source);

/// Parses a single query clause ("?- body." — the "?-" may be omitted).
Result<Query> ParseQuery(std::string_view source);

}  // namespace pathlog

#endif  // PATHLOG_PARSER_PARSER_H_
