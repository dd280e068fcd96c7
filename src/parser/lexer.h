// Lexer for PathLog surface syntax.
//
// Token inventory and the dot rule:
//   `..`            set-valued path separator
//   `.` + ident/(/" path separator (scalar)
//   `.` otherwise   clause terminator
// i.e. references must be written without internal whitespace and the
// clause-terminating dot must be followed by whitespace, a comment, or
// end of input — the same convention Flora-2 adopted for F-logic.
//
// `:` and `::` both denote the hierarchy relation <=_U (the paper uses
// a single partial order for membership and subclassing); `::` is
// conventional for class-to-class edges.

#ifndef PATHLOG_PARSER_LEXER_H_
#define PATHLOG_PARSER_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "base/status.h"

namespace pathlog {

enum class TokenKind : uint8_t {
  kName,     ///< lowercase-initial identifier
  kVar,      ///< uppercase- or underscore-initial identifier
  kInt,      ///< integer literal (possibly negative)
  kString,   ///< double-quoted string literal
  kPathDot,  ///< `.` introducing a scalar method application
  kDotDot,   ///< `..` introducing a set-valued method application
  kTermDot,  ///< `.` terminating a clause
  kColon,    ///< `:` or `::`
  kArrow,    ///< `->`
  kDArrow,   ///< `->>`
  kSigArrow,   ///< `=>`
  kSigDArrow,  ///< `=>>`
  kIf,       ///< `<-` or `:-`
  kOn,       ///< `<~` (trigger: head <~ event, conditions.)
  kQuery,    ///< `?-`
  kAt,       ///< `@`
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kLBrace,
  kRBrace,
  kComma,
  kSemicolon,
  kNot,  ///< keyword `not`
  kEof,
};

const char* TokenKindName(TokenKind kind);

struct Token {
  TokenKind kind;
  std::string text;  ///< identifier/string content; digits for kInt
  int64_t int_value = 0;
  int line = 1;
  int column = 1;
};

/// Lexes `source` on demand, one token per call: a caller that drops
/// each token before asking for the next never holds the rest.
class Lexer {
 public:
  explicit Lexer(std::string_view source) : src_(source) {}

  /// Lexes the next token into `*out`: kEof at, and after, the end of
  /// input. A ParseError names the offending line and column; the
  /// lexer must not be called again after one.
  Status Next(Token* out);

 private:
  bool AtEnd() const { return pos_ >= src_.size(); }
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  char Advance();
  Status Error(std::string_view what) const;
  void SkipSpaceAndComments();
  void LexIdent(Token* out);
  Status LexInt(bool negative, Token* out);
  Status LexString(Token* out);

  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

/// Tokenises `source` completely (ending with a kEof token), or returns
/// a ParseError naming the offending line and column.
Result<std::vector<Token>> Tokenize(std::string_view source);

}  // namespace pathlog

#endif  // PATHLOG_PARSER_LEXER_H_
