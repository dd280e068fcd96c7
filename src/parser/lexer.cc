#include "parser/lexer.h"

#include <cctype>

#include "base/strings.h"

namespace pathlog {

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kName: return "name";
    case TokenKind::kVar: return "variable";
    case TokenKind::kInt: return "integer";
    case TokenKind::kString: return "string";
    case TokenKind::kPathDot: return "'.'";
    case TokenKind::kDotDot: return "'..'";
    case TokenKind::kTermDot: return "clause-terminating '.'";
    case TokenKind::kColon: return "':'";
    case TokenKind::kArrow: return "'->'";
    case TokenKind::kDArrow: return "'->>'";
    case TokenKind::kSigArrow: return "'=>'";
    case TokenKind::kSigDArrow: return "'=>>'";
    case TokenKind::kIf: return "'<-'";
    case TokenKind::kOn: return "'<~'";
    case TokenKind::kQuery: return "'?-'";
    case TokenKind::kAt: return "'@'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kComma: return "','";
    case TokenKind::kSemicolon: return "';'";
    case TokenKind::kNot: return "'not'";
    case TokenKind::kEof: return "end of input";
  }
  return "token";
}

char Lexer::Advance() {
  char c = src_[pos_++];
  if (c == '\n') {
    ++line_;
    column_ = 1;
  } else {
    ++column_;
  }
  return c;
}

Status Lexer::Error(std::string_view what) const {
  return ParseError(StrCat("line ", line_, ", column ", column_, ": ", what));
}

void Lexer::SkipSpaceAndComments() {
  for (;;) {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
    if (Peek() == '%' || (Peek() == '/' && Peek(1) == '/')) {
      while (!AtEnd() && Peek() != '\n') Advance();
      continue;
    }
    if (Peek() == '/' && Peek(1) == '*') {
      Advance();
      Advance();
      while (!AtEnd() && !(Peek() == '*' && Peek(1) == '/')) Advance();
      if (!AtEnd()) {
        Advance();
        Advance();
      }
      continue;
    }
    return;
  }
}

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

void Lexer::LexIdent(Token* out) {
  while (!AtEnd() && IsIdentChar(Peek())) out->text.push_back(Advance());
  const std::string& text = out->text;
  if (text == "not") {
    out->kind = TokenKind::kNot;
  } else if (std::isupper(static_cast<unsigned char>(text[0])) ||
             text[0] == '_') {
    out->kind = TokenKind::kVar;
  } else {
    out->kind = TokenKind::kName;
  }
}

Status Lexer::LexInt(bool negative, Token* out) {
  std::string& digits = out->text;
  if (negative) digits.push_back('-');
  // Accumulate with overflow detection (std::stoll would throw).
  uint64_t magnitude = 0;
  bool overflow = false;
  while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
    char c = Advance();
    digits.push_back(c);
    if (magnitude > (UINT64_MAX - 9) / 10) {
      overflow = true;
    } else {
      magnitude = magnitude * 10 + static_cast<uint64_t>(c - '0');
    }
  }
  const uint64_t limit = negative ? static_cast<uint64_t>(INT64_MAX) + 1
                                  : static_cast<uint64_t>(INT64_MAX);
  if (overflow || magnitude > limit) {
    return ParseError(StrCat("line ", out->line, ", column ", out->column,
                             ": integer literal out of range: ", digits));
  }
  out->kind = TokenKind::kInt;
  if (negative && magnitude == static_cast<uint64_t>(INT64_MAX) + 1) {
    out->int_value = INT64_MIN;
  } else {
    out->int_value = negative ? -static_cast<int64_t>(magnitude)
                              : static_cast<int64_t>(magnitude);
  }
  return Status::OK();
}

Status Lexer::LexString(Token* out) {
  Advance();  // opening quote
  std::string& text = out->text;
  while (!AtEnd() && Peek() != '"') {
    char c = Advance();
    if (c == '\\') {
      if (AtEnd()) return Error("unterminated escape in string literal");
      char e = Advance();
      switch (e) {
        case 'n': text.push_back('\n'); break;
        case 't': text.push_back('\t'); break;
        case '\\': text.push_back('\\'); break;
        case '"': text.push_back('"'); break;
        default:
          return Error(StrCat("unknown escape '\\", e, "' in string"));
      }
    } else {
      text.push_back(c);
    }
  }
  if (AtEnd()) return Error("unterminated string literal");
  Advance();  // closing quote
  out->kind = TokenKind::kString;
  return Status::OK();
}

Status Lexer::Next(Token* out) {
  SkipSpaceAndComments();
  out->text.clear();
  out->int_value = 0;
  out->line = line_;
  out->column = column_;
  if (AtEnd()) {
    out->kind = TokenKind::kEof;
    return Status::OK();
  }
  char c = Peek();
  if (IsIdentStart(c)) {
    LexIdent(out);
    return Status::OK();
  }
  if (std::isdigit(static_cast<unsigned char>(c))) return LexInt(false, out);
  if (c == '"') return LexString(out);

  auto tok = [out](TokenKind kind) {
    out->kind = kind;
    return Status::OK();
  };
  switch (c) {
    case '.': {
      Advance();
      if (Peek() == '.') {
        Advance();
        return tok(TokenKind::kDotDot);
      }
      char n = Peek();
      if (IsIdentStart(n) || std::isdigit(static_cast<unsigned char>(n)) ||
          n == '(' || n == '"') {
        return tok(TokenKind::kPathDot);
      }
      return tok(TokenKind::kTermDot);
    }
    case ':':
      Advance();
      if (Peek() == ':') {
        Advance();
        return tok(TokenKind::kColon);
      }
      if (Peek() == '-') {
        Advance();
        return tok(TokenKind::kIf);
      }
      return tok(TokenKind::kColon);
    case '-':
      Advance();
      if (Peek() == '>') {
        Advance();
        if (Peek() == '>') {
          Advance();
          return tok(TokenKind::kDArrow);
        }
        return tok(TokenKind::kArrow);
      }
      if (std::isdigit(static_cast<unsigned char>(Peek()))) {
        return LexInt(true, out);
      }
      return Error("expected '->', '->>' or a digit after '-'");
    case '=':
      Advance();
      if (Peek() == '>') {
        Advance();
        if (Peek() == '>') {
          Advance();
          return tok(TokenKind::kSigDArrow);
        }
        return tok(TokenKind::kSigArrow);
      }
      return Error("expected '=>' or '=>>' after '='");
    case '<':
      Advance();
      if (Peek() == '-') {
        Advance();
        return tok(TokenKind::kIf);
      }
      if (Peek() == '~') {
        Advance();
        return tok(TokenKind::kOn);
      }
      return Error("expected '<-' or '<~' after '<'");
    case '?':
      Advance();
      if (Peek() == '-') {
        Advance();
        return tok(TokenKind::kQuery);
      }
      return Error("expected '?-' after '?'");
    case '@': Advance(); return tok(TokenKind::kAt);
    case '(': Advance(); return tok(TokenKind::kLParen);
    case ')': Advance(); return tok(TokenKind::kRParen);
    case '[': Advance(); return tok(TokenKind::kLBracket);
    case ']': Advance(); return tok(TokenKind::kRBracket);
    case '{': Advance(); return tok(TokenKind::kLBrace);
    case '}': Advance(); return tok(TokenKind::kRBrace);
    case ',': Advance(); return tok(TokenKind::kComma);
    case ';': Advance(); return tok(TokenKind::kSemicolon);
    default:
      return Error(StrCat("unexpected character '", c, "'"));
  }
}

Result<std::vector<Token>> Tokenize(std::string_view source) {
  Lexer lexer(source);
  std::vector<Token> out;
  do {
    out.emplace_back();
    PATHLOG_RETURN_IF_ERROR(lexer.Next(&out.back()));
  } while (out.back().kind != TokenKind::kEof);
  return out;
}

}  // namespace pathlog
