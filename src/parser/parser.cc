#include "parser/parser.h"

#include <utility>

#include "ast/analysis.h"
#include "base/strings.h"
#include "parser/lexer.h"

namespace pathlog {

/// The recursive-descent parser over an on-demand lexer. It holds the
/// tokens of one clause — through its terminating dot, or to the end
/// of input — and lexes the next clause's only once those are consumed.
class ClauseParser {
 public:
  explicit ClauseParser(std::string_view source) : lexer_(source) {}

  /// Parses the next clause into `*prog`; false at the end of input.
  Result<bool> ParseNextClause(Program* prog) {
    PATHLOG_RETURN_IF_ERROR(LexClause());
    if (Check(TokenKind::kEof)) return false;
    PATHLOG_RETURN_IF_ERROR(ParseClause(prog));
    return true;
  }

  Result<RefPtr> ParseSingleRef() {
    PATHLOG_RETURN_IF_ERROR(LexClause());
    PATHLOG_ASSIGN_OR_RETURN(RefPtr r, ParseRef());
    // A trailing terminator dot is tolerated.
    if (Match(TokenKind::kTermDot)) PATHLOG_RETURN_IF_ERROR(LexClause());
    if (!Check(TokenKind::kEof)) {
      return Error(StrCat("unexpected ", TokenKindName(Peek().kind),
                          " after reference"));
    }
    return r;
  }

  Result<Rule> ParseSingleRule() {
    PATHLOG_RETURN_IF_ERROR(LexClause());
    Program prog;
    PATHLOG_RETURN_IF_ERROR(ParseClause(&prog));
    PATHLOG_RETURN_IF_ERROR(LexClause());
    if (!Check(TokenKind::kEof) || prog.rules.size() != 1 ||
        !prog.queries.empty() || !prog.signatures.empty()) {
      return Status(ParseError("expected exactly one rule clause"));
    }
    return std::move(prog.rules[0]);
  }

  Result<Query> ParseSingleQuery() {
    PATHLOG_RETURN_IF_ERROR(LexClause());
    Query q;
    Match(TokenKind::kQuery);  // optional
    PATHLOG_RETURN_IF_ERROR(ParseLiterals(&q.body));
    // Optional for queries.
    if (Match(TokenKind::kTermDot)) PATHLOG_RETURN_IF_ERROR(LexClause());
    if (!Check(TokenKind::kEof)) {
      return Status(
          Error(StrCat("unexpected ", TokenKindName(Peek().kind),
                       " after query")));
    }
    return q;
  }

 private:
  /// Once the current clause's tokens are consumed, lexes the next
  /// clause's. A lexer error anywhere in a clause is that clause's
  /// error, ahead of any parse error earlier in it.
  Status LexClause() {
    if (pos_ < tokens_.size()) return Status::OK();
    tokens_.clear();
    pos_ = 0;
    do {
      tokens_.emplace_back();
      PATHLOG_RETURN_IF_ERROR(lexer_.Next(&tokens_.back()));
    } while (tokens_.back().kind != TokenKind::kTermDot &&
             tokens_.back().kind != TokenKind::kEof);
    return Status::OK();
  }

  /// The current token. Past a consumed terminating dot — only before
  /// the next LexClause — it stays on that dot.
  const Token& Peek() const {
    return pos_ < tokens_.size() ? tokens_[pos_] : tokens_.back();
  }
  const Token& Advance() {
    const Token& t = Peek();
    if (t.kind != TokenKind::kEof && pos_ < tokens_.size()) ++pos_;
    return t;
  }
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  bool Match(TokenKind kind) {
    if (!Check(kind)) return false;
    Advance();
    return true;
  }
  Status Expect(TokenKind kind, std::string_view context) {
    if (Match(kind)) return Status::OK();
    return Error(StrCat("expected ", TokenKindName(kind), " ", context,
                        ", got ", TokenKindName(Peek().kind)));
  }
  Status Error(std::string_view what) const {
    const Token& t = Peek();
    return ParseError(
        StrCat("line ", t.line, ", column ", t.column, ": ", what));
  }

  /// Stamps a freshly constructed (and therefore parser-owned, not yet
  /// shared) reference with a source position.
  static RefPtr At(RefPtr r, int line, int column) {
    Ref* node = const_cast<Ref*>(r.get());
    node->line = line;
    node->column = column;
    return r;
  }

  // --- clauses --------------------------------------------------------

  Status ParseClause(Program* prog) {
    const int clause_line = Peek().line;
    const int clause_column = Peek().column;
    if (Match(TokenKind::kQuery)) {
      Query q;
      q.line = clause_line;
      q.column = clause_column;
      PATHLOG_RETURN_IF_ERROR(ParseLiterals(&q.body));
      PATHLOG_RETURN_IF_ERROR(
          Expect(TokenKind::kTermDot, "at end of query"));
      prog->queries.push_back(std::move(q));
      return Status::OK();
    }
    if (IsSignatureClauseAhead()) {
      return ParseSignatureClause(prog);
    }
    Rule rule;
    rule.line = clause_line;
    rule.column = clause_column;
    {
      Result<RefPtr> head = ParseRef();
      if (!head.ok()) return head.status();
      rule.head = std::move(*head);
    }
    bool is_trigger = false;
    if (Match(TokenKind::kIf)) {
      PATHLOG_RETURN_IF_ERROR(ParseLiterals(&rule.body));
    } else if (Match(TokenKind::kOn)) {
      is_trigger = true;
      PATHLOG_RETURN_IF_ERROR(ParseLiterals(&rule.body));
    }
    PATHLOG_RETURN_IF_ERROR(Expect(TokenKind::kTermDot, "at end of clause"));
    if (is_trigger) {
      prog->triggers.push_back(TriggerRule{std::move(rule)});
    } else {
      prog->rules.push_back(std::move(rule));
    }
    return Status::OK();
  }

  Status ParseLiterals(std::vector<Literal>* out) {
    do {
      Literal lit;
      lit.line = Peek().line;
      lit.column = Peek().column;
      lit.negated = Match(TokenKind::kNot);
      Result<RefPtr> r = ParseRef();
      if (!r.ok()) return r.status();
      lit.ref = std::move(*r);
      out->push_back(std::move(lit));
    } while (Match(TokenKind::kComma));
    return Status::OK();
  }

  /// Lookahead: simple ref followed by a bracket group containing a
  /// signature arrow at depth 1.
  bool IsSignatureClauseAhead() const {
    size_t i = pos_;
    // simple: name/var, or balanced parens.
    if (tokens_[i].kind == TokenKind::kName ||
        tokens_[i].kind == TokenKind::kVar) {
      ++i;
    } else if (tokens_[i].kind == TokenKind::kLParen) {
      int depth = 0;
      while (i < tokens_.size() && tokens_[i].kind != TokenKind::kEof) {
        if (tokens_[i].kind == TokenKind::kLParen) ++depth;
        if (tokens_[i].kind == TokenKind::kRParen && --depth == 0) {
          ++i;
          break;
        }
        ++i;
      }
    } else {
      return false;
    }
    if (i >= tokens_.size() || tokens_[i].kind != TokenKind::kLBracket) {
      return false;
    }
    int depth = 0;
    for (; i < tokens_.size() && tokens_[i].kind != TokenKind::kEof; ++i) {
      switch (tokens_[i].kind) {
        case TokenKind::kLBracket:
          ++depth;
          break;
        case TokenKind::kRBracket:
          if (--depth == 0) return false;
          break;
        case TokenKind::kSigArrow:
        case TokenKind::kSigDArrow:
          if (depth == 1) return true;
          break;
        case TokenKind::kTermDot:
          return false;
        default:
          break;
      }
    }
    return false;
  }

  Status ParseSignatureClause(Program* prog) {
    PATHLOG_ASSIGN_OR_RETURN(RefPtr klass, ParseSimple("signature class"));
    PATHLOG_RETURN_IF_ERROR(
        Expect(TokenKind::kLBracket, "in signature declaration"));
    // Appended only once the whole clause parses.
    std::vector<SignatureDecl> sigs;
    do {
      SignatureDecl sig;
      sig.klass = klass;
      sig.line = Peek().line;
      sig.column = Peek().column;
      PATHLOG_ASSIGN_OR_RETURN(sig.method, ParseSimple("signature method"));
      if (Check(TokenKind::kAt)) {
        PATHLOG_RETURN_IF_ERROR(ParseArgs(&sig.arg_types));
      }
      if (Match(TokenKind::kSigDArrow)) {
        sig.set_valued = true;
      } else {
        PATHLOG_RETURN_IF_ERROR(
            Expect(TokenKind::kSigArrow, "in signature declaration"));
      }
      PATHLOG_ASSIGN_OR_RETURN(sig.result_type,
                               ParseSimple("signature result type"));
      sigs.push_back(std::move(sig));
    } while (Match(TokenKind::kSemicolon));
    PATHLOG_RETURN_IF_ERROR(
        Expect(TokenKind::kRBracket, "after signature declarations"));
    PATHLOG_RETURN_IF_ERROR(
        Expect(TokenKind::kTermDot, "at end of signature clause"));
    for (SignatureDecl& sig : sigs) prog->signatures.push_back(std::move(sig));
    return Status::OK();
  }

  // --- references -----------------------------------------------------

  /// Recursion guards: references nest through (), [], {} and @(), and
  /// chain through postfix steps; both are bounded so that no later
  /// recursive pass (analysis, printing, evaluation) can overflow the
  /// stack on hostile input. Far above anything a real program writes.
  static constexpr int kMaxNestingDepth = 500;
  static constexpr int kMaxPostfixSteps = 1000;

  class DepthGuard {
   public:
    explicit DepthGuard(int* depth) : depth_(depth) { ++*depth_; }
    ~DepthGuard() { --*depth_; }
    bool ok() const { return *depth_ <= kMaxNestingDepth; }

   private:
    int* depth_;
  };

  Result<RefPtr> ParseRef() {
    DepthGuard guard(&depth_);
    if (!guard.ok()) {
      return Status(Error(StrCat("references nested deeper than ",
                                 kMaxNestingDepth, " levels")));
    }
    const int start_line = Peek().line;
    const int start_column = Peek().column;
    PATHLOG_ASSIGN_OR_RETURN(RefPtr r, ParsePrimary());
    // Consecutive filter postfixes (`[...]`, `:c`) accumulate into one
    // molecule node — `t[f1][f2]`, `t[f1; f2]` and `t[f1]:c` are the
    // same molecule (paper section 4.1), and the flat form makes the
    // printer/parser round-trip canonical.
    bool molecule_chain = false;
    int steps = 0;
    auto append_filters = [&r, start_line, start_column](
                              std::vector<Filter> filters, bool chained) {
      if (chained) {
        std::vector<Filter> combined = r->filters;
        for (Filter& f : filters) combined.push_back(std::move(f));
        r = At(Ref::Molecule(r->base, std::move(combined)), start_line,
               start_column);
      } else {
        r = At(Ref::Molecule(std::move(r), std::move(filters)), start_line,
               start_column);
      }
    };
    for (;;) {
      if (++steps > kMaxPostfixSteps) {
        return Status(Error(StrCat("reference chains more than ",
                                   kMaxPostfixSteps, " postfix steps")));
      }
      if (Match(TokenKind::kPathDot)) {
        PATHLOG_ASSIGN_OR_RETURN(RefPtr m, ParseSimple("path method"));
        std::vector<RefPtr> args;
        if (Check(TokenKind::kAt)) {
          PATHLOG_RETURN_IF_ERROR(ParseArgs(&args));
        }
        r = At(Ref::ScalarPath(std::move(r), std::move(m), std::move(args)),
               start_line, start_column);
        molecule_chain = false;
      } else if (Match(TokenKind::kDotDot)) {
        PATHLOG_ASSIGN_OR_RETURN(RefPtr m, ParseSimple("path method"));
        std::vector<RefPtr> args;
        if (Check(TokenKind::kAt)) {
          PATHLOG_RETURN_IF_ERROR(ParseArgs(&args));
        }
        r = At(Ref::SetPath(std::move(r), std::move(m), std::move(args)),
               start_line, start_column);
        molecule_chain = false;
      } else if (Match(TokenKind::kLBracket)) {
        std::vector<Filter> filters;
        do {
          PATHLOG_ASSIGN_OR_RETURN(Filter f, ParseFilter());
          filters.push_back(std::move(f));
        } while (Match(TokenKind::kSemicolon));
        PATHLOG_RETURN_IF_ERROR(
            Expect(TokenKind::kRBracket, "after filter list"));
        append_filters(std::move(filters), molecule_chain);
        molecule_chain = true;
      } else if (Match(TokenKind::kColon)) {
        PATHLOG_ASSIGN_OR_RETURN(RefPtr c, ParseSimple("class"));
        append_filters({Ref::ClassFilter(std::move(c))}, molecule_chain);
        molecule_chain = true;
      } else {
        return r;
      }
    }
  }

  Result<RefPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kName:
        Advance();
        return At(Ref::Name(t.text), t.line, t.column);
      case TokenKind::kInt:
        Advance();
        return At(Ref::Int(t.int_value), t.line, t.column);
      case TokenKind::kString:
        Advance();
        return At(Ref::Str(t.text), t.line, t.column);
      case TokenKind::kVar:
        Advance();
        return At(Ref::Var(t.text), t.line, t.column);
      case TokenKind::kLParen: {
        Advance();
        PATHLOG_ASSIGN_OR_RETURN(RefPtr inner, ParseRef());
        PATHLOG_RETURN_IF_ERROR(
            Expect(TokenKind::kRParen, "after bracketed reference"));
        return At(Ref::Paren(std::move(inner)), t.line, t.column);
      }
      default:
        return Status(Error(StrCat("expected a reference, got ",
                                   TokenKindName(t.kind))));
    }
  }

  Result<RefPtr> ParseSimple(std::string_view context) {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kName:
        Advance();
        return At(Ref::Name(t.text), t.line, t.column);
      case TokenKind::kVar:
        Advance();
        return At(Ref::Var(t.text), t.line, t.column);
      case TokenKind::kInt:
        Advance();
        return At(Ref::Int(t.int_value), t.line, t.column);
      case TokenKind::kString:
        Advance();
        return At(Ref::Str(t.text), t.line, t.column);
      case TokenKind::kLParen: {
        Advance();
        PATHLOG_ASSIGN_OR_RETURN(RefPtr inner, ParseRef());
        PATHLOG_RETURN_IF_ERROR(
            Expect(TokenKind::kRParen, "after bracketed reference"));
        return At(Ref::Paren(std::move(inner)), t.line, t.column);
      }
      default:
        return Status(Error(StrCat("expected a simple reference as ", context,
                                   ", got ", TokenKindName(t.kind))));
    }
  }

  Status ParseArgs(std::vector<RefPtr>* out) {
    PATHLOG_RETURN_IF_ERROR(Expect(TokenKind::kAt, "before argument list"));
    PATHLOG_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after '@'"));
    do {
      PATHLOG_ASSIGN_OR_RETURN(RefPtr a, ParseRef());
      out->push_back(std::move(a));
    } while (Match(TokenKind::kComma));
    return Expect(TokenKind::kRParen, "after argument list");
  }

  Result<Filter> ParseFilter() {
    PATHLOG_ASSIGN_OR_RETURN(RefPtr head, ParseRef());
    std::vector<RefPtr> args;
    if (Check(TokenKind::kAt)) {
      PATHLOG_RETURN_IF_ERROR(ParseArgs(&args));
    }
    if (Match(TokenKind::kArrow)) {
      PATHLOG_ASSIGN_OR_RETURN(RefPtr value, ParseRef());
      return Ref::ScalarFilter(std::move(head), std::move(value),
                               std::move(args));
    }
    if (Match(TokenKind::kDArrow)) {
      if (Match(TokenKind::kLBrace)) {
        std::vector<RefPtr> elems;
        do {
          PATHLOG_ASSIGN_OR_RETURN(RefPtr e, ParseRef());
          elems.push_back(std::move(e));
        } while (Match(TokenKind::kComma));
        PATHLOG_RETURN_IF_ERROR(
            Expect(TokenKind::kRBrace, "after explicit set"));
        return Ref::SetEnumFilter(std::move(head), std::move(elems),
                                  std::move(args));
      }
      PATHLOG_ASSIGN_OR_RETURN(RefPtr value, ParseRef());
      return Ref::SetRefFilter(std::move(head), std::move(value),
                               std::move(args));
    }
    if (Check(TokenKind::kSigArrow) || Check(TokenKind::kSigDArrow)) {
      return Status(Error(
          "signature arrows are only allowed in top-level signature "
          "declarations (class[m => type].)"));
    }
    // Selector: `[t]` abbreviates `[self->t]`.
    if (!args.empty()) {
      return Status(
          Error("selector filter cannot take '@(...)' arguments"));
    }
    RefPtr self = At(Ref::Name(kSelfMethodName), head->line, head->column);
    return Ref::ScalarFilter(std::move(self), std::move(head));
  }

  Lexer lexer_;
  std::vector<Token> tokens_;  ///< the current clause's
  size_t pos_ = 0;
  int depth_ = 0;
};

ClauseReader::ClauseReader(std::string_view source)
    : parser_(std::make_unique<ClauseParser>(source)) {}

ClauseReader::~ClauseReader() = default;

Result<bool> ClauseReader::Next(Program* out) {
  return parser_->ParseNextClause(out);
}

Result<Program> ParseProgram(std::string_view source) {
  ClauseReader reader(source);
  Program prog;
  for (;;) {
    PATHLOG_ASSIGN_OR_RETURN(bool more, reader.Next(&prog));
    if (!more) return prog;
  }
}

Result<RefPtr> ParseRef(std::string_view source) {
  return ClauseParser(source).ParseSingleRef();
}

Result<Rule> ParseRule(std::string_view source) {
  return ClauseParser(source).ParseSingleRule();
}

Result<Query> ParseQuery(std::string_view source) {
  return ClauseParser(source).ParseSingleQuery();
}

}  // namespace pathlog
