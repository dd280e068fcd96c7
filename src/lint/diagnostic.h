// Diagnostics for PathLog programs: stable error codes, severities,
// and source spans, rendered either human-readable
// (`file:line:col: severity[PLxxx]: message`) or as JSON for tooling.
//
// The catalogue of codes lives in docs/LANGUAGE.md ("Diagnostics
// catalogue"); tests/lint_test.cc pins one golden program per code.

#ifndef PATHLOG_LINT_DIAGNOSTIC_H_
#define PATHLOG_LINT_DIAGNOSTIC_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace pathlog {

/// Stable diagnostic codes. The numeric value is part of the code
/// string ("PL001"); never renumber, only append.
enum class LintCode {
  kParseError = 1,        ///< PL001: source text does not parse
  kIllFormed = 2,         ///< PL002: reference violates Definition 3
  kSetValuedHead = 3,     ///< PL003: rule head is a set-valued reference
  kTrivialHead = 4,       ///< PL004: head is a bare name or variable
  kUnsafeRule = 5,        ///< PL005: range restriction / safety violation
  kNegationOnlyVar = 6,   ///< PL006: variable occurs only under negation
  kNotStratifiable = 7,   ///< PL007: needs-complete cycle (section 6)
  kUndeclaredMethod = 8,  ///< PL008: method has no signature
  kFlavourMismatch = 9,   ///< PL009: scalar/set use contradicts signatures
  kSingletonVar = 10,     ///< PL010: variable occurs exactly once
  kRuleNeverFires = 11,   ///< PL011: body reads a never-defined method
  kUnsignedHeadPath = 12, ///< PL012: head path method lacks a signature
  kIllFormedTrigger = 13, ///< PL013: trigger event missing or negated
  // Semantic analyses (lint/dataflow/analyses.h), behind
  // LintOptions::analyze.
  kSortConflict = 14,       ///< PL014: method derives conflicting sorts
  kContradiction = 15,      ///< PL015: body constraints unsatisfiable
  kDeadRule = 16,           ///< PL016: rule transitively unreachable
  kNonTermination = 17,     ///< PL017: recursive invention cannot stop
  kUnboundedInvention = 18, ///< PL018: invention possibly unbounded
  kUnboundTarget = 19,      ///< PL019: always-unbound target, avoidable
};

/// "PL001", "PL002", ... (always three digits).
std::string LintCodeName(LintCode code);

enum class Severity { kError, kWarning, kNote };

/// "error", "warning", "note".
const char* SeverityName(Severity severity);

/// One finding: a coded, located message plus free-form explanation
/// lines (e.g. the rule chain of an unstratifiable cycle).
struct Diagnostic {
  LintCode code;
  Severity severity;
  /// 1-based source position; 0/0 when the offending clause was built
  /// programmatically and carries no span.
  int line = 0;
  int column = 0;
  std::string message;
  std::vector<std::string> notes;
};

/// The outcome of linting one program.
class LintReport {
 public:
  void Add(Diagnostic diagnostic) {
    diagnostics_.push_back(std::move(diagnostic));
  }
  void Add(LintCode code, Severity severity, int line, int column,
           std::string message, std::vector<std::string> notes = {});

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  size_t errors() const;
  size_t warnings() const;
  bool empty() const { return diagnostics_.empty(); }
  /// True iff the program may be evaluated: no error-severity findings.
  bool ok() const { return errors() == 0; }

  /// True iff any diagnostic carries `code`.
  bool Has(LintCode code) const;

  /// Human rendering, one "file:line:col: severity[PLxxx]: message"
  /// line per diagnostic, notes indented below. `file` prefixes every
  /// line; pass "<input>" or similar for non-file sources.
  std::string ToString(std::string_view file) const;

  /// JSON rendering:
  /// {"file":...,"errors":N,"warnings":N,"diagnostics":[
  ///   {"code":"PL005","severity":"error","line":3,"column":1,
  ///    "message":"...","notes":["..."]}, ...]}
  std::string ToJson(std::string_view file) const;

 private:
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace pathlog

#endif  // PATHLOG_LINT_DIAGNOSTIC_H_
