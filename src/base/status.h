// PathLog: status codes and error propagation.
//
// The library never throws for anticipated failures (syntax errors,
// ill-formed references, unstratifiable programs, scalar-method
// conflicts). Every fallible operation returns Status or Result<T>,
// following the idiom of production database codebases.

#ifndef PATHLOG_BASE_STATUS_H_
#define PATHLOG_BASE_STATUS_H_

#include <memory>
#include <ostream>
#include <string>
#include <utility>

namespace pathlog {

/// Machine-readable classification of a failure.
enum class StatusCode {
  kOk = 0,
  /// Lexical or grammatical error in PathLog source text.
  kParseError,
  /// Reference violates Definition 3 (well-formedness) or a structural
  /// rule such as "no set-valued reference as a rule head".
  kIllFormed,
  /// A rule body cannot be ordered so that every variable is bound
  /// before it is consumed (range restriction / safety violation).
  kUnsafeRule,
  /// The program has a cycle through a needs-complete-set or negated
  /// dependency and cannot be stratified (paper section 6, [NT89]).
  kNotStratifiable,
  /// Two derivations assign different results to one scalar method
  /// invocation (scalar methods are partial *functions*).
  kScalarConflict,
  /// A fact or derived fact violates a declared method signature.
  kTypeError,
  /// Lookup of a name, variable, or experiment that does not exist.
  kNotFound,
  /// Arguments to a library call are invalid (not a program bug).
  kInvalidArgument,
  /// Resource limit exceeded (a budget dimension such as bytes,
  /// derivations, facts or objects; the iteration or cascade ceiling).
  kResourceExhausted,
  /// A wall-clock budget (ResourceLimits::max_wall_ms) ran out before
  /// the operation completed.
  kDeadlineExceeded,
  /// An invariant the library promised was broken; indicates a bug.
  kInternal,
  /// The operation cannot be served right now but retrying may help:
  /// transient I/O failures (ENOSPC, EIO) and mutations rejected while
  /// the database is in degraded read-only mode.
  kUnavailable,
  /// The operation was cancelled cooperatively via a CancelToken.
  kCancelled,
};

/// Human-readable name of a status code (e.g. "ParseError").
const char* StatusCodeName(StatusCode code);

/// Result of a fallible operation: a code plus a diagnostic message.
///
/// The OK status carries no allocation; error statuses own their
/// message. Statuses are cheap to move and to test with ok().
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a status with the given code and diagnostic message.
  Status(StatusCode code, std::string message);

  static Status OK() { return Status(); }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }
  /// Diagnostic message; empty for OK.
  const std::string& message() const;

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code() == b.code();
  }

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };
  std::shared_ptr<const Rep> rep_;  // null == OK
};

std::ostream& operator<<(std::ostream& os, const Status& s);

// Convenience constructors, one per error code.
Status ParseError(std::string message);
Status IllFormed(std::string message);
Status UnsafeRule(std::string message);
Status NotStratifiable(std::string message);
Status ScalarConflict(std::string message);
Status TypeError(std::string message);
Status NotFound(std::string message);
Status InvalidArgument(std::string message);
Status ResourceExhausted(std::string message);
Status DeadlineExceeded(std::string message);
Status Internal(std::string message);
Status Unavailable(std::string message);
Status Cancelled(std::string message);

/// Propagates a non-OK status to the caller.
#define PATHLOG_RETURN_IF_ERROR(expr)            \
  do {                                           \
    ::pathlog::Status _st = (expr);              \
    if (!_st.ok()) return _st;                   \
  } while (0)

}  // namespace pathlog

#endif  // PATHLOG_BASE_STATUS_H_
