// Whole-program static analysis for PathLog: the ProgramLinter runs a
// battery of checks over a parsed Program *before* evaluation and
// reports coded, source-located diagnostics (lint/diagnostic.h).
//
// The checks and their codes:
//   PL001 (error)   source text does not parse (LintSource only)
//   PL002 (error)   ill-formed reference: Definition 3 / scalarity
//                   flavour misuse, located at the smallest offending
//                   sub-reference
//   PL003 (error)   set-valued reference as a rule head (section 6)
//   PL004 (error)   head is a bare name or variable (asserts nothing)
//   PL005 (error)   safety / range restriction: a head variable not
//                   bound by any positive body literal, a non-ground
//                   fact, or an unorderable conjunction
//   PL006 (warning) variable occurs only under negation
//   PL007 (error)   not stratifiable: needs-complete cycle, explained
//                   as the offending rule chain plus the closing
//                   `->>`/negation edge (section 6, [NT89])
//   PL008 (warning) method used in a body has no declared signature
//                   (only when the program declares signatures)
//   PL009 (warning) scalar use of a method whose signatures are all
//                   set-valued, or vice versa ([KLW93]-style check)
//   PL010 (warning) singleton variable (occurs exactly once in its
//                   rule; prefix with '_' to silence)
//   PL011 (warning) rule can never fire: a positive body literal reads
//                   a method that no fact, rule head, or signature in
//                   scope defines
//   PL012 (warning) a head path defines a virtual object through a
//                   method no signature types (section 6 recommends
//                   signature-typed virtual objects)
//   PL013 (error)   trigger without an event literal, or with a
//                   negated event
//
// With LintOptions::analyze, the dataflow analyses
// (lint/dataflow/analyses.h) add:
//   PL014 (warning) method derives results of conflicting sorts, or a
//                   comparison guard applies to a provably non-integer
//   PL015 (warning) contradictory in-body constraints (guard intervals
//                   meet to nothing, or one scalar method pinned to two
//                   ground values for the same receiver)
//   PL016 (warning) rule transitively unreachable: every body method is
//                   defined somewhere, but only by rules that can
//                   themselves never fire (deeper than PL011)
//   PL017 (error)   materialisation provably cannot terminate:
//                   recursive object invention re-derives its own
//                   premise for each invented object
//   PL018 (warning) recursive object invention possibly unbounded
//                   through a rule cycle
//   PL019 (warning) rule always evaluates a literal with an unbound
//                   target (no index probe possible) although an
//                   admissible reordering avoids it
//
// Entry points: ProgramLinter::Lint for a parsed Program,
// ProgramLinter::LintSource for raw text (parse failures become
// PL001), Database::Lint() for an installed database, the
// `pathlog_lint` CLI, and `\lint` in the shell.

#ifndef PATHLOG_LINT_LINT_H_
#define PATHLOG_LINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <string_view>

#include "ast/program.h"
#include "base/status.h"
#include "eval/head_assert.h"
#include "lint/dataflow/domains.h"
#include "lint/diagnostic.h"

namespace pathlog {

struct LintOptions {
  /// The engine's head-value mode: in kSkolemize mode head value paths
  /// define virtual objects, which changes the dependency graph.
  HeadValueMode head_value_mode = HeadValueMode::kRequireDefined;

  /// Methods to treat as defined even though no fact or rule head in
  /// the linted program defines them — e.g. methods with extensional
  /// facts already in a Database's store. Affects PL011, and seeds the
  /// analyze pass's reachability fixpoint live.
  std::set<std::string> assume_defined;

  /// Skip warning-severity checks (PL006, PL008-PL012); errors only.
  /// The analyze pass still runs when requested — PL017 is an error —
  /// but drops its warning-severity findings.
  bool errors_only = false;

  /// Run the semantic dataflow analyses (lint/dataflow/analyses.h):
  /// PL014-PL019. Off by default; enabled by `pathlog_lint --analyze`,
  /// the shell's `\lint`, and Database::Lint().
  bool analyze = false;

  /// Observed value sorts of the assume_defined methods (a Database's
  /// store contents), seeding the analyze pass's type-flow fixpoint.
  std::map<std::string, SortSet> extensional_sorts;
};

class ProgramLinter {
 public:
  ProgramLinter() = default;
  explicit ProgramLinter(LintOptions options) : options_(std::move(options)) {}

  /// Lints a parsed program: rules, facts, triggers, queries, and
  /// signature declarations.
  LintReport Lint(const Program& program) const;

  /// Parses and lints `source`; parse failures yield a single PL001
  /// diagnostic instead of a Status.
  LintReport LintSource(std::string_view source) const;

 private:
  LintOptions options_;
};

}  // namespace pathlog

#endif  // PATHLOG_LINT_LINT_H_
