// Umbrella header: the PathLog public API.
//
// PathLog — "Access to Objects by Path Expressions and Rules"
// (J. Frohn, G. Lausen, H. Uphoff; VLDB 1994) — is a deductive rule
// language for object-oriented databases whose building blocks are
// paths (p1..assistants.salary) and molecules (X:employee[age->30]),
// mutually nestable, usable both as references to objects and as
// formulas, including references to *virtual* objects defined by rules.
//
// Typical use:
//
//   #include "pathlog/pathlog.h"
//
//   pathlog::Database db;
//   auto st = db.Load(R"(
//     mary : employee[age->30; city->newYork].
//     mary[vehicles->>{car1}].
//     car1 : automobile[cylinders->4; color->red].
//     X[desc->>{Y}] <- X[kids->>{Y}].
//     X[desc->>{Y}] <- X..desc[kids->>{Y}].
//   )");
//   auto colors = db.Eval("mary..vehicles:automobile[cylinders->4].color");
//   auto rs = db.Query("?- X:employee[age->30]..vehicles.color[Z].");

#ifndef PATHLOG_PATHLOG_H_
#define PATHLOG_PATHLOG_H_

#include "ast/analysis.h"       // IWYU pragma: export
#include "ast/printer.h"        // IWYU pragma: export
#include "ast/program.h"        // IWYU pragma: export
#include "ast/ref.h"            // IWYU pragma: export
#include "base/result.h"        // IWYU pragma: export
#include "base/status.h"        // IWYU pragma: export
#include "eval/engine.h"        // IWYU pragma: export
#include "lint/diagnostic.h"    // IWYU pragma: export
#include "lint/lint.h"          // IWYU pragma: export
#include "net/stats_server.h"   // IWYU pragma: export
#include "obs/flight_recorder.h"  // IWYU pragma: export
#include "obs/metrics.h"        // IWYU pragma: export
#include "obs/obs.h"            // IWYU pragma: export
#include "obs/profile.h"        // IWYU pragma: export
#include "obs/query_log.h"      // IWYU pragma: export
#include "parser/parser.h"      // IWYU pragma: export
#include "query/database.h"     // IWYU pragma: export
#include "query/result_set.h"   // IWYU pragma: export
#include "semantics/valuation.h"  // IWYU pragma: export
#include "store/object_store.h"   // IWYU pragma: export
#include "types/type_check.h"     // IWYU pragma: export

#endif  // PATHLOG_PATHLOG_H_
