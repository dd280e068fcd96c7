#include "lint/diagnostic.h"

#include "base/strings.h"
#include "obs/json.h"

namespace pathlog {

std::string LintCodeName(LintCode code) {
  int n = static_cast<int>(code);
  return StrCat("PL", n < 100 ? "0" : "", n < 10 ? "0" : "", n);
}

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "note";
}

void LintReport::Add(LintCode code, Severity severity, int line, int column,
                     std::string message, std::vector<std::string> notes) {
  diagnostics_.push_back(Diagnostic{code, severity, line, column,
                                    std::move(message), std::move(notes)});
}

size_t LintReport::errors() const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity == Severity::kError) ++n;
  }
  return n;
}

size_t LintReport::warnings() const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity == Severity::kWarning) ++n;
  }
  return n;
}

bool LintReport::Has(LintCode code) const {
  for (const Diagnostic& d : diagnostics_) {
    if (d.code == code) return true;
  }
  return false;
}

std::string LintReport::ToString(std::string_view file) const {
  std::string out;
  for (const Diagnostic& d : diagnostics_) {
    out += StrCat(file, ":", d.line, ":", d.column, ": ",
                  SeverityName(d.severity), "[", LintCodeName(d.code), "]: ",
                  d.message, "\n");
    for (const std::string& note : d.notes) {
      out += StrCat("    note: ", note, "\n");
    }
  }
  return out;
}

std::string LintReport::ToJson(std::string_view file) const {
  std::string out = "{\"file\":";
  AppendJsonString(&out, file);
  out += StrCat(",\"errors\":", errors(), ",\"warnings\":", warnings(),
                ",\"diagnostics\":[");
  for (size_t i = 0; i < diagnostics_.size(); ++i) {
    const Diagnostic& d = diagnostics_[i];
    if (i > 0) out += ",";
    out += StrCat("{\"code\":\"", LintCodeName(d.code), "\",\"severity\":\"",
                  SeverityName(d.severity), "\",\"line\":", d.line,
                  ",\"column\":", d.column, ",\"message\":");
    AppendJsonString(&out, d.message);
    out += ",\"notes\":[";
    for (size_t j = 0; j < d.notes.size(); ++j) {
      if (j > 0) out += ",";
      AppendJsonString(&out, d.notes[j]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace pathlog
