#include "lint/diagnostics.hpp"

#include "util/json.hpp"

namespace mrsc::lint {

namespace {

using util::json::quote;
using util::json::string_array;
using util::json::Value;

std::string json_string_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += quote(items[i]);
  }
  out += "]";
  return out;
}

}  // namespace

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

std::size_t LintReport::count(Severity severity) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

bool LintReport::clean(bool werror) const {
  if (errors() > 0) return false;
  if (werror && warnings() > 0) return false;
  return true;
}

bool LintReport::has(const std::string& id) const {
  for (const Diagnostic& d : diagnostics) {
    if (d.id == id) return true;
  }
  return false;
}

std::string LintReport::to_text(bool show_info) const {
  std::string out;
  if (!design.empty()) out += "lint: " + design + "\n";
  for (const Diagnostic& d : diagnostics) {
    if (!show_info && d.severity == Severity::kInfo) continue;
    out += std::string(to_string(d.severity)) + " " + d.id + " [" + d.check +
           "] " + d.message + "\n";
    for (const std::string& note : d.notes) {
      out += "    note: " + note + "\n";
    }
  }
  for (const std::string& skipped : checks_skipped) {
    out += "skipped " + skipped + "\n";
  }
  out += std::to_string(errors()) + " error(s), " +
         std::to_string(warnings()) + " warning(s); " +
         std::to_string(checks_run.size()) + " check(s) run, " +
         std::to_string(checks_skipped.size()) + " skipped\n";
  return out;
}

std::string LintReport::to_json() const {
  std::string out = "{\n";
  out += "  \"design\": " + quote(design) + ",\n";
  out += "  \"checks_run\": " + json_string_array(checks_run) + ",\n";
  out += "  \"checks_skipped\": " + json_string_array(checks_skipped) + ",\n";
  out += "  \"errors\": " + std::to_string(errors()) + ",\n";
  out += "  \"warnings\": " + std::to_string(warnings()) + ",\n";
  out += "  \"diagnostics\": [";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i > 0) out += ",";
    out += "\n    {\"id\": " + quote(d.id);
    out += ", \"severity\": " + quote(to_string(d.severity));
    out += ", \"check\": " + quote(d.check);
    out += ", \"message\": " + quote(d.message);
    out += ", \"notes\": " + json_string_array(d.notes) + "}";
  }
  if (!diagnostics.empty()) out += "\n  ";
  out += "]\n";
  out += "}\n";
  return out;
}

Value LintReport::to_value() const {
  Value out;
  out.set("design", Value(design));
  out.set("checks_run", string_array(checks_run));
  out.set("checks_skipped", string_array(checks_skipped));
  out.set("errors", Value(static_cast<double>(errors())));
  out.set("warnings", Value(static_cast<double>(warnings())));
  Value list;
  std::vector<Value>& array = list.array();
  array.reserve(diagnostics.size());
  for (const Diagnostic& d : diagnostics) {
    Value entry;
    entry.set("id", Value(d.id));
    entry.set("severity", Value(std::string(to_string(d.severity))));
    entry.set("check", Value(d.check));
    entry.set("message", Value(d.message));
    entry.set("notes", string_array(d.notes));
    array.push_back(std::move(entry));
  }
  out.set("diagnostics", std::move(list));
  return out;
}

}  // namespace mrsc::lint
