// Diagnostics for the static CRN analyzer.
//
// Every finding carries a *stable* diagnostic id (e.g. "LINT-RACE-01") that
// tests, CI greps, and downstream tooling key on; ids are never renumbered
// or reused. The catalog lives in docs/LINT.md. A LintReport aggregates the
// findings of one analyzer run together with which checks ran or were
// skipped (a skipped check is not a clean check), and renders itself as a
// fixed-width terminal listing or machine-readable JSON.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace mrsc::lint {

enum class Severity : std::uint8_t { kInfo = 0, kWarning = 1, kError = 2 };

/// Human-readable name ("info"/"warning"/"error").
[[nodiscard]] const char* to_string(Severity severity);

/// One finding of one check.
struct Diagnostic {
  std::string id;        ///< stable id, e.g. "LINT-RACE-01"
  Severity severity = Severity::kInfo;
  std::string check;     ///< registry name of the emitting check
  std::string message;   ///< one-line description with names and numbers
  std::vector<std::string> notes;  ///< supporting detail (reactions, laws)
};

/// Everything one analyzer run produced.
struct LintReport {
  std::string design;  ///< optional: name of the analyzed design/file
  std::vector<std::string> checks_run;
  /// "name: reason" for every registered check that could not run (missing
  /// emission tags, no composition record, ...).
  std::vector<std::string> checks_skipped;
  std::vector<Diagnostic> diagnostics;

  [[nodiscard]] std::size_t count(Severity severity) const;
  [[nodiscard]] std::size_t errors() const { return count(Severity::kError); }
  [[nodiscard]] std::size_t warnings() const {
    return count(Severity::kWarning);
  }

  /// True when nothing at or above the failure threshold fired: errors
  /// always fail; warnings additionally fail when `werror` is set.
  [[nodiscard]] bool clean(bool werror = false) const;

  /// True when a diagnostic with this exact id fired.
  [[nodiscard]] bool has(const std::string& id) const;

  /// Terminal rendering, one line per diagnostic plus notes; infos are
  /// listed only when `show_info`.
  [[nodiscard]] std::string to_text(bool show_info = true) const;

  /// Self-contained JSON (schema documented in docs/LINT.md), pretty-printed
  /// for the CLI.
  [[nodiscard]] std::string to_json() const;

  /// The same document as a JSON value; its dump() is the compact form
  /// serve's lint payload embeds.
  [[nodiscard]] util::json::Value to_value() const;
};

}  // namespace mrsc::lint
