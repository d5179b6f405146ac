#include "scenario/scenario.hpp"

#include <cctype>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "sim/method.hpp"
#include "util/strings.hpp"

namespace mrsc::scenario {

namespace {

using util::trim;

// The whole file at `path`; an unreadable path is a runtime failure.
std::string read_file(const char* what, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error(std::string(what) + ": cannot open '" + path +
                             "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

[[noreturn]] void fail(std::size_t line_number, const std::string& message) {
  throw std::invalid_argument("parse_scenario: line " +
                              std::to_string(line_number) + ": " + message);
}

bool is_identifier(std::string_view text) {
  if (text.empty()) return false;
  if (std::isdigit(static_cast<unsigned char>(text.front())) != 0) {
    return false;
  }
  for (const char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_') {
      return false;
    }
  }
  return true;
}

/// util::split_commas with every field trimmed ("a, b" is {"a", "b"}).
std::vector<std::string> split_commas(std::string_view text) {
  std::vector<std::string> out = util::split_commas(std::string(text));
  for (std::string& field : out) field = std::string(trim(field));
  return out;
}

std::uint64_t parse_uint(std::size_t line, const std::string& key,
                         const std::string& value) {
  const std::optional<std::uint64_t> parsed = util::parse_u64(value);
  if (!parsed) {
    fail(line, "key '" + key + "': '" + value +
                   "' is not a non-negative integer");
  }
  return *parsed;
}

double parse_number(std::size_t line, const std::string& key,
                    const std::string& value) {
  const std::optional<double> parsed = util::parse_finite_double(value);
  if (!parsed) {
    fail(line, "key '" + key + "': '" + value + "' is not a number");
  }
  return *parsed;
}

/// One "key=value" or bare-flag token of a budget directive.
struct Token {
  std::string key;
  std::string value;
  bool has_value = false;
};

std::vector<Token> tokenize(std::string_view body) {
  std::vector<Token> tokens;
  std::istringstream stream{std::string(body)};
  std::string word;
  while (stream >> word) {
    Token token;
    const std::size_t eq = word.find('=');
    if (eq == std::string::npos) {
      token.key = word;
    } else {
      token.key = word.substr(0, eq);
      token.value = word.substr(eq + 1);
      token.has_value = true;
    }
    tokens.push_back(std::move(token));
  }
  return tokens;
}

std::string require_value(std::size_t line, const Token& token) {
  if (!token.has_value || token.value.empty()) {
    fail(line, "key '" + token.key + "' needs a value (key=value)");
  }
  return token.value;
}

void parse_sim(std::size_t line, std::string_view body, SimBudget& sim) {
  for (const Token& token : tokenize(body)) {
    const std::string value = require_value(line, token);
    if (token.key == "method") {
      if (!sim::parse_method(value)) {
        fail(line, "key 'method': unknown method '" + value +
                       "' (expected dp45|rk4|be|ssa|nrm|tau)");
      }
      sim.method = value;
    } else if (token.key == "t_end") {
      const double t_end = parse_number(line, token.key, value);
      if (!(t_end > 0.0)) fail(line, "key 't_end' must be > 0");
      sim.t_end = t_end;
    } else if (token.key == "record") {
      const double record = parse_number(line, token.key, value);
      if (record < 0.0) fail(line, "key 'record' must be >= 0");
      sim.record = record;
    } else if (token.key == "omega") {
      const double omega = parse_number(line, token.key, value);
      if (!(omega > 0.0)) fail(line, "key 'omega' must be > 0");
      sim.omega = omega;
    } else if (token.key == "seed") {
      sim.seed = parse_uint(line, token.key, value);
    } else {
      fail(line, "unknown @sim key '" + token.key +
                     "' (expected method|t_end|record|omega|seed)");
    }
  }
}

void parse_lint(std::size_t line, std::string_view body, LintBudget& lint) {
  for (const Token& token : tokenize(body)) {
    if (token.key == "werror") {
      if (token.has_value) fail(line, "key 'werror' takes no value");
      lint.werror = true;
    } else if (token.key == "checks") {
      lint.checks = split_commas(require_value(line, token));
      if (lint.checks.empty()) fail(line, "key 'checks' needs names");
    } else {
      fail(line, "unknown @lint key '" + token.key +
                     "' (expected checks|werror)");
    }
  }
}

void parse_verify(std::size_t line, std::string_view body,
                  VerifyBudget& verify) {
  for (const Token& token : tokenize(body)) {
    const std::string value = require_value(line, token);
    if (token.key == "seeds") {
      const std::uint64_t seeds = parse_uint(line, token.key, value);
      if (seeds == 0) fail(line, "key 'seeds' must be >= 1");
      verify.seeds = static_cast<std::size_t>(seeds);
    } else if (token.key == "start_seed") {
      verify.start_seed = parse_uint(line, token.key, value);
    } else {
      fail(line, "unknown @verify key '" + token.key +
                     "' (expected seeds|start_seed)");
    }
  }
}

void parse_stress(std::size_t line, std::string_view body,
                  StressBinding& stress) {
  for (const Token& token : tokenize(body)) {
    const std::string value = require_value(line, token);
    if (token.key == "fault") {
      stress.fault = value;
    } else if (token.key == "trials") {
      const std::uint64_t trials = parse_uint(line, token.key, value);
      if (trials == 0) fail(line, "key 'trials' must be >= 1");
      stress.trials = static_cast<std::size_t>(trials);
    } else if (token.key == "intensities") {
      stress.intensities.clear();
      double previous = 0.0;
      for (const std::string& item : split_commas(value)) {
        const double intensity = parse_number(line, token.key, item);
        if (!(intensity > previous)) {
          fail(line, "key 'intensities' must be positive and ascending");
        }
        previous = intensity;
        stress.intensities.push_back(intensity);
      }
      if (stress.intensities.empty()) {
        fail(line, "key 'intensities' needs at least one value");
      }
    } else {
      fail(line, "unknown @stress key '" + token.key +
                     "' (expected fault|intensities|trials)");
    }
  }
}

}  // namespace

std::string SpecCall::canonical() const {
  std::string out = name;
  if (!args.empty()) {
    out += '(';
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(args[i]);
    }
    out += ')';
  }
  return out;
}

SpecCall parse_spec(std::string_view text) {
  const std::string_view spec = trim(text);
  if (spec.empty()) {
    throw std::invalid_argument("scenario spec: empty spec");
  }
  SpecCall call;
  const std::size_t open = spec.find('(');
  if (open == std::string_view::npos) {
    call.name = std::string(spec);
    if (!is_identifier(call.name)) {
      throw std::invalid_argument("scenario spec: '" + call.name +
                                  "' is not a valid design name");
    }
    return call;
  }
  call.name = std::string(trim(spec.substr(0, open)));
  if (!is_identifier(call.name)) {
    throw std::invalid_argument("scenario spec: '" + call.name +
                                "' is not a valid design name");
  }
  if (spec.back() != ')') {
    throw std::invalid_argument("scenario spec: '" + std::string(spec) +
                                "' is missing the closing ')'");
  }
  const std::string_view body =
      trim(spec.substr(open + 1, spec.size() - open - 2));
  if (body.empty()) {
    throw std::invalid_argument("scenario spec: '" + call.name +
                                "()' has no arguments (drop the parentheses "
                                "for the default design)");
  }
  std::size_t start = 0;
  while (start <= body.size()) {
    std::size_t comma = body.find(',', start);
    if (comma == std::string_view::npos) comma = body.size();
    const std::string item{trim(body.substr(start, comma - start))};
    const std::optional<std::uint64_t> value = util::parse_u64(item);
    if (!value) {
      throw std::invalid_argument("scenario spec: argument '" + item +
                                  "' of '" + call.name +
                                  "' is not a non-negative integer");
    }
    call.args.push_back(*value);
    if (comma == body.size()) break;
    start = comma + 1;
  }
  return call;
}

Scenario parse_scenario_text(const std::string& text) {
  Scenario scenario;
  std::istringstream stream(text);
  std::string raw_line;
  std::size_t line_number = 0;
  bool saw_header = false;
  bool in_network = false;
  bool saw_network = false;

  while (std::getline(stream, raw_line)) {
    ++line_number;
    if (in_network) {
      if (trim(raw_line) == "@end") {
        in_network = false;
        continue;
      }
      scenario.network_text += raw_line;
      scenario.network_text += '\n';
      continue;
    }
    const std::string_view line = trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    if (line.front() != '@') {
      fail(line_number, "expected a @directive, got '" + std::string(line) +
                            "'");
    }
    const std::size_t space = line.find_first_of(" \t");
    const std::string directive{line.substr(0, space)};
    const std::string_view body =
        space == std::string_view::npos ? std::string_view{}
                                        : trim(line.substr(space + 1));
    if (!saw_header && directive != "@scenario") {
      fail(line_number, "the first directive must be '@scenario NAME'");
    }
    if (directive == "@scenario") {
      if (saw_header) fail(line_number, "duplicate @scenario directive");
      if (!is_identifier(std::string(body))) {
        fail(line_number, "@scenario needs a valid identifier name");
      }
      scenario.name = std::string(body);
      saw_header = true;
    } else if (directive == "@describe") {
      scenario.description = std::string(body);
    } else if (directive == "@design") {
      if (!scenario.design.empty()) {
        fail(line_number, "duplicate @design directive");
      }
      if (saw_network) {
        fail(line_number, "@design and @network are mutually exclusive");
      }
      if (body.empty()) fail(line_number, "@design needs a spec");
      try {
        scenario.design = parse_spec(body).canonical();
      } catch (const std::exception& error) {
        fail(line_number, error.what());
      }
    } else if (directive == "@network") {
      if (saw_network) fail(line_number, "duplicate @network block");
      if (!scenario.design.empty()) {
        fail(line_number, "@design and @network are mutually exclusive");
      }
      in_network = true;
      saw_network = true;
    } else if (directive == "@roots") {
      scenario.roots = split_commas(body);
      if (scenario.roots.empty()) {
        fail(line_number, "@roots needs species names");
      }
    } else if (directive == "@sim") {
      parse_sim(line_number, body, scenario.sim);
    } else if (directive == "@lint") {
      parse_lint(line_number, body, scenario.lint);
    } else if (directive == "@verify") {
      parse_verify(line_number, body, scenario.verify);
    } else if (directive == "@stress") {
      parse_stress(line_number, body, scenario.stress);
    } else {
      fail(line_number,
           "unknown directive '" + directive +
               "' (expected @scenario|@describe|@design|@network|@roots|"
               "@sim|@lint|@verify|@stress)");
    }
  }
  if (in_network) fail(line_number, "@network block is missing its @end");
  if (!saw_header) fail(line_number, "missing '@scenario NAME' directive");
  if (scenario.design.empty() && scenario.network_text.empty()) {
    fail(line_number, "scenario needs a @design spec or a @network block");
  }
  return scenario;
}

Scenario load_scenario_file(const std::string& path) {
  const std::string text = read_file("load_scenario", path);
  try {
    return parse_scenario_text(text);
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument(path + ": " + error.what());
  }
}

Scenario load_network_file(const std::string& path) {
  Scenario scenario;
  scenario.name = path;
  scenario.network_text = read_file("load_network", path);
  return scenario;
}

}  // namespace mrsc::scenario
