// The shared CLI flag parser, number grammar and file writer
// (tools/cli_flags), the comma-list splitter (util/strings), the "%.17g"
// number formatter (util::format_17g and json::number_to_string) and JSON
// string escaping (util/json::quote): one implementation each, pinned by
// grammar tables.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "tools/cli_flags.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace mrsc {
namespace {

struct U64Case {
  const char* text;
  bool ok;
  std::uint64_t value;
};

TEST(CliFlags, U64AcceptsDigitsOnly) {
  const U64Case cases[] = {
      {"0", true, 0},
      {"7", true, 7},
      {"18446744073709551615", true, 18446744073709551615ULL},
      {"18446744073709551616", false, 0},
      // The count flags (--workers, --jobs, --threads, --replicates) parse
      // through here too, so "-1" can no longer wrap to 2^64 - 1 threads.
      {"-1", false, 0},
      {"+1", false, 0},
      {" 7", false, 0},
      {"7 ", false, 0},
      {"", false, 0},
      {"1e3", false, 0},
      {"0x10", false, 0},
      {"banana", false, 0},
  };
  for (const U64Case& c : cases) {
    std::uint64_t out = 0;
    testing::internal::CaptureStderr();
    const bool ok = tools::parse_u64("mrsc_x", "--seed", c.text, out);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(ok, c.ok) << "'" << c.text << "'";
    if (c.ok) {
      EXPECT_EQ(out, c.value) << "'" << c.text << "'";
      EXPECT_EQ(err, "");
    } else {
      EXPECT_EQ(err, "mrsc_x: --seed: '" + std::string(c.text) +
                         "' is not a whole number\n");
    }
  }
}

struct DoubleCase {
  const char* text;
  bool ok;
  double value;
};

TEST(CliFlags, DoubleRejectsNonFinite) {
  const DoubleCase cases[] = {
      {"1e-3", true, 1e-3},
      {"-5", true, -5.0},  // parses; range checks belong to each flag
      {"0.25", true, 0.25},
      {"nan", false, 0.0},
      {"NaN", false, 0.0},
      {"inf", false, 0.0},
      {"-inf", false, 0.0},
      {"infinity", false, 0.0},
      {"1e999", false, 0.0},
      {"", false, 0.0},
      {"1.5x", false, 0.0},
      {"banana", false, 0.0},
  };
  for (const DoubleCase& c : cases) {
    double out = 0.0;
    testing::internal::CaptureStderr();
    const bool ok = tools::parse_double("mrsc_x", "--omega", c.text, out);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(ok, c.ok) << "'" << c.text << "'";
    if (c.ok) {
      EXPECT_EQ(out, c.value) << "'" << c.text << "'";
      EXPECT_EQ(err, "");
    } else {
      EXPECT_EQ(err, "mrsc_x: --omega: '" + std::string(c.text) +
                         "' is not a number\n");
    }
  }
}

TEST(CliFlags, NeedValueAdvancesOrReports) {
  char prog[] = "mrsc_x";
  char flag[] = "--seed";
  char value[] = "3";
  char* argv[] = {prog, flag, value};
  int i = 1;
  EXPECT_STREQ(tools::need_value("mrsc_x", 3, argv, i), "3");
  EXPECT_EQ(i, 2);

  i = 1;
  testing::internal::CaptureStderr();
  EXPECT_EQ(tools::need_value("mrsc_x", 2, argv, i), nullptr);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "mrsc_x: --seed needs a value\n");
  EXPECT_EQ(i, 1);
}

// mrsc_serve --cache-mb: N MiB is N << 20 bytes, which wraps a 64-bit size
// from N = 2^44 on.
TEST(CliFlags, MebibytesRejectsSizesThatWrap) {
  static_assert(sizeof(std::size_t) == 8, "the bound assumes a 64-bit size_t");
  std::size_t bytes = 0;
  ASSERT_TRUE(
      tools::parse_mebibytes("mrsc_serve", "--cache-mb", "64", bytes));
  EXPECT_EQ(bytes, std::size_t{64} << 20);

  ASSERT_TRUE(tools::parse_mebibytes("mrsc_serve", "--cache-mb",
                                     "17592186044415", bytes));  // 2^44 - 1
  EXPECT_EQ(bytes, std::size_t{17592186044415ULL} << 20);
  EXPECT_EQ(bytes >> 20, 17592186044415ULL);

  bytes = 0;
  testing::internal::CaptureStderr();
  EXPECT_FALSE(tools::parse_mebibytes("mrsc_serve", "--cache-mb",
                                      "17592186044416", bytes));  // 2^44
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "mrsc_serve: --cache-mb must be at most 17592186044415\n");
  EXPECT_EQ(bytes, 0u);

  testing::internal::CaptureStderr();
  EXPECT_FALSE(
      tools::parse_mebibytes("mrsc_serve", "--cache-mb", "-1", bytes));
  (void)testing::internal::GetCapturedStderr();
}

// Runs `parser` over `args` (argv[0] is added), capturing stderr.
struct ParseRun {
  bool ok;
  std::string err;
};

ParseRun run(tools::FlagParser& parser, std::vector<std::string> args) {
  args.insert(args.begin(), "mrsc_x");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  testing::internal::CaptureStderr();
  const bool ok = parser.parse(static_cast<int>(argv.size()), argv.data());
  return {ok, testing::internal::GetCapturedStderr()};
}

// One destination of every kind, as a CLI's options struct holds them.
struct Options {
  double omega = 0.0;
  std::uint64_t seed = 0;
  std::size_t jobs = 0;
  std::string method;
  std::vector<std::string> species;
  std::vector<double> ratios;
  bool plot = false;
  bool shrink = true;
  int opt = 0;
  std::string file;
};

tools::FlagParser table(Options& o) {
  tools::FlagParser parser("mrsc_x", {
      {"--omega", o.omega},
      {"--seed", o.seed},
      {"--jobs", o.jobs},
      {"--method", o.method},
      {"--species", o.species},
      {"--ratios", o.ratios},
      {"--plot", o.plot},
      {"--no-shrink", o.shrink, false},
      {"--opt",
       [&o](const char* value) {
         return tools::parse_opt_level("mrsc_x", value, o.opt);
       }},
  });
  return parser;
}

TEST(FlagParser, EveryValueKind) {
  Options o;
  tools::FlagParser parser = table(o);
  parser.positional(o.file, "multiple input files");
  const ParseRun r =
      run(parser, {"--omega", "-5", "--seed", "7", "--jobs", "3", "in.crn",
                   "--method", "nrm", "--species", "a,b", "--ratios",
                   "10,1e3", "--plot", "--no-shrink", "--opt", "1"});
  ASSERT_TRUE(r.ok) << r.err;
  EXPECT_EQ(r.err, "");
  EXPECT_EQ(o.omega, -5.0);  // a value may start with '-'
  EXPECT_EQ(o.seed, 7u);
  EXPECT_EQ(o.jobs, 3u);
  EXPECT_EQ(o.method, "nrm");
  EXPECT_EQ(o.species, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(o.ratios, (std::vector<double>{10.0, 1000.0}));
  EXPECT_TRUE(o.plot);
  EXPECT_FALSE(o.shrink);
  EXPECT_EQ(o.opt, 1);
  EXPECT_EQ(o.file, "in.crn");
}

TEST(FlagParser, ReportsEachErrorOnce) {
  struct Case {
    std::vector<std::string> args;
    std::string err;
  };
  const Case cases[] = {
      {{"--seed"}, "mrsc_x: --seed needs a value\n"},
      {{"--plot", "--method"}, "mrsc_x: --method needs a value\n"},
      {{"--banana"}, "mrsc_x: unknown option --banana\n"},
      {{"--banana", "1", "--seed", "2"}, "mrsc_x: unknown option --banana\n"},
      {{"-"}, "mrsc_x: unknown option -\n"},
      {{"stray"}, "mrsc_x: unknown option stray\n"},
      {{"--seed", "-1"}, "mrsc_x: --seed: '-1' is not a whole number\n"},
      {{"--omega", "nan"}, "mrsc_x: --omega: 'nan' is not a number\n"},
      {{"--ratios", "1,x"}, "mrsc_x: --ratios: 'x' is not a number\n"},
      {{"--ratios", ""}, "mrsc_x: --ratios needs at least one value\n"},
      {{"--opt", "2"}, "mrsc_x: --opt must be 0 or 1\n"},
  };
  for (const Case& c : cases) {
    Options o;
    tools::FlagParser parser = table(o);
    const ParseRun r = run(parser, c.args);
    EXPECT_FALSE(r.ok) << c.err;
    EXPECT_EQ(r.err, c.err);
  }
}

// The service CLIs print their usage after an unknown option only.
int usage_calls = 0;
void count_usage() { ++usage_calls; }

TEST(FlagParser, UsageFollowsUnknownOptionsOnly) {
  Options o;
  tools::FlagParser parser = table(o);
  parser.usage_on_unknown(count_usage);
  usage_calls = 0;
  EXPECT_FALSE(run(parser, {"--seed"}).ok);
  EXPECT_FALSE(run(parser, {"--seed", "x"}).ok);
  EXPECT_EQ(usage_calls, 0);
  EXPECT_FALSE(run(parser, {"--seed", "1", "--banana"}).ok);
  EXPECT_EQ(usage_calls, 1);
}

TEST(FlagParser, RepeatedFlagKeepsTheLastValue) {
  Options o;
  tools::FlagParser parser = table(o);
  const ParseRun r = run(parser, {"--seed", "1", "--species", "a,b",
                                  "--ratios", "1,2", "--seed", "2",
                                  "--species", "c", "--ratios", "3"});
  ASSERT_TRUE(r.ok) << r.err;
  EXPECT_EQ(o.seed, 2u);
  EXPECT_EQ(o.species, std::vector<std::string>{"c"});
  EXPECT_EQ(o.ratios, std::vector<double>{3.0});
}

TEST(FlagParser, OnePositional) {
  Options o;
  tools::FlagParser parser = table(o);
  parser.positional(o.file, "multiple input files");
  EXPECT_TRUE(run(parser, {"a.crn", "--seed", "1"}).ok);
  EXPECT_EQ(o.file, "a.crn");

  Options p;
  tools::FlagParser twice = table(p);
  twice.positional(p.file, "multiple input files");
  const ParseRun r = run(twice, {"a.crn", "b.crn"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.err, "mrsc_x: multiple input files\n");
  EXPECT_EQ(p.file, "a.crn");
}

TEST(FlagParser, GivenNamesThePassedFlags) {
  Options o;
  tools::FlagParser parser = table(o);
  ASSERT_TRUE(run(parser, {"--seed", "0", "--plot", "--seed", "4"}).ok);
  EXPECT_EQ(parser.given(), (tools::GivenFlags{"--plot", "--seed"}));
  EXPECT_TRUE(parser.given().contains("--seed"));
  EXPECT_FALSE(parser.given().contains("--omega"));
}

TEST(WriteFile, RoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mrsc_write_file_test.csv")
          .string();
  testing::internal::CaptureStdout();
  ASSERT_TRUE(tools::write_file("mrsc_x", path, "a,b\n1,2\n", "trajectory"));
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "trajectory written to " + path + "\n");
  std::ifstream file(path);
  const std::string text((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text, "a,b\n1,2\n");
  std::remove(path.c_str());
}

TEST(WriteFile, UnwritablePathReturnsFalse) {
  testing::internal::CaptureStderr();
  EXPECT_FALSE(tools::write_file("mrsc_x", "/nonexistent_dir/x.csv", "data"));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "mrsc_x: cannot write /nonexistent_dir/x.csv\n");
}

struct SplitCase {
  const char* text;
  std::vector<std::string> fields;
};

TEST(SplitCommas, Table) {
  const SplitCase cases[] = {
      {"", {}},
      {"a", {"a"}},
      {"a,", {"a"}},
      {",a", {"", "a"}},
      {"a,,b", {"a", "", "b"}},
      {"a,b", {"a", "b"}},
      {",", {""}},
      {"a,b,,", {"a", "b", ""}},
      {" a , b", {" a ", " b"}},
  };
  for (const SplitCase& c : cases) {
    EXPECT_EQ(util::split_commas(c.text), c.fields) << "'" << c.text << "'";
  }
}

// The reference the formatter must match byte for byte.
std::string printf_17g(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

// number_to_string's reference: the integer shortcut, else "%.17g".
std::string printf_number(double value) {
  if (value == std::floor(value) && std::abs(value) < 9.2e18) {
    return std::to_string(static_cast<long long>(value));
  }
  return printf_17g(value);
}

TEST(Format17g, SpecialValuesMatchPrintf) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values = {
      0.0, -0.0, kInf, -kInf, kNan, -kNan,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN, std::nextafter(DBL_MIN, 0.0), 4.9e-300,
      9007199254740993.0,  // 2^53 + 1, rounded to 2^53
      9.2e18, -9.2e18, std::nextafter(9.2e18, 0.0), 1e21, 1e22, DBL_MAX,
      -DBL_MAX, 0.1, 0.185, 1.0 / 3.0, -2.5, 1e-5, 123456789.125, 1e16,
      1e17, 5e-324, 0.30000000000000004};
  for (const double value : values) {
    EXPECT_EQ(util::format_17g(value), printf_17g(value)) << printf_17g(value);
    EXPECT_EQ(util::json::number_to_string(value), printf_number(value))
        << printf_17g(value);
  }
  EXPECT_EQ(util::format_17g(-0.0), "-0");
  EXPECT_EQ(util::format_17g(kInf), "inf");
  EXPECT_EQ(util::json::number_to_string(-0.0), "0");
}

TEST(Format17g, SeededRandomBitPatternsMatchPrintf) {
  // Uniform bit patterns cover every exponent, subnormals, infinities and
  // NaN payloads; the second half draws ordinary magnitudes, where the
  // integer shortcut and short decimal spellings live.
  std::mt19937_64 rng(0x17A);
  std::uniform_real_distribution<double> exponent(-30.0, 30.0);
  std::size_t mismatches = 0;
  for (int i = 0; i < 100'000; ++i) {
    const double value =
        i % 2 == 0 ? std::bit_cast<double>(rng())
                   : std::round(std::pow(10.0, exponent(rng)) * 8.0) / 8.0;
    if (util::format_17g(value) != printf_17g(value) ||
        util::json::number_to_string(value) != printf_number(value)) {
      if (++mismatches <= 5) ADD_FAILURE() << printf_17g(value);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonQuote, EscapesEveryControlByte) {
  for (int byte = 0; byte < 0x20; ++byte) {
    const std::string text(1, static_cast<char>(byte));
    std::string expected;
    switch (byte) {
      case '\n': expected = R"("\n")"; break;
      case '\r': expected = R"("\r")"; break;
      case '\t': expected = R"("\t")"; break;
      default: {
        char buffer[16];
        std::snprintf(buffer, sizeof buffer, "\"\\u%04x\"", byte);
        expected = buffer;
      }
    }
    EXPECT_EQ(util::json::quote(text), expected) << "byte " << byte;
    // Whatever the spelling, it parses back to the original byte.
    EXPECT_EQ(util::json::parse(util::json::quote(text)).as_string(), text)
        << "byte " << byte;
  }
}

TEST(JsonQuote, EscapesQuoteAndBackslashOnly) {
  EXPECT_EQ(util::json::quote("a\"b"), R"("a\"b")");
  EXPECT_EQ(util::json::quote("back\\slash"), R"("back\\slash")");
  EXPECT_EQ(util::json::quote(""), R"("")");
  // Printable ASCII, DEL and UTF-8 bytes pass through verbatim.
  EXPECT_EQ(util::json::quote("x/y \x7f \xc3\xa9"), "\"x/y \x7f \xc3\xa9\"");
}

}  // namespace
}  // namespace mrsc
