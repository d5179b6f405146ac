// Tests for the simulation service: JSON layer, result cache, compiled-design
// cache, canonical keys, latency histograms, dispatcher determinism, and
// full client/server round trips (byte-identical cold/cached/restart
// responses, deterministic overload rejection, run slots granted in
// arrival order, concurrent submitters, cooperative shutdown).
#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "lint/lint.hpp"
#include "scenario/registry.hpp"
#include "serve/cache.hpp"
#include "serve/design_cache.hpp"
#include "serve/dispatcher.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/stats.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace mrsc::serve {
namespace {

namespace json = util::json;

// ---------------------------------------------------------------- JSON --

TEST(ServeJson, ParseDumpRoundTripIsByteStable) {
  const std::string text =
      R"({"a":1,"b":"two","c":[true,false,null],"d":{"nested":-2.5},"e":""})";
  const json::Value value = json::parse(text);
  EXPECT_EQ(value.dump(), text);
  // dump(parse(dump(x))) == dump(x): one serialization path, fixed point.
  EXPECT_EQ(json::parse(value.dump()).dump(), text);
}

TEST(ServeJson, ObjectsPreserveInsertionOrder) {
  const json::Value value = json::parse(R"({"z":1,"a":2,"m":3})");
  EXPECT_EQ(value.dump(), R"({"z":1,"a":2,"m":3})");
}

TEST(ServeJson, NumbersUseIntegerShortening) {
  EXPECT_EQ(json::number_to_string(42.0), "42");
  EXPECT_EQ(json::number_to_string(-7.0), "-7");
  EXPECT_EQ(json::number_to_string(0.5), "0.5");
  // Seeds survive a parse -> dump round trip textually.
  EXPECT_EQ(json::parse("123456789").dump(), "123456789");
}

TEST(ServeJson, StringEscapes) {
  const json::Value value = json::parse(R"({"s":"a\"b\\c\nA"})");
  EXPECT_EQ(value.get_string("s", ""), "a\"b\\c\nA");
  EXPECT_EQ(json::quote("tab\there"), R"("tab\there")");
}

TEST(ServeJson, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)json::parse(""), std::invalid_argument);
  EXPECT_THROW((void)json::parse("{"), std::invalid_argument);
  EXPECT_THROW((void)json::parse("{} trailing"), std::invalid_argument);
  EXPECT_THROW((void)json::parse(R"({"a":1e})"), std::invalid_argument);
  EXPECT_THROW((void)json::parse("[1,2,"), std::invalid_argument);
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  EXPECT_THROW((void)json::parse(deep), std::invalid_argument);
}

TEST(ServeJson, TypedAccessorsThrowOnWrongType) {
  const json::Value value = json::parse(R"({"n":1,"s":"x","b":true})");
  EXPECT_EQ(value.get_number("n", 0.0), 1.0);
  EXPECT_EQ(value.get_string("missing", "fallback"), "fallback");
  EXPECT_THROW((void)value.get_string("n", ""), std::invalid_argument);
  EXPECT_THROW((void)value.get_number("s", 0.0), std::invalid_argument);
  EXPECT_THROW((void)value.get_bool("n", false), std::invalid_argument);
}

TEST(ServeJson, IntegerLiteralsAreExactOverTheWholeU64Range) {
  const json::Value value = json::parse(
      R"({"max":18446744073709551615,"big":9007199254740993,"e":1e3,)"
      R"("half":1.5,"neg":-1,"over":18446744073709551616,"s":"7"})");
  EXPECT_EQ(value.get_u64("max", 0), 18446744073709551615ull);
  // 2^53 + 1 has no double; the literal must not round to 2^53.
  EXPECT_EQ(value.get_u64("big", 0), 9007199254740993ull);
  EXPECT_EQ(value.get_u64("e", 0), 1000u);
  EXPECT_EQ(value.get_u64("missing", 42), 42u);
  EXPECT_FALSE(value.get_u64("half", 0).has_value());
  EXPECT_FALSE(value.get_u64("neg", 0).has_value());
  EXPECT_FALSE(value.get_u64("over", 0).has_value());
  EXPECT_THROW((void)value.get_u64("s", 0), std::invalid_argument);
  // The double view of the same literal is unchanged.
  EXPECT_EQ(value.get_number("big", 0.0), 9007199254740992.0);
}

TEST(ServeJson, ExactIntegersDumpDigitForDigit) {
  // 2^53 + 1 and everything above 2^63 round in a double; dump() must print
  // the literal back unchanged.
  for (const std::string text :
       {"0", "9007199254740993", "13757245211066428519",
        "18446744073709551615"}) {
    EXPECT_EQ(json::parse(text).dump(), text);
  }
  EXPECT_EQ(json::Value(std::uint64_t{18446744073709551615ull}).dump(),
            "18446744073709551615");
  EXPECT_EQ(json::Value(std::uint64_t{9007199254740993ull}).as_number(),
            9007199254740992.0);
}

// ----------------------------------------------------------- histogram --

TEST(ServeStats, HistogramPercentilesWithinBucketTolerance) {
  LatencyHistogram histogram;
  for (int i = 1; i <= 1000; ++i) {
    histogram.record(static_cast<double>(i) * 1e-3);  // 1ms .. 1000ms
  }
  EXPECT_EQ(histogram.count(), 1000u);
  EXPECT_DOUBLE_EQ(histogram.max_seconds(), 1.0);
  // Log2 buckets, 4 per octave: estimates must land within ~19% relative.
  EXPECT_NEAR(histogram.percentile(0.50), 0.500, 0.500 * 0.20);
  EXPECT_NEAR(histogram.percentile(0.90), 0.900, 0.900 * 0.20);
  EXPECT_NEAR(histogram.percentile(0.99), 0.990, 0.990 * 0.20);
}

TEST(ServeStats, EmptyHistogramReportsZero) {
  const LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.percentile(0.5), 0.0);
  EXPECT_EQ(histogram.max_seconds(), 0.0);
}

// --------------------------------------------------------------- cache --

TEST(ServeCache, CountsHitsAndMisses) {
  ResultCache cache(4, 1 << 20);
  EXPECT_FALSE(cache.get("k").has_value());
  cache.put("k", "v");
  const auto hit = cache.get("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "v");
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ServeCache, EvictsLeastRecentlyUsedByEntryCount) {
  ResultCache cache(2, 1 << 20);
  cache.put("a", "1");
  cache.put("b", "2");
  ASSERT_TRUE(cache.get("a").has_value());  // refresh "a": "b" is now LRU
  cache.put("c", "3");                      // evicts "b"
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ServeCache, EvictsByTotalBytes) {
  ResultCache cache(100, 64);
  cache.put("a", std::string(30, 'x'));
  cache.put("b", std::string(30, 'y'));
  cache.put("c", std::string(30, 'z'));  // pushes bytes past 64: "a" goes
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_TRUE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_LE(cache.stats().bytes, 64u + 2u);  // keys excluded from the bound
}

TEST(ServeCache, OversizedValueIsNotCached) {
  ResultCache cache(10, 16);
  cache.put("big", std::string(64, 'x'));
  EXPECT_FALSE(cache.get("big").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ServeCache, ZeroCapacityDisablesCaching) {
  ResultCache cache(0, 1 << 20);
  cache.put("k", "v");
  EXPECT_FALSE(cache.get("k").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ----------------------------------------------- compiled-design cache --

TEST(DesignCache, RepeatLookupReturnsTheSameObject) {
  DesignCache cache;
  const std::shared_ptr<const CompiledDesign> first = cache.get("counter", 0);
  const std::shared_ptr<const CompiledDesign> second =
      cache.get("counter", 0);
  EXPECT_EQ(first.get(), second.get());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, first->system.footprint_bytes());
  EXPECT_EQ(first->system.reaction_count(),
            first->built.network->reaction_count());
}

TEST(DesignCache, KeyedByDesignAndOpt) {
  DesignCache cache;
  const auto o0 = cache.get("counter(2)", 0);
  const auto o1 = cache.get("counter(2)", 1);
  const auto other = cache.get("counter(3)", 0);
  EXPECT_NE(o0.get(), o1.get());
  EXPECT_NE(o0.get(), other.get());
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.get("counter(2)", 1).get(), o1.get());
}

TEST(DesignCache, EvictsLeastRecentlyUsedAtTheExactEntryBound) {
  DesignCache cache(2, DesignCache::kCapacityBytes);
  (void)cache.get("counter", 0);
  (void)cache.get("delay", 0);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  (void)cache.get("counter", 0);  // refresh: "delay" is now LRU
  (void)cache.get("seqdet", 0);   // third entry: evicts "delay"
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  const std::uint64_t misses = cache.stats().misses;
  (void)cache.get("counter", 0);
  EXPECT_EQ(cache.stats().misses, misses);
  (void)cache.get("delay", 0);
  EXPECT_EQ(cache.stats().misses, misses + 1);
}

TEST(DesignCache, EvictsLeastRecentlyUsedAtTheExactByteBound) {
  const std::size_t a = CompiledDesign("counter", 0).system.footprint_bytes();
  const std::size_t b = CompiledDesign("delay", 0).system.footprint_bytes();
  {
    // Both fit exactly: the bound is inclusive.
    DesignCache cache(16, a + b);
    (void)cache.get("counter", 0);
    (void)cache.get("delay", 0);
    EXPECT_EQ(cache.stats().bytes, a + b);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().evictions, 0u);
  }
  {
    // One byte short: the second insert evicts the first.
    DesignCache cache(16, a + b - 1);
    (void)cache.get("counter", 0);
    (void)cache.get("delay", 0);
    EXPECT_EQ(cache.stats().bytes, b);
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().evictions, 1u);
  }
  {
    // Larger than the whole budget: built and returned, never kept.
    DesignCache cache(16, a - 1);
    const auto design = cache.get("counter", 0);
    EXPECT_EQ(design->system.footprint_bytes(), a);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
  }
}

// ------------------------------------------------------ canonical keys --

json::Value job_json(const std::string& body) {
  return json::parse(R"({"op":"job",)" + body + "}");
}

TEST(ServeDispatcher, OmittedFieldsShareTheDefaultKey) {
  const JobRequest terse = parse_job(job_json(R"("kind":"sim")"));
  const JobRequest spelled = parse_job(job_json(
      R"("kind":"sim","design":"counter","seed":1,"opt":0,"method":"nrm",)"
      R"("t_end":5,"omega":200)"));
  EXPECT_EQ(canonical_key(terse), canonical_key(spelled));
}

TEST(ServeDispatcher, ResultDeterminingFieldsChangeTheKey) {
  const std::string base = canonical_key(parse_job(job_json(R"("kind":"sim")")));
  EXPECT_NE(base, canonical_key(parse_job(job_json(R"("kind":"sim","seed":2)"))));
  EXPECT_NE(base, canonical_key(parse_job(job_json(R"("kind":"sim","opt":1)"))));
  EXPECT_NE(base, canonical_key(parse_job(
                      job_json(R"("kind":"sim","method":"tau")"))));
  EXPECT_NE(base, canonical_key(parse_job(
                      job_json(R"("kind":"sim","design":"delay")"))));
  EXPECT_NE(base, canonical_key(parse_job(job_json(R"("kind":"lint")"))));
}

TEST(ServeDispatcher, DeadlineIsNotPartOfTheKey) {
  const std::string base = canonical_key(parse_job(job_json(R"("kind":"sim")")));
  EXPECT_EQ(base, canonical_key(parse_job(
                      job_json(R"("kind":"sim","deadline_s":120)"))));
}

TEST(ServeDispatcher, StressDesignsAreRegistrySpecs) {
  // The campaign-only names are gone: a bad spec is a parse error.
  EXPECT_THROW((void)parse_job(job_json(
                   R"("kind":"stress","design":"sequence_detector")")),
               std::invalid_argument);
  EXPECT_THROW(
      (void)parse_job(job_json(R"("kind":"stress","design":"async_chain")")),
      std::invalid_argument);
  const JobRequest spaced =
      parse_job(job_json(R"js("kind":"stress","design":"counter( 4 )")js"));
  const JobRequest tight =
      parse_job(job_json(R"js("kind":"stress","design":"counter(4)")js"));
  EXPECT_EQ(canonical_key(spaced), canonical_key(tight));
  EXPECT_NE(canonical_key(tight).find("|design=counter(4)|"),
            std::string::npos);
  // Every registry design carries a decoder, composed cascades included:
  // the campaign runs and its result is cached under the canonical spec.
  const DispatchResult cascade = run_job(
      parse_job(job_json(R"js("kind":"stress","design":"cascade( 3 )",)js"
                         R"js("intensities":[0.02],"trials":1)js")),
      {});
  EXPECT_TRUE(cascade.ok) << cascade.payload;
  EXPECT_TRUE(cascade.cacheable);
  EXPECT_NE(cascade.payload.find(R"js("design":"cascade(3)")js"),
            std::string::npos)
      << cascade.payload;
}

TEST(ServeDispatcher, ParseJobRejectsBadRequests) {
  EXPECT_THROW((void)parse_job(job_json(R"("kind":"banana")")),
               std::invalid_argument);
  EXPECT_THROW((void)parse_job(job_json(R"("kind":"sim","method":"euler")")),
               std::invalid_argument);
  EXPECT_THROW((void)parse_job(job_json(R"("kind":"sim","t_end":1e9)")),
               std::invalid_argument);
  EXPECT_THROW((void)parse_job(job_json(R"("kind":"sim","seed":"one")")),
               std::invalid_argument);
  EXPECT_THROW((void)parse_job(job_json(R"("kind":"sim","opt":3)")),
               std::invalid_argument);
  EXPECT_THROW((void)parse_job(job_json(R"("kind":"verify","seeds":0)")),
               std::invalid_argument);
}

TEST(ServeDispatcher, SeedsAboveTwoToThe53AreExact) {
  // The fleet seeds replicate i with Rng::stream_seed(base, i): full 64-bit
  // values that a double would round (or push past 2^64 and reject).
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const std::uint64_t seed = util::Rng::stream_seed(7, i);
    const std::string digits = std::to_string(seed);
    const JobRequest sim =
        parse_job(job_json(R"("kind":"sim","seed":)" + digits));
    ASSERT_EQ(sim.seed, seed) << digits;
    ASSERT_NE(canonical_key(sim).find("|seed=" + digits + "|"),
              std::string::npos);
    const JobRequest verify =
        parse_job(job_json(R"("kind":"verify","start_seed":)" + digits));
    ASSERT_EQ(verify.start_seed, seed) << digits;
  }
  EXPECT_EQ(parse_job(job_json(R"("kind":"sim","seed":18446744073709551615)"))
                .seed,
            18446744073709551615ull);
  EXPECT_THROW(
      (void)parse_job(job_json(R"("kind":"sim","seed":18446744073709551616)")),
      std::invalid_argument);
  EXPECT_THROW((void)parse_job(job_json(R"("kind":"sim","seed":-1)")),
               std::invalid_argument);
  EXPECT_THROW((void)parse_job(job_json(R"("kind":"sim","seed":2.5)")),
               std::invalid_argument);
}

/// The effective deadline parse_job resolves for a sim job.
double deadline_of(const std::string& fields) {
  return parse_job(job_json(R"("kind":"sim")" + fields)).deadline_s;
}

TEST(ServeDispatcher, ZeroDeadlineMeansTheServerMaximum) {
  EXPECT_EQ(deadline_of(R"(,"deadline_s":0)"), 600.0);
  EXPECT_EQ(deadline_of(""), 30.0);
  EXPECT_EQ(deadline_of(R"(,"deadline_s":2.5)"), 2.5);
  EXPECT_EQ(deadline_of(R"(,"deadline_s":600)"), 600.0);
  EXPECT_THROW((void)deadline_of(R"(,"deadline_s":600.000001)"),
               std::invalid_argument);
  EXPECT_THROW((void)deadline_of(R"(,"deadline_s":-1)"),
               std::invalid_argument);
}

// Every capped parse_job field at its exact bound: the value at the cap is
// accepted and the next representable value past it is rejected.
TEST(ServeDispatcher, EveryCapHoldsAtItsExactBoundary) {
  const auto past = [](double cap, double direction) {
    return json::number_to_string(std::nextafter(cap, direction));
  };
  const std::string eight = "0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08";
  struct Bound {
    std::string at;
    std::string beyond;
  };
  const std::vector<Bound> bounds = {
      {R"("kind":"sim","t_end":1e4)",
       R"("kind":"sim","t_end":)" + past(1e4, INFINITY)},
      {R"("kind":"sim","omega":1)",
       R"("kind":"sim","omega":)" + past(1.0, 0.0)},
      {R"("kind":"sim","omega":1e6)",
       R"("kind":"sim","omega":)" + past(1e6, INFINITY)},
      {R"("kind":"sim","t_end":5,"record":5)",
       R"("kind":"sim","t_end":5,"record":)" + past(5.0, INFINITY)},
      {R"("kind":"verify","seeds":1)", R"("kind":"verify","seeds":0)"},
      {R"("kind":"verify","seeds":32)", R"("kind":"verify","seeds":33)"},
      {R"("kind":"stress","trials":1)", R"("kind":"stress","trials":0)"},
      {R"("kind":"stress","trials":5)", R"("kind":"stress","trials":6)"},
      {R"("kind":"stress","intensities":[)" + eight + "]",
       R"("kind":"stress","intensities":[)" + eight + ",0.09]"},
      {R"("kind":"sleep","ms":60000)",
       R"("kind":"sleep","ms":)" + past(60000.0, INFINITY)},
      {R"("kind":"sim","deadline_s":600)",
       R"("kind":"sim","deadline_s":)" + past(600.0, INFINITY)},
  };
  for (const Bound& bound : bounds) {
    EXPECT_NO_THROW((void)parse_job(job_json(bound.at))) << bound.at;
    EXPECT_THROW((void)parse_job(job_json(bound.beyond)),
                 std::invalid_argument)
        << bound.beyond;
  }
}

TEST(ServeDispatcher, ScenarioSpecsAreCanonicalizedInTheKey) {
  // Two spellings of the same generator call share one cache key.
  const JobRequest spaced =
      parse_job(job_json(R"js("kind":"sim","design":"counter( 2 )")js"));
  const JobRequest tight =
      parse_job(job_json(R"js("kind":"sim","design":"counter(2)")js"));
  EXPECT_EQ(canonical_key(spaced), canonical_key(tight));
  // Fixed names canonicalize to themselves: pre-registry keys are stable.
  const JobRequest fixed =
      parse_job(job_json(R"("kind":"sim","design":"counter")"));
  EXPECT_NE(canonical_key(fixed).find("|design=counter|"),
            std::string::npos);
  // Bad specs are parse errors, not run failures.
  EXPECT_THROW(
      (void)parse_job(job_json(R"("kind":"sim","design":"banana")")),
      std::invalid_argument);
  EXPECT_THROW(
      (void)parse_job(
          job_json(R"js("kind":"lint","design":"counter(99)")js")),
      std::invalid_argument);
  EXPECT_THROW(
      (void)parse_job(
          job_json(R"js("kind":"sim","design":"counter(2,3)")js")),
      std::invalid_argument);
}

TEST(ServeDispatcher, LintChecksAreCanonicalizedInTheKey) {
  // Each check once, in registry order: every spelling of one selection
  // shares a key, and the canonical spelling keeps its own.
  const std::string canonical = canonical_key(parse_job(job_json(
      R"("kind":"lint","checks":"conservation,timescale")")));
  EXPECT_NE(canonical.find("|checks=conservation,timescale|"),
            std::string::npos)
      << canonical;
  EXPECT_EQ(canonical, canonical_key(parse_job(job_json(
                           R"("kind":"lint","checks":"timescale,conservation")"))));
  EXPECT_EQ(canonical,
            canonical_key(parse_job(job_json(
                R"("kind":"lint","checks":"timescale,conservation,timescale")"))));
  EXPECT_NE(canonical_key(parse_job(job_json(R"("kind":"lint")")))
                .find("|checks=|"),
            std::string::npos);
  EXPECT_THROW((void)parse_job(job_json(R"("kind":"lint","checks":"nope")")),
               std::invalid_argument);
  EXPECT_THROW(
      (void)parse_job(job_json(R"("kind":"lint","checks":"conservation,,")")),
      std::invalid_argument);

  // A selection that names every check, in any order, is the default
  // selection: one key, one cache entry, one answer.
  std::string every;
  for (const std::string& name : lint::check_names()) {
    every = every.empty() ? name : name + "," + every;
  }
  const std::string named =
      R"({"op":"job","kind":"lint","design":"counter","checks":")" + every +
      R"("})";
  const std::string omitted = R"({"op":"job","kind":"lint","design":"counter"})";
  EXPECT_EQ(canonical_key(parse_job(json::parse(named))),
            canonical_key(parse_job(json::parse(omitted))));
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  server.start();
  Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.request_raw(named), client.request_raw(omitted));
  const json::Value stats = client.request(R"({"op":"stats"})");
  EXPECT_EQ(stats.find("cache")->get_u64("misses", 0), 1u);
  EXPECT_EQ(stats.find("cache")->get_u64("hits", 0), 1u);
}

TEST(ServeDispatcher, VerifyKindsKeepTheirOrder) {
  // Verify assigns case kinds round-robin, so order is part of the job;
  // only the spelling is normalized.
  const auto key = [](const std::string& kinds) {
    return canonical_key(parse_job(
        job_json(R"("kind":"verify","kinds":")" + kinds + '"')));
  };
  EXPECT_EQ(key("fsm,"), key("fsm"));
  EXPECT_NE(key("fsm").find("|kinds=fsm|"), std::string::npos);
  EXPECT_NE(key("raw,fsm").find("|kinds=raw,fsm|"), std::string::npos);
  EXPECT_NE(key("raw,fsm"), key("fsm,raw"));
  EXPECT_THROW((void)key("banana"), std::invalid_argument);
  EXPECT_THROW((void)key(","), std::invalid_argument);
}

TEST(ServeDispatcher, StressFaultsAreCheckedAtParseTime) {
  for (const char* fault : {"banana", "reaction-jitter", "stoichiometry"}) {
    EXPECT_THROW((void)parse_job(job_json(
                     std::string(R"("kind":"stress","fault":")") + fault +
                     '"')),
                 std::invalid_argument)
        << fault;
  }
  EXPECT_NE(canonical_key(parse_job(job_json(
                R"("kind":"stress","fault":"clock-skew")")))
                .find("|fault=clock-skew|"),
            std::string::npos);
}

// ------------------------------------------------- dispatcher directly --

TEST(ServeDispatcher, SimJobIsDeterministic) {
  const JobRequest job = parse_job(
      job_json(R"("kind":"sim","design":"counter","t_end":2,"omega":100)"));
  const DispatchResult first = run_job(job, {});
  const DispatchResult second = run_job(job, {});
  EXPECT_TRUE(first.ok);
  EXPECT_TRUE(first.cacheable);
  EXPECT_EQ(first.payload, second.payload);
  EXPECT_NE(first.payload.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(first.payload.find("\"final\""), std::string::npos);
}

TEST(ServeDispatcher, SeedChangesTheSimPayload) {
  const DispatchResult seed1 = run_job(
      parse_job(job_json(
          R"("kind":"sim","design":"counter","t_end":2,"omega":100,"seed":1)")),
      {});
  const DispatchResult seed2 = run_job(
      parse_job(job_json(
          R"("kind":"sim","design":"counter","t_end":2,"omega":100,"seed":2)")),
      {});
  ASSERT_TRUE(seed1.ok);
  ASSERT_TRUE(seed2.ok);
  EXPECT_NE(seed1.payload, seed2.payload);
}

TEST(ServeDispatcher, LintJobPayloadIsCompactJson) {
  const DispatchResult result = run_job(
      parse_job(job_json(R"("kind":"lint","design":"counter","opt":1)")), {});
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.cacheable);
  // Re-serialized through the service's single dump path: no pretty-print
  // newlines may survive.
  EXPECT_EQ(result.payload.find('\n'), std::string::npos);
  const json::Value parsed = json::parse(result.payload);
  EXPECT_EQ(parsed.get_string("status", ""), "ok");
  ASSERT_NE(parsed.find("result"), nullptr);
  ASSERT_NE(parsed.find("result")->find("report"), nullptr);
  EXPECT_NE(parsed.find("result")->find("report")->find("checks_run"),
            nullptr);
}

/// Runs `job` with hooks whose stop is requested from a second thread
/// 50 ms in.
DispatchResult run_stopped_50ms_in(const JobRequest& job) {
  std::stop_source stop;
  DispatchHooks hooks;
  hooks.stop = stop.get_token();
  std::thread stopper([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stop.request_stop();
  });
  DispatchResult result = run_job(job, hooks);
  stopper.join();
  return result;
}

// Verify jobs poll their deadline and server shutdown before every case;
// either stop is a wall-clock outcome, so an uncacheable error.
TEST(ServeDispatcher, VerifyJobsStopAtTheirDeadlineOrOnShutdown) {
  const DispatchResult timed_out = run_job(
      parse_job(job_json(R"("kind":"verify","seeds":32,"deadline_s":1e-6)")),
      {});
  EXPECT_FALSE(timed_out.ok);
  EXPECT_FALSE(timed_out.cacheable);
  EXPECT_EQ(timed_out.payload, error_response("verify job timeout"));

  // A 32-seed job runs for seconds; the stop lands while it runs. Every
  // simulation of a case carries the stop as its abort hook and the hook is
  // polled between oracles, so the answer comes within one integrator step
  // of the request: well under the kStopGrace a shutdown waits (TSan
  // included; the request itself comes 50 ms in).
  const auto started = std::chrono::steady_clock::now();
  const DispatchResult cancelled = run_stopped_50ms_in(
      parse_job(job_json(R"("kind":"verify","seeds":32)")));
  const auto took = std::chrono::steady_clock::now() - started;
  EXPECT_FALSE(cancelled.cacheable);
  EXPECT_EQ(cancelled.payload, cancelled_response());
  EXPECT_LT(took, std::chrono::milliseconds(kStopGrace) / 4);
}

// A sim's BatchRunner watches the same token: a long SSA run stopped by
// shutdown answers like every other kind, not with "sim job cancelled".
TEST(ServeDispatcher, SimJobsStopOnShutdown) {
  const DispatchResult cancelled = run_stopped_50ms_in(parse_job(job_json(
      R"("kind":"sim","method":"ssa","t_end":1e4,"omega":1e6)")));
  EXPECT_FALSE(cancelled.cacheable);
  EXPECT_EQ(cancelled.payload, cancelled_response());
}

// ----------------------------------------------------------- run slots --

using Entry = RunSlots::Entry;

// Waiters get the one slot strictly in the order they arrived.
TEST(RunSlots, GrantsSlotsInArrivalOrder) {
  RunSlots slots(1, 4);
  const std::stop_token never;
  ASSERT_EQ(slots.enter(never), Entry::kRun);
  std::mutex order_mutex;
  std::vector<int> order;
  std::vector<std::thread> waiters;
  for (int id = 0; id < 4; ++id) {
    waiters.emplace_back([&, id] {
      ASSERT_EQ(slots.enter(never), Entry::kRun);
      {
        std::lock_guard lock(order_mutex);
        order.push_back(id);
      }
      slots.release();
    });
    // The next waiter arrives only once this one is queued.
    while (slots.counts().waiting != static_cast<std::size_t>(id) + 1) {
      std::this_thread::yield();
    }
  }
  EXPECT_EQ(slots.counts().running, 1u);
  slots.release();
  for (std::thread& waiter : waiters) waiter.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(slots.counts().running, 0u);
  EXPECT_EQ(slots.counts().waiting, 0u);
}

// A stop fails the caller waiting for a slot, and every later entry at
// once, while the running holder keeps its slot until it releases it.
TEST(RunSlots, StopFailsWaitersAndEveryLaterEntry) {
  RunSlots slots(1, 1);
  std::stop_source stop;
  ASSERT_EQ(slots.enter(stop.get_token()), Entry::kRun);
  std::atomic<int> waited{-1};
  std::thread waiter([&] {
    waited = static_cast<int>(slots.enter(stop.get_token()));
  });
  while (slots.counts().waiting != 1) std::this_thread::yield();
  stop.request_stop();
  waiter.join();
  EXPECT_EQ(waited.load(), static_cast<int>(Entry::kStopped));
  EXPECT_EQ(slots.counts().waiting, 0u);
  EXPECT_EQ(slots.counts().running, 1u);
  EXPECT_EQ(slots.enter(stop.get_token()), Entry::kStopped);
  slots.release();
  EXPECT_EQ(slots.enter(stop.get_token()), Entry::kStopped);
  EXPECT_EQ(slots.counts().running, 0u);
}

// Overload starts at exactly slots + queue_capacity callers in, running
// or waiting, and ends as soon as one leaves.
TEST(RunSlots, OverloadAtExactlySlotsPlusQueueCapacity) {
  RunSlots slots(2, 1);
  std::stop_source stop;
  ASSERT_EQ(slots.enter(stop.get_token()), Entry::kRun);
  ASSERT_EQ(slots.enter(stop.get_token()), Entry::kRun);
  std::thread waiter([&] {
    EXPECT_EQ(slots.enter(stop.get_token()), Entry::kRun);
    slots.release();
  });
  while (slots.counts().waiting != 1) std::this_thread::yield();
  EXPECT_EQ(slots.enter(stop.get_token()), Entry::kOverload);
  slots.release();  // the waiter takes the freed slot, then leaves
  waiter.join();
  ASSERT_EQ(slots.enter(stop.get_token()), Entry::kRun);
  EXPECT_EQ(slots.counts().running, 2u);
  // Both slots held again and nobody waiting: one more may still queue.
  std::thread queued([&] {
    EXPECT_EQ(slots.enter(stop.get_token()), Entry::kStopped);
  });
  while (slots.counts().waiting != 1) std::this_thread::yield();
  EXPECT_EQ(slots.enter(stop.get_token()), Entry::kOverload);
  stop.request_stop();
  queued.join();
  slots.release();
  slots.release();
}

// Every smoke-catalog design, every method, both compile levels: a job run
// against the shared design cache (first a miss, then a hit) returns the
// bytes of a job that built its own design.
TEST(ServeDispatcher, DesignCacheIsByteIdenticalToAFreshBuild) {
  DesignCache cache;
  DispatchHooks cached;
  cached.designs = &cache;
  std::size_t jobs = 0;
  for (const std::string& design :
       scenario::ScenarioRegistry::global().smoke_catalog()) {
    for (const int opt : {0, 1}) {
      std::vector<std::string> bodies;
      for (const char* method : {"nrm", "ssa", "tau", "dp45", "rk4", "be"}) {
        bodies.push_back(R"("kind":"sim","t_end":0.25,"omega":100,)"
                         R"("method":")" +
                         std::string(method) + '"');
      }
      bodies.push_back(R"("kind":"lint")");
      for (const std::string& body : bodies) {
        const JobRequest job = parse_job(job_json(
            body + R"(,"design":")" + design +
            R"(","opt":)" + std::to_string(opt)));
        const DispatchResult fresh = run_job(job, {});
        ASSERT_TRUE(fresh.ok) << fresh.payload;
        EXPECT_EQ(run_job(job, cached).payload, fresh.payload)
            << design << " " << body << " opt " << opt;
        ++jobs;
      }
    }
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2 * scenario::ScenarioRegistry::global()
                                  .smoke_catalog()
                                  .size());
  EXPECT_EQ(stats.hits + stats.misses, jobs);
}

// An evicted entry lives on while a reference holds it, as a running job's
// does (ConcurrentJobsShareTheDesignCache evicts under in-flight jobs).
TEST(ServeDispatcher, EntryHeldByARunningJobSurvivesItsEviction) {
  DesignCache cache(1, DesignCache::kCapacityBytes);
  const std::shared_ptr<const CompiledDesign> held = cache.get("delay", 0);
  (void)cache.get("seqdet", 0);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(held->system.reaction_count(),
            held->built.network->reaction_count());
}

TEST(ServeDispatcher, ConcurrentJobsShareTheDesignCache) {
  // 8 threads over mixed designs and both compile levels, through a cache
  // two entries wide so hits, misses, racing builds and evictions all
  // interleave. Every payload must equal its uncached reference.
  std::vector<JobRequest> jobs;
  for (const char* design :
       {"counter", "delay", "cascade(2)", "fsm_wide(4)"}) {
    for (const int opt : {0, 1}) {
      for (const char* method : {"nrm", "dp45"}) {
        jobs.push_back(parse_job(job_json(
            std::string(R"("kind":"sim","t_end":0.5,"omega":50,"design":")") +
            design + R"(","method":")" + method + R"(","opt":)" +
            std::to_string(opt))));
      }
      jobs.push_back(parse_job(job_json(
          std::string(R"("kind":"lint","design":")") + design +
          R"(","opt":)" + std::to_string(opt))));
    }
  }
  std::vector<std::string> expected;
  for (const JobRequest& job : jobs) {
    expected.push_back(run_job(job, {}).payload);
  }

  DesignCache cache(2, DesignCache::kCapacityBytes);
  DispatchHooks hooks;
  hooks.designs = &cache;
  constexpr std::size_t kThreads = 8;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < jobs.size(); ++k) {
        const std::size_t i = (k * 5 + t * 3) % jobs.size();
        if (run_job(jobs[i], hooks).payload != expected[i]) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * jobs.size());
  EXPECT_LE(stats.entries, 2u);
}

TEST(ServeDispatcher, CanonicalResponses) {
  EXPECT_EQ(overload_response(),
            R"({"status":"rejected","reason":"overload"})");
  const json::Value error = json::parse(error_response("boom"));
  EXPECT_EQ(error.get_string("status", ""), "error");
  EXPECT_EQ(error.get_string("error", ""), "boom");
}

// ------------------------------------------------------------- framing --

/// Both ends of a connected AF_UNIX stream socket pair.
struct SocketPair {
  SocketPair() {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw std::runtime_error(std::string("socketpair: ") +
                               std::strerror(errno));
    }
    near = Socket(fds[0]);
    far = Socket(fds[1]);
  }
  Socket near;
  Socket far;
};

/// Sends raw bytes on `fd`, which is blocking, ignoring the frame format.
void send_bytes(int fd, const std::string& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

TEST(ServeProtocol, LargeFrameSurvivesPartialWrites) {
  // 4 MiB is far past a socketpair's send buffer, so the writer blocks many
  // times. A no-op signal sent to it meanwhile (no SA_RESTART) cuts a
  // blocked sendmsg short or fails it with EINTR; write_frame must resume
  // exactly where the kernel stopped.
  struct sigaction quiet {};
  quiet.sa_handler = [](int) {};
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &quiet, &previous), 0);

  SocketPair pair;
  std::string payload(4u << 20, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 131) ^ (i >> 11));
  }
  std::atomic<bool> written{false};
  std::string write_error;
  std::thread writer([&] {
    try {
      write_frame(pair.near.fd(), payload);
    } catch (const std::exception& error) {
      write_error = error.what();
    }
    written = true;
  });
  std::string received;
  bool read_ok = false;
  std::thread reader([&] {
    read_ok = read_frame(pair.far.fd(), received);
    // A writer that sends more than one frame now fails with EPIPE
    // instead of blocking forever.
    pair.far.close();
  });
  while (!written) {
    ::pthread_kill(writer.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  writer.join();
  reader.join();
  ::sigaction(SIGUSR1, &previous, nullptr);

  EXPECT_EQ(write_error, "");
  ASSERT_TRUE(read_ok);
  EXPECT_TRUE(received == payload) << "the 4 MiB payload came back altered";
}

TEST(ServeProtocol, PeerCloseDuringThePollWindowEndsTheRead) {
  {
    // Close at a frame boundary: a clean EOF.
    SocketPair pair;
    std::thread closer([&pair] {
      std::this_thread::sleep_for(std::chrono::microseconds(10));
      pair.far.close();
    });
    std::string payload;
    EXPECT_FALSE(read_frame(pair.near.fd(), payload));
    closer.join();
  }
  {
    // Close after 3 of 10 promised bytes: a framing error.
    SocketPair pair;
    send_bytes(pair.far.fd(), std::string("\x00\x00\x00\x0a" "abc", 7));
    std::thread closer([&pair] {
      std::this_thread::sleep_for(std::chrono::microseconds(10));
      pair.far.close();
    });
    std::string payload;
    EXPECT_THROW((void)read_frame(pair.near.fd(), payload), ProtocolError);
    closer.join();
  }
}

TEST(ServeProtocol, PayloadThatArrivesAfterThePollWindowIsReadWhole) {
  SocketPair pair;
  const std::string payload = R"({"op":"ping"})";
  std::thread writer([&pair, &payload] {
    send_bytes(pair.far.fd(), std::string("\x00\x00\x00", 3) +
                                  static_cast<char>(payload.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    send_bytes(pair.far.fd(), payload);
  });
  std::string received;
  EXPECT_TRUE(read_frame(pair.near.fd(), received));
  EXPECT_EQ(received, payload);
  writer.join();
}

// ------------------------------------------------------- client/server --

struct ServerFixture {
  explicit ServerFixture(ServerOptions options = {}) {
    if (options.workers == 0) options.workers = 2;
    server = std::make_unique<Server>(options);
    server->start();
  }
  json::Value request(const std::string& payload) {
    Client client("127.0.0.1", server->port());
    return client.request(payload);
  }
  std::string request_raw(const std::string& payload) {
    Client client("127.0.0.1", server->port());
    return client.request_raw(payload);
  }
  double stat(const char* section, const char* field) {
    const json::Value stats = request(R"({"op":"stats"})");
    const json::Value* group = stats.find(section);
    if (group == nullptr) return -1.0;
    const json::Value* value = group->find(field);
    return value == nullptr ? -1.0 : value->as_number();
  }
  std::unique_ptr<Server> server;
};

constexpr const char* kSimRequest =
    R"({"op":"job","kind":"sim","design":"counter","t_end":2,"omega":100})";

TEST(ServeServer, PingHealthAndStatsSchema) {
  ServerFixture fixture;
  EXPECT_EQ(fixture.request_raw(R"({"op":"ping"})"),
            R"({"status":"ok","op":"ping"})");
  const json::Value health = fixture.request(R"({"op":"health"})");
  EXPECT_EQ(health.get_string("status", ""), "ok");
  EXPECT_TRUE(health.get_bool("accepting", false));
  const json::Value stats = fixture.request(R"({"op":"stats"})");
  for (const char* section :
       {"queue", "cache", "designs", "requests", "latency"}) {
    EXPECT_NE(stats.find(section), nullptr) << section;
  }
  EXPECT_NE(stats.find("latency")->find("sim"), nullptr);
  EXPECT_NE(stats.find("latency")->find("sim")->find("p99_ms"), nullptr);
}

/// The member names of the object `value`, in order.
std::vector<std::string> keys_of(const json::Value& value) {
  std::vector<std::string> keys;
  for (const json::Member& member : value.as_object()) {
    keys.push_back(member.first);
  }
  return keys;
}

// Dashboards and scripts read stats/health by position as well as by key:
// the member order is part of the payload, and both payloads are already in
// the one writer's canonical form.
TEST(ServeServer, StatsAndHealthKeyOrderIsPinned) {
  using Keys = std::vector<std::string>;
  ServerFixture fixture;
  for (const char* request :
       {kSimRequest, kSimRequest,
        R"({"op":"job","kind":"sim","design":"delay","t_end":1,"omega":50})",
        R"({"op":"job","kind":"lint","design":"counter"})",
        R"({"op":"job","kind":"lint","design":"counter"})"}) {
    ASSERT_EQ(fixture.request(request).get_string("status", ""), "ok")
        << request;
  }

  const std::string health_payload = fixture.request_raw(R"({"op":"health"})");
  const json::Value health = json::parse(health_payload);
  EXPECT_EQ(health.dump(), health_payload);
  EXPECT_EQ(keys_of(health), (Keys{"status", "accepting", "draining",
                                   "shard_id", "uptime_seconds"}));

  const std::string stats_payload = fixture.request_raw(R"({"op":"stats"})");
  const json::Value stats = json::parse(stats_payload);
  EXPECT_EQ(stats.dump(), stats_payload);
  EXPECT_EQ(keys_of(stats),
            (Keys{"status", "shard_id", "draining", "uptime_seconds", "queue",
                  "cache", "designs", "requests", "latency"}));
  EXPECT_EQ(keys_of(*stats.find("queue")),
            (Keys{"depth", "in_flight", "capacity", "workers"}));
  EXPECT_EQ(keys_of(*stats.find("cache")),
            (Keys{"hits", "misses", "evictions", "entries", "bytes",
                  "capacity_entries", "hit_rate"}));
  EXPECT_EQ(keys_of(*stats.find("designs")),
            (Keys{"hits", "misses", "evictions", "entries", "bytes"}));
  EXPECT_EQ(keys_of(*stats.find("requests")),
            (Keys{"received", "ok", "failed", "overload_rejected",
                  "drain_rejected", "protocol_errors", "connection_errors"}));
  const json::Value& latency = *stats.find("latency");
  ASSERT_NE(latency.find("sim"), nullptr);
  ASSERT_NE(latency.find("lint"), nullptr);
  for (const json::Member& kind : latency.as_object()) {
    EXPECT_EQ(keys_of(kind.second),
              (Keys{"count", "ok", "failed", "cache_hits", "mean_ms",
                    "p50_ms", "p90_ms", "p99_ms", "max_ms"}))
        << kind.first;
  }
  EXPECT_EQ(latency.find("sim")->get_u64("count", 0), 3u);
  EXPECT_EQ(latency.find("lint")->get_u64("cache_hits", 0), 1u);
}

TEST(ServeServer, StatsCountDesignBuilds) {
  ServerFixture fixture;
  // A sim and a lint job on one design, then a result-cache replay: one
  // build, one design-cache hit, and the replay never reaches the design
  // cache at all.
  ASSERT_EQ(json::parse(fixture.request_raw(kSimRequest))
                .get_string("status", ""),
            "ok");
  ASSERT_EQ(fixture
                .request(R"({"op":"job","kind":"lint","design":"counter"})")
                .get_string("status", ""),
            "ok");
  (void)fixture.request_raw(kSimRequest);
  EXPECT_EQ(fixture.stat("designs", "misses"), 1.0);
  EXPECT_EQ(fixture.stat("designs", "hits"), 1.0);
  EXPECT_EQ(fixture.stat("designs", "evictions"), 0.0);
  EXPECT_EQ(fixture.stat("designs", "entries"), 1.0);
  EXPECT_GT(fixture.stat("designs", "bytes"), 0.0);
  EXPECT_EQ(fixture.stat("cache", "hits"), 1.0);
}

TEST(ServeServer, ColdCachedAndRestartResponsesAreByteIdentical) {
  std::string cold;
  std::string cached;
  {
    ServerFixture fixture;
    cold = fixture.request_raw(kSimRequest);
    cached = fixture.request_raw(kSimRequest);
    EXPECT_EQ(cold, cached) << "cache hit must replay the cold bytes";
    EXPECT_GE(fixture.stat("cache", "hits"), 1.0);
    fixture.server->stop();
  }
  // A fresh server (fresh cache, fresh port) must produce the same bytes:
  // nothing volatile may leak into the payload.
  ServerFixture restarted;
  EXPECT_EQ(restarted.request_raw(kSimRequest), cold);
  const json::Value parsed = json::parse(cold);
  EXPECT_EQ(parsed.get_string("status", ""), "ok");
  EXPECT_EQ(parsed.get_string("kind", ""), "sim");
}

TEST(ServeServer, ScenarioJobColdCachedAndRestartAreByteIdentical) {
  constexpr const char* kScenarioRequest =
      R"js({"op":"job","kind":"sim","design":"counter(2)","t_end":2,"omega":100})js";
  std::string cold;
  {
    ServerFixture fixture;
    cold = fixture.request_raw(kScenarioRequest);
    const std::string cached = fixture.request_raw(kScenarioRequest);
    EXPECT_EQ(cold, cached) << "cache hit must replay the cold bytes";
    // A differently spelled spec canonicalizes to the same key and replays
    // the same bytes from the cache.
    const std::string spaced = fixture.request_raw(
        R"js({"op":"job","kind":"sim","design":"counter( 2 )","t_end":2,"omega":100})js");
    EXPECT_EQ(cold, spaced);
    EXPECT_GE(fixture.stat("cache", "hits"), 2.0);
    fixture.server->stop();
  }
  ServerFixture restarted;
  EXPECT_EQ(restarted.request_raw(kScenarioRequest), cold);
  const json::Value parsed = json::parse(cold);
  EXPECT_EQ(parsed.get_string("status", ""), "ok");
  EXPECT_NE(parsed.get_string("key", "").find("design=counter(2)"),
            std::string::npos);
}

TEST(ServeServer, ChangedParametersMissTheCache) {
  ServerFixture fixture;
  const std::string base = fixture.request_raw(kSimRequest);
  const std::string seed2 = fixture.request_raw(
      R"({"op":"job","kind":"sim","design":"counter","t_end":2,"omega":100,"seed":2})");
  const std::string opt1 = fixture.request_raw(
      R"({"op":"job","kind":"sim","design":"counter","t_end":2,"omega":100,"opt":1})");
  EXPECT_NE(base, seed2);
  EXPECT_NE(base, opt1);
  EXPECT_EQ(fixture.stat("cache", "hits"), 0.0);
  EXPECT_EQ(fixture.stat("cache", "misses"), 3.0);
}

TEST(ServeServer, VerifyAndStressJobsRoundTrip) {
  ServerFixture fixture;
  const json::Value verify = fixture.request(
      R"({"op":"job","kind":"verify","seeds":1,"kinds":"counter"})");
  EXPECT_EQ(verify.get_string("status", ""), "ok");
  const json::Value stress = fixture.request(
      R"({"op":"job","kind":"stress","design":"counter",)"
      R"("intensities":[0.02],"trials":1})");
  EXPECT_EQ(stress.get_string("status", ""), "ok");
}

TEST(ServeServer, StressJobsRunRegistryDesigns) {
  ServerFixture fixture;
  EXPECT_EQ(fixture
                .request(R"({"op":"job","kind":"stress","design":"seqdet",)"
                         R"("intensities":[0.02],"trials":1})")
                .get_string("status", ""),
            "ok");
  EXPECT_EQ(fixture
                .request(R"({"op":"job","kind":"stress",)"
                         R"("design":"sequence_detector"})")
                .get_string("status", ""),
            "error");
  // Two spellings of one spec share one cache entry and one answer.
  const std::string tight = fixture.request_raw(
      R"js({"op":"job","kind":"stress","design":"counter(2)","intensities":[0.02]})js");
  const std::string spaced = fixture.request_raw(
      R"js({"op":"job","kind":"stress","design":"counter( 2 )","intensities":[0.02]})js");
  EXPECT_EQ(tight, spaced);
  EXPECT_EQ(json::parse(tight).get_string("status", ""), "ok");
  EXPECT_EQ(fixture.stat("cache", "hits"), 1.0);
  EXPECT_EQ(fixture.stat("cache", "entries"), 2.0);
}

TEST(ServeServer, StressJobsHonourTheirDeadline) {
  ServerFixture fixture;
  const double entries = fixture.stat("cache", "entries");
  // Five trials of a 16-bit counter take far longer than a millisecond: the
  // deadline fails the whole job, and a wall-clock outcome is never cached.
  const json::Value timed_out = fixture.request(
      R"js({"op":"job","kind":"stress","design":"counter(16)","trials":5,)js"
      R"js("intensities":[0.02],"deadline_s":0.001})js");
  EXPECT_EQ(timed_out.get_string("status", ""), "error");
  EXPECT_NE(timed_out.get_string("error", "").find("timeout"),
            std::string::npos);
  EXPECT_EQ(fixture.stat("cache", "entries"), entries);
}

TEST(ServeServer, VerifyJobsHonourTheirDeadline) {
  ServerFixture fixture;
  const double entries = fixture.stat("cache", "entries");
  const std::string timed_out = fixture.request_raw(
      R"({"op":"job","kind":"verify","seeds":32,"deadline_s":1e-6})");
  EXPECT_EQ(timed_out, error_response("verify job timeout"));
  EXPECT_EQ(fixture.stat("cache", "entries"), entries);
}

TEST(ServeServer, BadRequestsGetErrorResponsesAndAreCounted) {
  ServerFixture fixture;
  EXPECT_EQ(fixture.request("not json at all").get_string("status", ""),
            "error");
  EXPECT_EQ(fixture.request(R"({"op":"banana"})").get_string("status", ""),
            "error");
  EXPECT_EQ(fixture
                .request(R"({"op":"job","kind":"sim","method":"banana"})")
                .get_string("status", ""),
            "error");
  EXPECT_EQ(fixture.stat("requests", "protocol_errors"), 3.0);
}

TEST(ServeServer, BadChecksKindsAndFaultsAreParseErrors) {
  // Answered before a run slot or a design build: each is a protocol error
  // and the design cache never misses.
  ServerFixture fixture;
  for (const char* body :
       {R"("kind":"lint","checks":"nope")",
        R"("kind":"verify","kinds":"banana")",
        R"("kind":"stress","fault":"banana")",
        R"("kind":"stress","fault":"reaction-jitter")",
        R"("kind":"stress","fault":"stoichiometry")"}) {
    EXPECT_EQ(fixture.request(std::string(R"({"op":"job",)") + body + "}")
                  .get_string("status", ""),
              "error")
        << body;
  }
  EXPECT_EQ(fixture.stat("requests", "protocol_errors"), 5.0);
  EXPECT_EQ(fixture.stat("designs", "misses"), 0.0);
  EXPECT_EQ(fixture.stat("cache", "misses"), 0.0);
}

TEST(ServeServer, OverloadRejectionIsDeterministic) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 0;  // admission bound: exactly one job in flight
  ServerFixture fixture(options);

  std::thread sleeper([&] {
    // Occupies the only worker slot; never cached, so this is repeatable.
    Client client("127.0.0.1", fixture.server->port());
    (void)client.request_raw(R"({"op":"job","kind":"sleep","ms":1500})");
  });
  // Wait until the sleep job is admitted before probing.
  for (int i = 0; i < 200 && fixture.stat("queue", "in_flight") < 1.0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(fixture.stat("queue", "in_flight"), 1.0);

  const std::string rejected = fixture.request_raw(kSimRequest);
  EXPECT_EQ(rejected, R"({"status":"rejected","reason":"overload"})");
  EXPECT_GE(fixture.stat("requests", "overload_rejected"), 1.0);
  sleeper.join();

  // Capacity freed: the same request now succeeds.
  EXPECT_EQ(json::parse(fixture.request_raw(kSimRequest))
                .get_string("status", ""),
            "ok");
}

TEST(ServeServer, ConcurrentSubmittersNeverDeadlock) {
  ServerOptions options;
  options.workers = 2;
  options.queue_capacity = 2;
  ServerFixture fixture(options);

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 6;
  std::atomic<int> ok{0};
  std::atomic<int> overload{0};
  std::atomic<int> other{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client("127.0.0.1", fixture.server->port());
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::string request =
            R"({"op":"job","kind":"sim","design":"counter","t_end":1,)"
            R"("omega":100,"seed":)" +
            std::to_string(t) + "}";
        const std::string status =
            json::parse(client.request_raw(request)).get_string("status", "");
        if (status == "ok") {
          ++ok;
        } else if (status == "rejected") {
          ++overload;
        } else {
          ++other;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Every request got a response; under pressure the only legal non-ok
  // answer is the deterministic overload rejection.
  EXPECT_EQ(ok.load() + overload.load(), kThreads * kRequestsPerThread);
  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(ok.load(), kThreads);  // retries aside, plenty must succeed
}

void wait_for_queue(ServerFixture& fixture, const char* field, double target) {
  for (int i = 0; i < 500 && fixture.stat("queue", field) != target; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(fixture.stat("queue", field), target) << field;
}

// An admitted job beyond the run slots waits on its connection thread:
// stats report it as queue depth, and past workers + queue_capacity the
// next miss is rejected as overload.
TEST(ServeServer, JobsBeyondTheSlotsWaitAndCountAsDepth) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  ServerFixture fixture(options);

  std::thread running([&] {
    Client client("127.0.0.1", fixture.server->port());
    (void)client.request_raw(R"({"op":"job","kind":"sleep","ms":800})");
  });
  wait_for_queue(fixture, "in_flight", 1.0);
  std::thread waiting([&] {
    Client client("127.0.0.1", fixture.server->port());
    (void)client.request_raw(R"({"op":"job","kind":"sleep","ms":1})");
  });
  wait_for_queue(fixture, "depth", 1.0);
  EXPECT_EQ(fixture.stat("queue", "in_flight"), 1.0);
  EXPECT_EQ(fixture.request_raw(kSimRequest), overload_response());
  running.join();
  waiting.join();
  EXPECT_EQ(fixture.stat("queue", "depth"), 0.0);
  EXPECT_EQ(fixture.stat("queue", "in_flight"), 0.0);
}

// Over the wire, too, the waiter that arrived first runs first: the long
// sleep queued first must finish before the short one queued after it. The
// order is read from when the clients get their answers, so the last two
// jobs end 200 ms apart (a LIFO slot order would still read {0, 2, 1}).
TEST(ServeServer, WaitingJobsRunInArrivalOrder) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  ServerFixture fixture(options);

  std::mutex order_mutex;
  std::vector<int> order;
  auto sleeper = [&](int id, int ms) {
    return std::thread([&, id, ms] {
      Client client("127.0.0.1", fixture.server->port());
      (void)client.request_raw(R"({"op":"job","kind":"sleep","ms":)" +
                               std::to_string(ms) + "}");
      std::lock_guard lock(order_mutex);
      order.push_back(id);
    });
  };
  std::thread first = sleeper(0, 400);
  wait_for_queue(fixture, "in_flight", 1.0);
  std::thread second = sleeper(1, 300);
  wait_for_queue(fixture, "depth", 1.0);
  std::thread third = sleeper(2, 200);
  wait_for_queue(fixture, "depth", 2.0);
  first.join();
  second.join();
  third.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// stop() fails a job waiting for a slot with the cancelled error a running
// job gives, and joins without waiting out the running sleep. Both answers
// reach their clients before stop() shuts the sockets, and the final stats
// show both jobs answered as failed.
TEST(ServeServer, StopAnswersSlotWaitersWithTheCancelledError) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  ServerFixture fixture(options);

  auto sleeper = [&](std::string& answer) {
    return std::thread([&] {
      try {
        Client client("127.0.0.1", fixture.server->port());
        answer = client.request_raw(
            R"({"op":"job","kind":"sleep","ms":30000})");
      } catch (const std::exception& error) {
        answer = std::string("torn: ") + error.what();
      }
    });
  };
  std::string running_answer;
  std::string waiting_answer;
  std::thread running = sleeper(running_answer);
  wait_for_queue(fixture, "in_flight", 1.0);
  std::thread waiting = sleeper(waiting_answer);
  wait_for_queue(fixture, "depth", 1.0);

  const auto start = std::chrono::steady_clock::now();
  fixture.server->stop();
  const double stop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  running.join();
  waiting.join();
  EXPECT_LT(stop_seconds, 5.0);
  EXPECT_EQ(running_answer, cancelled_response());
  EXPECT_EQ(waiting_answer, cancelled_response());
  const json::Value stats = json::parse(fixture.server->stats_payload());
  const json::Value& sleeps = *stats.find("latency")->find("sleep");
  EXPECT_EQ(sleeps.find("ok")->as_number(), 0.0);
  EXPECT_EQ(sleeps.find("failed")->as_number(), 2.0);
  EXPECT_EQ(stats.find("queue")->find("depth")->as_number(), 0.0);
  EXPECT_EQ(stats.find("queue")->find("in_flight")->as_number(), 0.0);
}

// --------------------------------------------- framing-fault regressions --
//
// A peer that violates the framing — closes mid-header, closes mid-payload,
// or sends a garbage length prefix — must cost exactly its own connection:
// counted in requests.connection_errors, never tearing down the accept
// loop. Each case is followed by a successful ping on a fresh connection.

void send_raw_and_close(std::uint16_t port, const std::string& bytes) {
  const Socket socket = connect_to("127.0.0.1", port);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(socket.fd(), bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
  // Socket closes on scope exit: the server sees EOF wherever we left it.
}

double wait_for_stat_at_least(ServerFixture& fixture, const char* section,
                              const char* field, double target) {
  // Connection teardown is handled on the connection's own thread; give the
  // counter a moment to land.
  double value = -1.0;
  for (int i = 0; i < 200; ++i) {
    value = fixture.stat(section, field);
    if (value >= target) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return value;
}

TEST(ServeServer, TruncatedFramesAreCleanPerConnectionErrors) {
  ServerFixture fixture;

  // Case 1: half a length header, then close.
  send_raw_and_close(fixture.server->port(), std::string("\x00\x00", 2));
  // Case 2: a full header promising 100 bytes, 10 delivered, then close.
  std::string mid_payload("\x00\x00\x00\x64", 4);
  mid_payload += "0123456789";
  send_raw_and_close(fixture.server->port(), mid_payload);
  // Case 3: a garbage length prefix far past kMaxFrameBytes.
  send_raw_and_close(fixture.server->port(),
                     std::string("\xFF\xFF\xFF\xFF", 4));

  EXPECT_GE(wait_for_stat_at_least(fixture, "requests", "connection_errors",
                                   3.0),
            3.0);
  // The accept loop survived all three: a fresh connection works.
  EXPECT_EQ(fixture.request_raw(R"({"op":"ping"})"),
            R"({"status":"ok","op":"ping"})");
  EXPECT_TRUE(fixture.request(R"({"op":"health"})")
                  .get_bool("accepting", false));
}

// ------------------------------------------------------- catalog / drain --

TEST(ServeServer, CatalogOpMatchesTheLocalRegistryByteForByte) {
  ServerFixture fixture;
  const std::string over_the_wire = fixture.request_raw(R"({"op":"catalog"})");
  EXPECT_EQ(over_the_wire, catalog_response());
  EXPECT_EQ(fixture.request_raw(R"({"op":"catalog"})"), over_the_wire);
  const json::Value parsed = json::parse(over_the_wire);
  EXPECT_EQ(parsed.get_string("status", ""), "ok");
  ASSERT_NE(parsed.find("fixed"), nullptr);
  ASSERT_NE(parsed.find("generators"), nullptr);
  ASSERT_NE(parsed.find("smoke"), nullptr);
  EXPECT_FALSE(parsed.find("fixed")->as_array().empty());
  EXPECT_FALSE(parsed.find("smoke")->as_array().empty());
}

TEST(ServeServer, DrainShedsJobsButKeepsIntrospectionAlive) {
  ServerFixture fixture;
  EXPECT_EQ(fixture.request_raw(R"({"op":"drain"})"),
            R"({"status":"ok","op":"drain","draining":true})");
  // Drain is one-way and idempotent.
  EXPECT_EQ(fixture.request_raw(R"({"op":"drain"})"),
            R"({"status":"ok","op":"drain","draining":true})");

  EXPECT_EQ(fixture.request_raw(kSimRequest), draining_response());
  EXPECT_GE(fixture.stat("requests", "drain_rejected"), 1.0);

  // Introspection ops keep answering on a draining shard.
  EXPECT_EQ(fixture.request_raw(R"({"op":"ping"})"),
            R"({"status":"ok","op":"ping"})");
  const json::Value health = fixture.request(R"({"op":"health"})");
  EXPECT_FALSE(health.get_bool("accepting", true));
  EXPECT_TRUE(health.get_bool("draining", false));
  const json::Value stats = fixture.request(R"({"op":"stats"})");
  EXPECT_TRUE(stats.get_bool("draining", false));
}

TEST(ServeServer, ShardIdIsEchoedByHealthAndStats) {
  ServerOptions options;
  options.shard_id = "shard-7";
  ServerFixture fixture(options);
  EXPECT_EQ(fixture.request(R"({"op":"health"})").get_string("shard_id", ""),
            "shard-7");
  EXPECT_EQ(fixture.request(R"({"op":"stats"})").get_string("shard_id", ""),
            "shard-7");
}

TEST(ServeServer, StopCancelsSleepingJobsPromptly) {
  ServerOptions options;
  options.workers = 1;
  ServerFixture fixture(options);

  std::string answer;
  std::thread sleeper([&] {
    try {
      Client client("127.0.0.1", fixture.server->port());
      answer =
          client.request_raw(R"({"op":"job","kind":"sleep","ms":30000})");
    } catch (const std::exception& error) {
      answer = std::string("torn: ") + error.what();
    }
  });
  for (int i = 0; i < 200 && fixture.stat("queue", "in_flight") < 1.0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const auto start = std::chrono::steady_clock::now();
  fixture.server->stop();  // must interrupt the 30 s sleep cooperatively
  const double stop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  sleeper.join();
  EXPECT_LT(stop_seconds, 5.0);
  EXPECT_EQ(answer, cancelled_response());
}

// A peer that pipelines requests and never reads its answers leaves the
// server blocked writing to it; stop() shuts that connection once the grace
// period is over instead of waiting on the peer.
TEST(ServeServer, StopDoesNotWaitOnAPeerThatNeverReads) {
  ServerFixture fixture;
  const Socket socket = connect_to("127.0.0.1", fixture.server->port());
  const std::string payload = R"({"op":"catalog"})";
  std::string frame = {'\0', '\0', '\0', static_cast<char>(payload.size())};
  frame += payload;
  // Send until the pipeline backs up into this socket's send buffer: the
  // server has stopped reading because it is stuck writing answers. A
  // partial send resumes mid-frame, so the stream stays well framed.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::size_t offset = 0;
  std::size_t blocked = 0;
  while (blocked < 50 && std::chrono::steady_clock::now() < give_up) {
    const ssize_t sent =
        ::send(socket.fd(), frame.data() + offset, frame.size() - offset,
               MSG_DONTWAIT | MSG_NOSIGNAL);
    if (sent < 0) {
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK)
          << std::strerror(errno);
      ++blocked;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    } else {
      blocked = 0;
      offset = (offset + static_cast<std::size_t>(sent)) % frame.size();
    }
  }
  ASSERT_EQ(blocked, 50u) << "the server kept reading";

  const auto start = std::chrono::steady_clock::now();
  fixture.server->stop();
  const std::chrono::duration<double> stop_time =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(stop_time, kStopGrace + std::chrono::seconds(1));
}

/// CPU seconds this process has used, user plus system, all threads.
double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

TEST(ServeServer, IdleConnectionStopsSpinning) {
  // The connection thread polls for its next request only briefly, then
  // blocks: an idle connection costs next to no CPU.
  ServerFixture fixture;
  Client client("127.0.0.1", fixture.server->port());
  ASSERT_EQ(client.request_raw(R"({"op":"ping"})"),
            R"({"status":"ok","op":"ping"})");
  const double before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LT(process_cpu_seconds() - before, 0.030);
}

TEST(ServeServer, StartAfterStopThrows) {
  ServerFixture fixture;
  fixture.server->stop();
  EXPECT_THROW(fixture.server->start(), std::runtime_error);
}

}  // namespace
}  // namespace mrsc::serve
