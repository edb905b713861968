#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/estimator.h"
#include "cst/cst.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "query/twig.h"
#include "test_trees.h"

namespace twig::obs {
namespace {

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON syntax checker, so the tests verify
// "the export actually parses" rather than just eyeballing substrings.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Expect(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) return true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }

  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_++]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek('-')) {
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            std::string(".eE+-").find(s_[pos_]) != std::string::npos)) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool Expect(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

bool IsValidJson(const std::string& text) {
  return JsonChecker(text).Valid();
}

TEST(JsonCheckerTest, SanityOnHandWrittenCases) {
  EXPECT_TRUE(IsValidJson("{}"));
  EXPECT_TRUE(IsValidJson("{\"a\":[1,2.5,-3e4],\"b\":{\"c\":null}}"));
  EXPECT_FALSE(IsValidJson("{\"a\":1,}"));
  EXPECT_FALSE(IsValidJson("{\"a\" 1}"));
  EXPECT_FALSE(IsValidJson("[1,2"));
  EXPECT_FALSE(IsValidJson("{\"a\":\"\x01\"}"));
}

// ---------------------------------------------------------------------------
// JsonWriter

TEST(JsonWriterTest, NestedContainersAndCommas) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a");
  w.Uint(1);
  w.Key("b");
  w.BeginArray();
  w.Int(-2);
  w.Bool(true);
  w.Null();
  w.BeginObject();
  w.Key("c");
  w.String("x");
  w.EndObject();
  w.EndArray();
  w.EndObject();
  const std::string json = std::move(w).str();
  EXPECT_EQ(json, "{\"a\":1,\"b\":[-2,true,null,{\"c\":\"x\"}]}");
  EXPECT_TRUE(IsValidJson(json));
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter w;
  w.BeginObject();
  w.Key("k\"ey");
  w.String("line\nbreak\ttab\\slash\x01");
  w.EndObject();
  const std::string json = std::move(w).str();
  EXPECT_EQ(json,
            "{\"k\\\"ey\":\"line\\nbreak\\ttab\\\\slash\\u0001\"}");
  EXPECT_TRUE(IsValidJson(json));
}

TEST(JsonWriterTest, ControlBytesEscapeAsUnicode) {
  // Every byte in U+0000..U+001F must leave as an escape, never raw.
  std::string raw;
  for (int c = 0; c < 0x20; ++c) raw.push_back(static_cast<char>(c));
  JsonWriter w;
  w.BeginObject();
  w.Key("ctl");
  w.String(raw);
  w.EndObject();
  const std::string json = std::move(w).str();
  for (char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << json;
  }
  EXPECT_NE(json.find("\\u0000"), std::string::npos);
  EXPECT_NE(json.find("\\u001f"), std::string::npos);
  EXPECT_TRUE(IsValidJson(json));
}

TEST(JsonWriterTest, RawValueEmbedsPreRenderedDocuments) {
  JsonWriter inner;
  inner.BeginObject();
  inner.Key("x");
  inner.Uint(1);
  inner.EndObject();
  JsonWriter w;
  w.BeginObject();
  w.Key("a");
  w.RawValue(inner.str());
  w.Key("b");
  w.BeginArray();
  w.RawValue("[1,2]");
  w.RawValue("\"s\"");
  w.EndArray();
  w.EndObject();
  const std::string json = std::move(w).str();
  EXPECT_EQ(json, "{\"a\":{\"x\":1},\"b\":[[1,2],\"s\"]}");
  EXPECT_TRUE(IsValidJson(json));
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(1.5);
  w.Double(std::nan(""));
  w.Double(INFINITY);
  w.EndArray();
  const std::string json = std::move(w).str();
  EXPECT_EQ(json, "[1.5,null,null]");
}

// ---------------------------------------------------------------------------
// ParseJson (the wire-protocol reader)

TEST(ParseJsonTest, ParsesScalarsContainersAndWhitespace) {
  Result<JsonValue> r = ParseJson(
      "  {\"s\": \"hi\", \"n\": -2.5e2, \"b\": true, \"z\": null,"
      " \"a\": [1, \"two\", {\"k\": false}]}  ");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const JsonValue& v = r.value();
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(v.GetString("s"), "hi");
  EXPECT_DOUBLE_EQ(v.GetNumber("n"), -250.0);
  EXPECT_TRUE(v.GetBool("b"));
  ASSERT_NE(v.Find("z"), nullptr);
  EXPECT_EQ(v.Find("z")->kind, JsonValue::Kind::kNull);
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(a->elements.size(), 3u);
  EXPECT_DOUBLE_EQ(a->elements[0].number_value, 1.0);
  EXPECT_EQ(a->elements[1].string_value, "two");
  EXPECT_FALSE(a->elements[2].GetBool("k", true));
}

TEST(ParseJsonTest, DecodesEscapesIncludingSurrogatePairs) {
  Result<JsonValue> r = ParseJson(
      "\"q\\\" b\\\\ s\\/ \\b\\f\\n\\r\\t u\\u0041 nul\\u0000"
      " pair\\ud83d\\ude00\"");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string expected = std::string("q\" b\\ s/ \b\f\n\r\t uA nul") +
                               '\0' + " pair\xf0\x9f\x98\x80";
  EXPECT_EQ(r.value().string_value, expected);
}

TEST(ParseJsonTest, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,2", "{\"a\":1,}", "{\"a\" 1}", "tru", "01", "1.",
        "+1", "\"\x01\"", "\"unterminated", "\"bad\\q\"", "\"\\u12\"",
        "\"\\ud83d\"",            // lone high surrogate
        "{\"a\":1} trailing",     // bytes after the document
        "nan", "[1] [2]"}) {
    Result<JsonValue> r = ParseJson(bad);
    EXPECT_FALSE(r.ok()) << "accepted: " << bad;
  }
}

TEST(ParseJsonTest, EnforcesTheDepthLimit) {
  std::string deep_ok(64, '[');
  deep_ok += std::string(64, ']');
  EXPECT_TRUE(ParseJson(deep_ok).ok());
  std::string too_deep(65, '[');
  too_deep += std::string(65, ']');
  EXPECT_FALSE(ParseJson(too_deep).ok());
}

TEST(ParseJsonTest, RoundTripsWriterOutputWithHostileBytes) {
  // NUL, newline, quote, backslash, DEL, and multi-byte UTF-8 all
  // survive writer -> parser byte-identically.
  const std::string hostile = std::string("a\0b", 3) + "\nq\"uote\\ba\x7f" +
                              "\xf0\x9f\x98\x80 end";
  JsonWriter w;
  w.BeginObject();
  w.Key(hostile);
  w.String(hostile);
  w.Key("nested");
  w.BeginArray();
  w.String(std::string("\0", 1));
  w.Double(-1.25);
  w.EndArray();
  w.EndObject();
  const std::string json = std::move(w).str();
  Result<JsonValue> r = ParseJson(json);
  ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << json;
  const JsonValue& v = r.value();
  ASSERT_EQ(v.members.size(), 2u);
  EXPECT_EQ(v.members[0].first, hostile);
  EXPECT_EQ(v.members[0].second.string_value, hostile);
  const JsonValue* nested = v.Find("nested");
  ASSERT_NE(nested, nullptr);
  ASSERT_EQ(nested->elements.size(), 2u);
  EXPECT_EQ(nested->elements[0].string_value, std::string("\0", 1));
  EXPECT_DOUBLE_EQ(nested->elements[1].number_value, -1.25);
}

TEST(ParseJsonTest, RoundTripsAMetricsSnapshotExport) {
  // The serving layer embeds this export via RawValue; it must parse.
  Result<JsonValue> r =
      ParseJson(MetricsRegistry::Get().Snapshot().ToJson());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().Find("counters"), nullptr);
}

// ---------------------------------------------------------------------------
// Counters and the metrics registry

TEST(MetricsTest, CounterNamesAreStableJsonKeys) {
  EXPECT_STREQ(CounterName(Counter::kEstimates), "estimates");
  EXPECT_STREQ(CounterName(Counter::kServeEnqueued), "serve_enqueued");
  EXPECT_STREQ(CounterName(Counter::kServeServed), "serve_served");
  EXPECT_STREQ(CounterName(Counter::kServeRejected), "serve_rejected");
  EXPECT_STREQ(CounterName(Counter::kServeDeadlineMisses),
               "serve_deadline_misses");
  EXPECT_STREQ(CounterName(Counter::kSnapshotPublishes),
               "snapshot_publishes");
  EXPECT_STREQ(CounterName(Counter::kCstSubpathLookups),
               "cst_subpath_lookups");
  EXPECT_STREQ(CounterName(Counter::kCstSubpathHits), "cst_subpath_hits");
  EXPECT_STREQ(CounterName(Counter::kCstSubpathMisses),
               "cst_subpath_misses");
  EXPECT_STREQ(CounterName(Counter::kSethashIntersections),
               "sethash_intersections");
  EXPECT_STREQ(CounterName(Counter::kTwigletMoFallbacks),
               "twiglet_mo_fallbacks");
  EXPECT_STREQ(CounterName(Counter::kTracesRecorded), "traces_recorded");
  EXPECT_STREQ(CounterName(Counter::kBatches), "batches");
}

TEST(MetricsTest, CountersToJsonEmitsEveryCounter) {
  CounterArray counters{};
  counters[static_cast<size_t>(Counter::kEstimates)] = 7;
  const std::string json = CountersToJson(counters);
  EXPECT_TRUE(IsValidJson(json));
  EXPECT_NE(json.find("\"estimates\":7"), std::string::npos);
  for (size_t i = 0; i < kCounterCount; ++i) {
    EXPECT_NE(json.find(std::string("\"") +
                        CounterName(static_cast<Counter>(i)) + "\""),
              std::string::npos)
        << i;
  }
}

TEST(MetricsTest, AddIsVisibleInSnapshotDelta) {
  auto& registry = MetricsRegistry::Get();
  const MetricsSnapshot before = registry.Snapshot();
  registry.Add(Counter::kEstimates, 3);
  registry.Add(Counter::kCstSubpathHits);
  const MetricsSnapshot delta = registry.Snapshot().Delta(before);
  EXPECT_GE(delta.counters[static_cast<size_t>(Counter::kEstimates)], 3u);
  EXPECT_GE(delta.counters[static_cast<size_t>(Counter::kCstSubpathHits)],
            1u);
}

TEST(MetricsTest, AggregatesAcrossThreads) {
  auto& registry = MetricsRegistry::Get();
  const MetricsSnapshot before = registry.Snapshot();
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        CountEvent(Counter::kSethashIntersections);
      }
    });
  }
  for (auto& w : workers) w.join();
  const MetricsSnapshot delta = registry.Snapshot().Delta(before);
  EXPECT_GE(
      delta.counters[static_cast<size_t>(Counter::kSethashIntersections)],
      kThreads * kPerThread);
}

TEST(MetricsTest, LatencyHistogramBucketsAndQuantiles) {
  auto& registry = MetricsRegistry::Get();
  const MetricsSnapshot before = registry.Snapshot();
  // Series 0 (Leaf) is not exercised concurrently by other tests here.
  for (int i = 0; i < 100; ++i) registry.RecordLatency(0, 1000);  // ~1 us
  registry.RecordLatency(0, 1u << 20);                            // ~1 ms
  const MetricsSnapshot delta = registry.Snapshot().Delta(before);
  const HistogramSnapshot& h = delta.latency[0];
  EXPECT_EQ(h.count, 101u);
  EXPECT_EQ(h.sum_nanos, 100u * 1000u + (1u << 20));
  // 1000 ns lands in bucket [512, 1024): index 10 = bit_width(1000).
  EXPECT_EQ(h.buckets[10], 100u);
  EXPECT_EQ(h.buckets[21], 1u);  // 2^20 in [2^20, 2^21)
  EXPECT_NEAR(h.MeanNanos(), (100.0 * 1000 + (1u << 20)) / 101, 1e-9);
  // p50 within log-bucket resolution of 1000 ns; p99+ catches the tail.
  EXPECT_LE(h.QuantileNanos(0.5), 1024.0);
  EXPECT_GE(h.QuantileNanos(0.999), 1 << 20);
  EXPECT_DOUBLE_EQ(HistogramSnapshot{}.QuantileNanos(0.5), 0.0);
}

TEST(MetricsTest, DeltaClampsNegativeToZero) {
  MetricsSnapshot a;
  MetricsSnapshot b;
  a.counters[0] = 5;
  b.counters[0] = 9;
  const MetricsSnapshot d = a.Delta(b);  // a - b < 0
  EXPECT_EQ(d.counters[0], 0u);
}

TEST(MetricsTest, SnapshotJsonParsesAndHasAllSeries) {
  const std::string json = MetricsRegistry::Get().Snapshot().ToJson();
  EXPECT_TRUE(IsValidJson(json));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"estimate_latency\""), std::string::npos);
  for (const char* name : kLatencySeriesNames) {
    EXPECT_NE(json.find(std::string("\"") + name + "\""),
              std::string::npos)
        << name;
  }
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Explain traces, end to end through the estimator

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() : data_(testutil::FigureOneTree()) {
    auto pst = suffix::PathSuffixTree::Build(data_);
    cst::CstOptions options;
    options.prune_threshold = 1;
    cst_ = cst::Cst::Build(data_, pst, options);
  }

  Trace Explain(const char* twig_text, core::Algorithm algorithm) {
    auto twig = query::ParseTwig(twig_text);
    EXPECT_TRUE(twig.ok());
    Trace trace;
    core::EstimateOptions options;
    options.trace = &trace;
    core::TwigEstimator(&cst_).Estimate(*twig, algorithm, options);
    return trace;
  }

  tree::Tree data_;
  cst::Cst cst_;
};

TEST_F(TraceTest, RecordsHeaderAndEstimate) {
  const Trace trace =
      Explain("book(author, year=\"Y1\")", core::Algorithm::kMsh);
  EXPECT_EQ(trace.query, "book(author, year=\"Y1\")");
  EXPECT_EQ(trace.algorithm, "MSH");
  EXPECT_EQ(trace.semantics, "occurrence");
  EXPECT_GT(trace.data_node_count, 0.0);
  EXPECT_GT(trace.missing_count, 0.0);
  EXPECT_FALSE(trace.pieces.empty());
  EXPECT_FALSE(trace.terms.empty());
  EXPECT_NEAR(trace.estimate, 6.0, 0.6);  // the Section 5 example
}

TEST_F(TraceTest, SubpathHitsCarryCstCounts) {
  const Trace trace =
      Explain("book(author, year=\"Y1\")", core::Algorithm::kMsh);
  size_t hits = 0;
  for (const PieceTrace& piece : trace.pieces) {
    EXPECT_FALSE(piece.label.empty());
    for (const SubpathTrace& sp : piece.subpaths) {
      EXPECT_FALSE(sp.subpath.empty());
      if (sp.hit) {
        ++hits;
        EXPECT_GT(sp.presence, 0.0) << sp.subpath;
        EXPECT_GE(sp.occurrence, sp.presence) << sp.subpath;
        EXPECT_GT(sp.count, 0.0) << sp.subpath;
      }
    }
  }
  EXPECT_GT(hits, 0u);  // unpruned CST: the query's subpaths are present
}

TEST_F(TraceTest, UnknownTagRecordedAsMiss) {
  const Trace trace = Explain("journal=\"X\"", core::Algorithm::kMo);
  ASSERT_FALSE(trace.pieces.empty());
  bool saw_miss = false;
  for (const PieceTrace& piece : trace.pieces) {
    for (const SubpathTrace& sp : piece.subpaths) {
      if (!sp.hit) {
        saw_miss = true;
        EXPECT_DOUBLE_EQ(sp.count, trace.missing_count) << sp.subpath;
      }
    }
  }
  EXPECT_TRUE(saw_miss);
}

TEST_F(TraceTest, TermsReproduceTheEstimate) {
  // The MO combination is estimate = N * prod(piece_prob/overlap_prob)
  // over non-skipped terms; replaying the recorded terms must land on
  // the recorded estimate, and the running estimates must agree.
  const Trace trace =
      Explain("book(author=\"A1\", year=\"Y1\")", core::Algorithm::kMsh);
  double replay = trace.data_node_count;
  for (const CombineTermTrace& t : trace.terms) {
    ASSERT_LT(t.piece, trace.pieces.size());
    if (t.skipped) continue;
    ASSERT_NE(t.overlap_prob, 0.0);
    replay *= t.piece_prob / t.overlap_prob;
    EXPECT_NEAR(replay, t.running_estimate, 1e-9 * (1.0 + replay));
  }
  EXPECT_NEAR(replay, trace.estimate, 1e-9 * (1.0 + replay));
}

TEST_F(TraceTest, ClearedBetweenQueries) {
  auto twig_a = query::ParseTwig("book(author, year=\"Y1\")");
  auto twig_b = query::ParseTwig("book.author");
  ASSERT_TRUE(twig_a.ok() && twig_b.ok());
  Trace trace;
  core::EstimateOptions options;
  options.trace = &trace;
  core::TwigEstimator estimator(&cst_);
  estimator.Estimate(*twig_a, core::Algorithm::kMsh, options);
  estimator.Estimate(*twig_b, core::Algorithm::kMo, options);
  EXPECT_EQ(trace.query, "book.author");
  EXPECT_EQ(trace.algorithm, "MO");
  // Nothing accumulated from the first query: the reused sink renders
  // identically to a fresh one.
  const Trace fresh = Explain("book.author", core::Algorithm::kMo);
  EXPECT_EQ(trace.ToJson(), fresh.ToJson());
}

TEST_F(TraceTest, LeafCarriesExplanatoryNote) {
  const Trace trace = Explain("book.author", core::Algorithm::kLeaf);
  EXPECT_NE(trace.note.find("Leaf"), std::string::npos);
}

TEST_F(TraceTest, TracingDoesNotChangeTheEstimate) {
  auto twig = query::ParseTwig("book(author=\"A1\", year=\"Y1\")");
  ASSERT_TRUE(twig.ok());
  core::TwigEstimator estimator(&cst_);
  for (core::Algorithm a : core::kAllAlgorithms) {
    const double untraced = estimator.Estimate(*twig, a);
    Trace trace;
    core::EstimateOptions options;
    options.trace = &trace;
    EXPECT_EQ(estimator.Estimate(*twig, a, options), untraced)
        << core::AlgorithmName(a);
    EXPECT_EQ(trace.estimate, untraced) << core::AlgorithmName(a);
  }
}

TEST_F(TraceTest, TextAndJsonRenderings) {
  for (core::Algorithm a : core::kAllAlgorithms) {
    const Trace trace = Explain("book(author, year=\"Y1\")", a);
    const std::string text = trace.ToText();
    EXPECT_NE(text.find("query: "), std::string::npos);
    EXPECT_NE(text.find("estimate: "), std::string::npos);
    const std::string json = trace.ToJson();
    EXPECT_TRUE(IsValidJson(json)) << core::AlgorithmName(a) << "\n"
                                   << json;
    for (const char* key :
         {"\"query\"", "\"algorithm\"", "\"semantics\"", "\"pieces\"",
          "\"terms\"", "\"estimate\"", "\"subpaths\"",
          "\"intersections\""}) {
      EXPECT_NE(json.find(key), std::string::npos)
          << core::AlgorithmName(a) << " missing " << key;
    }
  }
}

// ---------------------------------------------------------------------------
// Schema versions, percentile helper, accuracy window (PR 6)

TEST(MetricsTest, SchemaVersionIsPinnedAndRoundTrips) {
  // Downstream scrapers key on this; bumping it is a deliberate act.
  EXPECT_EQ(kMetricsSchemaVersion, 5u);
  const Result<JsonValue> parsed =
      ParseJson(MetricsRegistry::Get().Snapshot().ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().GetNumber("schema_version"),
            static_cast<double>(kMetricsSchemaVersion));
}

TEST(TraceSchemaTest, SchemaVersionIsPinnedAndRoundTrips) {
  EXPECT_EQ(kTraceSchemaVersion, 2u);
  const Trace trace;
  const Result<JsonValue> parsed = ParseJson(trace.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().GetNumber("schema_version"),
            static_cast<double>(kTraceSchemaVersion));
}

TEST(MetricsTest, HistogramRecordMatchesRegistryBucketing) {
  HistogramSnapshot h;
  for (int i = 0; i < 100; ++i) h.Record(1000);
  h.Record(1u << 20);
  EXPECT_EQ(h.count, 101u);
  EXPECT_EQ(h.buckets[10], 100u);  // bit_width(1000) = 10
  EXPECT_EQ(h.buckets[21], 1u);
  HistogramSnapshot other;
  other.Record(1000);
  h.Merge(other);
  EXPECT_EQ(h.count, 102u);
  EXPECT_EQ(h.buckets[10], 101u);
}

TEST(MetricsTest, SummarizeLatencyReportsOrderedPercentiles) {
  HistogramSnapshot h;
  for (int i = 0; i < 99; ++i) h.Record(1000);   // ~1 us
  h.Record(1u << 20);                            // ~1 ms tail
  const LatencyPercentiles p = SummarizeLatency(h);
  EXPECT_EQ(p.count, 100u);
  EXPECT_LE(p.p50_us, 1.024);
  EXPECT_LE(p.p50_us, p.p90_us);
  EXPECT_LE(p.p90_us, p.p95_us);
  EXPECT_LE(p.p95_us, p.p99_us);
  EXPECT_GE(p.p99_us, 1000.0);  // the tail bucket, in microseconds
  EXPECT_EQ(SummarizeLatency(HistogramSnapshot{}).count, 0u);
}

TEST(MetricsTest, AccuracyWindowStatistics) {
  AccuracySnapshot accuracy;
  EXPECT_DOUBLE_EQ(accuracy.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(accuracy.MeanAbs(), 0.0);
  EXPECT_DOUBLE_EQ(accuracy.QuantileAbs(0.5), 0.0);
  accuracy.window = {0.5, -0.5, 0.0, 0.25};
  accuracy.recorded = 4;
  EXPECT_NEAR(accuracy.Mean(), 0.0625, 1e-12);
  EXPECT_NEAR(accuracy.MeanAbs(), 0.3125, 1e-12);
  EXPECT_LE(accuracy.QuantileAbs(0.0), accuracy.QuantileAbs(1.0));
  EXPECT_DOUBLE_EQ(accuracy.QuantileAbs(1.0), 0.5);
}

TEST(MetricsTest, RecordAccuracySampleFillsTheSnapshotWindow) {
  auto& registry = MetricsRegistry::Get();
  const MetricsSnapshot before = registry.Snapshot();
  registry.RecordAccuracySample(0.125);
  registry.RecordAccuracySample(-0.125);
  const MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(after.accuracy.recorded, before.accuracy.recorded + 2);
  EXPECT_GE(after.accuracy.window.size(), 2u);
  EXPECT_LE(after.accuracy.window.size(), kAccuracyWindow);
  const std::string json = after.ToJson();
  EXPECT_TRUE(IsValidJson(json));
  EXPECT_NE(json.find("\"accuracy\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_abs\""), std::string::npos);
  EXPECT_NE(json.find("\"p90_us\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Spans and the flight recorder

SpanRecord MakeSpan(uint64_t id, uint64_t total_ns = 1000) {
  SpanRecord span;
  span.request_id = id;
  span.query = "article(author, year)";
  span.series = 5;  // MSH
  span.outcome = SpanOutcome::kServed;
  span.offset_ns[static_cast<size_t>(SpanStage::kAdmitted)] = 0;
  span.offset_ns[static_cast<size_t>(SpanStage::kReplied)] = total_ns;
  span.estimate = 41.5;
  span.snapshot_version = 3;
  return span;
}

TEST(SpanTest, StageAndOutcomeNamesAreStable) {
  EXPECT_STREQ(SpanStageName(SpanStage::kAdmitted), "admitted");
  EXPECT_STREQ(SpanStageName(SpanStage::kCacheLookup), "cache_lookup");
  EXPECT_STREQ(SpanStageName(SpanStage::kReplied), "replied");
  EXPECT_STREQ(SpanOutcomeName(SpanOutcome::kServed), "served");
  EXPECT_STREQ(SpanOutcomeName(SpanOutcome::kDeadlineMiss),
               "deadline_miss");
}

TEST(SpanTest, TotalIsTheLatestReachedStage) {
  SpanRecord span;
  EXPECT_EQ(span.total_ns(), 0u);  // nothing reached
  span.offset_ns[static_cast<size_t>(SpanStage::kAdmitted)] = 0;
  span.offset_ns[static_cast<size_t>(SpanStage::kEstimated)] = 500;
  span.offset_ns[static_cast<size_t>(SpanStage::kReplied)] = 700;
  EXPECT_EQ(span.total_ns(), 700u);
}

TEST(SpanTest, MarkStampsMonotoneOffsets) {
  RequestSpan span;
  span.Mark(SpanStage::kEstimated);  // inactive: no-op
  EXPECT_EQ(span.record.offset_ns[static_cast<size_t>(
                SpanStage::kEstimated)],
            kSpanStageUnset);
  span.Begin(7, "a.b", 5, std::chrono::steady_clock::now());
  span.Mark(SpanStage::kDequeued);
  span.Mark(SpanStage::kReplied);
  const auto& offsets = span.record.offset_ns;
  EXPECT_EQ(offsets[static_cast<size_t>(SpanStage::kAdmitted)], 0u);
  EXPECT_NE(offsets[static_cast<size_t>(SpanStage::kDequeued)],
            kSpanStageUnset);
  EXPECT_LE(offsets[static_cast<size_t>(SpanStage::kDequeued)],
            offsets[static_cast<size_t>(SpanStage::kReplied)]);
  EXPECT_EQ(span.record.request_id, 7u);
}

TEST(SpanTest, JsonRenderingHasTheDocumentedKeys) {
  SpanRecord span = MakeSpan(11);
  span.accuracy_sampled = true;
  span.relative_error = -0.25;
  const std::string json = SpanRecordToJson(span);
  EXPECT_TRUE(IsValidJson(json)) << json;
  const Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().GetNumber("id"), 11.0);
  EXPECT_EQ(parsed.value().GetString("algo"), "MSH");
  EXPECT_EQ(parsed.value().GetString("outcome"), "served");
  EXPECT_EQ(parsed.value().GetNumber("relative_error"), -0.25);
  const JsonValue* stages = parsed.value().Find("stages_us");
  ASSERT_NE(stages, nullptr);
  EXPECT_NE(stages->Find("admitted"), nullptr);
  EXPECT_NE(stages->Find("replied"), nullptr);
  EXPECT_EQ(stages->Find("pinned"), nullptr);  // unreached: omitted
}

TEST(FlightRecorderTest, RecordsAndSnapshotsInOrder) {
  SpanRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (uint64_t id = 1; id <= 5; ++id) {
    EXPECT_TRUE(ring.Record(MakeSpan(id)));
  }
  const std::vector<SpanRecord> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 5u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].request_id, i + 1);
    EXPECT_EQ(spans[i].query, "article(author, year)");
    EXPECT_EQ(spans[i].snapshot_version, 3u);
  }
  EXPECT_EQ(ring.recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(FlightRecorderTest, CapacityRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(SpanRing(0).capacity(), 8u);
  EXPECT_EQ(SpanRing(7).capacity(), 8u);
  EXPECT_EQ(SpanRing(9).capacity(), 16u);
  EXPECT_EQ(SpanRing(256).capacity(), 256u);
}

TEST(FlightRecorderTest, WrapAroundKeepsTheNewestRecords) {
  SpanRing ring(8);
  for (uint64_t id = 1; id <= 20; ++id) ring.Record(MakeSpan(id));
  const std::vector<SpanRecord> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 8u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].request_id, 13 + i);  // 13..20, oldest first
  }
}

TEST(FlightRecorderTest, QueryTextTruncatesToTheSlotWidth) {
  SpanRing ring(8);
  SpanRecord span = MakeSpan(1);
  span.query.assign(200, 'q');
  ring.Record(span);
  const std::vector<SpanRecord> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].query, std::string(kSpanQueryBytes, 'q'));
}

TEST(FlightRecorderTest, SlowSpansArePromotedToTheSlowLog) {
  FlightRecorderOptions options;
  options.entries = 8;
  options.slow_entries = 8;
  options.slow_threshold_ns = 1000000;  // 1 ms
  FlightRecorder recorder(options);
  recorder.Record(MakeSpan(1, /*total_ns=*/1000));     // fast
  recorder.Record(MakeSpan(2, /*total_ns=*/2000000));  // slow
  EXPECT_EQ(recorder.RecentSpans().size(), 2u);
  const std::vector<SpanRecord> slow = recorder.SlowSpans();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].request_id, 2u);
  const FlightRecorder::Stats stats = recorder.stats();
  EXPECT_EQ(stats.recorded, 2u);
  EXPECT_EQ(stats.slow_recorded, 1u);
  EXPECT_EQ(stats.slow_threshold_ns, 1000000u);
}

TEST(FlightRecorderTest, ZeroThresholdDisablesTheSlowLog) {
  FlightRecorder recorder(FlightRecorderOptions{8, 8, 0});
  recorder.Record(MakeSpan(1, /*total_ns=*/~uint64_t{0} >> 1));
  EXPECT_TRUE(recorder.SlowSpans().empty());
}

TEST(FlightRecorderTest, SpansJsonIsAValidArray) {
  FlightRecorder recorder(FlightRecorderOptions{8, 8, 0});
  recorder.Record(MakeSpan(1));
  recorder.Record(MakeSpan(2));
  const std::string json = recorder.SpansJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  const Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().elements.size(), 2u);
}

// Writers race a reader across wrap-arounds; every snapshotted record
// must be internally consistent (all fields from the same generation),
// never a torn mix. Patterned payloads make tearing detectable: for
// request id k, every field is a fixed function of k.
TEST(FlightRecorderTest, SnapshotIsTornReadFreeWhileWritersRace) {
  SpanRing ring(16);
  constexpr int kWriters = 4;
  // Enough records that a reader which skips its re-check sees a tear.
  constexpr uint64_t kPerWriter = 50000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> next_id{1};

  auto patterned = [](uint64_t id) {
    SpanRecord span;
    span.request_id = id;
    span.query = "q" + std::to_string(id);
    span.series = static_cast<uint8_t>(id % 6);
    span.outcome = static_cast<SpanOutcome>(id % 5);
    span.offset_ns[static_cast<size_t>(SpanStage::kAdmitted)] = 0;
    span.offset_ns[static_cast<size_t>(SpanStage::kReplied)] = id * 17;
    span.estimate = static_cast<double>(id) * 0.5;
    span.snapshot_version = id * 3;
    span.accuracy_sampled = (id % 2) == 0;
    span.relative_error = static_cast<double>(id) * 0.25;
    return span;
  };

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        ring.Record(patterned(next_id.fetch_add(1)));
      }
    });
  }
  std::thread reader([&] {
    uint64_t snapshots = 0;
    while (!stop.load(std::memory_order_acquire) || snapshots == 0) {
      for (const SpanRecord& span : ring.Snapshot()) {
        const uint64_t id = span.request_id;
        EXPECT_EQ(span.query, "q" + std::to_string(id));
        EXPECT_EQ(span.series, static_cast<uint8_t>(id % 6));
        EXPECT_EQ(span.outcome, static_cast<SpanOutcome>(id % 5));
        EXPECT_EQ(span.offset_ns[static_cast<size_t>(SpanStage::kReplied)],
                  id * 17);
        EXPECT_EQ(span.estimate, static_cast<double>(id) * 0.5);
        EXPECT_EQ(span.snapshot_version, id * 3);
        EXPECT_EQ(span.accuracy_sampled, (id % 2) == 0);
        EXPECT_EQ(span.relative_error, static_cast<double>(id) * 0.25);
      }
      ++snapshots;
    }
  });
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Every claim either landed or was counted as a drop.
  EXPECT_EQ(ring.recorded() + ring.dropped(), kWriters * kPerWriter);
  // The final quiescent snapshot holds whole records only. A slot whose
  // latest claim was dropped (writer lapped mid-record) stays at its
  // older generation and is correctly skipped, so drops bound the gap
  // to a full ring.
  const uint64_t dropped = ring.dropped();
  const size_t quiescent = ring.Snapshot().size();
  EXPECT_LE(quiescent, ring.capacity());
  EXPECT_GE(quiescent + std::min<uint64_t>(dropped, ring.capacity()),
            ring.capacity());
}

TEST_F(TraceTest, EstimateCountsTraceEvents) {
  auto& registry = MetricsRegistry::Get();
  const MetricsSnapshot before = registry.Snapshot();
  Explain("book(author, year=\"Y1\")", core::Algorithm::kMsh);
  const MetricsSnapshot delta = registry.Snapshot().Delta(before);
  EXPECT_GE(delta.counters[static_cast<size_t>(Counter::kEstimates)], 1u);
  EXPECT_GE(
      delta.counters[static_cast<size_t>(Counter::kTracesRecorded)], 1u);
  EXPECT_GE(
      delta.counters[static_cast<size_t>(Counter::kCstSubpathLookups)],
      delta.counters[static_cast<size_t>(Counter::kCstSubpathHits)]);
}

}  // namespace
}  // namespace twig::obs
