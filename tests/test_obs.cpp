// Unit tests for the observability layer: JSON writer output and
// escaping, histogram bucketing and quantiles, registry behavior, span
// recording/nesting/suspension, Chrome-trace export (validated with a
// minimal JSON parser), the provenance manifest document, the divergence
// auditor (stage taps, logit drift, prediction-flip ledger), the drift
// report exporters, and the shared end-of-run artifact export including
// its failure paths.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "image/image.h"
#include "obs/drift.h"
#include "obs/fault_ledger.h"
#include "obs/flip_ledger.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "util/check.h"
#include "util/csv.h"

namespace edgestab::obs {
namespace {

// ---- Minimal recursive-descent JSON validator -------------------------------
// Enough grammar to prove the exporters emit well-formed documents without
// pulling in a JSON dependency. Returns true iff the whole input is one
// valid JSON value.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* word) {
    std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// Restores the tracer to a clean, disabled state around each span test so
// tests do not leak state into one another.
struct TracerSandbox {
  TracerSandbox() {
    Tracer::global().clear();
    Tracer::global().set_enabled(true);
  }
  ~TracerSandbox() {
    Tracer::global().set_enabled(false);
    Tracer::global().set_max_events_per_thread(Tracer::kMaxEventsPerThread);
    Tracer::global().clear();
  }
};

// Same idea for the divergence auditor: enabled and empty on entry,
// disabled and empty (with the default item cap) on exit.
struct DriftSandbox {
  DriftSandbox() {
    DriftAuditor::global().clear();
    DriftAuditor::global().set_enabled(true);
  }
  ~DriftSandbox() {
    DriftAuditor::global().set_enabled(false);
    DriftAuditor::global().set_max_audited_items(
        DriftAuditor::kDefaultMaxAuditedItems);
    DriftAuditor::global().clear();
  }
};

// Scratch directory for exporter tests, wiped on entry and exit.
std::filesystem::path scratch_dir(const char* leaf) {
  std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---- JsonWriter -------------------------------------------------------------

TEST(JsonWriter, ObjectsArraysAndCommas) {
  JsonWriter w;
  w.begin_object();
  w.key("a").value(1);
  w.key("b");
  w.begin_array();
  w.value("x").value(2.5).value(true);
  w.end_array();
  w.key("c").value("z");
  w.end_object();
  EXPECT_EQ(w.take(), R"({"a":1,"b":["x",2.5,true],"c":"z"})");
}

TEST(JsonWriter, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(JsonWriter::escape("q\"b\\s\n\t"), "q\\\"b\\\\s\\n\\t");
  // Control characters must come out as \u00xx escapes.
  EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("list");
  w.begin_array();
  w.end_array();
  w.key("obj");
  w.begin_object();
  w.end_object();
  w.end_object();
  std::string doc = w.take();
  EXPECT_EQ(doc, R"({"list":[],"obj":{}})");
  EXPECT_TRUE(JsonChecker(doc).valid());
}

TEST(JsonWriter, UnbalancedNestingIsRejected) {
  JsonWriter w;
  w.begin_object();
  EXPECT_THROW(w.take(), CheckError);
}

// ---- Counter / Histogram ----------------------------------------------------

TEST(Counter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (std::uint64_t v : {1, 2, 3, 4, 5, 6, 7}) h.record(v);
  // Values below kSubBuckets land in unit-width buckets, so quantiles on
  // this input are exact order statistics.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 7.0);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 28u);
}

TEST(Histogram, BucketIndexMonotonicAndBounded) {
  int prev = -1;
  for (std::uint64_t v = 0; v < 100000; v = v < 16 ? v + 1 : v * 2) {
    int idx = Histogram::bucket_index(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
  EXPECT_LT(Histogram::bucket_index(UINT64_MAX), Histogram::kBucketCount);
}

TEST(Histogram, LargeValueQuantilesWithinRelativeError) {
  Histogram h;
  // 100 samples at exactly 1e6 ns: every quantile must come back within
  // the documented <= 1/16 relative bucket error.
  for (int i = 0; i < 100; ++i) h.record(1000000);
  for (double q : {0.5, 0.95, 0.99}) {
    double est = h.quantile(q);
    EXPECT_NEAR(est, 1e6, 1e6 / 16.0) << "q=" << q;
  }
  HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.min, 1000000u);
  EXPECT_EQ(s.max, 1000000u);
  EXPECT_DOUBLE_EQ(s.mean(), 1e6);
}

TEST(Histogram, InterpolatesWithinWideBucket) {
  Histogram h;
  // 1024..1151 share one log bucket of width 128; without interpolation
  // every quantile would collapse onto a bucket edge.
  for (std::uint64_t v = 1024; v < 1152; ++v) h.record(v);
  ASSERT_EQ(Histogram::bucket_index(1024), Histogram::bucket_index(1151));
  EXPECT_NEAR(h.quantile(0.5), 1087.5, 0.51);
  EXPECT_NEAR(h.quantile(0.25), 1055.5, 0.51);
  EXPECT_LT(h.quantile(0.25), h.quantile(0.75));
  // Clamping into the observed range keeps boundary quantiles honest:
  // q=1 is the exact max, q=0 never drops below the min.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1151.0);
  EXPECT_GE(h.quantile(0.0), 1024.0);
  EXPECT_LE(h.quantile(0.0), 1025.0);
}

TEST(Histogram, FirstAndLastBucketBoundary) {
  Histogram h;
  h.record(7);  // last unit-width bucket: exact
  h.record(8);  // first log bucket [8, 9)
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 7.0);
  // The interpolated estimate inside [8, 9) lands above the true max and
  // must clamp back to it.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 8.0);
}

TEST(Histogram, MixedDistributionQuantileOrdering) {
  Histogram h;
  for (int i = 0; i < 95; ++i) h.record(100);
  for (int i = 0; i < 5; ++i) h.record(100000);
  // p50 sits in the bulk, p99 in the tail — the orders of magnitude must
  // not blur together.
  EXPECT_LT(h.quantile(0.5), 200.0);
  EXPECT_GT(h.quantile(0.99), 50000.0);
}

TEST(MetricsRegistry, StableReferencesAndSnapshot) {
  MetricsRegistry reg;
  Counter& a = reg.counter("alpha");
  Counter& a2 = reg.counter("alpha");
  EXPECT_EQ(&a, &a2);
  a.add(3);
  reg.counter("beta").add(1);
  reg.histogram("stage").record(5);

  auto counters = reg.counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "alpha");
  EXPECT_EQ(counters[0].second, 3u);
  EXPECT_EQ(counters[1].first, "beta");

  auto histograms = reg.histograms();
  ASSERT_EQ(histograms.size(), 1u);
  EXPECT_EQ(histograms[0].first, "stage");
  EXPECT_EQ(histograms[0].second.count, 1u);

  reg.reset();
  EXPECT_EQ(reg.counters()[0].second, 0u);
  EXPECT_EQ(reg.histograms()[0].second.count, 0u);
}

TEST(MetricsRegistry, StageTimingCsvShape) {
  MetricsRegistry reg;
  reg.histogram("isp.demosaic").record(2000000);  // 2 ms
  CsvWriter csv = stage_timing_csv(reg);
  std::string text = csv.str();
  EXPECT_NE(text.find("stage,count,total_ms"), std::string::npos);
  EXPECT_NE(text.find("isp.demosaic,1,2"), std::string::npos);
}

// ---- Tracer / ScopedSpan ----------------------------------------------------

TEST(Tracer, RecordsNestedSpansWithDepth) {
  TracerSandbox sandbox;
  {
    ScopedSpan outer("test", "outer");
    ScopedSpan inner("test", "inner");
  }
  auto events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Inner destructs first, so it is recorded first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_GE(events[1].duration_ns, events[0].duration_ns);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  TracerSandbox sandbox;
  Tracer::global().set_enabled(false);
  {
    ScopedSpan span("test", "ignored");
  }
  EXPECT_EQ(Tracer::global().size(), 0u);
}

TEST(Tracer, SuspendTracingIsNestingSafe) {
  TracerSandbox sandbox;
  {
    SuspendTracing outer;
    EXPECT_FALSE(Tracer::global().enabled());
    {
      SuspendTracing inner;
      EXPECT_FALSE(Tracer::global().enabled());
    }
    EXPECT_FALSE(Tracer::global().enabled());
    ScopedSpan span("test", "suppressed");
  }
  EXPECT_TRUE(Tracer::global().enabled());
  EXPECT_EQ(Tracer::global().size(), 0u);
}

TEST(Tracer, SpanFeedsHistogram) {
  TracerSandbox sandbox;
  Histogram h;
  {
    ScopedSpan span("test", "timed", &h);
  }
  EXPECT_EQ(h.count(), 1u);
}

TEST(Tracer, ThreadsGetDistinctIds) {
  TracerSandbox sandbox;
  {
    ScopedSpan span("test", "main_thread");
  }
  std::thread([] { ScopedSpan span("test", "worker"); }).join();
  auto events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].thread_id, events[1].thread_id);
}

TEST(Tracer, DroppedEventsAreCountedAgainstTheCap) {
  TracerSandbox sandbox;
  Tracer::global().set_max_events_per_thread(4);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span("test", "capped");
  }
  EXPECT_EQ(Tracer::global().size(), 4u);
  EXPECT_EQ(Tracer::global().dropped(), 6u);
}

TEST(Tracer, WorkerStagingFlushesAtThreadExit) {
  TracerSandbox sandbox;
  std::thread([] {
    for (int i = 0; i < 3; ++i) {
      ScopedSpan span("test", "worker_staged");
    }
    // No flush/snapshot here: fewer than kFlushChunk events sit in the
    // worker's staging vector until its thread-exit flush.
  }).join();
  auto events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (const SpanEvent& e : events) EXPECT_STREQ(e.name, "worker_staged");
}

TEST(Tracer, ChromeTraceJsonRoundTrips) {
  TracerSandbox sandbox;
  {
    ScopedSpan outer("isp", "pipeline");
    ScopedSpan inner("isp", "demosaic \"quoted\"");
  }
  std::string doc = chrome_trace_json(Tracer::global());
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"demosaic \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"isp\""), std::string::npos);
}

// With the tracer enabled, the instrumentation macros record one span
// and feed the counter.
TEST(Tracer, MacroRespectsBuildFlavor) {
  TracerSandbox sandbox;
  {
    ES_TRACE_SCOPE("test", "macro_span");
    ES_COUNT("test.macro_count", 2);
  }
  EXPECT_EQ(Tracer::global().size(), 1u);
  EXPECT_GE(MetricsRegistry::global().counter("test.macro_count").value(),
            2u);
}

// ---- RunManifest ------------------------------------------------------------

TEST(RunManifest, EmitsValidProvenanceJson) {
  RunManifest m("unit_test");
  m.set_seed(4242);
  m.set_wall_seconds(1.5);
  m.set_field("note", "hello \"world\"");
  m.set_field("objects", 30.0);
  m.add_digest("lab_rig", 0xdeadbeefcafef00dull);
  ManifestDevice d;
  d.name = "Samsung Galaxy S10";
  d.model_code = "SM-G973F";
  d.isp = "warm";
  d.format = "jpeg";
  d.quality = 85;
  d.soc = "Exynos 9820";
  d.digest = "0123456789abcdef";
  m.add_device(d);
  m.add_artifact("unit_test.csv");

  std::string doc = m.to_json();
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"schema\":\"edgestab-run-manifest-v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"bench\":\"unit_test\""), std::string::npos);
  EXPECT_NE(doc.find("\"seed\":4242"), std::string::npos);
  EXPECT_NE(doc.find("\"lab_rig\":\"deadbeefcafef00d\""), std::string::npos);
  EXPECT_NE(doc.find("\"Samsung Galaxy S10\""), std::string::npos);
  EXPECT_NE(doc.find("\"unit_test.csv\""), std::string::npos);
}

TEST(RunManifest, HexDigestIsZeroPadded) {
  EXPECT_EQ(hex_digest(0x1ull), "0000000000000001");
  EXPECT_EQ(hex_digest(UINT64_MAX), "ffffffffffffffff");
}

// ---- DriftAuditor -----------------------------------------------------------

TEST(DriftAuditor, TapComparesAgainstReferenceEnvironment) {
  DriftSandbox sandbox;
  DriftAuditor& auditor = DriftAuditor::global();
  Image ref(16, 16, 3, 0.5f);
  Image cur(16, 16, 3, 0.6f);
  {
    DriftScope scope("unit", /*item=*/0, /*env=*/0);
    auditor.tap_stage(0, "demosaic", ref);
  }
  {
    DriftScope scope("unit", 0, 1);
    auditor.tap_stage(0, "demosaic", cur);
  }
  auto stages = auditor.stage_summaries();
  ASSERT_EQ(stages.size(), 1u);
  const StageDriftSummary& s = stages[0];
  EXPECT_EQ(s.group, "unit");
  EXPECT_EQ(s.stage, "demosaic");
  EXPECT_EQ(s.stage_index, 0);
  EXPECT_EQ(s.psnr_db.count, 1);
  // A constant 0.1 offset has MSE 0.01 -> PSNR 20 dB (the quantized
  // reference shifts it by a fraction of a dB).
  EXPECT_NEAR(s.psnr_db.mean(), 20.0, 0.3);
  EXPECT_NEAR(s.channel_mean_delta.mean(), 0.1, 1e-3);
  EXPECT_NEAR(s.channel_var_delta.mean(), 0.0, 1e-3);
  EXPECT_LT(s.ssim.mean(), 1.0);
  EXPECT_EQ(s.identical_pairs, 0);
  // The comparison also fed the registry histograms named in the summary.
  EXPECT_EQ(s.psnr_metric, "drift.unit.demosaic.psnr_mdb");
  EXPECT_EQ(
      MetricsRegistry::global().histogram(s.psnr_metric).count() >= 1, true);
  EXPECT_FALSE(is_timing_histogram(s.psnr_metric));
}

TEST(DriftAuditor, IdenticalImagesHitPsnrCap) {
  DriftSandbox sandbox;
  DriftAuditor& auditor = DriftAuditor::global();
  Image img(8, 8, 3, 1.0f);  // 1.0 quantizes exactly
  {
    DriftScope scope("unit", 0, 0);
    auditor.tap_stage(1, "white_balance", img);
  }
  {
    DriftScope scope("unit", 0, 1);
    auditor.tap_stage(1, "white_balance", img);
  }
  auto stages = auditor.stage_summaries();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].identical_pairs, 1);
  EXPECT_DOUBLE_EQ(stages[0].psnr_db.mean(), DriftAuditor::kPsnrCapDb);
  EXPECT_DOUBLE_EQ(stages[0].ssim.mean(), 1.0);
}

TEST(DriftAuditor, TapWithoutScopeOrWhenDisabledIsIgnored) {
  DriftSandbox sandbox;
  DriftAuditor& auditor = DriftAuditor::global();
  Image img(8, 8, 1, 0.5f);
  auditor.tap_stage(0, "demosaic", img);  // no DriftScope on this thread
  EXPECT_TRUE(auditor.stage_summaries().empty());

  auditor.set_enabled(false);
  {
    DriftScope scope("unit", 0, 0);
    auditor.tap_stage(0, "demosaic", img);
  }
  EXPECT_TRUE(auditor.stage_summaries().empty());
  auditor.set_enabled(true);
}

TEST(DriftAuditor, ItemCapSkipsAndCounts) {
  DriftSandbox sandbox;
  DriftAuditor& auditor = DriftAuditor::global();
  auditor.set_max_audited_items(1);
  Image img(8, 8, 1, 0.25f);
  {
    DriftScope scope("cap", 0, 0);
    auditor.tap_stage(0, "demosaic", img);  // item 0 becomes the reference
  }
  {
    DriftScope scope("cap", 1, 0);
    auditor.tap_stage(0, "demosaic", img);  // item 1 is over the cap
  }
  {
    DriftScope scope("cap", 1, 1);
    auditor.tap_stage(0, "demosaic", img);  // still over the cap
  }
  EXPECT_EQ(auditor.skipped_items(), 2);
  {
    DriftScope scope("cap", 0, 1);
    auditor.tap_stage(0, "demosaic", img);  // item 0 still compares fine
  }
  auto stages = auditor.stage_summaries();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].psnr_db.count, 1);
}

TEST(DriftAuditor, LogitDriftMetrics) {
  DriftSandbox sandbox;
  DriftAuditor& auditor = DriftAuditor::global();
  std::vector<float> ref = {2.0f, 0.0f, 0.0f};
  std::vector<float> cur = {0.0f, 2.0f, 0.0f};
  auditor.record_logits("logits", 0, 0, ref);
  auditor.record_logits("logits", 0, 1, cur);
  auditor.record_logits("logits", 0, 0, ref);  // reference env: no self-compare
  auto summaries = auditor.logit_summaries();
  ASSERT_EQ(summaries.size(), 1u);
  const LogitDriftSummary& s = summaries[0];
  EXPECT_EQ(s.comparisons, 1);
  EXPECT_EQ(s.top1_agree, 0);  // argmax flipped 0 -> 1
  EXPECT_NEAR(s.l2.mean(), std::sqrt(8.0), 1e-5);
  EXPECT_NEAR(s.linf.mean(), 2.0, 1e-6);
  EXPECT_GT(s.kl.mean(), 0.0);
  EXPECT_NEAR(s.top1_margin.mean(), 2.0, 1e-6);
  EXPECT_EQ(s.l2_metric, "drift.logit.logits.l2_micro");
}

TEST(DriftAuditor, EnvLabelsDefaultAndOverride) {
  DriftSandbox sandbox;
  DriftAuditor& auditor = DriftAuditor::global();
  EXPECT_EQ(auditor.env_label("g", 3), "env3");
  auditor.set_env_label("g", 3, "Samsung Galaxy S10");
  EXPECT_EQ(auditor.env_label("g", 3), "Samsung Galaxy S10");
}

TEST(DriftScope, NestedScopesRestoreOuterContext) {
  DriftSandbox sandbox;
  DriftAuditor& auditor = DriftAuditor::global();
  Image img(4, 4, 1, 0.5f);
  {
    DriftScope outer("outer", 0, 0);
    {
      DriftScope inner("inner", 7, 1);
      auditor.tap_stage(0, "demosaic", img);
    }
    auditor.tap_stage(0, "demosaic", img);
  }
  auto stages = auditor.stage_summaries();
  ASSERT_EQ(stages.size(), 2u);  // one slot per group, sorted by name
  EXPECT_EQ(stages[0].group, "inner");
  EXPECT_EQ(stages[1].group, "outer");
}

// ---- FlipLedger -------------------------------------------------------------

TEST(FlipLedger, MatchesInstabilitySemantics) {
  FlipLedger ledger;
  std::vector<FlipOutcome> outcomes = {
      // item 0 (class 3): env0 correct, env1 wrong — the one unstable item.
      {0, 0, true, 3, 3},
      {0, 1, false, 5, 3},
      // item 1: all environments correct.
      {1, 0, true, 2, 2},
      {1, 1, true, 2, 2},
      // item 2: all environments wrong — stays in the denominator.
      {2, 0, false, 1, 7},
      {2, 1, false, 4, 7},
      // item 3: a single observation is skipped entirely.
      {3, 0, true, 9, 9},
  };
  ledger.add_group("g", outcomes);
  auto s = ledger.find_group("g");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->total_items, 3);
  EXPECT_EQ(s->unstable_items, 1);
  EXPECT_EQ(s->all_correct_items, 1);
  EXPECT_EQ(s->all_incorrect_items, 1);
  EXPECT_DOUBLE_EQ(s->instability(), 1.0 / 3.0);
  EXPECT_EQ(s->flips_by_class.at(3), 1);
  EXPECT_EQ(s->unstable_by_class.at(3), 1);
  EXPECT_EQ(s->flips_by_pair.at({0, 1}), 1);
  ASSERT_EQ(s->entries.size(), 1u);
  EXPECT_EQ(s->entries[0].item, 0);
  EXPECT_EQ(s->entries[0].env_correct, 0);
  EXPECT_EQ(s->entries[0].env_incorrect, 1);
  EXPECT_EQ(s->entries[0].predicted_correct, 3);
  EXPECT_EQ(s->entries[0].predicted_incorrect, 5);
  EXPECT_EQ(s->dropped_entries, 0);
  EXPECT_FALSE(ledger.find_group("missing").has_value());
}

TEST(FlipLedger, AppendsToExistingGroup) {
  FlipLedger ledger;
  std::vector<FlipOutcome> first = {{0, 0, true, 1, 1}};
  std::vector<FlipOutcome> second = {{0, 1, false, 2, 1}};
  ledger.add_group("g", first);
  // One observation so far: the item is skipped.
  EXPECT_EQ(ledger.find_group("g")->total_items, 0);
  ledger.add_group("g", second);
  auto s = ledger.find_group("g");
  EXPECT_EQ(s->total_items, 1);
  EXPECT_EQ(s->unstable_items, 1);
}

TEST(FlipLedger, DigestTracksContent) {
  FlipLedger a;
  FlipLedger b;
  EXPECT_EQ(a.digest(), b.digest());
  std::vector<FlipOutcome> outcomes = {{0, 0, true, 1, 1},
                                       {0, 1, false, 2, 1}};
  a.add_group("g", outcomes);
  EXPECT_NE(a.digest(), b.digest());
  b.add_group("g", outcomes);
  EXPECT_EQ(a.digest(), b.digest());
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.digest(), FlipLedger().digest());
}

TEST(FlipLedger, MergeIsShardOrderIndependent) {
  // The same outcomes, recorded whole vs. sharded across two ledgers in
  // scrambled order (as per-thread shards would be), must merge to an
  // identical ledger: same tallies, entries and digest.
  std::vector<FlipOutcome> outcomes = {
      {0, 0, true, 3, 3},  {0, 1, false, 5, 3}, {1, 0, true, 2, 2},
      {1, 1, false, 4, 2}, {2, 0, false, 1, 7}, {2, 1, true, 7, 7},
  };
  FlipLedger whole;
  whole.add_group("g", outcomes);

  FlipLedger shard_a, shard_b;
  std::vector<FlipOutcome> a_part = {outcomes[3], outcomes[0], outcomes[5]};
  std::vector<FlipOutcome> b_part = {outcomes[4], outcomes[2], outcomes[1]};
  shard_a.add_group("g", a_part);
  shard_b.add_group("g", b_part);

  FlipLedger merged_ab, merged_ba;
  merged_ab.merge(shard_a);
  merged_ab.merge(shard_b);
  merged_ba.merge(shard_b);
  merged_ba.merge(shard_a);

  EXPECT_EQ(merged_ab.digest(), whole.digest());
  EXPECT_EQ(merged_ba.digest(), whole.digest());
  auto s = merged_ab.find_group("g");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->total_items, 3);
  EXPECT_EQ(s->unstable_items, 3);
  ASSERT_EQ(s->entries.size(), whole.find_group("g")->entries.size());
  for (std::size_t i = 0; i < s->entries.size(); ++i) {
    EXPECT_EQ(s->entries[i].item,
              whole.find_group("g")->entries[i].item);
    EXPECT_EQ(s->entries[i].env_correct,
              whole.find_group("g")->entries[i].env_correct);
  }
}

// ---- Fault ledger -----------------------------------------------------------

FaultEvent fault_event(FaultEventKind kind, int device, int item, int shot,
                       int attempt = 0, double detail = 0.0) {
  return FaultEvent{kind, device, item, shot, attempt, false, detail};
}

TEST(FaultLedger, SummariesTallyPerDeviceAndKind) {
  FaultLedger ledger;
  ledger.record("g", fault_event(FaultEventKind::kCaptureDropout, 0, 1, 0));
  ledger.record("g", fault_event(FaultEventKind::kShotLost, 0, 1, 0, 0, 1));
  ledger.record("g",
                fault_event(FaultEventKind::kPayloadBitFlip, 1, 2, 0, 0, 3));
  ledger.record("g",
                fault_event(FaultEventKind::kStragglerDelay, 1, 2, 0, 0, 80));
  ledger.record("g", fault_event(FaultEventKind::kRetry, 1, 2, 0, 1, 20));
  ledger.record("g", fault_event(FaultEventKind::kQuarantine, 1, 4, 0, 0, 2));
  ledger.record("other", fault_event(FaultEventKind::kShotLost, 0, 0, 0));

  auto g = ledger.find_group("g");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->total_events, 6);
  EXPECT_EQ(g->shots_lost, 1);
  EXPECT_EQ(g->quarantined_devices, 1);
  ASSERT_EQ(g->devices.size(), 2u);
  EXPECT_EQ(g->devices[0].device, 0);
  EXPECT_EQ(g->devices[0].dropouts, 1);
  EXPECT_EQ(g->devices[0].shots_lost, 1);
  EXPECT_FALSE(g->devices[0].quarantined);
  EXPECT_EQ(g->devices[1].device, 1);
  EXPECT_EQ(g->devices[1].payload_bit_flips, 1);
  EXPECT_EQ(g->devices[1].stragglers, 1);
  EXPECT_EQ(g->devices[1].retries, 1);
  // Straggler + backoff time both land in the synthetic delay total.
  EXPECT_DOUBLE_EQ(g->devices[1].total_delay_ms, 100.0);
  EXPECT_TRUE(g->devices[1].quarantined);
  EXPECT_EQ(g->devices[1].quarantined_from_item, 4);

  EXPECT_FALSE(ledger.find_group("missing").has_value());
  ASSERT_TRUE(ledger.find_group("other").has_value());
  EXPECT_EQ(ledger.find_group("other")->shots_lost, 1);
}

TEST(FaultLedger, EntriesAreCanonicallySorted) {
  // Record in scrambled (completion) order; the summary must come back
  // in coordinate order regardless.
  FaultLedger ledger;
  ledger.record("g", fault_event(FaultEventKind::kShotLost, 1, 0, 1));
  ledger.record("g", fault_event(FaultEventKind::kCaptureDropout, 0, 2, 0));
  ledger.record("g", fault_event(FaultEventKind::kCaptureDropout, 1, 0, 0));
  ledger.record("g", fault_event(FaultEventKind::kCaptureDropout, 0, 1, 0));

  auto g = ledger.find_group("g");
  ASSERT_TRUE(g.has_value());
  ASSERT_EQ(g->entries.size(), 4u);
  for (std::size_t i = 1; i < g->entries.size(); ++i) {
    const FaultEvent& a = g->entries[i - 1];
    const FaultEvent& b = g->entries[i];
    EXPECT_LE(std::tie(a.device, a.item, a.shot),
              std::tie(b.device, b.item, b.shot));
  }
  EXPECT_EQ(g->entries[0].device, 0);
  EXPECT_EQ(g->entries[0].item, 1);
}

TEST(FaultLedger, MergeIsShardOrderIndependent) {
  // The same events recorded whole vs. sharded across two ledgers in
  // scrambled order (as parallel lanes would) must merge to identical
  // tallies and digest — the property the faulted determinism test
  // leans on.
  std::vector<FaultEvent> events = {
      fault_event(FaultEventKind::kCaptureDropout, 0, 0, 0),
      fault_event(FaultEventKind::kShotLost, 0, 0, 0, 0, 1),
      fault_event(FaultEventKind::kPayloadBitFlip, 1, 1, 0, 0, 2),
      fault_event(FaultEventKind::kRetry, 1, 1, 0, 1, 20),
      fault_event(FaultEventKind::kShotLost, 2, 3, 1, 1, 2),
      fault_event(FaultEventKind::kQuarantine, 2, 4, 0, 0, 2),
  };
  FaultLedger whole;
  for (const FaultEvent& e : events) whole.record("g", e);

  FaultLedger shard_a, shard_b;
  for (std::size_t i : {3u, 0u, 5u}) shard_a.record("g", events[i]);
  for (std::size_t i : {4u, 2u, 1u}) shard_b.record("g", events[i]);

  FaultLedger merged_ab, merged_ba;
  merged_ab.merge(shard_a);
  merged_ab.merge(shard_b);
  merged_ba.merge(shard_b);
  merged_ba.merge(shard_a);

  EXPECT_EQ(merged_ab.digest(), whole.digest());
  EXPECT_EQ(merged_ba.digest(), whole.digest());
  auto s = merged_ab.find_group("g");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->total_events, 6);
  EXPECT_EQ(s->shots_lost, 2);
  EXPECT_EQ(s->quarantined_devices, 1);
}

TEST(FaultLedger, DigestTracksContentAndClearResets) {
  FaultLedger a, b;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.digest(), b.digest());
  a.record("g", fault_event(FaultEventKind::kShotLost, 0, 0, 0));
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a.digest(), b.digest());
  b.record("g", fault_event(FaultEventKind::kShotLost, 0, 0, 0));
  EXPECT_EQ(a.digest(), b.digest());
  // Same coordinates, different kind -> different digest.
  FaultLedger c;
  c.record("g", fault_event(FaultEventKind::kCaptureDropout, 0, 0, 0));
  EXPECT_NE(a.digest(), c.digest());
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.digest(), FaultLedger().digest());
}

// ---- Drift report exporters -------------------------------------------------

// Feed the auditor one of everything so the report sections are all
// populated.
void feed_auditor_for_report() {
  DriftAuditor& auditor = DriftAuditor::global();
  Image a(8, 8, 3, 1.0f);
  Image b(8, 8, 3, 0.25f);
  {
    DriftScope scope("report", 0, 0);
    auditor.tap_stage(0, "demosaic", a);
  }
  {
    DriftScope scope("report", 0, 1);
    auditor.tap_stage(0, "demosaic", b);
  }
  std::vector<float> ref = {2.0f, 0.0f};
  std::vector<float> cur = {0.0f, 2.0f};
  auditor.record_logits("report", 0, 0, ref);
  auditor.record_logits("report", 0, 1, cur);
  auditor.set_env_label("report", 0, "ref phone");
  auditor.set_env_label("report", 1, "drifty <phone>");
  std::vector<FlipOutcome> outcomes = {{0, 0, true, 1, 1},
                                       {0, 1, false, 2, 1}};
  auditor.record_flips("report", outcomes);
}

TEST(DriftReport, JsonIsValidAndComplete) {
  DriftSandbox sandbox;
  feed_auditor_for_report();
  std::string doc = drift_json(DriftAuditor::global(), "unit_report");
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"schema\":\"edgestab-drift-report-v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"bench\":\"unit_report\""), std::string::npos);
  EXPECT_NE(doc.find("\"stage_drift\""), std::string::npos);
  EXPECT_NE(doc.find("\"stage\":\"demosaic\""), std::string::npos);
  EXPECT_NE(doc.find("\"logit_drift\""), std::string::npos);
  EXPECT_NE(doc.find("\"flip_ledger\""), std::string::npos);
  EXPECT_NE(doc.find("\"unstable_items\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"env_correct_label\":\"ref phone\""),
            std::string::npos);
}

TEST(DriftReport, HtmlIsSelfContainedAndEscaped) {
  DriftSandbox sandbox;
  feed_auditor_for_report();
  std::string doc = drift_html(DriftAuditor::global(), "unit_report");
  EXPECT_NE(doc.find("<html"), std::string::npos);
  EXPECT_NE(doc.find("<style>"), std::string::npos);
  EXPECT_NE(doc.find("id=\"stage-drift\""), std::string::npos);
  EXPECT_NE(doc.find("id=\"logit-drift\""), std::string::npos);
  EXPECT_NE(doc.find("demosaic"), std::string::npos);
  // Env labels are user data and must come out HTML-escaped.
  EXPECT_NE(doc.find("drifty &lt;phone&gt;"), std::string::npos);
  EXPECT_EQ(doc.find("drifty <phone>"), std::string::npos);
  // Self-contained: no external assets.
  EXPECT_EQ(doc.find("http://"), std::string::npos);
  EXPECT_EQ(doc.find("https://"), std::string::npos);
}

// ---- export_run_artifacts ---------------------------------------------------

TEST(ExportRunArtifacts, WritesManifestAndFlavorArtifacts) {
  TracerSandbox tracer_sandbox;
  DriftSandbox drift_sandbox;
  feed_auditor_for_report();
  {
    ScopedSpan span("test", "exported_span");
  }
  namespace fs = std::filesystem;
  fs::path dir = scratch_dir("es_export_ok");
  RunManifest m("unit_export");
  EXPECT_TRUE(export_run_artifacts("unit_export", dir.string(), m));
  EXPECT_TRUE(fs::exists(dir / "unit_export.meta.json"));
  EXPECT_TRUE(fs::exists(dir / "unit_export.trace.json"));
  EXPECT_TRUE(fs::exists(dir / "unit_export_stage_timing.csv"));
  // The auditor is enabled, so the drift artifacts land too.
  EXPECT_TRUE(fs::exists(dir / "unit_export.drift.json"));
  EXPECT_TRUE(fs::exists(dir / "unit_export.drift.html"));
  std::string manifest_doc = m.to_json();
  EXPECT_TRUE(JsonChecker(manifest_doc).valid());
  EXPECT_NE(manifest_doc.find("\"drift_report\""), std::string::npos);
  EXPECT_NE(manifest_doc.find("\"drift_flip_ledger\""), std::string::npos);
  EXPECT_NE(manifest_doc.find("unit_export.drift.json"), std::string::npos);
  fs::remove_all(dir);
}

TEST(ExportRunArtifacts, FailsWhenOutDirIsNotWritable) {
  TracerSandbox tracer_sandbox;
  namespace fs = std::filesystem;
  fs::path blocker = fs::path(testing::TempDir()) / "es_export_blocked";
  fs::remove_all(blocker);
  {
    std::ofstream out(blocker);
    out << "a file, not a directory";
  }
  RunManifest m("unit_blocked");
  // Every artifact path runs through the blocking file, so every write —
  // including the manifest — fails and the export reports it.
  EXPECT_FALSE(
      export_run_artifacts("unit_blocked", (blocker / "deeper").string(), m));
  fs::remove_all(blocker);
}

TEST(ExportRunArtifacts, DroppedSpansFailTheExport) {
  TracerSandbox sandbox;
  Tracer::global().set_max_events_per_thread(1);
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span("test", "overflow");
  }
  ASSERT_GT(Tracer::global().dropped(), 0u);
  namespace fs = std::filesystem;
  fs::path dir = scratch_dir("es_export_dropped");
  RunManifest m("unit_dropped");
  EXPECT_FALSE(export_run_artifacts("unit_dropped", dir.string(), m));
  // The artifacts themselves still land: an incomplete trace is flagged
  // through the exit code, not by suppressing the files.
  EXPECT_TRUE(fs::exists(dir / "unit_dropped.trace.json"));
  EXPECT_TRUE(fs::exists(dir / "unit_dropped.meta.json"));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace edgestab::obs
