// Unit tests for the fleet health telemetry stack: registry windowing
// and quantization, merge/digest order-independence, the anomaly
// engine's absolute and robust-z rules (with denominator and fleet-size
// gating), the per-device status state machine, the canonical alert
// ledger, the fleet.json round trip, the events.jsonl shape, and HTML
// escaping of hostile device labels in the dashboard.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/report.h"
#include "obs/telemetry/alert_ledger.h"
#include "obs/telemetry/anomaly.h"
#include "obs/telemetry/fleet_report.h"
#include "obs/telemetry/telemetry.h"

namespace edgestab::obs {
namespace {

// A window stats row with enough backing samples to clear every
// default rule's min_denominator gate.
DeviceWindowStats window_stats(int window, int window_items) {
  DeviceWindowStats w;
  w.window = window;
  w.item_lo = window * window_items;
  w.item_hi = w.item_lo + window_items;
  w.observations = 8;
  w.shots = 8;
  return w;
}

DeviceHealth device_row(int device, const std::string& label) {
  DeviceHealth d;
  d.device = device;
  d.label = label;
  return d;
}

// A hand-built two-alert report for the exporter tests.
FleetHealthReport sample_report() {
  FleetHealthReport report;
  report.fleet.window_items = 4;

  DeviceHealth d0 = device_row(0, "Pixel 4a");
  DeviceWindowStats w0 = window_stats(0, 4);
  w0.flipped_items = 1;
  w0.flip_rate = 0.125;
  w0.latency_p50_ms = 1.5;
  w0.latency_p99_ms = 9.25;
  d0.windows.push_back(w0);
  d0.observations = 8;
  d0.flip_rate = 0.125;
  report.fleet.devices.push_back(d0);

  DeviceHealth d1 = device_row(1, "LG K10 LTE");
  d1.status = HealthStatus::kQuarantined;
  DeviceWindowStats w1 = window_stats(0, 4);
  w1.shots_lost = 4;
  w1.loss_rate = 0.5;
  w1.quarantined = true;
  w1.quarantine_item = 2;
  d1.windows.push_back(w1);
  d1.transitions.push_back({0, 0, HealthStatus::kHealthy,
                            HealthStatus::kQuarantined,
                            "quarantined from item 2"});
  report.fleet.devices.push_back(d1);

  Alert loss;
  loss.rule = "loss_rate_high";
  loss.metric = "loss_rate";
  loss.severity = AlertSeverity::kCritical;
  loss.device = 1;
  loss.device_label = "LG K10 LTE";
  loss.window = 0;
  loss.item_lo = 0;
  loss.item_hi = 4;
  loss.value = 0.5;
  loss.threshold = 0.25;
  loss.numerator = 4;
  loss.denominator = 8;
  loss.detail = "loss_rate=0.5 > 0.25";
  report.alerts.record(loss);

  Alert quarantine;
  quarantine.rule = "device_quarantined";
  quarantine.metric = "quarantine";
  quarantine.severity = AlertSeverity::kCritical;
  quarantine.device = 1;
  quarantine.device_label = "LG K10 LTE";
  quarantine.window = 0;
  quarantine.item_lo = 0;
  quarantine.item_hi = 4;
  quarantine.item = 2;
  quarantine.value = 1.0;
  quarantine.detail = "resilience policy quarantined device from item 2";
  report.alerts.record(quarantine);

  report.alerts_total = 2;
  report.alerts_critical = 2;
  report.devices_quarantined = 1;
  return report;
}

// ---- Registry -------------------------------------------------------------

TEST(Telemetry, DisabledRegistryRecordsNothing) {
  DeviceHealthRegistry registry;  // never enabled
  registry.record_observation(0, 0, false, true);
  registry.record_shot(0, 0, 0, 1, true, 3.0, 1);
  EXPECT_TRUE(registry.empty());
  EXPECT_TRUE(registry.snapshot().empty());
}

TEST(Telemetry, RegistryWindowsQuantizesAndDerivesRates) {
  DeviceHealthRegistry registry;
  registry.set_enabled(true);
  registry.set_window_items(4);
  registry.set_device_label(0, "Pixel 4a");

  // Window 0: items 0-3. Two flips out of four observations.
  for (int item = 0; item < 4; ++item)
    registry.record_observation(0, item, item >= 2, item < 2);
  // Window 1: item 5 only.
  registry.record_observation(0, 5, true, false);
  // Latency multiset in window 0: 0.25, 1.0005 (rounds to 1001 us), 4.0.
  registry.record_shot(0, 0, 0, 1, false, 4.0, 0);
  registry.record_shot(0, 1, 0, 2, false, 0.25, 1);
  registry.record_shot(0, 2, 0, 1, true, 1.0005, 2);
  registry.record_stage_drift(0, 0, 30.0);
  registry.record_stage_drift(0, 1, 18.5);
  registry.record_coverage(0, 3, 4);
  registry.record_coverage(0, 2, 4);

  FleetHealthSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.devices.size(), 1u);
  const DeviceHealth& d = snap.devices[0];
  EXPECT_EQ(d.label, "Pixel 4a");
  EXPECT_EQ(d.coverage_usable, 5);
  EXPECT_EQ(d.coverage_slots, 8);
  ASSERT_EQ(d.windows.size(), 2u);

  const DeviceWindowStats& w0 = d.windows[0];
  EXPECT_EQ(w0.window, 0);
  EXPECT_EQ(w0.item_lo, 0);
  EXPECT_EQ(w0.item_hi, 4);
  EXPECT_EQ(w0.observations, 4);
  EXPECT_EQ(w0.flipped_items, 2);
  EXPECT_EQ(w0.incorrect_items, 2);
  EXPECT_DOUBLE_EQ(w0.flip_rate, 0.5);
  EXPECT_EQ(w0.shots, 3);
  EXPECT_EQ(w0.shots_lost, 1);
  EXPECT_EQ(w0.retries, 1);  // attempts=2 => one retry
  EXPECT_EQ(w0.fault_events, 3);
  EXPECT_DOUBLE_EQ(w0.loss_rate, 1.0 / 3.0);
  // Nearest-rank percentiles over the sorted microsecond multiset
  // {250, 1001, 4000}: p50 = 1001 us (note the half-microsecond round).
  EXPECT_DOUBLE_EQ(w0.latency_p50_ms, 1.001);
  EXPECT_DOUBLE_EQ(w0.latency_p99_ms, 4.0);
  EXPECT_DOUBLE_EQ(w0.latency_max_ms, 4.0);
  EXPECT_EQ(w0.drift_comparisons, 2);
  EXPECT_DOUBLE_EQ(w0.drift_psnr_db_min, 18.5);
  EXPECT_DOUBLE_EQ(w0.drift_psnr_db_mean, 24.25);

  const DeviceWindowStats& w1 = d.windows[1];
  EXPECT_EQ(w1.window, 1);
  EXPECT_EQ(w1.item_lo, 4);
  EXPECT_EQ(w1.observations, 1);
  EXPECT_EQ(w1.shots, 0);
  EXPECT_DOUBLE_EQ(w1.latency_p99_ms, 0.0);
}

TEST(Telemetry, RegistryMergeAndDigestAreOrderIndependent) {
  auto feed = [](DeviceHealthRegistry& r, bool reversed) {
    struct Event {
      int device, item;
      double latency;
      bool lost;
    };
    std::vector<Event> events = {{0, 0, 1.0, false}, {0, 9, 2.5, true},
                                 {1, 3, 0.0, false}, {1, 17, 7.75, false},
                                 {0, 4, 3.25, true}, {1, 0, 0.5, false}};
    if (reversed) std::reverse(events.begin(), events.end());
    for (const Event& e : events)
      r.record_shot(e.device, e.item, 0, 1, e.lost, e.latency, 0);
    r.record_quarantine(1, 5);
    r.record_stage_drift(0, 2, 21.5);
  };

  DeviceHealthRegistry forward, backward;
  forward.set_enabled(true);
  backward.set_enabled(true);
  forward.set_window_items(8);
  backward.set_window_items(8);
  feed(forward, false);
  feed(backward, true);
  EXPECT_EQ(forward.digest(), backward.digest());

  // Sharded feed + merge must land on the same digest.
  DeviceHealthRegistry shard_a, shard_b, merged;
  for (DeviceHealthRegistry* r : {&shard_a, &shard_b, &merged}) {
    r->set_enabled(true);
    r->set_window_items(8);
  }
  feed(shard_a, false);
  feed(shard_b, true);
  merged.merge(shard_a);
  DeviceHealthRegistry doubled;
  doubled.set_enabled(true);
  doubled.set_window_items(8);
  feed(doubled, false);
  feed(doubled, true);
  merged.merge(shard_b);
  EXPECT_EQ(merged.digest(), doubled.digest());
}

TEST(Telemetry, RegistryClearPreservesEnabled) {
  DeviceHealthRegistry registry;
  registry.set_enabled(true);
  registry.record_shot(0, 0, 0, 1, false, 1.0, 0);
  registry.record_quarantine(0, 0);
  EXPECT_FALSE(registry.empty());
  EXPECT_EQ(registry.live_alert_count(), 1);
  registry.clear();
  EXPECT_TRUE(registry.empty());
  EXPECT_EQ(registry.live_alert_count(), 0);
  EXPECT_TRUE(registry.enabled());
  registry.record_shot(0, 0, 0, 1, false, 1.0, 0);
  EXPECT_FALSE(registry.empty());
}

TEST(Telemetry, LiveAlertHeuristicCountsLossBursts) {
  DeviceHealthRegistry registry;
  registry.set_enabled(true);
  for (long long i = 0; i < DeviceHealthRegistry::kLiveLossAlertShots - 1; ++i)
    registry.record_shot(0, 0, static_cast<int>(i), 1, true, 0.0, 0);
  EXPECT_EQ(registry.live_alert_count(), 0);
  registry.record_capture_loss(0, 1, 0, 0);  // crosses the burst threshold
  EXPECT_EQ(registry.live_alert_count(), 1);
  registry.record_shot(0, 2, 0, 1, true, 0.0, 0);  // same bucket: no re-count
  EXPECT_EQ(registry.live_alert_count(), 1);
}

// ---- Anomaly engine -------------------------------------------------------

TEST(Telemetry, AbsoluteRuleFiresAndGatesOnDenominator) {
  FleetHealthSnapshot snap;
  snap.window_items = 4;
  DeviceHealth d = device_row(0, "solo");
  DeviceWindowStats sick = window_stats(0, 4);
  sick.shots_lost = 4;
  sick.loss_rate = 0.5;
  DeviceWindowStats thin = window_stats(1, 4);
  thin.shots = 2;  // under loss_rate_high's min_denominator of 4
  thin.shots_lost = 2;
  thin.loss_rate = 1.0;
  d.windows.push_back(sick);
  d.windows.push_back(thin);
  snap.devices.push_back(d);

  AlertLedger ledger = AnomalyEngine().evaluate(snap);
  int loss_alerts = 0;
  for (const Alert& a : ledger.alerts()) {
    if (a.rule != "loss_rate_high") continue;
    ++loss_alerts;
    EXPECT_EQ(a.window, 0);
    EXPECT_EQ(a.severity, AlertSeverity::kCritical);
    EXPECT_EQ(a.numerator, 4);
    EXPECT_EQ(a.denominator, 8);
    EXPECT_DOUBLE_EQ(a.value, 0.5);
  }
  EXPECT_EQ(loss_alerts, 1) << "window 1 must be gated by min_denominator";
}

TEST(Telemetry, RobustZFlagsOutlierAgainstFleetCrossSection) {
  FleetHealthSnapshot snap;
  snap.window_items = 4;
  for (int device = 0; device < 4; ++device) {
    DeviceHealth d = device_row(device, "phone" + std::to_string(device));
    DeviceWindowStats w = window_stats(0, 4);
    if (device == 3) {
      w.flipped_items = 3;
      w.flip_rate = 0.375;  // under flip_rate_high's 0.5, over the 0.15 floor
    }
    d.windows.push_back(w);
    snap.devices.push_back(d);
  }
  AlertLedger ledger = AnomalyEngine().evaluate(snap);
  int outliers = 0;
  for (const Alert& a : ledger.alerts()) {
    EXPECT_NE(a.rule, "flip_rate_high") << "no device crossed the absolute bar";
    if (a.rule != "flip_rate_outlier") continue;
    ++outliers;
    EXPECT_EQ(a.device, 3);
    EXPECT_DOUBLE_EQ(a.baseline, 0.0);      // fleet median
    EXPECT_DOUBLE_EQ(a.threshold, 0.15);    // MAD 0 => abs_floor band
    EXPECT_EQ(a.numerator, 3);
  }
  EXPECT_EQ(outliers, 1);
}

TEST(Telemetry, RobustZNeedsMinimumFleetSize) {
  FleetHealthSnapshot snap;
  snap.window_items = 4;
  for (int device = 0; device < AnomalyEngine::kMinDevices - 1; ++device) {
    DeviceHealth d = device_row(device, "phone" + std::to_string(device));
    DeviceWindowStats w = window_stats(0, 4);
    if (device == 0) {
      w.flipped_items = 3;
      w.flip_rate = 0.375;
    }
    d.windows.push_back(w);
    snap.devices.push_back(d);
  }
  AlertLedger ledger = AnomalyEngine().evaluate(snap);
  for (const Alert& a : ledger.alerts())
    EXPECT_NE(a.rule, "flip_rate_outlier")
        << "a two-device cross-section cannot call outliers";
}

// ---- Status state machine -------------------------------------------------

TEST(Telemetry, StatusMachineDegradesAndRecovers) {
  DeviceHealthRegistry registry;
  registry.set_enabled(true);
  registry.set_window_items(4);
  // Window 0: half the shots lost => loss_rate_high pages. Windows 1-2:
  // clean => recovery after kRecoveryWindows.
  for (int shot = 0; shot < 8; ++shot)
    registry.record_shot(0, shot % 4, shot, 1, shot < 4, 0.0, 0);
  for (int item = 4; item < 12; ++item) {
    registry.record_shot(0, item, 0, 1, false, 0.0, 0);
    registry.record_shot(0, item, 1, 1, false, 0.0, 0);
  }
  FleetHealthReport report = evaluate_fleet_health(registry);
  ASSERT_EQ(report.fleet.devices.size(), 1u);
  const DeviceHealth& d = report.fleet.devices[0];
  EXPECT_EQ(d.status, HealthStatus::kHealthy);
  ASSERT_EQ(d.transitions.size(), 2u);
  EXPECT_EQ(d.transitions[0].to, HealthStatus::kDegraded);
  EXPECT_EQ(d.transitions[0].window, 0);
  EXPECT_EQ(d.transitions[0].reason, "loss_rate_high");
  EXPECT_EQ(d.transitions[1].to, HealthStatus::kHealthy);
  EXPECT_EQ(d.transitions[1].window, 2);
  EXPECT_EQ(report.devices_degraded, 0);
}

TEST(Telemetry, StatusMachineQuarantineIsSticky) {
  DeviceHealthRegistry registry;
  registry.set_enabled(true);
  registry.set_window_items(4);
  registry.record_quarantine(0, 1);
  // Clean windows after the quarantine must not resurrect the device.
  for (int item = 4; item < 12; ++item)
    registry.record_shot(0, item, 0, 1, false, 0.0, 0);
  FleetHealthReport report = evaluate_fleet_health(registry);
  ASSERT_EQ(report.fleet.devices.size(), 1u);
  EXPECT_EQ(report.fleet.devices[0].status, HealthStatus::kQuarantined);
  EXPECT_EQ(report.devices_quarantined, 1);
  bool paged = false;
  for (const Alert& a : report.alerts.alerts())
    if (a.rule == "device_quarantined" && a.item == 1) paged = true;
  EXPECT_TRUE(paged) << "the quarantine verdict must land in the ledger";
}

// ---- Alert ledger ---------------------------------------------------------

TEST(Telemetry, AlertLedgerSortsCanonicallyAndMergesDeterministically) {
  Alert a;
  a.rule = "flip_rate_high";
  a.device = 1;
  a.window = 2;
  Alert b;
  b.rule = "loss_rate_high";
  b.device = 0;
  b.window = 5;
  Alert c;
  c.rule = "device_quarantined";
  c.device = 0;
  c.window = 5;

  AlertLedger forward, backward;
  forward.record(a);
  forward.record(b);
  forward.record(c);
  backward.record(c);
  backward.record(a);
  backward.record(b);
  EXPECT_EQ(forward.digest(), backward.digest());
  ASSERT_EQ(forward.alerts().size(), 3u);
  EXPECT_EQ(forward.alerts()[0].device, 0);
  EXPECT_EQ(forward.alerts()[0].rule, "device_quarantined");
  EXPECT_EQ(forward.alerts()[1].rule, "loss_rate_high");
  EXPECT_EQ(forward.alerts()[2].device, 1);

  AlertLedger merged;
  merged.record(b);
  AlertLedger shard;
  shard.record(c);
  shard.record(a);
  merged.merge(shard);
  EXPECT_EQ(merged.digest(), forward.digest());
  EXPECT_EQ(merged.count(AlertSeverity::kWarning), 3u);
}

// ---- Exporters ------------------------------------------------------------

TEST(Telemetry, FleetJsonRoundTripsThroughParseFleet) {
  const FleetHealthReport report = sample_report();
  const std::string doc = fleet_json(report, "unit");
  std::string error;
  std::optional<JsonValue> parsed = parse_json(doc, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  FleetDoc fleet;
  ASSERT_TRUE(parse_fleet(*parsed, &fleet, &error)) << error;
  EXPECT_EQ(fleet.bench, "unit");
  EXPECT_EQ(fleet.report.alerts_total, 2);
  EXPECT_EQ(fleet.report.devices_quarantined, 1);
  ASSERT_EQ(fleet.report.fleet.devices.size(), 2u);
  EXPECT_EQ(fleet.report.fleet.devices[0].label, "Pixel 4a");
  EXPECT_EQ(fleet.report.fleet.devices[1].status, HealthStatus::kQuarantined);
  ASSERT_EQ(fleet.report.fleet.devices[1].transitions.size(), 1u);
  EXPECT_EQ(fleet.report.fleet.devices[1].windows[0].quarantine_item, 2);
  EXPECT_DOUBLE_EQ(fleet.report.fleet.devices[0].windows[0].latency_p99_ms,
                   9.25);
  // The reconstructed ledger must carry the same canonical digest, so
  // offline re-renders stay traceable to the original run.
  EXPECT_EQ(fleet.report.alerts.digest(), report.alerts.digest());

  FleetDoc rejected;
  std::optional<JsonValue> not_fleet = parse_json("{\"schema\":\"x\"}", &error);
  ASSERT_TRUE(not_fleet.has_value());
  EXPECT_FALSE(parse_fleet(*not_fleet, &rejected, &error));
}

TEST(Telemetry, EventsJsonlEmitsAlertsThenTransitions) {
  const std::string doc = events_jsonl(sample_report(), "unit");
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < doc.size()) {
    std::size_t end = doc.find('\n', start);
    if (end == std::string::npos) end = doc.size();
    if (end > start) lines.push_back(doc.substr(start, end - start));
    start = end + 1;
  }
  ASSERT_EQ(lines.size(), 3u);  // 2 alerts + 1 transition
  for (const std::string& line : lines) {
    std::string error;
    std::optional<JsonValue> v = parse_json(line, &error);
    ASSERT_TRUE(v.has_value()) << error << ": " << line;
    EXPECT_NE(line.find("\"schema\":\"edgestab-events-v1\""),
              std::string::npos);
  }
  EXPECT_NE(lines[0].find("\"type\":\"alert\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"alert\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"type\":\"status\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"level\":\"critical\""), std::string::npos)
      << "a quarantine transition is a critical event";
}

TEST(Telemetry, FleetHtmlEscapesHostileLabels) {
  FleetHealthReport report = sample_report();
  report.fleet.devices[0].label = "<script>alert('x')</script> & \"Pixel\"";
  Alert hostile;
  hostile.rule = "flip_rate_high";
  hostile.metric = "flip_rate";
  hostile.device = 0;
  hostile.device_label = report.fleet.devices[0].label;
  hostile.window = 0;
  hostile.item_hi = 4;
  hostile.detail = "<img src=x onerror=alert(1)>";
  report.alerts.record(hostile);

  const std::string html = fleet_html(report, "unit<bench>");
  EXPECT_EQ(html.find("<script>alert"), std::string::npos);
  EXPECT_EQ(html.find("<img src=x"), std::string::npos);
  EXPECT_EQ(html.find("unit<bench>"), std::string::npos);
  EXPECT_NE(html.find("&lt;script&gt;"), std::string::npos);
  EXPECT_NE(html.find("&amp; &quot;Pixel&quot;"), std::string::npos);
  EXPECT_NE(html.find("&lt;img src=x"), std::string::npos);
}

TEST(Telemetry, FleetTextListsDevicesAndAlerts) {
  const std::string text = fleet_text(sample_report());
  EXPECT_NE(text.find("Pixel 4a"), std::string::npos);
  EXPECT_NE(text.find("LG K10 LTE"), std::string::npos);
  EXPECT_NE(text.find("quarantined"), std::string::npos);
  EXPECT_NE(text.find("loss_rate_high"), std::string::npos);
}

TEST(Telemetry, SharedHtmlEscapeHandlesEveryMetachar) {
  EXPECT_EQ(html_escape("a<b>c&d\"e"), "a&lt;b&gt;c&amp;d&quot;e");
  EXPECT_EQ(html_escape("plain"), "plain");
}

}  // namespace
}  // namespace edgestab::obs
