// The soak report document (edgestab-soak-v1): its serializer and the
// terminal summary that bench_fleet_soak and `edgestab_sentinel render`
// both print from it.
#include "service/pipeline.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/report.h"
#include "util/table.h"

namespace edgestab::service {

std::string serialize_soak_report(const SoakReport& report) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("format").value("edgestab-soak-v1");
  w.key("completed").value(report.completed);
  w.key("stopped_at_checkpoint").value(report.stopped_at_checkpoint);
  w.key("devices").value(report.devices);
  w.key("shots").value(static_cast<std::int64_t>(report.shots));
  w.key("slots").value(static_cast<std::int64_t>(report.slots));
  w.key("resumed_from_slot")
      .value(static_cast<std::int64_t>(report.resumed_from_slot));
  w.key("checkpoints_written").value(report.checkpoints_written);

  const AggregateState& agg = report.agg;
  w.key("aggregate").begin_object();
  w.key("slots_folded").value(static_cast<std::int64_t>(agg.slots_folded));
  w.key("shots_folded").value(static_cast<std::int64_t>(agg.shots_folded));
  w.key("ok").value(static_cast<std::int64_t>(agg.ok));
  w.key("correct").value(static_cast<std::int64_t>(agg.correct));
  w.key("shed").value(static_cast<std::int64_t>(agg.shed));
  w.key("rejected").value(static_cast<std::int64_t>(agg.rejected));
  w.key("timeouts").value(static_cast<std::int64_t>(agg.timeouts));
  w.key("capture_lost").value(static_cast<std::int64_t>(agg.capture_lost));
  w.key("decode_lost").value(static_cast<std::int64_t>(agg.decode_lost));
  w.key("fault_events").value(static_cast<std::int64_t>(agg.fault_events));
  w.key("retries").value(static_cast<std::int64_t>(agg.retries));
  w.key("slots_fully_covered")
      .value(static_cast<std::int64_t>(agg.slots_fully_covered));
  w.key("slots_degraded")
      .value(static_cast<std::int64_t>(agg.slots_degraded));
  w.key("slots_lost").value(static_cast<std::int64_t>(agg.slots_lost));
  w.key("slots_observed")
      .value(static_cast<std::int64_t>(agg.slots_observed));
  w.key("unstable_slots")
      .value(static_cast<std::int64_t>(agg.unstable_slots));
  w.key("all_correct_slots")
      .value(static_cast<std::int64_t>(agg.all_correct_slots));
  w.key("all_incorrect_slots")
      .value(static_cast<std::int64_t>(agg.all_incorrect_slots));
  w.end_object();

  w.key("breaker").begin_object();
  w.key("opens").value(static_cast<std::int64_t>(report.breaker_opens));
  w.key("closes").value(static_cast<std::int64_t>(report.breaker_closes));
  w.key("rejects").value(static_cast<std::int64_t>(report.breaker_rejects));
  w.key("open_devices").value(report.open_devices);
  w.key("half_open_devices").value(report.half_open_devices);
  w.key("sticky_devices").value(report.sticky_devices);
  w.end_object();

  w.key("digests").begin_object();
  w.key("config").value(obs::hex_digest(report.config_digest));
  w.key("aggregate").value(obs::hex_digest(report.agg_digest));
  w.key("ledger").value(obs::hex_digest(report.ledger_digest));
  w.key("breaker").value(obs::hex_digest(report.breaker_digest));
  w.key("telemetry").value(obs::hex_digest(report.telemetry_digest));
  w.end_object();

  w.key("latency_us").begin_object();
  w.key("p50").value(static_cast<std::int64_t>(report.latency_p50_us));
  w.key("p99").value(static_cast<std::int64_t>(report.latency_p99_us));
  w.key("p999").value(static_cast<std::int64_t>(report.latency_p999_us));
  w.key("max").value(static_cast<std::int64_t>(report.latency_max_us));
  w.end_object();

  // Observational wall-clock half (never digested, varies per run).
  w.key("wall_seconds").value(report.wall_seconds);
  w.key("shots_per_second").value(report.shots_per_second);
  w.key("stages").begin_array();
  for (const StageStats& s : report.stages) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("workers").value(s.workers);
    w.key("capacity").value(static_cast<std::int64_t>(s.capacity));
    w.key("high_water").value(static_cast<std::int64_t>(s.high_water));
    w.key("processed").value(static_cast<std::int64_t>(s.processed));
    w.key("busy_ms").value(s.busy_ms);
    w.key("blocked_pop_ms").value(s.blocked_pop_ms);
    w.key("blocked_push_ms").value(s.blocked_push_ms);
    w.end_object();
  }
  w.end_array();

  w.key("device_rows").begin_array();
  for (std::size_t d = 0; d < agg.devices.size(); ++d) {
    const DeviceAggregate& row = agg.devices[d];
    w.begin_object();
    w.key("device").value(static_cast<std::int64_t>(d));
    w.key("ok").value(static_cast<std::int64_t>(row.ok));
    w.key("correct").value(static_cast<std::int64_t>(row.correct));
    w.key("shed").value(static_cast<std::int64_t>(row.shed));
    w.key("rejected").value(static_cast<std::int64_t>(row.rejected));
    w.key("timeouts").value(static_cast<std::int64_t>(row.timeouts));
    w.key("capture_lost")
        .value(static_cast<std::int64_t>(row.capture_lost));
    w.key("decode_lost")
        .value(static_cast<std::int64_t>(row.decode_lost));
    w.key("latency_us_sum")
        .value(static_cast<std::int64_t>(row.latency_us_sum));
    if (d < report.sched.devices.size()) {
      const BreakerSnapshot& b = report.sched.devices[d].breaker;
      w.key("breaker_state")
          .value(breaker_state_name(static_cast<BreakerState>(b.state)));
      w.key("breaker_sticky").value(b.sticky);
      w.key("breaker_opens").value(static_cast<std::int64_t>(b.opens));
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

using obs::appendf;

std::string soak_text(const obs::JsonValue& doc, const std::string& title,
                      std::size_t top_devices) {
  using obs::JsonValue;
  static const JsonValue kAbsent;
  const auto section = [&doc](const char* key) -> const JsonValue& {
    const JsonValue* v = doc.find(key);
    return v != nullptr ? *v : kAbsent;
  };
  const JsonValue& agg = section("aggregate");
  const JsonValue& breaker = section("breaker");
  const JsonValue& digests = section("digests");
  const JsonValue& latency = section("latency_us");

  std::string out;
  appendf(out, "%s — %lld devices x %lld slots (%lld shots)%s\n",
          title.c_str(), doc.rounded_or("devices", 0),
          doc.rounded_or("slots", 0), doc.rounded_or("shots", 0),
          doc.bool_or("completed", false) ? "" : " [incomplete]");
  const long long resumed = doc.rounded_or("resumed_from_slot", 0);
  if (resumed >= 0)
    appendf(out, "resumed from slot %lld, %lld checkpoint(s) written\n",
            resumed, doc.rounded_or("checkpoints_written", 0));
  appendf(out, "digests: aggregate %s  ledger %s  breaker %s\n",
          digests.str_or("aggregate", "?").c_str(),
          digests.str_or("ledger", "?").c_str(),
          digests.str_or("breaker", "?").c_str());

  const double folded = static_cast<double>(
      std::max(1LL, agg.rounded_or("shots_folded", 0)));
  const std::pair<const char*, const char*> kOutcomes[] = {
      {"ok", "ok"},
      {"shed", "shed"},
      {"breaker-reject", "rejected"},
      {"deadline-timeout", "timeouts"},
      {"capture-lost", "capture_lost"},
      {"decode-lost", "decode_lost"}};
  Table outcomes({"OUTCOME", "SHOTS", "SHARE"});
  for (const auto& [label, key] : kOutcomes) {
    const long long n = agg.rounded_or(key, 0);
    outcomes.add_row({label, std::to_string(n),
                      Table::pct(static_cast<double>(n) / folded)});
  }
  out += outcomes.str();
  appendf(out,
          "slots: %lld fully covered, %lld degraded, %lld lost; %lld "
          "unstable of %lld observed\n",
          agg.rounded_or("slots_fully_covered", 0),
          agg.rounded_or("slots_degraded", 0), agg.rounded_or("slots_lost", 0),
          agg.rounded_or("unstable_slots", 0),
          agg.rounded_or("slots_observed", 0));
  appendf(out,
          "breaker: %lld open(s), %lld close(s), %lld reject(s); end state "
          "%lld open / %lld half-open / %lld sticky\n",
          breaker.rounded_or("opens", 0), breaker.rounded_or("closes", 0),
          breaker.rounded_or("rejects", 0),
          breaker.rounded_or("open_devices", 0),
          breaker.rounded_or("half_open_devices", 0),
          breaker.rounded_or("sticky_devices", 0));
  appendf(out,
          "latency (modeled): p50 %.1f ms  p99 %.1f ms  p99.9 %.1f ms  max "
          "%.1f ms\n",
          static_cast<double>(latency.rounded_or("p50", 0)) / 1000.0,
          static_cast<double>(latency.rounded_or("p99", 0)) / 1000.0,
          static_cast<double>(latency.rounded_or("p999", 0)) / 1000.0,
          static_cast<double>(latency.rounded_or("max", 0)) / 1000.0);

  Table stages({"STAGE", "WORKERS", "CAP", "HIGH-WATER", "PROCESSED",
                "BUSY-MS", "POP-WAIT-MS", "PUSH-WAIT-MS"});
  for (const JsonValue& s : section("stages").items)
    stages.add_row({s.str_or("name", "?"),
                    std::to_string(s.rounded_or("workers", 0)),
                    std::to_string(s.rounded_or("capacity", 0)),
                    std::to_string(s.rounded_or("high_water", 0)),
                    std::to_string(s.rounded_or("processed", 0)),
                    Table::num(s.num_or("busy_ms", 0.0), 1),
                    Table::num(s.num_or("blocked_pop_ms", 0.0), 1),
                    Table::num(s.num_or("blocked_push_ms", 0.0), 1)});
  out += stages.str();
  appendf(out, "throughput: %.1f shots/s over %.2f s wall\n",
          doc.num_or("shots_per_second", 0.0), doc.num_or("wall_seconds", 0.0));

  // The N devices losing the most shots, worst first.
  const std::vector<JsonValue>& rows = section("device_rows").items;
  if (top_devices == 0 || rows.empty()) return out;
  const auto lost = [](const JsonValue& r) {
    return r.rounded_or("timeouts", 0) + r.rounded_or("rejected", 0) +
           r.rounded_or("shed", 0) + r.rounded_or("capture_lost", 0) +
           r.rounded_or("decode_lost", 0);
  };
  std::vector<const JsonValue*> worst;
  for (const JsonValue& r : rows) worst.push_back(&r);
  std::stable_sort(worst.begin(), worst.end(),
                   [&](const JsonValue* a, const JsonValue* b) {
                     return lost(*a) > lost(*b);
                   });
  worst.resize(std::min(worst.size(), top_devices));
  Table t({"DEVICE", "OK", "SHED", "REJECT", "TIMEOUT", "LOST", "BREAKER"});
  for (const JsonValue* r : worst)
    t.add_row({std::to_string(r->rounded_or("device", 0)),
               std::to_string(r->rounded_or("ok", 0)),
               std::to_string(r->rounded_or("shed", 0)),
               std::to_string(r->rounded_or("rejected", 0)),
               std::to_string(r->rounded_or("timeouts", 0)),
               std::to_string(r->rounded_or("capture_lost", 0) +
                              r->rounded_or("decode_lost", 0)),
               r->str_or("breaker_state", "?") +
                   (r->bool_or("breaker_sticky", false) ? " (sticky)" : "")});
  out += "worst devices:\n" + t.str();
  return out;
}

}  // namespace edgestab::service
