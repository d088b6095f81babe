#include "obs/report.h"

#include <cstdio>
#include <string>
#include <vector>

#include "obs/fault_ledger.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/telemetry/anomaly.h"
#include "obs/telemetry/fleet_report.h"
#include "obs/telemetry/telemetry.h"
#include "obs/timeline/timeline.h"
#include "obs/timeline/timeline_report.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/hashing.h"

namespace edgestab::obs {

namespace {

bool write_text_file(const std::string& path, const std::string& doc) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "[obs] cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  bool ok = written == doc.size() && std::fclose(f) == 0;
  if (!ok) std::fprintf(stderr, "[obs] short write to %s\n", path.c_str());
  return ok;
}

void emit_stat(JsonWriter& w, const char* key, const DriftStat& s) {
  w.key(key);
  w.begin_object();
  w.key("count").value(static_cast<std::int64_t>(s.count));
  w.key("mean").value(s.mean());
  w.key("min").value(s.min);
  w.key("max").value(s.max);
  w.end_object();
}

// p50/p95/p99 from the registry histogram the auditor fed, converted
// back from its integer unit (milli-dB, ppm, micro).
struct Quantiles {
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  bool valid = false;
};

Quantiles quantiles_of(const std::string& metric, double scale) {
  Quantiles q;
  if (metric.empty()) return q;
  Histogram& h = MetricsRegistry::global().histogram(metric);
  if (h.count() == 0) return q;
  q.p50 = h.p50() / scale;
  q.p95 = h.p95() / scale;
  q.p99 = h.p99() / scale;
  q.valid = true;
  return q;
}

void emit_quantiles(JsonWriter& w, const char* key, const Quantiles& q) {
  w.key(key);
  w.begin_object();
  w.key("p50").value(q.p50);
  w.key("p95").value(q.p95);
  w.key("p99").value(q.p99);
  w.end_object();
}

std::string fmt(double v, int decimals = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

void td(std::string& html, const std::string& v, bool left = false) {
  html += left ? "<td class=l>" : "<td>";
  html += html_escape(v);
  html += "</td>";
}

}  // namespace

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string drift_json(const DriftAuditor& auditor,
                       const std::string& bench_name) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("edgestab-drift-report-v1");
  w.key("bench").value(bench_name);
  // Always true; kept so the report text (and the manifest's
  // drift_report digest of it) matches earlier runs.
  w.key("drift_compiled_in").value(true);
  w.key("skipped_items").value(
      static_cast<std::int64_t>(auditor.skipped_items()));
  w.key("skipped_ref_bytes_items")
      .value(static_cast<std::int64_t>(auditor.skipped_bytes_items()));

  w.key("stage_drift");
  w.begin_array();
  for (const StageDriftSummary& s : auditor.stage_summaries()) {
    w.begin_object();
    w.key("group").value(s.group);
    w.key("stage_index").value(s.stage_index);
    w.key("stage").value(s.stage);
    w.key("comparisons").value(static_cast<std::int64_t>(s.psnr_db.count));
    w.key("identical_pairs")
        .value(static_cast<std::int64_t>(s.identical_pairs));
    emit_stat(w, "psnr_db", s.psnr_db);
    emit_quantiles(w, "psnr_db_quantiles", quantiles_of(s.psnr_metric, 1e3));
    emit_stat(w, "ssim", s.ssim);
    emit_quantiles(w, "ssim_loss_quantiles",
                   quantiles_of(s.ssim_metric, 1e6));
    emit_stat(w, "channel_mean_delta", s.channel_mean_delta);
    emit_stat(w, "channel_var_delta", s.channel_var_delta);
    w.end_object();
  }
  w.end_array();

  w.key("logit_drift");
  w.begin_array();
  for (const LogitDriftSummary& s : auditor.logit_summaries()) {
    w.begin_object();
    w.key("group").value(s.group);
    w.key("comparisons").value(static_cast<std::int64_t>(s.comparisons));
    w.key("top1_agree").value(static_cast<std::int64_t>(s.top1_agree));
    w.key("top1_agreement")
        .value(s.comparisons > 0
                   ? static_cast<double>(s.top1_agree) / s.comparisons
                   : 0.0);
    emit_stat(w, "l2", s.l2);
    emit_quantiles(w, "l2_quantiles", quantiles_of(s.l2_metric, 1e6));
    emit_stat(w, "linf", s.linf);
    emit_quantiles(w, "linf_quantiles", quantiles_of(s.linf_metric, 1e6));
    emit_stat(w, "kl", s.kl);
    emit_quantiles(w, "kl_quantiles", quantiles_of(s.kl_metric, 1e6));
    emit_stat(w, "top1_margin", s.top1_margin);
    w.end_object();
  }
  w.end_array();

  w.key("flip_ledger");
  w.begin_array();
  for (const LedgerGroupSummary& g : auditor.ledger().summaries()) {
    w.begin_object();
    w.key("group").value(g.group);
    w.key("total_items").value(g.total_items);
    w.key("unstable_items").value(g.unstable_items);
    w.key("all_correct_items").value(g.all_correct_items);
    w.key("all_incorrect_items").value(g.all_incorrect_items);
    w.key("instability").value(g.instability());
    w.key("flips_by_class");
    w.begin_array();
    for (const auto& [cls, flips] : g.flips_by_class) {
      w.begin_object();
      w.key("class_id").value(cls);
      w.key("flip_pairs").value(flips);
      auto it = g.unstable_by_class.find(cls);
      w.key("unstable_items")
          .value(it != g.unstable_by_class.end() ? it->second : 0);
      w.end_object();
    }
    w.end_array();
    w.key("flips_by_pair");
    w.begin_array();
    for (const auto& [pair, flips] : g.flips_by_pair) {
      w.begin_object();
      w.key("env_correct").value(pair.first);
      w.key("env_correct_label").value(auditor.env_label(g.group, pair.first));
      w.key("env_incorrect").value(pair.second);
      w.key("env_incorrect_label")
          .value(auditor.env_label(g.group, pair.second));
      w.key("flip_pairs").value(flips);
      w.end_object();
    }
    w.end_array();
    w.key("entries_recorded")
        .value(static_cast<std::int64_t>(g.entries.size()));
    w.key("entries_dropped").value(g.dropped_entries);
    w.end_object();
  }
  w.end_array();

  // Only faulted runs carry the section — a clean run's report stays
  // byte-identical to one from a tree without fault injection.
  const std::vector<FaultGroupSummary> fault_groups =
      FaultLedger::global().summaries();
  if (fault_groups.empty()) {
    w.end_object();
    return w.take();
  }
  w.key("fault_ledger");
  w.begin_array();
  for (const FaultGroupSummary& g : fault_groups) {
    w.begin_object();
    w.key("group").value(g.group);
    w.key("total_events").value(g.total_events);
    w.key("shots_lost").value(g.shots_lost);
    w.key("quarantined_devices").value(g.quarantined_devices);
    w.key("events_by_kind");
    w.begin_array();
    for (const auto& [kind, n] : g.events_by_kind) {
      w.begin_object();
      w.key("kind").value(
          fault_event_kind_name(static_cast<FaultEventKind>(kind)));
      w.key("count").value(n);
      w.end_object();
    }
    w.end_array();
    w.key("devices");
    w.begin_array();
    for (const DeviceFaultRow& row : g.devices) {
      w.begin_object();
      w.key("device").value(row.device);
      w.key("device_label").value(auditor.env_label(g.group, row.device));
      w.key("dropouts").value(row.dropouts);
      w.key("transient_failures").value(row.transient_failures);
      w.key("payload_bit_flips").value(row.payload_bit_flips);
      w.key("payload_truncations").value(row.payload_truncations);
      w.key("stragglers").value(row.stragglers);
      w.key("retries").value(row.retries);
      w.key("decode_failures").value(row.decode_failures);
      w.key("shots_lost").value(row.shots_lost);
      w.key("quarantined").value(row.quarantined);
      w.key("quarantined_from_item").value(row.quarantined_from_item);
      w.key("total_delay_ms").value(row.total_delay_ms);
      w.end_object();
    }
    w.end_array();
    w.key("entries_recorded")
        .value(static_cast<std::int64_t>(g.entries.size()));
    w.key("entries_dropped").value(g.dropped_entries);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return w.take();
}

std::string drift_html(const DriftAuditor& auditor,
                       const std::string& bench_name) {
  std::string html;
  html +=
      "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n<title>drift "
      "report: " +
      html_escape(bench_name) + "</title>\n<style>\n";
  html +=
      "body{font:14px/1.45 system-ui,sans-serif;margin:2em;color:#222}\n"
      "table{border-collapse:collapse;margin:0.7em 0}\n"
      "th,td{border:1px solid #bbb;padding:4px 10px;text-align:right}\n"
      "th{background:#f0f0f0}td.l,th.l{text-align:left}\n"
      "h2{margin-top:1.6em}.small{color:#666;font-size:12px}\n";
  html += "</style></head><body>\n";
  html += "<h1>Fleet drift report &mdash; " + html_escape(bench_name) +
          "</h1>\n";
  html +=
      "<p class=small>Each environment's intermediate artifacts are compared "
      "against the first environment that produced them (the reference "
      "phone). Flip-ledger totals follow the exact item bookkeeping of "
      "core/instability.</p>\n";

  // --- Drift by ISP stage -------------------------------------------------
  html += "<h2>Drift by ISP stage</h2>\n<table id=\"stage-drift\">\n";
  html +=
      "<tr><th class=l>group</th><th class=l>stage</th><th>pairs</th>"
      "<th>identical</th><th>PSNR mean (dB)</th><th>PSNR p50</th>"
      "<th>PSNR p95</th><th>SSIM mean</th><th>SSIM min</th>"
      "<th>|&Delta;mean|</th><th>|&Delta;var|</th></tr>\n";
  for (const StageDriftSummary& s : auditor.stage_summaries()) {
    Quantiles q = quantiles_of(s.psnr_metric, 1e3);
    html += "<tr>";
    td(html, s.group, true);
    td(html, s.stage, true);
    td(html, std::to_string(s.psnr_db.count));
    td(html, std::to_string(s.identical_pairs));
    td(html, fmt(s.psnr_db.mean(), 2));
    td(html, fmt(q.p50, 2));
    td(html, fmt(q.p95, 2));
    td(html, fmt(s.ssim.mean(), 4));
    td(html, fmt(s.ssim.count > 0 ? s.ssim.min : 0.0, 4));
    td(html, fmt(s.channel_mean_delta.mean(), 5));
    td(html, fmt(s.channel_var_delta.mean(), 5));
    html += "</tr>\n";
  }
  html += "</table>\n";

  // --- Logit drift --------------------------------------------------------
  html += "<h2>Logit drift</h2>\n<table id=\"logit-drift\">\n";
  html +=
      "<tr><th class=l>group</th><th>pairs</th><th>top-1 agreement</th>"
      "<th>L2 mean</th><th>L&infin; mean</th><th>KL mean</th>"
      "<th>top-1 margin mean</th></tr>\n";
  for (const LogitDriftSummary& s : auditor.logit_summaries()) {
    html += "<tr>";
    td(html, s.group, true);
    td(html, std::to_string(s.comparisons));
    td(html,
       fmt(s.comparisons > 0
               ? 100.0 * static_cast<double>(s.top1_agree) / s.comparisons
               : 0.0,
           1) +
           "%");
    td(html, fmt(s.l2.mean(), 4));
    td(html, fmt(s.linf.mean(), 4));
    td(html, fmt(s.kl.mean(), 5));
    td(html, fmt(s.top1_margin.mean(), 4));
    html += "</tr>\n";
  }
  html += "</table>\n";

  // --- Logit drift distribution ------------------------------------------
  html += "<h2>Logit drift distribution</h2>\n<table id=\"logit-dist\">\n";
  html +=
      "<tr><th class=l>group</th><th class=l>metric</th><th>p50</th>"
      "<th>p95</th><th>p99</th><th>max</th></tr>\n";
  for (const LogitDriftSummary& s : auditor.logit_summaries()) {
    struct Row {
      const char* metric;
      const std::string* name;
      const DriftStat* stat;
    } rows[] = {{"L2", &s.l2_metric, &s.l2},
                {"Linf", &s.linf_metric, &s.linf},
                {"KL", &s.kl_metric, &s.kl}};
    for (const Row& r : rows) {
      Quantiles q = quantiles_of(*r.name, 1e6);
      html += "<tr>";
      td(html, s.group, true);
      td(html, r.metric, true);
      td(html, fmt(q.p50, 5));
      td(html, fmt(q.p95, 5));
      td(html, fmt(q.p99, 5));
      td(html, fmt(r.stat->count > 0 ? r.stat->max : 0.0, 5));
      html += "</tr>\n";
    }
  }
  html += "</table>\n";

  // --- Prediction flips ---------------------------------------------------
  html += "<h2>Prediction flips</h2>\n";
  for (const LedgerGroupSummary& g : auditor.ledger().summaries()) {
    html += "<h3>" + html_escape(g.group) + "</h3>\n";
    html += "<table class=\"flip-summary\">\n";
    html +=
        "<tr><th>items</th><th>unstable</th><th>instability</th>"
        "<th>all correct</th><th>all incorrect</th><th>flip pairs "
        "recorded</th><th>dropped</th></tr>\n<tr>";
    td(html, std::to_string(g.total_items));
    td(html, std::to_string(g.unstable_items));
    td(html, fmt(100.0 * g.instability(), 2) + "%");
    td(html, std::to_string(g.all_correct_items));
    td(html, std::to_string(g.all_incorrect_items));
    td(html, std::to_string(g.entries.size()));
    td(html, std::to_string(g.dropped_entries));
    html += "</tr>\n</table>\n";

    if (!g.flips_by_class.empty()) {
      html += "<table class=\"flips-by-class\">\n";
      html +=
          "<tr><th>class</th><th>unstable items</th><th>flip pairs</th>"
          "</tr>\n";
      for (const auto& [cls, flips] : g.flips_by_class) {
        auto it = g.unstable_by_class.find(cls);
        html += "<tr>";
        td(html, std::to_string(cls));
        td(html,
           std::to_string(it != g.unstable_by_class.end() ? it->second : 0));
        td(html, std::to_string(flips));
        html += "</tr>\n";
      }
      html += "</table>\n";
    }

    if (!g.flips_by_pair.empty()) {
      html += "<table class=\"flips-by-pair\">\n";
      html +=
          "<tr><th class=l>correct env</th><th class=l>incorrect env</th>"
          "<th>flip pairs</th></tr>\n";
      for (const auto& [pair, flips] : g.flips_by_pair) {
        html += "<tr>";
        td(html, auditor.env_label(g.group, pair.first), true);
        td(html, auditor.env_label(g.group, pair.second), true);
        td(html, std::to_string(flips));
        html += "</tr>\n";
      }
      html += "</table>\n";
    }
  }

  // --- Fault accounting ---------------------------------------------------
  std::vector<FaultGroupSummary> fault_groups =
      FaultLedger::global().summaries();
  if (!fault_groups.empty()) {
    html += "<h2>Fault accounting</h2>\n";
    for (const FaultGroupSummary& g : fault_groups) {
      html += "<h3>" + html_escape(g.group) + "</h3>\n";
      html += "<table class=\"fault-summary\">\n";
      html +=
          "<tr><th>events</th><th>shots lost</th>"
          "<th>quarantined devices</th></tr>\n<tr>";
      td(html, std::to_string(g.total_events));
      td(html, std::to_string(g.shots_lost));
      td(html, std::to_string(g.quarantined_devices));
      html += "</tr>\n</table>\n";

      html += "<table class=\"fault-devices\">\n";
      html +=
          "<tr><th class=l>device</th><th>dropouts</th><th>transient</th>"
          "<th>bit flips</th><th>truncations</th><th>stragglers</th>"
          "<th>retries</th><th>decode fail</th><th>shots lost</th>"
          "<th>quarantined</th><th>delay ms</th></tr>\n";
      for (const DeviceFaultRow& row : g.devices) {
        html += "<tr>";
        td(html, auditor.env_label(g.group, row.device), true);
        td(html, std::to_string(row.dropouts));
        td(html, std::to_string(row.transient_failures));
        td(html, std::to_string(row.payload_bit_flips));
        td(html, std::to_string(row.payload_truncations));
        td(html, std::to_string(row.stragglers));
        td(html, std::to_string(row.retries));
        td(html, std::to_string(row.decode_failures));
        td(html, std::to_string(row.shots_lost));
        td(html, row.quarantined
                     ? "from item " + std::to_string(row.quarantined_from_item)
                     : "no");
        td(html, fmt(row.total_delay_ms, 1));
        html += "</tr>\n";
      }
      html += "</table>\n";
    }
  }

  html += "</body></html>\n";
  return html;
}

bool write_drift_report(const DriftAuditor& auditor,
                        const std::string& bench_name, const std::string& dir,
                        RunManifest* manifest) {
  std::string json = drift_json(auditor, bench_name);
  std::string json_file = bench_name + ".drift.json";
  std::string html_file = bench_name + ".drift.html";
  bool ok = write_text_file(dir + "/" + json_file, json);
  ok = write_text_file(dir + "/" + html_file,
                       drift_html(auditor, bench_name)) &&
       ok;
  if (ok) {
    std::printf("[drift] %s/%s + %s\n", dir.c_str(), json_file.c_str(),
                html_file.c_str());
  }
  if (manifest != nullptr) {
    manifest->add_digest("drift_report", fnv1a64(json));
    manifest->add_digest("drift_flip_ledger", auditor.ledger().digest());
    if (ok) {
      manifest->add_artifact(json_file);
      manifest->add_artifact(html_file);
    }
  }
  return ok;
}

bool export_run_artifacts(const std::string& bench_name,
                          const std::string& dir, RunManifest& manifest) {
  bool ok = true;
  Tracer& tracer = Tracer::global();
  // Freeze and flush: no span may race the export, and the exporting
  // thread's staged events must land before the snapshot (worker
  // threads flushed their staging when they exited).
  tracer.set_enabled(false);
  tracer.flush();

  std::string timing_file = bench_name + "_stage_timing.csv";
  std::string timing_path = dir + "/" + timing_file;
  try {
    stage_timing_csv(MetricsRegistry::global()).write_file(timing_path);
    std::printf("[csv] %s\n", timing_path.c_str());
    manifest.add_artifact(timing_file);
  } catch (const CheckError& e) {
    std::fprintf(stderr, "[csv] FAILED %s: %s\n", timing_path.c_str(),
                 e.what());
    ok = false;
  }

  std::string trace_file = bench_name + ".trace.json";
  if (write_chrome_trace(tracer, dir + "/" + trace_file)) {
    std::printf("[trace] %s/%s (%zu spans, %llu dropped)\n", dir.c_str(),
                trace_file.c_str(), tracer.size(),
                static_cast<unsigned long long>(tracer.dropped()));
    manifest.add_artifact(trace_file);
  } else {
    ok = false;
  }
  if (tracer.dropped() > 0) {
    std::fprintf(stderr,
                 "[trace] %llu span events dropped (per-thread buffer "
                 "full) — the trace is incomplete\n",
                 static_cast<unsigned long long>(tracer.dropped()));
    // Recorded only when non-zero so a clean run's meta.json stays
    // byte-identical to one from before drop accounting existed.
    manifest.set_field("trace_dropped_spans",
                       static_cast<double>(tracer.dropped()));
    ok = false;
  }

  // Profile artifacts are exported whenever a profiler was armed this
  // run (the --profile flag); an unarmed run writes nothing, keeping its
  // artifact set byte-identical to an unprofiled run.
  if (Profiler::global().armed()) {
    Profiler::global().set_enabled(false);  // freeze before snapshotting
    ok = write_profile_report(Profiler::global(), bench_name, dir,
                              &manifest) &&
         ok;
  }

  // Fault accounting goes to the manifest whether or not drift auditing
  // ran (the drift report carries the per-device detail) — a faulted run
  // must be distinguishable from a clean one by its meta.json alone.
  const FaultLedger& faults = FaultLedger::global();
  if (!faults.empty()) {
    manifest.add_digest("fault_ledger", faults.digest());
    int events = 0, lost = 0, quarantined = 0;
    for (const FaultGroupSummary& g : faults.summaries()) {
      events += g.total_events;
      lost += g.shots_lost;
      quarantined += g.quarantined_devices;
    }
    manifest.set_field("fault_events", static_cast<double>(events));
    manifest.set_field("fault_shots_lost", static_cast<double>(lost));
    manifest.set_field("fault_quarantined_devices",
                       static_cast<double>(quarantined));
  }

  if (DriftAuditor::global().enabled()) {
    ok = write_drift_report(DriftAuditor::global(), bench_name, dir,
                            &manifest) &&
         ok;
  }

  // Fleet health artifacts land only when telemetry was armed this run
  // (--telemetry); an unarmed run's artifact set stays byte-identical
  // to a run without telemetry.
  if (telemetry_enabled()) {
    const FleetHealthReport fleet =
        evaluate_fleet_health(DeviceHealthRegistry::global());
    ok = write_fleet_report(fleet, bench_name, dir, &manifest) && ok;
  }

  // Service timeline artifacts land only when the timeline was armed
  // this run (--timeline); same artifact-set contract as telemetry.
  if (timeline_enabled()) {
    TimelineDoc timeline = TimelineRecorder::global().snapshot();
    timeline.bench = bench_name;
    write_timeline_report(timeline, dir, &manifest);
  }

  std::string meta = dir + "/" + bench_name + ".meta.json";
  if (manifest.write(meta)) {
    std::printf("[meta] %s\n", meta.c_str());
  } else {
    ok = false;
  }
  return ok;
}

}  // namespace edgestab::obs
