// Drift report exporters, the formatting and file-writing helpers every
// report exporter shares, and the shared end-of-run artifact export.
//
// `drift_json` / `drift_html` render the DriftAuditor's accumulated
// state — drift-by-stage tables, logit-drift distributions (p50/p95/p99
// pulled from the MetricsRegistry histograms the auditor feeds), and
// the prediction-flip ledger — as `bench_out/<name>.drift.json` and a
// self-contained HTML fleet report a browser can open directly.
//
// `export_run_artifacts` is bench::Run's finish() body hoisted into the
// obs library so its failure paths (unwritable out-dir, dropped span
// events, short writes) are unit-testable without linking a bench: it
// flushes and freezes the tracer, writes the stage-timing CSV, Chrome
// trace, drift reports (when the auditor is enabled) and the provenance
// manifest — folding the drift digests into the manifest first — and
// returns false if any artifact failed to land or spans were dropped.
#pragma once

#include <string>
#include <vector>

#include "obs/drift.h"
#include "obs/manifest.h"

namespace edgestab::obs {

/// Escape `&`, `<`, `>`, `"` for HTML text and attribute contexts. The
/// one escaping helper every HTML exporter (drift, profile, fleet)
/// must route user-influenced strings — device names, metric labels,
/// rule names — through.
std::string html_escape(const std::string& s);

/// `v` in fixed-point notation with `decimals` digits after the point.
std::string fmt(double v, int decimals = 3);

/// printf-style append to `out` (one call renders at most 511 bytes).
void appendf(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

/// One rendered file of a report: its name inside the out-dir + text.
struct ReportFile {
  std::string name;
  std::string text;
};

/// The write step every report exporter (drift, profile, fleet,
/// timeline) shares: write each file into `dir`, print one
/// "[tag] dir/a + b" line (with " (summary)" when `summary` is
/// non-empty) once all of them landed, and register each file that
/// landed as an artifact on `manifest` when given. False when any
/// write failed.
bool write_report_files(const std::string& tag, const std::string& dir,
                        const std::vector<ReportFile>& files,
                        const std::string& summary, RunManifest* manifest);

/// JSON document (schema "edgestab-drift-report-v1") of the auditor's
/// full state.
std::string drift_json(const DriftAuditor& auditor,
                       const std::string& bench_name);

/// Self-contained HTML fleet report (inline CSS, no external assets).
std::string drift_html(const DriftAuditor& auditor,
                       const std::string& bench_name);

/// Write both report flavors into `dir`, register them (and the drift /
/// flip-ledger digests) on `manifest` when given. False on I/O failure.
bool write_drift_report(const DriftAuditor& auditor,
                        const std::string& bench_name, const std::string& dir,
                        RunManifest* manifest);

/// End-of-run export shared by every bench (see file comment). `dir`
/// must already exist; the manifest lands at `dir/<bench_name>.meta.json`.
bool export_run_artifacts(const std::string& bench_name,
                          const std::string& dir, RunManifest& manifest);

}  // namespace edgestab::obs
