// edgestab_sentinel — the cross-run regression sentinel CLI.
//
//   edgestab_sentinel compare --bench fig3 [--runs bench_out/runs.jsonl]
//       [--baseline FILE | --baseline-dir baselines] [--rel-tol 0.25]
//       [--mad-k 5] [--perf-advisory] [--json]
//     Diff the newest archived record of a bench against its committed
//     baseline. Exit 0 = no regressions, 2 = regressions present,
//     1 = usage/IO error.
//
//   edgestab_sentinel trend [--runs FILE] [--out bench_out/trend.html]
//       [--baseline-dir baselines]
//     Render the self-contained HTML trend report over the whole run
//     archive, marking points that regress against their baseline.
//
//   edgestab_sentinel list [--runs FILE]
//     One line per archived run.
//
//   edgestab_sentinel render FILE [--out FILE] [--top N]
//     Re-render one run artifact offline, dispatching on the document's
//     schema (or format) field:
//       <bench>.profile.json   hotspot table of the N hottest scopes
//       <bench>.fleet.json     per-device fleet health table + alerts
//       <bench>.timeline.json  epoch geometry, per-outcome totals
//                              reconciled against the shot count,
//                              breaker transitions, sampled traces
//       <bench>.soak.json      outcome mix, stage busy/blocked time,
//                              breaker totals, the modeled latency tail
//                              and the N devices losing the most shots
//     The text view goes to stdout. --out also writes the document's
//     self-contained HTML view (fleet and timeline only), byte-identical
//     to the one the bench wrote: the HTML is a pure function of the
//     parsed document. Exit 1 on an unknown schema or on --out for a
//     schema without an HTML view.
//
//   edgestab_sentinel prune FILE --keep N
//     Rewrite the run archive keeping only the newest N records per
//     bench (bench names carry the tier suffix, so per (bench, tier)).
//     Crash-safe: tmp sibling + atomic rename.
//
// Baselines are refreshed with scripts/refresh_baselines.sh, which
// copies the candidate BENCH_<name>.json files a bench run emits into
// the committed baselines/ directory.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <optional>
#include <string>
#include <vector>

#include "obs/baseline.h"
#include "obs/compare.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/telemetry/fleet_report.h"
#include "obs/timeline/timeline_report.h"
#include "service/pipeline.h"
#include "util/bytes.h"

using namespace edgestab;

namespace {

constexpr char kDefaultRuns[] = "bench_out/runs.jsonl";
constexpr char kDefaultBaselineDir[] = "baselines";

int usage() {
  std::fprintf(
      stderr,
      "usage: edgestab_sentinel <compare|trend|list|render|prune> [options]\n"
      "  compare --bench NAME [--runs FILE] [--baseline FILE]\n"
      "          [--baseline-dir DIR] [--rel-tol X] [--mad-k X]\n"
      "          [--perf-advisory] [--json]\n"
      "  trend   [--runs FILE] [--out FILE] [--baseline-dir DIR]\n"
      "  list    [--runs FILE]\n"
      "  render  FILE [--out FILE] [--top N]\n"
      "  prune   FILE --keep N\n");
  return 1;
}

/// `--flag value` / `--flag=value` option scanner.
bool option_value(int argc, char** argv, int& i, const char* flag,
                  std::string* out) {
  std::string arg = argv[i];
  std::string prefix = std::string(flag) + "=";
  if (arg == flag && i + 1 < argc) {
    *out = argv[++i];
    return true;
  }
  if (arg.rfind(prefix, 0) == 0) {
    *out = arg.substr(prefix.size());
    return true;
  }
  return false;
}

int cmd_compare(int argc, char** argv) {
  std::string bench, runs_path = kDefaultRuns, baseline_path;
  std::string baseline_dir = kDefaultBaselineDir;
  obs::CompareOptions options;
  bool perf_advisory = false, as_json = false;
  for (int i = 2; i < argc; ++i) {
    std::string value;
    if (option_value(argc, argv, i, "--bench", &bench) ||
        option_value(argc, argv, i, "--runs", &runs_path) ||
        option_value(argc, argv, i, "--baseline", &baseline_path) ||
        option_value(argc, argv, i, "--baseline-dir", &baseline_dir))
      continue;
    if (option_value(argc, argv, i, "--rel-tol", &value)) {
      options.perf_rel_tol = std::atof(value.c_str());
      continue;
    }
    if (option_value(argc, argv, i, "--mad-k", &value)) {
      options.perf_mad_k = std::atof(value.c_str());
      continue;
    }
    if (std::strcmp(argv[i], "--perf-advisory") == 0) {
      perf_advisory = true;
      continue;
    }
    if (std::strcmp(argv[i], "--json") == 0) {
      as_json = true;
      continue;
    }
    std::fprintf(stderr, "sentinel: unknown option '%s'\n", argv[i]);
    return usage();
  }
  if (bench.empty()) {
    std::fprintf(stderr, "sentinel: compare requires --bench NAME\n");
    return usage();
  }

  std::vector<obs::RunRecord> records;
  std::string error;
  if (!obs::load_run_records(runs_path, &records, &error)) {
    std::fprintf(stderr, "sentinel: %s\n", error.c_str());
    return 1;
  }
  const obs::RunRecord* latest = nullptr;
  for (const obs::RunRecord& r : records)
    if (r.bench == bench) latest = &r;  // archive is append-only: last wins
  if (latest == nullptr) {
    std::fprintf(stderr,
                 "sentinel: no archived run of '%s' in %s — run the bench "
                 "first\n",
                 bench.c_str(), runs_path.c_str());
    return 1;
  }

  if (baseline_path.empty())
    baseline_path = baseline_dir + "/BENCH_" + bench + ".json";
  if (!file_exists(baseline_path)) {
    std::fprintf(stderr,
                 "sentinel: no baseline at %s — refresh with "
                 "scripts/refresh_baselines.sh (or pass --baseline FILE)\n",
                 baseline_path.c_str());
    return 1;
  }
  obs::Baseline baseline;
  if (!obs::load_baseline(baseline_path, &baseline, &error)) {
    std::fprintf(stderr, "sentinel: %s\n", error.c_str());
    return 1;
  }

  obs::CompareReport report = obs::compare_run(*latest, baseline, options);
  if (as_json)
    std::printf("%s\n", obs::compare_report_json(report).c_str());
  else
    std::printf("%s", obs::compare_report_text(report).c_str());

  int blocking = 0;
  for (const obs::MetricVerdict& v : report.verdicts) {
    if (v.verdict != obs::Verdict::kRegressed) continue;
    if (perf_advisory && v.kind == obs::MetricKind::kPerf) {
      if (!as_json)
        std::printf("  (perf regression on '%s' is advisory)\n",
                    v.name.c_str());
      continue;
    }
    ++blocking;
  }
  return blocking > 0 ? 2 : 0;
}

int cmd_trend(int argc, char** argv) {
  std::string runs_path = kDefaultRuns, out_path = "bench_out/trend.html";
  std::string baseline_dir = kDefaultBaselineDir;
  for (int i = 2; i < argc; ++i) {
    if (option_value(argc, argv, i, "--runs", &runs_path) ||
        option_value(argc, argv, i, "--out", &out_path) ||
        option_value(argc, argv, i, "--baseline-dir", &baseline_dir))
      continue;
    std::fprintf(stderr, "sentinel: unknown option '%s'\n", argv[i]);
    return usage();
  }
  std::vector<obs::RunRecord> records;
  std::string error;
  if (!obs::load_run_records(runs_path, &records, &error)) {
    std::fprintf(stderr, "sentinel: %s\n", error.c_str());
    return 1;
  }

  std::vector<obs::Baseline> baselines;
  std::vector<std::string> seen;
  for (const obs::RunRecord& r : records) {
    bool done = false;
    for (const std::string& s : seen) done = done || s == r.bench;
    if (done) continue;
    seen.push_back(r.bench);
    std::string path = baseline_dir + "/BENCH_" + r.bench + ".json";
    if (!file_exists(path)) continue;  // trends render fine without one
    obs::Baseline baseline;
    if (obs::load_baseline(path, &baseline, &error))
      baselines.push_back(std::move(baseline));
    else
      std::fprintf(stderr, "sentinel: skipping %s: %s\n", path.c_str(),
                   error.c_str());
  }

  if (!write_text_file(out_path, obs::trend_html(records, baselines)))
    return 1;
  std::printf("sentinel: %s (%zu run(s), %zu baseline(s))\n",
              out_path.c_str(), records.size(), baselines.size());
  return 0;
}

int cmd_list(int argc, char** argv) {
  std::string runs_path = kDefaultRuns;
  for (int i = 2; i < argc; ++i) {
    if (option_value(argc, argv, i, "--runs", &runs_path)) continue;
    std::fprintf(stderr, "sentinel: unknown option '%s'\n", argv[i]);
    return usage();
  }
  std::vector<obs::RunRecord> records;
  std::string error;
  if (!obs::load_run_records(runs_path, &records, &error)) {
    std::fprintf(stderr, "sentinel: %s\n", error.c_str());
    return 1;
  }
  std::printf("%-20s %-20s %-14s %7s %9s %7s %s\n", "bench", "when",
              "git", "threads", "wall[s]", "items", "faults");
  for (const obs::RunRecord& r : records) {
    std::vector<double> wall;
    for (const obs::RepeatSample& s : r.repeats)
      wall.push_back(s.wall_seconds);
    char when[32] = "-";
    if (r.created_unix > 0) {
      std::time_t t = static_cast<std::time_t>(r.created_unix);
      std::tm tm = {};
#if defined(_WIN32)
      gmtime_s(&tm, &t);
#else
      gmtime_r(&t, &tm);
#endif
      std::strftime(when, sizeof(when), "%Y-%m-%d %H:%M:%S", &tm);
    }
    std::printf("%-20s %-20s %-14.14s %7d %9.3f %7.0f %s\n",
                r.bench.c_str(), when, r.git_sha.c_str(), r.threads,
                obs::median_of(wall), r.items,
                r.fault_plan.empty() ? "-" : r.fault_plan.c_str());
  }
  return 0;
}

int cmd_render(int argc, char** argv) {
  std::string path, out_path;
  long top = -1;  // -1: the view's own default
  for (int i = 2; i < argc; ++i) {
    std::string value;
    if (option_value(argc, argv, i, "--out", &out_path)) continue;
    if (option_value(argc, argv, i, "--top", &value)) {
      top = std::atol(value.c_str());
      continue;
    }
    if (argv[i][0] == '-') {
      std::fprintf(stderr, "sentinel: unknown option '%s'\n", argv[i]);
      return usage();
    }
    if (!path.empty()) {
      std::fprintf(stderr, "sentinel: render takes one file\n");
      return usage();
    }
    path = argv[i];
  }
  if (path.empty()) {
    std::fprintf(stderr, "sentinel: render requires a FILE\n");
    return usage();
  }
  const auto top_or = [top](std::size_t fallback) {
    return top < 0 ? fallback : static_cast<std::size_t>(top);
  };
  const auto fail = [&path](const std::string& why) {
    std::fprintf(stderr, "sentinel: %s: %s\n", path.c_str(), why.c_str());
    return 1;
  };
  const std::optional<std::string> text = read_text_file(path);
  if (!text.has_value()) return fail("cannot open");
  std::string error;
  const std::optional<obs::JsonValue> doc = obs::parse_json(*text, &error);
  if (!doc.has_value()) return fail(error);
  const std::string schema =
      doc->str_or("schema", doc->str_or("format", ""));
  std::string view;
  std::optional<std::string> html;
  bool parsed = true;
  if (schema == "edgestab-profile-v1") {
    obs::ProfileDoc profile;
    parsed = obs::parse_profile(*doc, &profile, &error);
    obs::appendf(view, "%s — profile digest %s\n", profile.bench.c_str(),
                 profile.digest.c_str());
    view += obs::hotspot_table(profile.nodes, top_or(12));
    obs::appendf(
        view, "allocs: %llu (%.2f MiB), peak live %.2f MiB\n",
        static_cast<unsigned long long>(profile.totals.alloc_count),
        static_cast<double>(profile.totals.alloc_bytes) / (1024.0 * 1024.0),
        static_cast<double>(profile.totals.peak_live_bytes) /
            (1024.0 * 1024.0));
  } else if (schema == "edgestab-fleet-v1") {
    obs::FleetDoc fleet;
    parsed = obs::parse_fleet(*doc, &fleet, &error);
    view = fleet.bench + " — fleet health (alert digest " +
           obs::hex_digest(fleet.report.alerts.digest()) + ")\n" +
           obs::fleet_text(fleet.report);
    html = obs::fleet_html(fleet.report, fleet.bench);
  } else if (schema == "edgestab-timeline-v1") {
    obs::TimelineDoc timeline;
    parsed = obs::parse_timeline(*text, &timeline, &error);
    view = obs::timeline_text(timeline);
    html = obs::timeline_html(timeline);
  } else if (schema == "edgestab-soak-v1") {
    view = service::soak_text(*doc, path, top_or(8));
  } else {
    return fail("unknown schema '" + schema + "'");
  }
  if (!parsed) return fail(error);
  if (!out_path.empty() && !html.has_value())
    return fail(schema + " has no HTML view to write to --out");
  std::printf("%s", view.c_str());
  if (out_path.empty()) return 0;
  if (!write_text_file(out_path, *html)) return 1;
  std::printf("sentinel: %s\n", out_path.c_str());
  return 0;
}

int cmd_prune(int argc, char** argv) {
  std::string path, keep_s;
  for (int i = 2; i < argc; ++i) {
    if (option_value(argc, argv, i, "--keep", &keep_s)) continue;
    if (argv[i][0] == '-') {
      std::fprintf(stderr, "sentinel: unknown option '%s'\n", argv[i]);
      return usage();
    }
    if (!path.empty()) {
      std::fprintf(stderr, "sentinel: prune takes one runs.jsonl file\n");
      return usage();
    }
    path = argv[i];
  }
  if (path.empty() || keep_s.empty()) {
    std::fprintf(stderr, "sentinel: prune requires FILE and --keep N\n");
    return usage();
  }
  long keep = std::atol(keep_s.c_str());
  if (keep <= 0) {
    std::fprintf(stderr, "sentinel: --keep must be a positive integer\n");
    return usage();
  }
  std::size_t kept = 0, dropped = 0;
  std::string error;
  if (!obs::prune_run_archive(path, static_cast<std::size_t>(keep), &kept,
                              &dropped, &error)) {
    std::fprintf(stderr, "sentinel: %s\n", error.c_str());
    return 1;
  }
  std::printf(
      "sentinel: %s pruned to the newest %ld per bench — kept %zu "
      "record(s), dropped %zu\n",
      path.c_str(), keep, kept, dropped);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string command = argv[1];
  if (command == "compare") return cmd_compare(argc, argv);
  if (command == "trend") return cmd_trend(argc, argv);
  if (command == "list") return cmd_list(argc, argv);
  if (command == "render") return cmd_render(argc, argv);
  if (command == "prune") return cmd_prune(argc, argv);
  std::fprintf(stderr, "sentinel: unknown command '%s'\n", command.c_str());
  return usage();
}
