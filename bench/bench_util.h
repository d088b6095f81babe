// Shared scaffolding for the experiment bench binaries: standard
// workspace, rig sizes, CSV emission, and the per-run observability
// hook. Every bench prints the paper's rows/series and writes a
// machine-readable CSV to bench_out/; the Run wrapper additionally emits
// a provenance manifest (`<name>.meta.json`), a Chrome trace
// (`<name>.trace.json`, open in chrome://tracing or
// https://ui.perfetto.dev) plus a flat stage-timing CSV aggregated from
// the span histograms.
#pragma once

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/instability.h"
#include "core/resilience.h"
#include "core/workspace.h"
#include "data/lab_rig.h"
#include "device/fleets.h"
#include "fault/fault.h"
#include "obs/baseline.h"
#include "obs/drift.h"
#include "obs/fault_ledger.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/report.h"
#include "obs/telemetry/anomaly.h"
#include "obs/telemetry/telemetry.h"
#include "obs/timeline/timeline.h"
#include "runtime/thread_pool.h"
#include "tensor/backend.h"
#include "util/csv.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace edgestab::bench {

/// Directory the artifacts go to (created on demand). Returns false —
/// with a stderr report — when the directory cannot be created, e.g.
/// because a file named bench_out is in the way; callers must not write
/// into the void.
inline bool ensure_out_dir(std::string& dir) {
  dir = "bench_out";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec || !std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "[bench] cannot create output directory %s: %s\n",
                 dir.c_str(),
                 ec ? ec.message().c_str() : "path is not a directory");
    return false;
  }
  return true;
}

/// Production rig: 30 objects per target class, 5 angles — 150 objects,
/// 750 stimuli per phone (the paper used 1537 source images and 5 angles).
/// EDGESTAB_RIG_OBJECTS overrides objects_per_class so CI fixtures can
/// run a bench end-to-end in smoke size; results are then NOT the
/// paper's numbers, only the pipeline exercised.
inline LabRigConfig standard_rig() {
  LabRigConfig rig;
  rig.objects_per_class = 30;
  rig.seed = 4242;
  if (const char* env = std::getenv("EDGESTAB_RIG_OBJECTS")) {
    int n = std::atoi(env);
    if (n > 0) rig.objects_per_class = n;
  }
  return rig;
}

/// Parse `--threads N` / `--threads=N` from a bench command line and
/// resize the global pool (overriding the EDGESTAB_THREADS default).
/// Other flags are ignored. Returns the effective lane count. Results
/// are bit-identical at every setting — the knob trades wall-clock only.
inline int apply_thread_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    int n = 0;
    if (arg == "--threads" && i + 1 < argc)
      n = std::atoi(argv[i + 1]);
    else if (arg.rfind("--threads=", 0) == 0)
      n = std::atoi(arg.c_str() + 10);
    else
      continue;
    if (n > 0) runtime::ThreadPool::set_global_threads(n);
  }
  return runtime::ThreadPool::global().threads();
}

/// Parse `--faults SPEC` / `--faults=SPEC` from a bench command line
/// (falling back to the EDGESTAB_FAULTS environment variable) and arm
/// the global injector. SPEC is "off", a preset ("light" | "moderate" |
/// "heavy"), or a "k=v,k=v" list — see fault::parse_fault_plan. Returns
/// the armed plan's summary, or "" when injection stays off. Every
/// bench's Run wrapper calls this, so the knob exists uniformly.
inline std::string apply_fault_flag(int argc, char** argv) {
  std::string spec;
  if (const char* env = std::getenv("EDGESTAB_FAULTS")) spec = env;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--faults" && i + 1 < argc)
      spec = argv[i + 1];
    else if (arg.rfind("--faults=", 0) == 0)
      spec = arg.substr(9);
  }
  if (spec.empty()) return "";
  fault::FaultPlan plan = fault::parse_fault_plan(spec);
  if (!plan.any()) {
    fault::FaultInjector::global().reset();
    return "";
  }
  fault::FaultInjector::global().configure(plan);
  std::printf("[fault] injection armed: %s\n", plan.summary().c_str());
  return plan.summary();
}

/// Parse `--profile` / `--profile=1` from a bench command line (falling
/// back to the EDGESTAB_PROFILE environment variable) and arm the
/// hot-path profiler (obs/profiler.h). Returns whether the profiler was
/// armed. Pass argc = 0 to consult the environment only.
inline bool apply_profile_flag(int argc, char** argv) {
  bool want = false;
  if (const char* env = std::getenv("EDGESTAB_PROFILE")) {
    std::string v = env;
    want = !(v.empty() || v == "0" || v == "off" || v == "OFF");
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--profile" || arg == "--profile=1" || arg == "--profile=on")
      want = true;
    else if (arg == "--profile=0" || arg == "--profile=off")
      want = false;
  }
  if (!want) return false;
  obs::Profiler::global().clear();
  obs::Profiler::global().set_enabled(true);
  std::printf("[profile] hot-path profiler armed\n");
  return true;
}

/// Parse `--telemetry` / `--telemetry=0|off` from a bench command line
/// (falling back to the EDGESTAB_TELEMETRY environment variable) and
/// arm the fleet health registry. EDGESTAB_TELEMETRY_WINDOW overrides
/// the item-window width. Returns whether telemetry was armed. Arming
/// also points the progress heartbeat at the registry's running alert
/// estimate. Pass argc = 0 to consult the environment only.
inline bool apply_telemetry_flag(int argc, char** argv) {
  bool want = false;
  if (const char* env = std::getenv("EDGESTAB_TELEMETRY")) {
    std::string v = env;
    want = !(v.empty() || v == "0" || v == "off" || v == "OFF");
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--telemetry" || arg == "--telemetry=1" ||
        arg == "--telemetry=on")
      want = true;
    else if (arg == "--telemetry=0" || arg == "--telemetry=off")
      want = false;
  }
  auto& registry = obs::DeviceHealthRegistry::global();
  if (!want) {
    // An explicit --telemetry=off overrides an env-armed registry.
    if (registry.enabled()) {
      registry.set_enabled(false);
      obs::ProgressMeter::set_alert_source(nullptr);
    }
    return false;
  }
  if (registry.enabled()) return true;  // already armed (env + flag paths)
  registry.clear();
  if (const char* env = std::getenv("EDGESTAB_TELEMETRY_WINDOW")) {
    int w = std::atoi(env);
    if (w > 0) registry.set_window_items(w);
  }
  registry.set_enabled(true);
  obs::ProgressMeter::set_alert_source(+[]() -> std::int64_t {
    return obs::DeviceHealthRegistry::global().live_alert_count();
  });
  std::printf("[telemetry] fleet health telemetry armed (window %d items)\n",
              registry.window_items());
  return true;
}

/// Parse `--timeline` / `--timeline=0|off` from a bench command line
/// (falling back to the EDGESTAB_TIMELINE environment variable) and arm
/// the service timeline recorder. `--timeline-epoch N` /
/// EDGESTAB_TIMELINE_EPOCH sets the fold-epoch length in slots and
/// `--trace-sample-rate X` / EDGESTAB_TRACE_SAMPLE_RATE the per-shot
/// trace sample probability (stored as integer ppm). Returns whether
/// the timeline was armed. Pass argc = 0 to consult the environment
/// only.
inline bool apply_timeline_flag(int argc, char** argv) {
  bool want = false;
  if (const char* env = std::getenv("EDGESTAB_TIMELINE")) {
    std::string v = env;
    want = !(v.empty() || v == "0" || v == "off" || v == "OFF");
  }
  int epoch = 0;
  double rate = -1.0;
  if (const char* env = std::getenv("EDGESTAB_TIMELINE_EPOCH"))
    epoch = std::atoi(env);
  if (const char* env = std::getenv("EDGESTAB_TRACE_SAMPLE_RATE"))
    rate = std::atof(env);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--timeline" || arg == "--timeline=1" || arg == "--timeline=on")
      want = true;
    else if (arg == "--timeline=0" || arg == "--timeline=off")
      want = false;
    else if (arg == "--timeline-epoch" && i + 1 < argc)
      epoch = std::atoi(argv[i + 1]);
    else if (arg.rfind("--timeline-epoch=", 0) == 0)
      epoch = std::atoi(arg.c_str() + 17);
    else if (arg == "--trace-sample-rate" && i + 1 < argc)
      rate = std::atof(argv[i + 1]);
    else if (arg.rfind("--trace-sample-rate=", 0) == 0)
      rate = std::atof(arg.c_str() + 20);
  }
  auto& recorder = obs::TimelineRecorder::global();
  if (!want) {
    // An explicit --timeline=off overrides an env-armed recorder.
    if (recorder.enabled()) recorder.set_enabled(false);
    return false;
  }
  if (!recorder.enabled()) recorder.clear();
  if (epoch > 0) recorder.set_epoch_slots(epoch);
  if (rate >= 0.0)
    recorder.set_trace_sample_ppm(
        static_cast<long long>(std::llround(rate * 1e6)));
  recorder.set_enabled(true);
  std::printf(
      "[timeline] service timeline armed (epoch %d slots, trace sample "
      "%lld ppm)\n",
      recorder.epoch_slots(), recorder.trace_sample_ppm());
  return true;
}

/// Parse `--backend NAME` / `--backend=NAME` from a bench command line
/// (falling back to the EDGESTAB_BACKEND environment variable) and
/// select the process-wide kernel tier: "scalar" (reference, default),
/// "avx2" or "int8" — see tensor/backend.h and DESIGN.md §15. An unknown
/// name warns and runs scalar; a known-but-unavailable tier (avx2 on a
/// host or build without it) falls back to scalar with a note from
/// set_active_backend. No spec at all explicitly (re)selects scalar, so
/// a bench process is deterministic regardless of prior state. Returns
/// the effective tier. Pass argc = 0 to consult the environment only.
inline BackendKind apply_backend_flag(int argc, char** argv) {
  std::string spec;
  if (const char* env = std::getenv("EDGESTAB_BACKEND")) spec = env;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--backend" && i + 1 < argc)
      spec = argv[i + 1];
    else if (arg.rfind("--backend=", 0) == 0)
      spec = arg.substr(10);
  }
  BackendKind kind = BackendKind::kScalar;
  if (!spec.empty() && !parse_backend(spec, kind))
    std::fprintf(stderr,
                 "[backend] unknown backend '%s' (scalar|avx2|int8); "
                 "running scalar\n",
                 spec.c_str());
  const BackendKind effective = set_active_backend(kind);
  if (effective != BackendKind::kScalar)
    std::printf("[backend] %s kernels active\n", backend_name(effective));
  return effective;
}

/// Non-scalar tiers produce (by contract) different numbers, so their
/// runs archive under a decorated name — fig3 vs fig3__int8 — and never
/// compare against the scalar tier's sentinel baselines.
inline std::string decorate_run_name(std::string name, BackendKind backend) {
  if (backend != BackendKind::kScalar) {
    name += "__";
    name += backend_name(backend);
  }
  return name;
}

/// `health.<label>.flip_rate`-style metric names must survive the
/// sentinel's dotted-name handling, so device labels are flattened to
/// [A-Za-z0-9_].
inline std::string sanitize_metric_label(const std::string& label) {
  std::string out = label;
  for (char& c : out)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return out;
}

inline void banner(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// One bench execution: prints the banner, enables span tracing for the
/// process, tracks artifact-write failures, and on finish() exports the
/// run's trace, stage-timing CSV and provenance manifest. main() should
/// `return run.finish();` so a bench whose artifacts failed to land
/// exits non-zero.
class Run {
 public:
  Run(std::string name, const std::string& title)
      : Run(std::move(name), title, 0, nullptr) {}

  /// Same, but also honors `--threads N`, `--faults SPEC`, `--repeats N`,
  /// `--progress`, `--profile` and `--backend NAME` flags on the bench
  /// command line; the effective lane count, kernel tier and armed fault
  /// plan land in the provenance manifest so a result row names the
  /// parallelism, numerics and fault schedule that produced it. The
  /// backend is applied (and the run name decorated — fig3__int8) before
  /// anything observes name_, so every artifact of a non-scalar run
  /// lands under the tier-qualified name.
  Run(std::string name, const std::string& title, int argc, char** argv)
      : name_(decorate_run_name(std::move(name),
                                apply_backend_flag(argc, argv))),
        manifest_(name_) {
    banner(title);
    obs::Tracer::global().set_enabled(true);
    obs::DriftAuditor::global().set_enabled(true);
    if (apply_profile_flag(argc, argv)) open_profile_root();
    apply_telemetry_flag(argc, argv);
    apply_timeline_flag(argc, argv);
    manifest_.set_field("backend", backend_name(active_backend()));
    manifest_.set_field("threads",
                        static_cast<double>(apply_thread_flag(argc, argv)));
    if (argc == 0) return;  // flagless construction: env-only knobs above
    const std::string faults = apply_fault_flag(argc, argv);
    if (!faults.empty()) {
      manifest_.set_field("fault_plan", faults);
      manifest_.add_digest("fault_plan",
                           fault::FaultInjector::global().plan().digest());
    }
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--repeats" && i + 1 < argc)
        repeats_ = std::atoi(argv[i + 1]);
      else if (arg.rfind("--repeats=", 0) == 0)
        repeats_ = std::atoi(arg.c_str() + 10);
      else if (arg == "--progress")
        progress_flag_ = true;
    }
    if (repeats_ < 1) repeats_ = 1;
    if (repeats_ > 1)
      manifest_.set_field("repeats", static_cast<double>(repeats_));
  }

  /// Remember an externally detected failure for finish()'s exit code.
  void fail() { ok_ = false; }

  obs::RunManifest& manifest() { return manifest_; }

  const std::string& name() const { return name_; }

  /// Timing repeats requested on the command line (>= 1).
  int repeats() const { return repeats_; }

  /// Progress heartbeat armed by `--progress` or EDGESTAB_PROGRESS=1.
  bool progress_enabled() const {
    return progress_flag_ || obs::ProgressMeter::env_enabled();
  }

  /// Headline work-unit count; feeds the archived items/sec perf metric.
  void set_items(double items) {
    items_ = items;
    manifest_.set_field("items", items);
  }

  /// Declare a headline result the sentinel should guard across runs.
  /// Mirrored into the manifest as `metric_<name>` so the per-run
  /// artifact stays self-describing.
  void record_metric(const std::string& metric, double value,
                     obs::MetricKind kind = obs::MetricKind::kCorrectness,
                     obs::Direction direction = obs::Direction::kExact,
                     const std::string& unit = "", double epsilon = 0.0,
                     double abs_floor = 0.0) {
    obs::MetricSample sample;
    sample.name = metric;
    sample.kind = kind;
    sample.direction = direction;
    sample.unit = unit;
    sample.value = value;
    sample.epsilon = epsilon;
    sample.abs_floor = abs_floor;
    metrics_.push_back(std::move(sample));
    manifest_.set_field("metric_" + metric, value);
  }

  /// Declare a textual fingerprint (e.g. a joined MD5 stream) guarded by
  /// hard equality under matching provenance.
  void record_digest_metric(const std::string& metric,
                            const std::string& text) {
    obs::MetricSample sample;
    sample.name = metric;
    sample.kind = obs::MetricKind::kDigest;
    sample.text = text;
    metrics_.push_back(std::move(sample));
    manifest_.set_field("metric_" + metric, text);
  }

  /// File one repeat's timing (run_repeats does this for you).
  void add_repeat_sample(const obs::RepeatSample& sample) {
    repeat_samples_.push_back(sample);
  }

  /// Record the capture-rig configuration (seed, geometry, digest).
  void record_rig(const LabRigConfig& rig) {
    manifest_.set_seed(rig.seed);
    manifest_.set_field("objects_per_class",
                        static_cast<double>(rig.objects_per_class));
    manifest_.set_field("angles", static_cast<double>(rig.angles.size()));
    manifest_.set_field("shots_per_stimulus",
                        static_cast<double>(rig.shots_per_stimulus));
    manifest_.set_field("scene_size", static_cast<double>(rig.scene_size));
    manifest_.add_digest("lab_rig", rig_digest(rig));
  }

  /// Record every fleet member's identity and full-pipeline digest.
  void record_fleet(const std::vector<PhoneProfile>& fleet) {
    for (const PhoneProfile& phone : fleet) {
      obs::ManifestDevice d;
      d.name = phone.name;
      d.model_code = phone.model_code;
      d.isp = phone.isp.name;
      d.format = format_name(phone.storage_format);
      d.quality = phone.storage_quality;
      d.soc = phone.backend.soc_name;
      d.digest = obs::hex_digest(profile_digest(phone));
      manifest_.add_device(std::move(d));
    }
  }

  /// Record the shared-model workspace fingerprint (base of every cached
  /// checkpoint the bench loaded).
  void record_workspace(const Workspace& ws) {
    manifest_.add_digest("workspace", ws.fingerprint());
  }

  /// Write a result CSV into bench_out/ and list it in the manifest.
  /// Failures are reported and remembered for finish()'s exit code.
  bool write_csv(const CsvWriter& csv, const std::string& file) {
    std::string dir;
    if (!ensure_out_dir(dir)) {
      ok_ = false;
      return false;
    }
    std::string path = dir + "/" + file;
    try {
      csv.write_file(path);
    } catch (const CheckError& e) {
      std::fprintf(stderr, "[csv] FAILED %s: %s\n", path.c_str(), e.what());
      ok_ = false;
      return false;
    }
    std::printf("[csv] %s\n", path.c_str());
    manifest_.add_artifact(file);
    return true;
  }

  /// Export trace + stage timing (tracing builds), drift reports (drift
  /// builds with the auditor enabled) and the provenance manifest;
  /// returns the process exit code. Dropped span events and any artifact
  /// that failed to land surface here as a non-zero exit. Afterwards the
  /// run is archived: one record line appended to bench_out/runs.jsonl
  /// and the candidate baseline bench_out/BENCH_<name>.json rewritten —
  /// archiving runs after artifact export so the drift-report and
  /// ledger digests the export adds to the manifest make it into the
  /// record.
  int finish() {
    manifest_.set_wall_seconds(timer_.seconds());
    // Close the root profile scope and freeze the profiler before any
    // snapshot: headline metrics and the exported report must see the
    // completed tree (root inclusive ≈ run wall time).
    if (obs::Profiler::global().armed()) {
      profile_root_.reset();
      obs::Profiler::global().set_enabled(false);
      record_profile_metrics();
    }
    if (obs::telemetry_enabled() &&
        !obs::DeviceHealthRegistry::global().empty())
      record_telemetry_metrics();
    std::string dir;
    if (!ensure_out_dir(dir)) return 1;
    if (!obs::export_run_artifacts(name_, dir, manifest_)) ok_ = false;
    archive(dir);
    return ok_ ? 0 : 1;
  }

 private:
  void open_profile_root() {
    // name_ outlives the scope and the profiler interns copies, so the
    // c_str pointer is a valid scope label for the run's lifetime.
    profile_root_ =
        std::make_unique<obs::ProfileScope>("bench", name_.c_str());
  }

  /// Headline profile metrics for the sentinel: whole-run allocation
  /// totals plus the per-stage exclusive times (aggregated over every
  /// tree position of the same "category.name" label). All perf-kind, so
  /// baselines band them and a --threads mismatch voids rather than
  /// fails them. Alloc count/bytes are thread-invariant by the profiler's
  /// determinism contract; peak live bytes is timing-dependent, hence
  /// the generous floor.
  ///
  /// Every label is recorded — not a top-N-by-time cut. The label set is
  /// part of the profile's determinism contract, so baseline and current
  /// runs always carry the same metric names; a time-ranked cut would
  /// shuffle which stages appear and litter compares with "metric
  /// absent" rows. Per-stage floors scale with the run (a quarter of the
  /// total attributed time) because exclusive-time attribution jitters
  /// heavily under CPU contention: wall/cpu_seconds carry the tight
  /// whole-run band, and a stage metric only trips when one stage
  /// swallows a materially bigger slice of the run.
  void record_profile_metrics() {
    obs::Profiler& profiler = obs::Profiler::global();
    obs::ProfileTotals totals = profiler.totals();
    record_metric("profile_alloc_count",
                  static_cast<double>(totals.alloc_count),
                  obs::MetricKind::kPerf, obs::Direction::kLowerIsBetter,
                  "allocs", 0.0, /*abs_floor=*/32.0);
    record_metric("profile_alloc_bytes_total",
                  static_cast<double>(totals.alloc_bytes),
                  obs::MetricKind::kPerf, obs::Direction::kLowerIsBetter,
                  "bytes", 0.0, /*abs_floor=*/65536.0);
    record_metric("profile_peak_live_bytes",
                  static_cast<double>(totals.peak_live_bytes),
                  obs::MetricKind::kPerf, obs::Direction::kLowerIsBetter,
                  "bytes", 0.0, /*abs_floor=*/1048576.0);

    std::map<std::string, double> excl_ms_by_label;
    double total_excl_ms = 0.0;
    for (const obs::ProfileNode& node : profiler.snapshot()) {
      const double excl_ms = static_cast<double>(node.excl_ns) / 1e6;
      excl_ms_by_label[node.category + "." + node.name] += excl_ms;
      total_excl_ms += excl_ms;
    }
    const double stage_floor_ms = std::max(5.0, 0.25 * total_excl_ms);
    for (const auto& [label, excl_ms] : excl_ms_by_label)
      record_metric("profile_excl_ms." + label, excl_ms,
                    obs::MetricKind::kPerf, obs::Direction::kLowerIsBetter,
                    "ms", 0.0, stage_floor_ms);
  }

  /// Headline fleet-health metrics for the sentinel. Alert counts and
  /// per-device flip rates come from the integer-quantized registry, so
  /// they are exact-compare correctness metrics: any drift across runs
  /// under matching provenance is a real behavior change, not noise.
  void record_telemetry_metrics() {
    const obs::FleetHealthReport report =
        obs::evaluate_fleet_health(obs::DeviceHealthRegistry::global());
    record_metric("alerts_total", static_cast<double>(report.alerts_total));
    record_metric("devices_degraded",
                  static_cast<double>(report.devices_degraded));
    for (const obs::DeviceHealth& d : report.fleet.devices) {
      const std::string label =
          d.label.empty() ? "device" + std::to_string(d.device) : d.label;
      record_metric("health." + sanitize_metric_label(label) + ".flip_rate",
                    d.flip_rate);
    }
  }

  void archive(const std::string& dir) {
    obs::RunRecord record;
    record.bench = name_;
    std::string sha = obs::git_head_sha();
    record.git_sha = sha.empty() ? "unknown" : sha;
    record.created_unix = static_cast<std::int64_t>(std::time(nullptr));
    record.has_seed = manifest_.has_seed();
    if (record.has_seed) record.seed = manifest_.seed();
    record.threads = static_cast<int>(
        manifest_.find_number_field("threads").value_or(
            static_cast<double>(runtime::ThreadPool::global().threads())));
    if (const std::string* plan = manifest_.find_string_field("fault_plan"))
      record.fault_plan = *plan;
    for (const auto& [digest_name, digest] : manifest_.digests())
      record.digests.emplace_back(digest_name, obs::hex_digest(digest));
    record.repeats = repeat_samples_;
    if (record.repeats.empty()) {
      // Bench never called run_repeats: the whole process is one repeat.
      obs::RepeatSample whole;
      whole.wall_seconds = timer_.seconds();
      obs::ResourceUsage usage = obs::process_usage();
      whole.user_seconds = usage.user_seconds;
      whole.sys_seconds = usage.sys_seconds;
      record.repeats.push_back(whole);
    }
    record.items = items_;
    record.max_rss_kb = obs::process_usage().max_rss_kb;
    record.stage_wall_ms = obs::stage_wall_ms_from_registry();
    record.metrics = metrics_;

    std::string archive_path = dir + "/runs.jsonl";
    if (obs::append_run_record(archive_path, record))
      std::printf("[archive] %s (+1 record)\n", archive_path.c_str());
    else
      ok_ = false;
    std::string baseline_path = dir + "/BENCH_" + name_ + ".json";
    if (obs::write_baseline(baseline_path, obs::baseline_from_record(record)))
      std::printf("[archive] %s\n", baseline_path.c_str());
    else
      ok_ = false;
  }

  std::string name_;
  WallTimer timer_;
  obs::RunManifest manifest_;
  /// Root of the logical call tree when profiling; closed by finish().
  std::unique_ptr<obs::ProfileScope> profile_root_;
  bool ok_ = true;
  int repeats_ = 1;
  bool progress_flag_ = false;
  double items_ = 0.0;
  std::vector<obs::RepeatSample> repeat_samples_;
  std::vector<obs::MetricSample> metrics_;
};

/// Execute the bench's compute body `run.repeats()` times and file one
/// RepeatSample (wall + getrusage deltas) per execution; returns the
/// LAST execution's result.
///
/// Ordering matters: the N-1 timing-only repeats run FIRST with the
/// tracer and drift auditor muted, then every cross-run accumulator
/// (metrics registry, drift ledgers, fault receipts) is cleared, and the
/// authoritative repeat runs LAST with observability restored — so its
/// artifacts, ledger cross-checks and digests are byte-identical to a
/// --repeats 1 run while the archive still gets N timing samples.
template <typename Fn>
auto run_repeats(Run& run, Fn&& body) {
  const int repeats = run.repeats();
  obs::ProgressMeter progress(run.name() + " repeats", repeats,
                              run.progress_enabled());
  auto timed = [&run, &progress, &body] {
    obs::ResourceUsage before = obs::process_usage();
    WallTimer timer;
    auto result = body();
    obs::RepeatSample sample;
    sample.wall_seconds = timer.seconds();
    obs::ResourceUsage after = obs::process_usage();
    sample.user_seconds = after.user_seconds - before.user_seconds;
    sample.sys_seconds = after.sys_seconds - before.sys_seconds;
    run.add_repeat_sample(sample);
    progress.tick();
    return result;
  };
  if (repeats > 1) {
    const bool tracer_was = obs::Tracer::global().enabled();
    const bool drift_was = obs::DriftAuditor::global().enabled();
    const bool profiler_was = obs::Profiler::global().enabled();
    const bool telemetry_was = obs::DeviceHealthRegistry::global().enabled();
    const bool timeline_was = obs::TimelineRecorder::global().enabled();
    obs::Tracer::global().set_enabled(false);
    obs::DriftAuditor::global().set_enabled(false);
    obs::Profiler::global().set_enabled(false);
    obs::DeviceHealthRegistry::global().set_enabled(false);
    obs::TimelineRecorder::global().set_enabled(false);
    for (int i = 0; i + 1 < repeats; ++i) (void)timed();
    // Warm-up repeats must not leak into the authoritative run's
    // metrics, drift report, or fault receipts — nor into the rig-run
    // counter that names their groups. The profiler needs no clear: its
    // scopes were inert while muted (activity is decided at scope entry),
    // so only the authoritative repeat populates the call tree.
    obs::MetricsRegistry::global().reset();
    obs::DriftAuditor::global().clear();
    obs::FaultLedger::global().clear();
    obs::DeviceHealthRegistry::global().clear();  // keeps enabled()
    obs::TimelineRecorder::global().clear();      // keeps enabled() + knobs
    reset_rig_run_counter();
    obs::Tracer::global().set_enabled(tracer_was);
    obs::DriftAuditor::global().set_enabled(drift_was);
    obs::Profiler::global().set_enabled(profiler_was);
    obs::DeviceHealthRegistry::global().set_enabled(telemetry_was);
    obs::TimelineRecorder::global().set_enabled(timeline_was);
  }
  auto result = timed();
  progress.finish();
  return result;
}

/// Cross-check the drift flip-ledger's totals against the instability
/// numbers core/instability computed for the same observations. The two
/// are independent implementations of the paper's §2.2 bookkeeping; a
/// mismatch means the drift report is lying about the run and fails the
/// bench. No-op when the auditor is off.
inline void check_flip_ledger(Run& run, const std::string& group,
                              const InstabilityResult& expected) {
  if (!obs::drift_enabled()) return;
  auto summary = obs::DriftAuditor::global().ledger().find_group(group);
  if (summary.has_value() &&
      summary->total_items == expected.total_items &&
      summary->unstable_items == expected.unstable_items &&
      summary->all_correct_items == expected.all_correct_items &&
      summary->all_incorrect_items == expected.all_incorrect_items) {
    std::printf(
        "[drift] ledger '%s' matches core/instability: %d/%d unstable "
        "(%d all-correct, %d all-incorrect)\n",
        group.c_str(), summary->unstable_items, summary->total_items,
        summary->all_correct_items, summary->all_incorrect_items);
    return;
  }
  if (summary.has_value()) {
    std::fprintf(stderr,
                 "[drift] ledger '%s' MISMATCH: ledger %d/%d unstable vs "
                 "instability %d/%d\n",
                 group.c_str(), summary->unstable_items,
                 summary->total_items, expected.unstable_items,
                 expected.total_items);
  } else {
    std::fprintf(stderr, "[drift] ledger group '%s' missing\n",
                 group.c_str());
  }
  run.fail();
}

/// Print a degraded run's fault accounting and record the coverage in
/// the manifest. No-op on clean runs, keeping their artifacts identical
/// to a build without fault support.
inline void report_resilience(Run& run, const FleetResilienceStats& stats) {
  if (!stats.faults_active) return;
  Table t({"DEVICE", "USABLE SHOTS", "QUARANTINED FROM ITEM"});
  for (int d = 0; d < stats.device_count; ++d) {
    const int qf = stats.quarantined_from_item[static_cast<std::size_t>(d)];
    t.add_row({std::to_string(d),
               std::to_string(
                   stats.usable_shots_by_device[static_cast<std::size_t>(d)]),
               qf >= 0 ? std::to_string(qf) : "-"});
  }
  std::printf(
      "\nFault accounting (graceful degradation)\n%s"
      "shots: %d total, %d lost, %d quarantine-excluded; devices "
      "quarantined: %d\n"
      "coverage: %d/%d items fully covered, %d degraded, %d lost "
      "(mean %.2f envs/item)\n",
      t.str().c_str(), stats.total_shots, stats.shots_lost,
      stats.shots_excluded, stats.quarantined_devices,
      stats.items_fully_covered, stats.item_count, stats.items_degraded,
      stats.items_lost, stats.mean_coverage);
  run.manifest().set_field("fault_shots_total",
                           static_cast<double>(stats.total_shots));
  run.manifest().set_field("fault_shots_lost_run",
                           static_cast<double>(stats.shots_lost));
  run.manifest().set_field("fault_shots_excluded",
                           static_cast<double>(stats.shots_excluded));
  run.manifest().set_field("fault_quarantined_devices_run",
                           static_cast<double>(stats.quarantined_devices));
  run.manifest().set_field("fault_items_lost",
                           static_cast<double>(stats.items_lost));
  run.manifest().set_field("fault_mean_coverage", stats.mean_coverage);
}

/// Cross-check the fault ledger's receipts against the experiment's own
/// coverage accounting, the same way check_flip_ledger validates the
/// drift report: shot losses filed under the capture and delivery groups
/// must sum to the run's lost shots, and the quarantine verdicts must
/// agree. A mismatch fails the bench. No-op when injection is off.
inline void check_fault_ledger(Run& run, const std::string& capture_group,
                               const std::string& delivery_group,
                               const FleetResilienceStats& expected) {
  if (!fault::FaultInjector::global().enabled()) return;
  auto& ledger = obs::FaultLedger::global();
  int lost = 0;
  int quarantined = 0;
  for (const std::string& group : {capture_group, delivery_group}) {
    auto summary = ledger.find_group(group);
    if (!summary.has_value()) continue;
    lost += summary->shots_lost;
    quarantined += summary->quarantined_devices;
  }
  if (lost == expected.shots_lost &&
      quarantined == expected.quarantined_devices) {
    std::printf(
        "[fault] ledger ('%s' + '%s') matches run accounting: %d shots "
        "lost, %d devices quarantined\n",
        capture_group.c_str(), delivery_group.c_str(), lost, quarantined);
    return;
  }
  std::fprintf(stderr,
               "[fault] ledger MISMATCH: ledger %d lost / %d quarantined "
               "vs run %d / %d\n",
               lost, quarantined, expected.shots_lost,
               expected.quarantined_devices);
  run.fail();
}

/// Cross-check the alert ledger against the independent ledgers it
/// claims to summarize, the way check_flip_ledger / check_fault_ledger
/// audit their layers:
///
///   * every `device_quarantined` alert must match a FaultLedger
///     quarantine verdict for the same (device, first excluded item) —
///     and vice versa, every quarantined device must have paged;
///   * every flip-rate alert's numerator must be recomputable from the
///     FlipLedger: the count of distinct items in [item_lo, item_hi)
///     where the device appears on the incorrect side of a flip entry.
///
/// A mismatch fails the bench. No-op when telemetry is off; the flip
/// half is skipped (with a note) when the flip ledger capped entries,
/// since the per-item records needed for the recount were dropped.
inline void check_alert_ledger(Run& run, const std::string& capture_group,
                               const std::string& delivery_group,
                               const std::string& flip_group) {
  if (!obs::telemetry_enabled() ||
      obs::DeviceHealthRegistry::global().empty())
    return;
  const obs::FleetHealthReport report =
      obs::evaluate_fleet_health(obs::DeviceHealthRegistry::global());

  // Quarantine verdicts from the fault ledger's exact per-device rows
  // (never entry-capped), across both the capture and delivery groups.
  std::set<std::pair<int, int>> fault_quarantines;
  for (const std::string& group : {capture_group, delivery_group}) {
    auto summary = obs::FaultLedger::global().find_group(group);
    if (!summary.has_value()) continue;
    for (const obs::DeviceFaultRow& row : summary->devices)
      if (row.quarantined)
        fault_quarantines.emplace(row.device, row.quarantined_from_item);
  }
  std::set<std::pair<int, int>> alert_quarantines;
  int flip_alerts = 0;
  bool ok = true;
  for (const obs::Alert& alert : report.alerts.alerts()) {
    if (alert.rule == "device_quarantined") {
      alert_quarantines.emplace(alert.device, alert.item);
      if (fault_quarantines.count({alert.device, alert.item}) == 0) {
        std::fprintf(stderr,
                     "[alert] MISMATCH: quarantine alert for device %d item "
                     "%d has no fault-ledger verdict\n",
                     alert.device, alert.item);
        ok = false;
      }
      continue;
    }
    if (alert.metric != "flip_rate") continue;
    ++flip_alerts;
    if (!obs::drift_enabled()) continue;  // no flip ledger to recount from
    auto flips = obs::DriftAuditor::global().ledger().find_group(flip_group);
    if (!flips.has_value()) {
      std::fprintf(stderr,
                   "[alert] MISMATCH: flip-rate alert but flip-ledger group "
                   "'%s' is missing\n",
                   flip_group.c_str());
      ok = false;
      continue;
    }
    if (flips->dropped_entries > 0) {
      std::printf(
          "[alert] flip recount skipped: flip ledger capped %lld entries\n",
          static_cast<long long>(flips->dropped_entries));
      continue;
    }
    std::set<int> flipped_items;
    for (const obs::FlipEntry& entry : flips->entries)
      if (entry.env_incorrect == alert.device && entry.item >= alert.item_lo &&
          entry.item < alert.item_hi)
        flipped_items.insert(entry.item);
    if (static_cast<long long>(flipped_items.size()) != alert.numerator) {
      std::fprintf(stderr,
                   "[alert] MISMATCH: %s device %d window %d claims %lld "
                   "flipped items, flip ledger recounts %zu\n",
                   alert.rule.c_str(), alert.device, alert.window,
                   alert.numerator, flipped_items.size());
      ok = false;
    }
  }
  for (const auto& [device, item] : fault_quarantines) {
    if (alert_quarantines.count({device, item}) == 0) {
      std::fprintf(stderr,
                   "[alert] MISMATCH: device %d quarantined from item %d in "
                   "the fault ledger but no alert paged\n",
                   device, item);
      ok = false;
    }
  }
  if (ok) {
    std::printf(
        "[alert] ledger matches receipts: %zu quarantine verdicts, %d "
        "flip-rate alerts recounted against '%s'\n",
        fault_quarantines.size(), flip_alerts, flip_group.c_str());
    return;
  }
  run.fail();
}

}  // namespace edgestab::bench
