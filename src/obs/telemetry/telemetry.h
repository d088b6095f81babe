// Fleet health telemetry — the per-device half of the observability
// stack.
//
// The paper's central finding is that instability is a *per-device*
// phenomenon: the same model diverges differently on each phone. The
// tracing / drift / fault layers aggregate per run; this registry keeps
// the books per device. While an experiment runs, hooks in the capture
// rig, the delivery/resilience path and the experiment loops feed one
// `DeviceHealthRegistry` singleton with per-shot facts (prediction
// flips, per-stage drift magnitude, synthetic delivery latency,
// fault/loss/retry counters, coverage), which it folds into rolling
// item-index windows per device. The anomaly engine (telemetry/anomaly.h)
// evaluates declarative rules over those windows and emits the alert
// ledger; the fleet report (telemetry/fleet_report.h) renders both as
// bench_out/<name>.fleet.json / .fleet.html / .events.jsonl.
//
// Determinism contract (mirrors FlipLedger / FaultLedger / profiler):
// every aggregate is integer-quantized before folding — counts, bool
// ors, int64 sums of milli-dB / microsecond values, min/max of ints —
// so the fold is commutative AND associative: samples may arrive from
// any pool lane in any order and the snapshot, the alert ledger and the
// exported artifacts are bit-identical at every --threads setting.
// Latency quantiles keep the per-window sample multiset (sorted at
// snapshot time), never a running estimate. Wall-clock span timings are
// deliberately NOT fed here: wall time is nondeterministic and belongs
// to the profiler/sentinel; the telemetry latency axis is the *modeled*
// per-shot delivery latency (straggler + backoff milliseconds), which
// is a pure function of the fault schedule.
//
// Windows are item-index buckets (window w covers items
// [w*W, (w+1)*W)), not arrival-order rings — the bucket an event lands
// in depends only on its fleet coordinates, which is what makes online
// folding order-independent.
//
// Arming: telemetry is always compiled in; until --telemetry enables the
// registry, every hook costs one relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace edgestab::obs {

// Always true; kept only because the benchmark driver reads it.
inline constexpr bool kTelemetryCompiledIn = true;

/// Per-device status state machine. Transitions are folded serially
/// over windows by evaluate_fleet_health: healthy → degraded when a
/// window carries an alert, degraded → healthy after
/// kRecoveryWindows alert-free windows, anything → quarantined (sticky)
/// when the resilience policy quarantined the device — the registry
/// subsumes the quarantine signal rather than re-deciding it.
enum class HealthStatus : int {
  kHealthy = 0,
  kDegraded = 1,
  kQuarantined = 2,
};

const char* health_status_name(HealthStatus status);

/// One device's derived statistics over one item-index window. All
/// values are computed from integer-quantized aggregates, so they are
/// identical at any thread count.
struct DeviceWindowStats {
  int window = 0;
  int item_lo = 0;  ///< first item index the window covers
  int item_hi = 0;  ///< one past the last item index

  long long observations = 0;   ///< classified slot-0 observations
  long long flipped_items = 0;  ///< incorrect while >=1 device was correct
  long long incorrect_items = 0;
  double flip_rate = 0.0;  ///< flipped_items / observations

  long long shots = 0;  ///< capture/delivery attempts accounted
  long long shots_lost = 0;
  long long retries = 0;
  long long fault_events = 0;  ///< corruption events observed in delivery
  double loss_rate = 0.0;
  double retry_rate = 0.0;

  double latency_p50_ms = 0.0;  ///< modeled delivery latency (see header)
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;

  long long drift_comparisons = 0;
  double drift_psnr_db_mean = 0.0;
  double drift_psnr_db_min = 0.0;  ///< 0 when no comparisons

  bool quarantined = false;
  int quarantine_item = -1;  ///< first item excluded (when quarantined)
};

/// One status-machine transition, for the event log and the dashboard
/// timeline.
struct StatusTransition {
  int window = 0;
  int item_lo = 0;
  HealthStatus from = HealthStatus::kHealthy;
  HealthStatus to = HealthStatus::kHealthy;
  std::string reason;
};

/// One device's health row: whole-run totals plus the window series.
/// `status` / `transitions` are filled by evaluate_fleet_health (they
/// depend on which alerts fired); snapshot() leaves them at defaults.
struct DeviceHealth {
  int device = 0;
  std::string label;
  HealthStatus status = HealthStatus::kHealthy;
  std::vector<StatusTransition> transitions;

  long long observations = 0;
  long long flipped_items = 0;
  long long incorrect_items = 0;
  double flip_rate = 0.0;

  long long shots = 0;
  long long shots_lost = 0;
  long long retries = 0;
  long long fault_events = 0;

  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;

  long long drift_comparisons = 0;
  double drift_psnr_db_mean = 0.0;

  /// Usable / total slots from the resilience coverage tally; -1 slots
  /// when the experiment never reported coverage.
  long long coverage_usable = 0;
  long long coverage_slots = -1;

  std::vector<DeviceWindowStats> windows;  ///< ascending window index
};

/// Canonical fold of the whole registry.
struct FleetHealthSnapshot {
  int window_items = 0;
  std::vector<DeviceHealth> devices;  ///< ascending device index

  bool empty() const { return devices.empty(); }
};

/// Process-wide per-device health registry. Hooks are thread-safe
/// (mutex-serialized; a disabled registry costs one relaxed atomic
/// load) and commutative, so parallel lanes may record in any order.
class DeviceHealthRegistry {
 public:
  /// Default rolling-window width in items.
  static constexpr int kDefaultWindowItems = 16;
  /// degraded → healthy after this many consecutive alert-free windows.
  static constexpr int kRecoveryWindows = 2;
  /// live_alert_count() heuristic: a window bucket reaching this many
  /// lost shots counts as one live alert (the heartbeat estimate; the
  /// anomaly engine's ledger is authoritative).
  static constexpr long long kLiveLossAlertShots = 4;

  static DeviceHealthRegistry& global();

  DeviceHealthRegistry() = default;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Window width in items; takes effect for subsequent records, so set
  /// it before the run starts. Clamped to >= 1.
  void set_window_items(int items);
  int window_items() const;

  void set_device_label(int device, const std::string& label);

  /// One classified slot-0 observation. `flipped`: the device was
  /// incorrect on an item at least one other device got right — the
  /// env_incorrect side of a FlipLedger entry, so the per-device flip
  /// rate stays recomputable from the flip ledger.
  void record_observation(int device, int item, bool correct, bool flipped);

  /// One delivered (or lost-in-delivery) shot: attempts consumed,
  /// whether it was lost, the modeled delivery latency and how many
  /// corruption events the link injected.
  void record_shot(int device, int item, int shot, int attempts, bool lost,
                   double latency_ms, int fault_events);

  /// A shot lost at the capture site (dropout / transient exhaustion —
  /// it never reached delivery). `retries` = capture attempts beyond
  /// the first.
  void record_capture_loss(int device, int item, int shot, int retries);

  /// Retries that recovered at the capture site (the shot itself will
  /// be counted when delivery records it, so only the retry count
  /// lands here).
  void record_retries(int device, int item, int count);

  /// One per-stage drift comparison against the reference device.
  void record_stage_drift(int device, int item, double psnr_db);

  /// The resilience policy quarantined `device` from `item` on.
  void record_quarantine(int device, int item);

  /// Whole-run coverage for one device (usable slots / total slots).
  void record_coverage(int device, long long usable, long long total);

  /// Canonical snapshot: devices ascending, windows ascending, latency
  /// quantiles over the sorted per-window sample multiset.
  FleetHealthSnapshot snapshot() const;

  /// FNV fingerprint over the full canonical snapshot (integer
  /// aggregates only — exactly the deterministic surface).
  std::uint64_t digest() const;

  /// Fold another registry (a per-shard instance) into this one.
  void merge(const DeviceHealthRegistry& other);

  /// Exact JSON serialization of the full registry state
  /// ("edgestab-telemetry-state-v1"): every bucket's integer aggregates
  /// including the raw latency multiset (canonically sorted), so a
  /// restored registry's digest(), snapshot() and future folds are
  /// bit-identical to the original. snapshot() cannot serve here — it
  /// collapses latency multisets to quantiles — and the service
  /// checkpoint needs mid-window exactness (a checkpoint may land with
  /// half a window's samples already folded).
  std::string serialize_state() const;

  /// Replace the registry contents from serialize_state() output;
  /// enabled() and the window width survive a malformed document but
  /// the contents are cleared. Returns false on malformed input.
  bool restore_state(const std::string& json);

  /// Cheap running alert estimate for the progress heartbeat:
  /// quarantines plus window buckets whose losses crossed
  /// kLiveLossAlertShots. Advisory only — never exported.
  std::int64_t live_alert_count() const {
    return live_alerts_.load(std::memory_order_relaxed);
  }

  bool empty() const;

  /// Drop all accumulated state; leaves enabled() untouched (mirrors
  /// DriftAuditor::clear so --repeats warm-ups can reset between runs).
  void clear();

 private:
  /// Integer-quantized per-(device, window) aggregates. Every fold is
  /// commutative + associative (see file comment).
  struct Bucket {
    long long observations = 0;
    long long flipped_items = 0;
    long long incorrect_items = 0;
    long long shots = 0;
    long long shots_lost = 0;
    long long retries = 0;
    long long fault_events = 0;
    std::vector<long long> latency_us;  ///< sorted at snapshot time
    long long drift_comparisons = 0;
    long long drift_psnr_mdb_sum = 0;
    long long drift_psnr_mdb_min = 0;  ///< valid when drift_comparisons > 0
    bool quarantined = false;
    int quarantine_item = -1;
    bool live_loss_flagged = false;
  };

  struct DeviceState {
    std::string label;
    long long coverage_usable = 0;
    long long coverage_slots = -1;
    std::map<int, Bucket> windows;
  };

  Bucket& bucket(int device, int item);
  void merge_bucket(Bucket& into, const Bucket& from);

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> live_alerts_{0};
  int window_items_ = kDefaultWindowItems;
  std::map<int, DeviceState> devices_;
};

/// True when the global registry is enabled — the one-line guard every
/// hook site uses.
inline bool telemetry_enabled() {
  return DeviceHealthRegistry::global().enabled();
}

}  // namespace edgestab::obs
