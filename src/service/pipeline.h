// The streaming fleet service (DESIGN.md §17).
//
// A resident, backpressured pipeline over the capture→inference path,
// two stages behind a serial admission scheduler:
//
//   scheduler(1) → develop_q → develop(T) → done_q → aggregate(1)
//
// The scheduler decides every shot's fate (breaker, load shedding,
// deadline budget) as a pure function of the fault schedule. Each of
// the T develop workers runs one admitted shot's whole capture → ISP →
// codec → decode → inference chain, classifying on its own model clone
// (one batch-1 forward, the same bits at any T); the serial aggregator
// folds results in shot order, files every receipt, and cuts
// crash-consistent checkpoints at slot boundaries. The fold is
// bit-identical at any worker count, and a SIGKILLed run resumed from
// its last checkpoint finishes with byte-identical aggregates, ledgers
// and digests.
//
// Shot coordinates: shot g targets device g % devices at slot
// g / devices, photographing stimulus (slot % stimulus_bank) — every
// device photographs the same scene at the same slot, so each completed
// slot is one cross-device instability observation, folded online.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "nn/model.h"
#include "obs/fault_ledger.h"
#include "service/breaker.h"
#include "service/state.h"

namespace edgestab::service {

/// Exit code of a --kill-after-checkpoint hard kill (std::_Exit right
/// after the checkpoint rename — the in-tree SIGKILL analogue).
inline constexpr int kHardKillExitCode = 7;

struct ServiceConfig {
  int devices = 8;
  long long shots = 512;  ///< total shots; devices * slots
  int stimulus_bank = 8;  ///< distinct scenes cycled across slots
  int scene_size = 48;
  float divergence = 1.0f;
  std::uint64_t seed = 2026;

  /// Latency/deadline knobs are read from here directly (a clean soak
  /// still has a latency model); the capture/delivery fault sites
  /// consult the global FaultInjector as everywhere else — arm it with
  /// the same plan for a faulted soak.
  fault::FaultPlan plan;
  BreakerConfig breaker;

  /// Load shedding: each device carries a virtual backlog of modeled
  /// service time; a slot's worth (`drain_ms_per_shot`) drains per shot
  /// and admissions are shed while the backlog exceeds
  /// `shed_backlog_ms`. Probe shots bypass shedding so an open breaker
  /// can still close.
  double shed_backlog_ms = 400.0;
  double drain_ms_per_shot = 50.0;

  /// Inert: each develop worker classifies its own shot, so no batch
  /// is ever formed. perfbench/driver.cpp still reads this field as its
  /// replay's classify batch, so it stays until the benchmark changes.
  int inference_batch = 8;
  /// Scheduler lead cap over the fold cursor — bounds the aggregator's
  /// reorder buffer even when a breaker storm turns every shot into a
  /// cheap tombstone.
  int max_inflight = 4096;
  /// Develop worker count; 0 = the global pool's thread count.
  int threads = 0;

  /// Checkpointing. `every_slots` 0 disables; `resume` restores
  /// `checkpoint_path` (which must exist and match the config digest)
  /// and continues from its slot. `stop_after_checkpoints` N stops the
  /// run right after the Nth checkpoint this process wrote — gracefully,
  /// or via std::_Exit(kHardKillExitCode) when `hard_kill` is set.
  std::string checkpoint_path;
  int checkpoint_every_slots = 0;
  bool resume = false;
  int stop_after_checkpoints = 0;
  bool hard_kill = false;

  bool progress = false;
};

/// Fingerprint of everything that shapes the deterministic stream:
/// geometry, seed, plan, breaker/shedding knobs, fleet profiles, whether
/// the global injector is armed, the active kernel tier and the model
/// weights. Checkpoints refuse to resume across a mismatch.
std::uint64_t service_config_digest(const ServiceConfig& config,
                                    Model& model);

/// Observational stage stats (wall-clock side of the report — never
/// part of any digest). `capacity`/`high_water`/`processed` describe the
/// stage's input queue; the three times are summed over its workers:
/// running the body, blocked popping the input queue, blocked pushing
/// downstream.
struct StageStats {
  std::string name;
  int workers = 0;
  std::size_t capacity = 0;
  std::size_t high_water = 0;
  long long processed = 0;
  double busy_ms = 0.0;
  double blocked_pop_ms = 0.0;
  double blocked_push_ms = 0.0;
};

struct SoakReport {
  bool completed = false;             ///< ran to the final slot
  bool stopped_at_checkpoint = false; ///< graceful early stop
  int devices = 0;
  long long shots = 0;
  long long slots = 0;
  long long resumed_from_slot = -1;
  int checkpoints_written = 0;

  AggregateState agg;
  SchedulerState sched;  ///< final (or checkpoint, when stopped early)

  long long breaker_opens = 0;
  long long breaker_closes = 0;
  long long breaker_rejects = 0;
  int open_devices = 0;
  int half_open_devices = 0;
  int sticky_devices = 0;

  std::uint64_t config_digest = 0;
  std::uint64_t agg_digest = 0;
  std::uint64_t ledger_digest = 0;
  std::uint64_t breaker_digest = 0;
  std::uint64_t telemetry_digest = 0;

  /// Modeled service-latency tail over classified shots (from the
  /// 100 us histogram; deterministic).
  long long latency_p50_us = 0;
  long long latency_p99_us = 0;
  long long latency_p999_us = 0;
  long long latency_max_us = 0;

  double wall_seconds = 0.0;      ///< observational
  double shots_per_second = 0.0;  ///< observational
  std::vector<StageStats> stages;  ///< develop, aggregate
};

/// Run the service. Files receipts with the global FaultLedger under
/// group "service" and feeds the global DeviceHealthRegistry (both
/// serially, from the aggregator only).
SoakReport run_fleet_service(Model& model, const ServiceConfig& config);

/// Canonical digest of a raw ledger-event list (the report's
/// ledger_digest surface).
std::uint64_t ledger_events_digest(
    const std::vector<obs::FaultEvent>& events);

/// Soak report JSON ("edgestab-soak-v1") — what `edgestab_sentinel soak
/// FILE` re-renders offline.
std::string serialize_soak_report(const SoakReport& report);
bool write_soak_report_file(const std::string& path,
                            const SoakReport& report, std::string* error);

}  // namespace edgestab::service
