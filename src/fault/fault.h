// Deterministic fault injection for the simulated fleet.
//
// Real edge fleets drop shots, corrupt payloads in transit, stall, and
// fail transiently; the experiments must survive those faults and account
// for them without losing reproducibility. Every fault decision here is a
// pure function of (run_seed, site, device, item, shot, attempt) drawn
// through runtime::derive_rng, so an injected fault schedule is identical
// at any thread count and across reruns — the property the paper's
// instability metrics depend on.
//
// The injector is a process-wide singleton, configured from a FaultPlan
// (per-site rates + burst model, parsed from a --faults spec). It is
// always compiled in; with no plan armed every injection site costs one
// relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "util/bytes.h"

namespace edgestab::fault {

// Always true; kept only because the benchmark driver reads it.
inline constexpr bool kFaultsCompiledIn = true;

/// Per-site fault rates and resilience-policy knobs. All rates are
/// per-event probabilities in [0, 1].
struct FaultPlan {
  double dropout_rate = 0.0;    ///< P(capture produces nothing) per shot
  double transient_rate = 0.0;  ///< P(device transiently fails) per attempt
  double bitflip_rate = 0.0;    ///< P(payload bit-flipped) per delivery
  double truncate_rate = 0.0;   ///< P(payload truncated) per delivery
  double straggler_rate = 0.0;  ///< P(shot delivery straggles)
  /// Extra failure probability while the previous shot of the same device
  /// faulted — a one-step burst (Gilbert-Elliott-style) correlation.
  double burst = 0.0;
  int max_bitflips = 8;             ///< flips per corrupted payload: 1..max
  double straggler_mean_ms = 250.0; ///< mean of the exponential delay
  int max_attempts = 3;             ///< bounded per-shot retries
  int quarantine_after = 4;         ///< consecutive lost shots -> quarantine
  double backoff_base_ms = 10.0;    ///< retry backoff: base * 2^attempt
  /// Per-device-class latency-variability knobs (fault/latency.h).
  /// latency_scale multiplies every class duration ("lat_scale"),
  /// latency_slow_boost adds to the slow-mode probability ("lat_slow"),
  /// deadline_ms overrides the per-class deadline budget ("deadline_ms";
  /// 0 = class default). The budget/mid/flagship presets set these.
  double latency_scale = 1.0;
  double latency_slow_boost = 0.0;
  double deadline_ms = 0.0;
  std::uint64_t seed = 0xFA17;      ///< fault stream seed (independent of
                                    ///< the rig seed; "seed=N" in the spec)

  /// True when any fault can actually fire.
  bool any() const;
  /// Stable fingerprint over every field, for provenance manifests.
  std::uint64_t digest() const;
  /// Compact "k=v,k=v" rendering of the non-default fields.
  std::string summary() const;
};

/// Parse a --faults spec: "off", a preset ("light" | "moderate" |
/// "heavy"), or a comma-separated k=v list, optionally preset-first with
/// overrides ("moderate,dropout=0.2"). Keys: dropout, transient, bitflip,
/// truncate, straggler, burst, max_bitflips, straggler_ms, attempts,
/// quarantine_after, backoff_ms, lat_scale, lat_slow, deadline_ms, seed.
/// The latency-class presets "flagship" | "mid" | "budget" set the
/// latency knobs and may appear anywhere, composing with a fault preset
/// ("heavy,budget"). Throws CheckError on a bad spec.
FaultPlan parse_fault_plan(const std::string& spec);

/// What corrupt_payload did to a payload on one delivery attempt.
struct PayloadFaults {
  int bit_flips = 0;
  std::size_t truncated_bytes = 0;

  bool any() const { return bit_flips > 0 || truncated_bytes > 0; }
};

/// Process-wide deterministic fault source. Draw methods are const and
/// thread-safe: each derives a private RNG from the fault seed and the
/// call coordinates, so concurrent lanes never share stream state.
class FaultInjector {
 public:
  static FaultInjector& global();

  /// Install a plan. Enables injection iff the plan has nonzero rates.
  void configure(const FaultPlan& plan);
  /// Disable injection and reset the plan to all-zero rates.
  void reset();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  const FaultPlan& plan() const { return plan_; }

  /// Did this device's capture of (item, shot) produce nothing?
  bool capture_dropout(std::uint64_t device, std::uint64_t item,
                       std::uint64_t shot) const;
  /// Did the device transiently fail on the given capture attempt?
  bool transient_failure(std::uint64_t device, std::uint64_t item,
                         std::uint64_t shot, int attempt) const;
  /// Corrupt `payload` in place for the given delivery attempt (bit
  /// flips and/or truncation). Each attempt re-draws independently,
  /// modeling retransmission of a lossy link.
  PayloadFaults corrupt_payload(Bytes& payload, std::uint64_t device,
                                std::uint64_t item, std::uint64_t shot,
                                int attempt) const;
  /// Synthetic straggler delay for this shot's delivery, in ms; 0 when
  /// the shot is not a straggler. Recorded, never slept.
  double straggler_delay_ms(std::uint64_t device, std::uint64_t item,
                            std::uint64_t shot) const;
  /// Deterministic retry backoff (ms) before the given attempt.
  double backoff_ms(int attempt) const;

 private:
  FaultInjector() = default;

  std::atomic<bool> enabled_{false};
  FaultPlan plan_;
};

}  // namespace edgestab::fault
