#include "service/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <utility>

#include "codec/codec.h"
#include "core/experiment.h"
#include "core/resilience.h"
#include "data/dataset.h"
#include "data/render.h"
#include "data/screen.h"
#include "device/capture.h"
#include "device/fleets.h"
#include "fault/latency.h"
#include "isp/pipeline.h"
#include "isp/sensor.h"
#include "obs/fault_ledger.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/telemetry/telemetry.h"
#include "obs/timeline/timeline.h"
#include "runtime/seed.h"
#include "runtime/thread_pool.h"
#include "runtime/worker.h"
#include "service/checkpoint.h"
#include "service/queue.h"
#include "tensor/backend.h"
#include "util/check.h"
#include "util/hashing.h"
#include "util/timer.h"

namespace edgestab::service {

namespace {

using obs::FaultEvent;
using obs::FaultEventKind;

/// The renderer's class universe (data/render.h models all 12 paper
/// classes); the stimulus bank cycles through them.
constexpr int kClassCount = 12;
constexpr const char* kServiceGroup = "service";

const float kBankAngles[] = {-1.0f, -0.5f, 0.0f, 0.5f, 1.0f};

fault::DeviceClass device_class_of(int device) {
  // Round-robin tier assignment: every third device is a flagship, a
  // mid-tier, a budget phone — deterministic and class-balanced at any
  // fleet size.
  return static_cast<fault::DeviceClass>(device % 3);
}

/// One shot's record, carried through every stage. Stages mutate only
/// their own fields; terminal (non-kOk) records pass through untouched.
/// The develop stage keeps its intermediate images and the input tensor
/// local, so a record in flight carries only the shot's outcome.
struct ShotRec {
  long long g = 0;
  int device = 0;
  long long slot = 0;
  int stimulus = 0;

  ShotOutcome outcome = ShotOutcome::kOk;
  int service_attempts = 1;
  long long service_latency_us = 0;
  int capture_attempts = 1;
  int delivery_attempts = 1;
  double delivery_delay_ms = 0.0;
  bool sticky_transition = false;  ///< breaker went sticky on this shot
  std::vector<FaultEvent> events;  ///< receipts; filed by the aggregator

  /// Timeline payload (only populated when the timeline is armed). The
  /// scheduler observes its own breaker mutations and the aggregator
  /// replays them in fold order, so the recorder's census never reads
  /// live breakers that have raced ahead of the fold cursor.
  struct BreakerShift {
    int from = 0;  ///< timeline census state ids (3 = sticky)
    int to = 0;
    const char* cause = "";
  };
  std::vector<BreakerShift> shifts;
  long long backlog_wait_us = 0;  ///< virtual backlog at admission
  bool trace_sampled = false;
  std::vector<obs::TraceAttempt> trace_attempts;

  int predicted = -1;
  long long conf_q = 0;  ///< confidence * 1e6, rounded
  bool correct = false;

  bool has_snapshot = false;
  SchedulerState snapshot;  ///< scheduler state right after deciding g
};

struct Device {
  PhoneProfile profile;
  fault::DeviceClass cls = fault::DeviceClass::kMid;
  std::uint64_t stream = 0;     ///< fault/noise stream id
  long long deadline_us = 0;
};

using ShotQueue = BoundedQueue<ShotRec>;

/// Wall-clock-side live state for the progress heartbeat. The status
/// source is a plain function pointer, so the installed instance lives
/// behind a file-scope pointer for the duration of the run.
struct LiveStatus {
  std::vector<ShotQueue*> queues;  ///< develop, done
  std::atomic<long long> shed{0};
  std::atomic<long long> rejected{0};
  std::atomic<long long> slots_folded{0};
  int epoch_slots = 0;  ///< 0 when the timeline is unarmed
};

LiveStatus* g_live = nullptr;

std::string live_status_text() {
  LiveStatus* live = g_live;
  if (live == nullptr) return "";
  static const char* const kTags[] = {"dev", "out"};
  const std::size_t depth[] = {live->queues[0]->size(),
                               live->queues[1]->size()};
  char buf[160];
  int n = std::snprintf(buf, sizeof(buf),
                        " | q dev %zu out %zu shed %lld rej %lld",
                        depth[0], depth[1],
                        live->shed.load(std::memory_order_relaxed),
                        live->rejected.load(std::memory_order_relaxed));
  if (live->epoch_slots > 0 && n > 0 &&
      n < static_cast<int>(sizeof(buf))) {
    // Timeline heartbeat: current fold epoch + the worst-backlogged
    // stage right now (wall-clock observational, like the queue sizes).
    const std::size_t worst = static_cast<std::size_t>(
        std::max_element(std::begin(depth), std::end(depth)) - depth);
    std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                  " ep %lld worst %s:%zu",
                  live->slots_folded.load(std::memory_order_relaxed) /
                      live->epoch_slots,
                  kTags[worst], depth[worst]);
  }
  return buf;
}

long long quantize_us(double ms) {
  return static_cast<long long>(std::llround(ms * 1000.0));
}

}  // namespace

std::uint64_t service_config_digest(const ServiceConfig& config,
                                    Model& model) {
  Fingerprint fp;
  fp.add(std::string("edgestab-service-config"));
  fp.add(config.devices);
  fp.add(config.shots);
  fp.add(config.stimulus_bank);
  fp.add(config.scene_size);
  fp.add(static_cast<double>(config.divergence));
  fp.add(config.seed);
  fp.add(config.plan.digest());
  fp.add(config.breaker.open_after).add(config.breaker.cooldown);
  fp.add(config.breaker.close_after).add(config.breaker.max_probe_rounds);
  fp.add(config.shed_backlog_ms).add(config.drain_ms_per_shot);
  // Whether capture/delivery faults actually fire shapes the stream as
  // much as the plan does, so a clean run refuses a faulted checkpoint.
  fp.add(static_cast<std::uint64_t>(
      fault::FaultInjector::global().enabled() ? 1 : 0));
  const std::vector<PhoneProfile> base = end_to_end_fleet(config.divergence);
  for (const PhoneProfile& p : base) fp.add(profile_digest(p));
  // The kernel tier and the weights shape every prediction: a resume
  // across either would blend two environments into one result.
  fp.add(std::string(backend_name(active_backend())));
  const Bytes weights = model.save_state();
  fp.add(fnv1a64(std::span<const std::uint8_t>(weights.data(),
                                               weights.size())));
  return fp.value();
}

std::uint64_t ledger_events_digest(const std::vector<FaultEvent>& events) {
  Fingerprint fp;
  fp.add(std::string("edgestab-service-ledger"));
  fp.add(static_cast<std::uint64_t>(events.size()));
  for (const FaultEvent& e : events) {
    fp.add(static_cast<int>(e.kind)).add(e.device).add(e.item);
    fp.add(e.shot).add(e.attempt);
    fp.add(static_cast<std::uint64_t>(e.recovered ? 1 : 0));
    fp.add(e.detail);
  }
  return fp.value();
}

namespace {

// ---- Scheduler -------------------------------------------------------------

/// The serial admission scheduler. Owns every control decision (breaker,
/// shedding, deadlines) as a pure function of (config, g) and the
/// evolving per-device state it alone mutates — so the decision stream
/// is bit-identical regardless of how the stage workers behind it are
/// scheduled.
/// Timeline census id for a breaker: 0-2 mirror BreakerState, 3 is the
/// sticky-open terminal (folded into one id so the census lane shows
/// quarantined devices separately from recoverable opens).
int census_of(const CircuitBreaker& br) {
  const BreakerSnapshot s = br.snapshot();
  return s.sticky ? 3 : s.state;
}

/// Seed salt for the deterministic per-shot trace sample draw.
constexpr std::uint64_t kTraceSalt = 0x71ACE;

class Scheduler {
 public:
  Scheduler(const ServiceConfig& config, const std::vector<Device>& fleet)
      : config_(config), fleet_(fleet) {
    breakers_.assign(fleet.size(), CircuitBreaker(config.breaker));
    backlog_us_.assign(fleet.size(), 0);
    shed_us_ = quantize_us(config.shed_backlog_ms);
    drain_us_ = quantize_us(config.drain_ms_per_shot);
    timeline_ = obs::timeline_enabled();
    trace_ppm_ = obs::TimelineRecorder::global().trace_sample_ppm();
  }

  void restore(const SchedulerState& state) {
    ES_CHECK(state.devices.size() == fleet_.size());
    for (std::size_t d = 0; d < fleet_.size(); ++d) {
      breakers_[d].restore(state.devices[d].breaker);
      backlog_us_[d] = state.devices[d].backlog_us;
    }
  }

  SchedulerState state(long long next_shot) const {
    SchedulerState s;
    s.next_shot = next_shot;
    s.devices.resize(fleet_.size());
    for (std::size_t d = 0; d < fleet_.size(); ++d) {
      s.devices[d].breaker = breakers_[d].snapshot();
      s.devices[d].backlog_us = backlog_us_[d];
    }
    return s;
  }

  ShotRec decide(long long g) {
    const int devices = static_cast<int>(fleet_.size());
    ShotRec r;
    r.g = g;
    r.device = static_cast<int>(g % devices);
    r.slot = g / devices;
    r.stimulus = static_cast<int>(r.slot % config_.stimulus_bank);
    const Device& dev = fleet_[static_cast<std::size_t>(r.device)];
    CircuitBreaker& br = breakers_[static_cast<std::size_t>(r.device)];
    long long& backlog = backlog_us_[static_cast<std::size_t>(r.device)];
    const int item = static_cast<int>(r.slot);

    // One slot's worth of virtual service capacity drains per shot.
    backlog = std::max<long long>(0, backlog - drain_us_);

    // Timeline payload: the virtual backlog at admission is the modeled
    // queue wait; the trace sample is a pure function of (seed, g) so
    // the sampled set is identical at any thread count and across a
    // resume.
    r.backlog_wait_us = backlog;
    if (timeline_ && trace_ppm_ > 0) {
      Pcg32 rng = runtime::derive_rng(config_.seed, kTraceSalt,
                                      static_cast<std::uint64_t>(g));
      r.trace_sampled =
          static_cast<long long>(rng.uniform_int(1000000u)) < trace_ppm_;
    }
    // Breaker shifts are observed against the census id before/after
    // each mutating call; the aggregator replays them in fold order.
    int census = timeline_ ? census_of(br) : 0;
    auto note_shift = [&](const char* cause) {
      if (!timeline_) return;
      const int now = census_of(br);
      if (now != census) {
        r.shifts.push_back({census, now, now == 3 ? "sticky_latch" : cause});
        census = now;
      }
    };

    const CircuitBreaker::Admit admit = br.admit();
    note_shift("cooldown_elapsed");
    if (admit == CircuitBreaker::Admit::kReject) {
      r.outcome = ShotOutcome::kBreakerReject;
      r.events.push_back(
          {FaultEventKind::kBreakerReject, r.device, item, 0, 0, false,
           static_cast<double>(br.snapshot().cooldown_left)});
      return r;
    }
    const bool probe = admit == CircuitBreaker::Admit::kProbe;

    // Probes bypass shedding: an open breaker must be able to close
    // even while the device's virtual backlog is still draining.
    if (!probe && backlog > shed_us_) {
      r.outcome = ShotOutcome::kShed;
      r.events.push_back({FaultEventKind::kShedOverload, r.device, item, 0,
                          0, false,
                          static_cast<double>(backlog) / 1000.0});
      return r;
    }

    // Deadline enforcement: bounded service re-attempts, each a fresh
    // bimodal latency draw plus exponential backoff; the shot times out
    // when every attempt blows the class budget.
    const int max_attempts = std::max(1, config_.plan.max_attempts);
    long long total_us = 0;
    long long min_over_us = LLONG_MAX;
    bool ok = false;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      long long backoff_us = 0;
      if (attempt > 0) {
        const double backoff_ms =
            config_.plan.backoff_base_ms * static_cast<double>(1 << (attempt - 1));
        r.events.push_back({FaultEventKind::kRetry, r.device, item, 0,
                            attempt, false, backoff_ms});
        backoff_us = quantize_us(backoff_ms);
        total_us += backoff_us;
      }
      const long long lat_us = quantize_us(fault::draw_latency_ms(
          config_.plan, dev.cls, static_cast<std::uint64_t>(r.device),
          static_cast<std::uint64_t>(r.slot), 0, attempt));
      total_us += lat_us;
      if (r.trace_sampled) r.trace_attempts.push_back({backoff_us, lat_us});
      if (lat_us <= dev.deadline_us) {
        ok = true;
        r.service_attempts = attempt + 1;
        break;
      }
      min_over_us = std::min(min_over_us, lat_us - dev.deadline_us);
    }
    r.service_latency_us = total_us;
    backlog += total_us;

    if (ok) {
      for (FaultEvent& e : r.events)
        if (e.kind == FaultEventKind::kRetry) e.recovered = true;
      if (probe)
        r.events.push_back({FaultEventKind::kBreakerProbe, r.device, item,
                            0, 0, true, 1.0});
      const CircuitBreaker::Feedback fb = br.on_success();
      note_shift("probe_success");
      if (fb.closed)
        r.events.push_back({FaultEventKind::kBreakerClose, r.device, item,
                            0, 0, true, 0.0});
      r.outcome = ShotOutcome::kOk;  // provisional: stages may lose it
      return r;
    }

    r.service_attempts = max_attempts;
    r.outcome = ShotOutcome::kDeadlineTimeout;
    r.events.push_back({FaultEventKind::kDeadlineTimeout, r.device, item, 0,
                        max_attempts - 1, false,
                        static_cast<double>(min_over_us) / 1000.0});
    if (probe)
      r.events.push_back(
          {FaultEventKind::kBreakerProbe, r.device, item, 0, 0, false, 0.0});
    const CircuitBreaker::Feedback fb = br.on_timeout();
    note_shift(census == 2 ? "probe_failure" : "timeout_trip");
    if (fb.opened)
      r.events.push_back(
          {FaultEventKind::kBreakerOpen, r.device, item, 0, 0, false,
           static_cast<double>(br.snapshot().consecutive_timeouts)});
    if (fb.went_sticky) r.sticky_transition = true;
    r.events.push_back({FaultEventKind::kShotLost, r.device, item, 0,
                        max_attempts - 1, false,
                        static_cast<double>(max_attempts)});
    return r;
  }

 private:
  const ServiceConfig& config_;
  const std::vector<Device>& fleet_;
  std::vector<CircuitBreaker> breakers_;
  std::vector<long long> backlog_us_;
  long long shed_us_ = 0;
  long long drain_us_ = 0;
  bool timeline_ = false;
  long long trace_ppm_ = 0;
};

// ---- Pipeline plumbing -----------------------------------------------------

struct Shared {
  std::atomic<bool> stop{false};
  std::mutex fold_mu;
  std::condition_variable fold_cv;
  long long folded = 0;  ///< shots folded by the aggregator (under fold_mu)

  std::vector<ShotQueue*> queues;

  void abort_all() {
    stop.store(true, std::memory_order_relaxed);
    for (ShotQueue* q : queues) q->close_and_drain();
    fold_cv.notify_all();
  }
  void note_folded() {
    {
      std::lock_guard<std::mutex> lock(fold_mu);
      ++folded;
    }
    fold_cv.notify_all();
  }
};

/// Wrap a worker body so an exception tears the pipeline down — no peer
/// blocks forever on a queue that will never move again — before the
/// WorkerGroup captures it for join().
template <typename Body>
std::function<void()> guarded(Shared& shared, Body body) {
  return [&shared, body = std::move(body)]() mutable {
    try {
      body();
    } catch (...) {
      shared.abort_all();
      throw;
    }
  };
}

/// Wall-clock split of one stage's worker time in ns, summed over its
/// workers (observational; never digested).
enum ClockBucket { kBusy, kBlockedPop, kBlockedPush, kClockBuckets };
using StageClock = std::atomic<long long>[kClockBuckets];

/// One worker's share of a StageClock: mark(b) charges the time since
/// the previous mark to bucket b; the totals land in the stage clock
/// when the worker exits, however it exits.
class WorkerClock {
 public:
  explicit WorkerClock(StageClock& stage) : stage_(stage) {}
  ~WorkerClock() {
    for (int b = 0; b < kClockBuckets; ++b) stage_[b] += ns_[b];
  }
  void mark(ClockBucket bucket) {
    const Clock::time_point now = Clock::now();
    ns_[bucket] += std::chrono::duration_cast<std::chrono::nanoseconds>(
                       now - last_).count();
    last_ = now;
  }

 private:
  using Clock = std::chrono::steady_clock;
  StageClock& stage_;
  Clock::time_point last_ = Clock::now();
  long long ns_[kClockBuckets] = {};
};

/// Capture-site fault draws, mirroring the lab rig's event stream but
/// appended to the record (the aggregator files them).
bool inject_capture_faults(const Device& dev, ShotRec& r) {
  const auto& injector = fault::FaultInjector::global();
  if (!injector.enabled()) return true;
  const int item = static_cast<int>(r.slot);
  if (injector.capture_dropout(dev.stream,
                               static_cast<std::uint64_t>(r.slot), 0)) {
    r.events.push_back(
        {FaultEventKind::kCaptureDropout, r.device, item, 0, 0, false, 0.0});
    r.events.push_back(
        {FaultEventKind::kShotLost, r.device, item, 0, 0, false, 1.0});
    r.capture_attempts = 1;
    r.outcome = ShotOutcome::kCaptureLost;
    return false;
  }
  const int max_attempts = std::max(1, injector.plan().max_attempts);
  std::size_t first_event = r.events.size();
  int attempt = 0;
  while (attempt < max_attempts &&
         injector.transient_failure(dev.stream,
                                    static_cast<std::uint64_t>(r.slot), 0,
                                    attempt)) {
    r.events.push_back({FaultEventKind::kTransientFailure, r.device, item,
                        0, attempt, false, 0.0});
    ++attempt;
    if (attempt < max_attempts)
      r.events.push_back({FaultEventKind::kRetry, r.device, item, 0,
                          attempt, false, injector.backoff_ms(attempt)});
  }
  const bool recovered = attempt < max_attempts;
  r.capture_attempts = recovered ? attempt + 1 : attempt;
  if (!recovered) {
    r.events.push_back({FaultEventKind::kShotLost, r.device, item, 0,
                        attempt - 1, false,
                        static_cast<double>(attempt)});
    r.outcome = ShotOutcome::kCaptureLost;
  }
  for (std::size_t i = first_event; i < r.events.size(); ++i)
    if (r.events[i].kind != FaultEventKind::kShotLost)
      r.events[i].recovered = recovered;
  return recovered;
}

// ---- Aggregator ------------------------------------------------------------

/// Serial fold + checkpoint cutter. Receives records in arbitrary
/// arrival order, reorders by g (the buffer is bounded by the
/// scheduler's lead cap) and folds strictly in shot order — the only
/// place the global ledger and telemetry are touched during the run.
class Aggregator {
 public:
  Aggregator(const ServiceConfig& config, const std::vector<Device>& fleet,
             Shared& shared, ShotQueue& done, AggregateState agg,
             long long start_g, std::uint64_t config_digest,
             obs::ProgressMeter& meter)
      : config_(config),
        fleet_(fleet),
        shared_(shared),
        done_(done),
        agg_(std::move(agg)),
        next_fold_(start_g),
        config_digest_(config_digest),
        meter_(meter) {
    const std::size_t devices = fleet.size();
    if (agg_.devices.empty()) agg_.devices.resize(devices);
    ES_CHECK(agg_.devices.size() == devices);
    cells_.resize(devices);
  }

  void run(StageClock& stage_clock) {
    WorkerClock clock(stage_clock);
    while (true) {
      std::optional<ShotRec> rec = done_.pop();
      clock.mark(kBlockedPop);
      if (!rec.has_value()) return;
      buffer_.emplace(rec->g, std::move(*rec));
      while (true) {
        auto it = buffer_.find(next_fold_);
        if (it == buffer_.end()) break;
        ShotRec r = std::move(it->second);
        buffer_.erase(it);
        fold(r);
        ++next_fold_;
        shared_.note_folded();
        if (stop_requested_) {
          shared_.abort_all();
          return;
        }
      }
      clock.mark(kBusy);
    }
  }

  const AggregateState& aggregate() const { return agg_; }
  int checkpoints_written() const { return checkpoints_written_; }
  bool stopped_at_checkpoint() const { return stop_requested_; }
  const SchedulerState& checkpoint_sched() const { return ckpt_sched_; }

 private:
  struct SlotCell {
    ShotOutcome outcome = ShotOutcome::kOk;
    int predicted = -1;
    long long conf_q = 0;
    long long latency_us = 0;
    int service_attempts = 0;
    int delivery_attempts = 0;
    bool correct = false;
    bool usable = false;
  };

  void fold(const ShotRec& r) {
    auto& ledger = obs::FaultLedger::global();
    for (const FaultEvent& e : r.events) {
      ledger.record(kServiceGroup, e);
      if (e.kind == FaultEventKind::kRetry) ++agg_.retries;
    }
    agg_.fault_events += static_cast<long long>(r.events.size());
    ++agg_.shots_folded;

    DeviceAggregate& dev = agg_.devices[static_cast<std::size_t>(r.device)];
    const int item = static_cast<int>(r.slot);
    int corruption = 0;
    for (const FaultEvent& e : r.events) {
      if (e.kind == FaultEventKind::kPayloadBitFlip ||
          e.kind == FaultEventKind::kPayloadTruncation ||
          e.kind == FaultEventKind::kDecodeFailure)
        ++corruption;
    }
    const bool telemetry = obs::telemetry_enabled();
    auto& registry = obs::DeviceHealthRegistry::global();
    switch (r.outcome) {
      case ShotOutcome::kOk:
        ++agg_.ok;
        ++dev.ok;
        if (r.correct) {
          ++agg_.correct;
          ++dev.correct;
        }
        dev.latency_us_sum += r.service_latency_us;
        ++agg_.latency_hist_100us[r.service_latency_us / 100];
        if (telemetry) {
          if (r.capture_attempts > 1)
            registry.record_retries(r.device, item, r.capture_attempts - 1);
          registry.record_shot(
              r.device, item, 0, r.delivery_attempts, false,
              static_cast<double>(r.service_latency_us) / 1000.0 +
                  r.delivery_delay_ms,
              corruption);
        }
        break;
      case ShotOutcome::kShed:
        ++agg_.shed;
        ++dev.shed;
        if (g_live != nullptr)
          g_live->shed.fetch_add(1, std::memory_order_relaxed);
        if (telemetry)
          registry.record_shot(r.device, item, 0, 1, true, 0.0, 0);
        break;
      case ShotOutcome::kBreakerReject:
        ++agg_.rejected;
        ++dev.rejected;
        if (g_live != nullptr)
          g_live->rejected.fetch_add(1, std::memory_order_relaxed);
        if (telemetry)
          registry.record_shot(r.device, item, 0, 1, true, 0.0, 0);
        break;
      case ShotOutcome::kDeadlineTimeout:
        ++agg_.timeouts;
        ++dev.timeouts;
        if (telemetry)
          registry.record_shot(
              r.device, item, 0, r.service_attempts, true,
              static_cast<double>(r.service_latency_us) / 1000.0, 0);
        break;
      case ShotOutcome::kCaptureLost:
        ++agg_.capture_lost;
        ++dev.capture_lost;
        if (telemetry)
          registry.record_capture_loss(r.device, item, 0,
                                       std::max(0, r.capture_attempts - 1));
        break;
      case ShotOutcome::kDecodeLost:
        ++agg_.decode_lost;
        ++dev.decode_lost;
        if (telemetry)
          registry.record_shot(r.device, item, 0, r.delivery_attempts, true,
                               static_cast<double>(r.service_latency_us) /
                                       1000.0 +
                                   r.delivery_delay_ms,
                               corruption);
        break;
    }
    if (r.sticky_transition && telemetry)
      registry.record_quarantine(r.device, item);

    // Timeline fold: replay the shot's deterministic payload into the
    // recorder here — the single serial fold point — so epoch
    // attribution, the transition stream and the trace cap are all in
    // strict shot order regardless of worker scheduling.
    if (obs::timeline_enabled()) {
      auto& timeline = obs::TimelineRecorder::global();
      const int cls = static_cast<int>(device_class_of(r.device));
      timeline.record_shot(cls, static_cast<int>(r.outcome),
                           r.service_latency_us,
                           r.outcome == ShotOutcome::kOk);
      for (const ShotRec::BreakerShift& s : r.shifts)
        timeline.record_transition(r.device, s.from, s.to, s.cause);
      if (r.trace_sampled) {
        obs::ShotTrace trace;
        trace.g = r.g;
        trace.slot = r.slot;
        trace.device = r.device;
        trace.cls = cls;
        trace.outcome = static_cast<int>(r.outcome);
        trace.queue_wait_us = r.backlog_wait_us;
        for (const obs::TraceAttempt& a : r.trace_attempts) {
          trace.backoff_us += a.backoff_us;
          trace.service_us += a.service_us;
        }
        trace.delivery_us = quantize_us(r.delivery_delay_ms);
        trace.attempts = r.trace_attempts;
        timeline.record_trace(std::move(trace));
      }
    }

    SlotCell& cell = cells_[static_cast<std::size_t>(r.device)];
    cell.outcome = r.outcome;
    cell.predicted = r.predicted;
    cell.conf_q = r.conf_q;
    cell.latency_us = r.service_latency_us;
    cell.service_attempts = r.service_attempts;
    cell.delivery_attempts = r.delivery_attempts;
    cell.correct = r.correct;
    cell.usable = r.outcome == ShotOutcome::kOk;

    meter_.tick();

    const int devices = static_cast<int>(fleet_.size());
    const bool slot_complete = (r.g % devices) == devices - 1;
    if (slot_complete) finalize_slot(item);
    if (slot_complete && r.has_snapshot) cut_checkpoint(r.snapshot);
  }

  void finalize_slot(int item) {
    // Coverage + online instability verdict for the completed slot.
    int observers = 0;
    bool any_correct = false;
    bool any_incorrect = false;
    for (const SlotCell& c : cells_) {
      if (!c.usable) continue;
      ++observers;
      if (c.correct)
        any_correct = true;
      else
        any_incorrect = true;
    }
    const int devices = static_cast<int>(cells_.size());
    if (observers == devices)
      ++agg_.slots_fully_covered;
    else if (observers == 0)
      ++agg_.slots_lost;
    else
      ++agg_.slots_degraded;
    if (observers >= 2) {
      ++agg_.slots_observed;
      if (any_correct && any_incorrect)
        ++agg_.unstable_slots;
      else if (any_correct)
        ++agg_.all_correct_slots;
      else
        ++agg_.all_incorrect_slots;
    }
    if (obs::telemetry_enabled()) {
      auto& registry = obs::DeviceHealthRegistry::global();
      for (std::size_t d = 0; d < cells_.size(); ++d) {
        const SlotCell& c = cells_[d];
        if (!c.usable) continue;
        registry.record_observation(static_cast<int>(d), item, c.correct,
                                    /*flipped=*/!c.correct && any_correct);
      }
    }

    // Per-slot digest chain over the full outcome surface.
    Fingerprint fp;
    fp.add(item);
    for (const SlotCell& c : cells_) {
      fp.add(static_cast<int>(c.outcome)).add(c.predicted);
      fp.add(static_cast<std::int64_t>(c.conf_q));
      fp.add(static_cast<std::int64_t>(c.latency_us));
      fp.add(c.service_attempts).add(c.delivery_attempts);
      fp.add(static_cast<std::uint64_t>(c.correct ? 1 : 0));
    }
    agg_.digest_chain = runtime::mix_seed(agg_.digest_chain, fp.value());
    ++agg_.slots_folded;
    cells_.assign(cells_.size(), SlotCell{});

    if (g_live != nullptr)
      g_live->slots_folded.fetch_add(1, std::memory_order_relaxed);
    if (obs::timeline_enabled()) {
      // Close the slot in the recorder, sampling the live queue depths
      // for the observational lanes (wall-clock data — exported but
      // never digested, DESIGN.md §18).
      std::vector<long long> depths;
      depths.reserve(shared_.queues.size());
      for (ShotQueue* q : shared_.queues)
        depths.push_back(static_cast<long long>(q->size()));
      obs::TimelineRecorder::global().note_slot_folded(depths);
    }
  }

  void cut_checkpoint(const SchedulerState& sched) {
    ES_CHECK(config_.checkpoint_every_slots > 0 &&
             !config_.checkpoint_path.empty());
    ES_CHECK(sched.next_shot ==
             agg_.slots_folded * static_cast<long long>(fleet_.size()));
    ServiceCheckpoint ckpt;
    ckpt.config_digest = config_digest_;
    ckpt.slot = agg_.slots_folded;
    ckpt.agg = agg_;
    ckpt.sched = sched;
    ckpt.ledger_events =
        obs::FaultLedger::global().export_group_raw(kServiceGroup);
    if (obs::telemetry_enabled())
      ckpt.telemetry_state =
          obs::DeviceHealthRegistry::global().serialize_state();
    if (obs::timeline_enabled())
      ckpt.timeline_state =
          obs::TimelineRecorder::global().serialize_state();
    std::string error;
    ES_CHECK_MSG(
        write_checkpoint_file(config_.checkpoint_path, ckpt, &error),
        "checkpoint write failed: " + error);
    ++checkpoints_written_;
    if (config_.stop_after_checkpoints > 0 &&
        checkpoints_written_ >= config_.stop_after_checkpoints) {
      if (config_.hard_kill) {
        // The SIGKILL analogue: no destructors, no flushes beyond the
        // checkpoint's own fsync+rename — resume must reconstruct
        // everything from the file alone.
        std::fprintf(stderr,
                     "[service] hard kill after checkpoint @ slot %lld\n",
                     ckpt.slot);
        std::fflush(stderr);
        std::_Exit(kHardKillExitCode);
      }
      ckpt_sched_ = sched;
      stop_requested_ = true;
    }
  }

  const ServiceConfig& config_;
  const std::vector<Device>& fleet_;
  Shared& shared_;
  ShotQueue& done_;
  AggregateState agg_;
  long long next_fold_ = 0;
  std::uint64_t config_digest_ = 0;
  obs::ProgressMeter& meter_;
  std::map<long long, ShotRec> buffer_;
  std::vector<SlotCell> cells_;
  SchedulerState ckpt_sched_;
  int checkpoints_written_ = 0;
  bool stop_requested_ = false;
};

}  // namespace

// ---- run_fleet_service -----------------------------------------------------

SoakReport run_fleet_service(Model& model, const ServiceConfig& config) {
  ES_CHECK_MSG(config.devices >= 1, "service needs >= 1 device");
  ES_CHECK_MSG(config.shots >= config.devices &&
                   config.shots % config.devices == 0,
               "shots must be a positive multiple of devices");
  ES_CHECK_MSG(config.stimulus_bank >= 1, "stimulus bank must be >= 1");
  ES_CHECK_MSG(config.checkpoint_every_slots <= 0 ||
                   !config.checkpoint_path.empty(),
               "checkpointing needs a checkpoint path");
  const int devices = config.devices;
  const long long slots = config.shots / devices;
  const std::uint64_t config_digest = service_config_digest(config, model);

  // ---- Fleet synthesis: cycle the calibrated base fleet, one stream
  // and performance tier per device.
  const std::vector<PhoneProfile> base = end_to_end_fleet(config.divergence);
  std::vector<Device> fleet(static_cast<std::size_t>(devices));
  for (int d = 0; d < devices; ++d) {
    Device& dev = fleet[static_cast<std::size_t>(d)];
    dev.profile = base[static_cast<std::size_t>(d) % base.size()];
    dev.profile.name += '#' + std::to_string(d);
    dev.stream = runtime::derive_seed(config.seed, 0x5EDE, d);
    dev.profile.noise_stream = dev.stream;
    dev.cls = device_class_of(d);
    dev.deadline_us =
        quantize_us(fault::deadline_budget_ms(dev.cls, config.plan));
  }

  // ---- Stimulus bank: every device photographs the same emissions;
  // per-device framing (mount warp) depends only on the base profile,
  // so it is precomputed per (base profile, stimulus).
  std::vector<Image> emissions(
      static_cast<std::size_t>(config.stimulus_bank));
  std::vector<int> bank_class(static_cast<std::size_t>(config.stimulus_bank));
  for (int s = 0; s < config.stimulus_bank; ++s) {
    SceneSpec spec;
    spec.class_id = s % kClassCount;
    spec.instance_seed = runtime::derive_seed(config.seed, 0xBA4C, s);
    spec.view_angle = kBankAngles[static_cast<std::size_t>(s) % 5];
    bank_class[static_cast<std::size_t>(s)] = spec.class_id;
    emissions[static_cast<std::size_t>(s)] = display_on_screen(
        render_scene(spec, config.scene_size), ScreenConfig{});
  }
  std::vector<std::vector<Image>> framed(base.size());
  for (std::size_t p = 0; p < base.size(); ++p)
    for (const Image& emission : emissions)
      framed[p].push_back(frame_emission(base[p], emission));

  // ---- Timeline bootstrap: register the run's name tables before any
  // restore (restore_state then overwrites the fresh series with the
  // checkpointed one).
  if (obs::timeline_enabled()) {
    // One queue-depth lane per live queue, in Shared::queues order.
    std::vector<std::string> stage_names = {"develop", "aggregate"};
    std::vector<std::string> class_names;
    for (int c = 0; c < 3; ++c)
      class_names.push_back(
          fault::device_class_name(static_cast<fault::DeviceClass>(c)));
    std::vector<std::string> outcome_names;
    for (int o = 0; o <= static_cast<int>(ShotOutcome::kDecodeLost); ++o)
      outcome_names.push_back(outcome_name(static_cast<ShotOutcome>(o)));
    obs::TimelineRecorder::global().begin_run(
        std::move(stage_names), std::move(class_names),
        std::move(outcome_names), devices);
  }

  // ---- Resume bootstrap.
  AggregateState agg;
  Scheduler scheduler(config, fleet);
  long long start_slot = 0;
  if (config.resume) {
    ServiceCheckpoint ckpt;
    std::string error;
    ES_CHECK_MSG(
        load_checkpoint_file(config.checkpoint_path, &ckpt, &error),
        "cannot resume from " + config.checkpoint_path + ": " + error);
    ES_CHECK_MSG(ckpt.config_digest == config_digest,
                 "checkpoint config digest mismatch — refusing to resume");
    ES_CHECK(ckpt.sched.next_shot ==
             ckpt.slot * static_cast<long long>(devices));
    ES_CHECK(ckpt.slot <= slots);
    agg = ckpt.agg;
    scheduler.restore(ckpt.sched);
    obs::FaultLedger::global().import_group_raw(
        kServiceGroup, std::move(ckpt.ledger_events));
    if (obs::telemetry_enabled() && !ckpt.telemetry_state.empty())
      ES_CHECK_MSG(obs::DeviceHealthRegistry::global().restore_state(
                       ckpt.telemetry_state),
                   "checkpoint telemetry state is malformed");
    if (obs::timeline_enabled()) {
      // An armed resume of a timeline-less checkpoint would silently
      // restart the series at slot 0 while the run resumes mid-stream;
      // refuse instead of splicing.
      ES_CHECK_MSG(!ckpt.timeline_state.empty(),
                   "checkpoint has no timeline state — it was cut without "
                   "--timeline");
      ES_CHECK_MSG(obs::TimelineRecorder::global().restore_state(
                       ckpt.timeline_state),
                   "checkpoint timeline state is malformed or disagrees "
                   "with the live --timeline-epoch/--trace-sample-rate");
    }
    start_slot = ckpt.slot;
    std::printf("[service] resumed from %s @ slot %lld/%lld\n",
                config.checkpoint_path.c_str(), start_slot, slots);
  } else if (obs::telemetry_enabled()) {
    auto& registry = obs::DeviceHealthRegistry::global();
    for (int d = 0; d < devices; ++d)
      registry.set_device_label(d, fleet[static_cast<std::size_t>(d)]
                                        .profile.name);
  }
  const long long start_g = start_slot * devices;

  // ---- Worker sizing + queues. Every develop worker runs whole shots,
  // classification included, on its own model clone, so no per-step
  // split has to be guessed and no worker shares a forward cache.
  // predict_logits forwards a single input in place, so the service
  // opens no parallel region on the global pool.
  const int develop_workers = config.threads > 0
                                  ? config.threads
                                  : runtime::ThreadPool::global().threads();
  std::vector<Model> lanes;
  lanes.reserve(static_cast<std::size_t>(develop_workers));
  for (int w = 0; w < develop_workers; ++w) lanes.push_back(model.clone());

  ShotQueue develop_q(64), done_q(256);
  StageClock develop_clock{}, agg_clock{};
  Shared shared;
  shared.queues = {&develop_q, &done_q};
  const long long lead_cap = std::max<long long>(
      config.max_inflight, 2LL * devices);

  LiveStatus live;
  live.queues = shared.queues;
  live.slots_folded.store(start_slot, std::memory_order_relaxed);
  live.epoch_slots = obs::timeline_enabled()
                         ? obs::TimelineRecorder::global().epoch_slots()
                         : 0;
  g_live = &live;
  obs::ProgressMeter::set_status_source(&live_status_text);

  obs::ProgressMeter meter(
      "fleet-soak", config.shots - start_g,
      config.progress || obs::ProgressMeter::env_enabled());
  Aggregator aggregator(config, fleet, shared, done_q, std::move(agg),
                        start_g, config_digest, meter);

  WallTimer wall;
  SchedulerState final_sched;
  std::mutex final_sched_mu;

  // One admitted shot, start to finish: capture faults + sensor
  // exposure, ISP, encode, delivery + decode, then inference on the
  // worker's model clone. Each step keeps its own span so traces and
  // profiles still attribute time per layer; the intermediate images and
  // the input tensor never leave this worker.
  auto develop = [&](Model& lane, ShotRec& r) {
    const Device& dev = fleet[static_cast<std::size_t>(r.device)];
    RawImage raw;
    {
      ES_TRACE_SCOPE("service", "capture");
      if (!inject_capture_faults(dev, r)) return;
      Pcg32 rng = runtime::derive_rng(config.seed, dev.stream, r.stimulus,
                                      r.slot);
      const std::size_t base_idx =
          static_cast<std::size_t>(r.device) % base.size();
      raw = expose_sensor(
          framed[base_idx][static_cast<std::size_t>(r.stimulus)],
          dev.profile.sensor, rng);
    }
    Image developed;
    {
      ES_TRACE_SCOPE("service", "isp");
      developed = run_isp(raw, dev.profile.isp);
    }
    Capture capture;
    {
      ES_TRACE_SCOPE("service", "codec");
      capture.format = dev.profile.storage_format;
      capture.quality = dev.profile.storage_quality;
      capture.file = make_codec(capture.format, capture.quality)
                         ->encode(to_u8(developed));
    }
    std::vector<Tensor> inputs;
    {
      ES_TRACE_SCOPE("service", "decode");
      const ShotDelivery delivery = deliver_shot_collect(
          capture, r.device, dev.stream, static_cast<int>(r.slot), 0,
          dev.profile.os_decoder, r.events);
      r.delivery_attempts = delivery.attempts;
      r.delivery_delay_ms = delivery.delay_ms;
      if (!delivery.usable) {
        r.outcome = ShotOutcome::kDecodeLost;
        return;
      }
      inputs.push_back(capture_to_input(delivery.image));
    }
    ES_TRACE_SCOPE("service", "inference");
    const ShotPrediction pred = classify_inputs(lane, inputs, 3, nullptr)[0];
    r.predicted = pred.predicted();
    r.conf_q = static_cast<long long>(std::llround(pred.confidence() * 1e6));
    r.correct = topk_correct(
        pred, bank_class[static_cast<std::size_t>(r.stimulus)], 1);
  };

  runtime::WorkerGroup scheduler_group, develop_group, agg_group;

  agg_group.spawn(guarded(shared, [&] { aggregator.run(agg_clock); }));

  scheduler_group.spawn(guarded(shared, [&] {
    const bool checkpointing = config.checkpoint_every_slots > 0;
    const long long boundary =
        checkpointing
            ? static_cast<long long>(config.checkpoint_every_slots) * devices
            : 0;
    for (long long g = start_g; g < config.shots; ++g) {
      {
        std::unique_lock<std::mutex> lock(shared.fold_mu);
        shared.fold_cv.wait(lock, [&] {
          return shared.stop.load(std::memory_order_relaxed) ||
                 g - (start_g + shared.folded) < lead_cap;
        });
      }
      if (shared.stop.load(std::memory_order_relaxed)) break;
      ShotRec r = scheduler.decide(g);
      if (checkpointing && (g + 1) % boundary == 0) {
        r.has_snapshot = true;
        r.snapshot = scheduler.state(g + 1);
      }
      if (!develop_q.push(std::move(r))) break;
    }
    {
      std::lock_guard<std::mutex> lock(final_sched_mu);
      final_sched = scheduler.state(config.shots);
    }
    develop_q.close();
  }));

  for (int w = 0; w < develop_workers; ++w) {
    Model* lane = &lanes[static_cast<std::size_t>(w)];
    develop_group.spawn(guarded(shared, [&, lane] {
      WorkerClock clock(develop_clock);
      while (true) {
        std::optional<ShotRec> rec = develop_q.pop();
        clock.mark(kBlockedPop);
        if (!rec.has_value()) break;
        if (rec->outcome == ShotOutcome::kOk) develop(*lane, *rec);
        clock.mark(kBusy);
        const bool pushed = done_q.push(std::move(*rec));
        clock.mark(kBlockedPush);
        if (!pushed) break;
      }
    }));
  }

  // Teardown chain: each queue closes once every producer upstream of
  // it has drained and joined (the scheduler closes develop_q itself;
  // done_q closes after the last develop worker). Early stop
  // short-circuits all of it via Shared::abort_all.
  scheduler_group.join();
  develop_group.join();
  done_q.close();
  agg_group.join();
  meter.finish();

  obs::ProgressMeter::set_status_source(nullptr);
  g_live = nullptr;

  // ---- Report.
  SoakReport report;
  report.devices = devices;
  report.shots = config.shots;
  report.slots = slots;
  report.resumed_from_slot = config.resume ? start_slot : -1;
  report.checkpoints_written = aggregator.checkpoints_written();
  report.stopped_at_checkpoint = aggregator.stopped_at_checkpoint();
  report.agg = aggregator.aggregate();
  report.completed = !report.stopped_at_checkpoint &&
                     report.agg.shots_folded == config.shots;
  // A stopped run's deterministic surface is the checkpoint's: the
  // scheduler raced nondeterministically far ahead of the cut, so its
  // live state is not comparable across runs — the snapshot is.
  if (report.stopped_at_checkpoint) {
    report.sched = aggregator.checkpoint_sched();
  } else {
    std::lock_guard<std::mutex> lock(final_sched_mu);
    report.sched = final_sched;
  }

  for (const DeviceSchedState& d : report.sched.devices) {
    report.breaker_opens += d.breaker.opens;
    report.breaker_closes += d.breaker.closes;
    report.breaker_rejects += d.breaker.rejects;
    const auto state = static_cast<BreakerState>(d.breaker.state);
    if (d.breaker.sticky)
      ++report.sticky_devices;
    else if (state == BreakerState::kOpen)
      ++report.open_devices;
    else if (state == BreakerState::kHalfOpen)
      ++report.half_open_devices;
  }

  report.config_digest = config_digest;
  report.agg_digest = aggregate_digest(report.agg);
  report.breaker_digest = scheduler_digest(report.sched);
  report.ledger_digest = ledger_events_digest(
      obs::FaultLedger::global().export_group_raw(kServiceGroup));
  report.telemetry_digest = obs::DeviceHealthRegistry::global().digest();

  // Latency tail from the deterministic histogram (ok shots only).
  long long total = 0;
  for (const auto& [bucket, count] : report.agg.latency_hist_100us)
    total += count;
  if (total > 0) {
    auto percentile = [&](double p) {
      const long long target = static_cast<long long>(
          std::ceil(p * static_cast<double>(total)));
      long long seen = 0;
      for (const auto& [bucket, count] : report.agg.latency_hist_100us) {
        seen += count;
        if (seen >= target) return bucket * 100 + 50;
      }
      return report.agg.latency_hist_100us.rbegin()->first * 100 + 50;
    };
    report.latency_p50_us = percentile(0.50);
    report.latency_p99_us = percentile(0.99);
    report.latency_p999_us = percentile(0.999);
    report.latency_max_us =
        report.agg.latency_hist_100us.rbegin()->first * 100 + 100;
  }

  report.wall_seconds = wall.seconds();
  const long long folded_here =
      report.agg.shots_folded - start_g;
  report.shots_per_second =
      report.wall_seconds > 1e-9
          ? static_cast<double>(folded_here) / report.wall_seconds
          : 0.0;
  auto stage_stats = [](const char* name, int workers, const ShotQueue& q,
                        const StageClock& ns) {
    auto ms = [&](ClockBucket b) { return 1e-6 * ns[b].load(); };
    return StageStats{name,         workers,          q.capacity(),
                      q.high_water(), q.pushed(),     ms(kBusy),
                      ms(kBlockedPop), ms(kBlockedPush)};
  };
  report.stages = {
      stage_stats("develop", develop_workers, develop_q, develop_clock),
      stage_stats("aggregate", 1, done_q, agg_clock),
  };
  return report;
}

// ---- Soak report JSON ------------------------------------------------------

namespace {

std::string u64_hex_str(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

}  // namespace

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
  w.key("config").value(u64_hex_str(report.config_digest));
  w.key("aggregate").value(u64_hex_str(report.agg_digest));
  w.key("ledger").value(u64_hex_str(report.ledger_digest));
  w.key("breaker").value(u64_hex_str(report.breaker_digest));
  w.key("telemetry").value(u64_hex_str(report.telemetry_digest));
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

bool write_soak_report_file(const std::string& path,
                            const SoakReport& report, std::string* error) {
  const std::string body = serialize_soak_report(report);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool closed = std::fclose(f) == 0;
  if (!(ok && closed)) {
    if (error != nullptr) *error = "short write to " + path;
    return false;
  }
  return true;
}

}  // namespace edgestab::service
