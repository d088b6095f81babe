// Tests for the streaming fleet service (src/service): queue semantics,
// the circuit-breaker state machine, the per-device-class latency model,
// checkpoint round trips, and the end-to-end determinism contract —
// thread-count invariance and kill/resume bit-exactness (DESIGN.md §17).
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/workspace.h"
#include "fault/fault.h"
#include "fault/latency.h"
#include "obs/fault_ledger.h"
#include "obs/telemetry/telemetry.h"
#include "service/breaker.h"
#include "service/checkpoint.h"
#include "service/pipeline.h"
#include "service/queue.h"
#include "service/state.h"
#include "tensor/backend.h"

using namespace edgestab;
using namespace edgestab::service;

// ---- BoundedQueue ----------------------------------------------------------

TEST(BoundedQueue, FifoAndCounts) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.high_water(), 3u);
  EXPECT_EQ(q.pushed(), 3);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.high_water(), 3u);  // high-water survives the drain
}

TEST(BoundedQueue, PushBlocksUntilPopped) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::thread producer([&] { EXPECT_TRUE(q.push(2)); });
  // The producer is blocked on the full queue until this pop.
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueue, CloseDrainsPendingThenEnds) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(7));
  q.close();
  EXPECT_FALSE(q.push(8));  // rejected after close
  EXPECT_EQ(q.pop().value(), 7);  // pending item still delivered
  EXPECT_FALSE(q.pop().has_value());  // then end-of-stream
}

TEST(BoundedQueue, CloseAndDrainDiscardsPending) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(7));
  q.close_and_drain();
  EXPECT_FALSE(q.pop().has_value());
}

// ---- CircuitBreaker --------------------------------------------------------

namespace {

BreakerConfig tiny_breaker() {
  BreakerConfig cfg;
  cfg.open_after = 2;
  cfg.cooldown = 3;
  cfg.close_after = 2;
  cfg.max_probe_rounds = 2;
  return cfg;
}

}  // namespace

TEST(CircuitBreaker, OpensAfterConsecutiveTimeouts) {
  CircuitBreaker br(tiny_breaker());
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  EXPECT_EQ(br.admit(), CircuitBreaker::Admit::kAdmit);
  EXPECT_FALSE(br.on_timeout().opened);  // 1 of 2
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  EXPECT_TRUE(br.on_timeout().opened);  // 2 of 2 -> open
  EXPECT_EQ(br.state(), BreakerState::kOpen);
}

TEST(CircuitBreaker, SuccessResetsConsecutiveCount) {
  CircuitBreaker br(tiny_breaker());
  br.on_timeout();
  br.on_success();  // streak broken
  EXPECT_FALSE(br.on_timeout().opened);
  EXPECT_EQ(br.state(), BreakerState::kClosed);
}

TEST(CircuitBreaker, OpenRejectsThroughCooldownThenProbes) {
  CircuitBreaker br(tiny_breaker());
  br.on_timeout();
  br.on_timeout();
  ASSERT_EQ(br.state(), BreakerState::kOpen);
  // Exactly `cooldown` rejects, then a half-open probe.
  EXPECT_EQ(br.admit(), CircuitBreaker::Admit::kReject);
  EXPECT_EQ(br.admit(), CircuitBreaker::Admit::kReject);
  EXPECT_EQ(br.admit(), CircuitBreaker::Admit::kReject);
  EXPECT_EQ(br.admit(), CircuitBreaker::Admit::kProbe);
  EXPECT_EQ(br.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(br.snapshot().rejects, 3);
}

TEST(CircuitBreaker, ClosesAfterProbeSuccessStreak) {
  CircuitBreaker br(tiny_breaker());
  br.on_timeout();
  br.on_timeout();
  for (int i = 0; i < 3; ++i) br.admit();  // burn the cooldown
  ASSERT_EQ(br.admit(), CircuitBreaker::Admit::kProbe);
  EXPECT_FALSE(br.on_success().closed);  // probe 1 of 2
  ASSERT_EQ(br.admit(), CircuitBreaker::Admit::kProbe);
  const CircuitBreaker::Feedback fb = br.on_success();  // probe 2 of 2
  EXPECT_TRUE(fb.closed);
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  EXPECT_EQ(br.admit(), CircuitBreaker::Admit::kAdmit);
  EXPECT_EQ(br.snapshot().closes, 1);
}

TEST(CircuitBreaker, FailedProbeReopensAndEventuallySticks) {
  CircuitBreaker br(tiny_breaker());
  br.on_timeout();
  br.on_timeout();  // open (round 0)
  // Probe round 1: fail the probe -> reopen, not yet sticky.
  for (int i = 0; i < 3; ++i) br.admit();
  ASSERT_EQ(br.admit(), CircuitBreaker::Admit::kProbe);
  CircuitBreaker::Feedback fb = br.on_timeout();
  EXPECT_TRUE(fb.opened);
  EXPECT_FALSE(fb.went_sticky);
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  // Probe round 2: fail again -> sticky open, rejects forever.
  for (int i = 0; i < 3; ++i) br.admit();
  ASSERT_EQ(br.admit(), CircuitBreaker::Admit::kProbe);
  fb = br.on_timeout();
  EXPECT_TRUE(fb.went_sticky);
  EXPECT_TRUE(br.sticky_open());
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(br.admit(), CircuitBreaker::Admit::kReject);
}

TEST(CircuitBreaker, PartialProbeStreakResetOnFailure) {
  BreakerConfig cfg = tiny_breaker();
  cfg.max_probe_rounds = 5;
  CircuitBreaker br(cfg);
  br.on_timeout();
  br.on_timeout();
  for (int i = 0; i < 3; ++i) br.admit();
  ASSERT_EQ(br.admit(), CircuitBreaker::Admit::kProbe);
  br.on_success();  // 1 of 2 probe successes...
  ASSERT_EQ(br.admit(), CircuitBreaker::Admit::kProbe);
  br.on_timeout();  // ...wiped by the failed probe
  for (int i = 0; i < 3; ++i) br.admit();
  ASSERT_EQ(br.admit(), CircuitBreaker::Admit::kProbe);
  EXPECT_FALSE(br.on_success().closed);  // streak restarted at 1 of 2
}

TEST(CircuitBreaker, SnapshotRestoreRoundTrip) {
  CircuitBreaker br(tiny_breaker());
  br.on_timeout();
  br.on_timeout();
  br.admit();
  br.admit();
  const BreakerSnapshot snap = br.snapshot();

  CircuitBreaker copy(tiny_breaker());
  copy.restore(snap);
  // Both continue identically: one more reject, then a probe.
  for (int i = 0; i < 4; ++i) {
    const auto a = br.admit();
    const auto b = copy.admit();
    EXPECT_EQ(static_cast<int>(a), static_cast<int>(b)) << "step " << i;
  }
  EXPECT_EQ(scheduler_digest({0, {{br.snapshot(), 0}}}),
            scheduler_digest({0, {{copy.snapshot(), 0}}}));
}

// ---- Latency model ---------------------------------------------------------

TEST(LatencyModel, DeterministicAndClassOrdered) {
  fault::FaultPlan plan;
  const double a =
      fault::draw_latency_ms(plan, fault::DeviceClass::kBudget, 3, 5, 0, 1);
  const double b =
      fault::draw_latency_ms(plan, fault::DeviceClass::kBudget, 3, 5, 0, 1);
  EXPECT_EQ(a, b);  // pure function of coordinates
  EXPECT_NE(a, fault::draw_latency_ms(plan, fault::DeviceClass::kBudget, 3,
                                      5, 0, 2));
  // Class base floors: a flagship draw is never slower than the budget
  // class's base service time.
  double flagship_max = 0.0;
  for (int s = 0; s < 64; ++s)
    flagship_max = std::max(
        flagship_max, fault::draw_latency_ms(plan, fault::DeviceClass::kFlagship,
                                             1, s, 0, 0));
  const double budget_floor =
      fault::latency_class_model(fault::DeviceClass::kBudget, plan).base_ms;
  double budget_min = 1e9;
  for (int s = 0; s < 64; ++s)
    budget_min = std::min(
        budget_min, fault::draw_latency_ms(plan, fault::DeviceClass::kBudget,
                                           1, s, 0, 0));
  EXPECT_GE(budget_min, budget_floor);
  EXPECT_LT(fault::latency_class_model(fault::DeviceClass::kFlagship, plan)
                .base_ms,
            budget_floor);
  (void)flagship_max;
}

TEST(LatencyModel, PlanKnobsScaleDrawsAndDeadline) {
  fault::FaultPlan base;
  fault::FaultPlan scaled = base;
  scaled.latency_scale = 2.0;
  const double d1 =
      fault::draw_latency_ms(base, fault::DeviceClass::kMid, 2, 9, 0, 0);
  const double d2 =
      fault::draw_latency_ms(scaled, fault::DeviceClass::kMid, 2, 9, 0, 0);
  EXPECT_NEAR(d2, 2.0 * d1, 1e-9);
  EXPECT_NEAR(fault::deadline_budget_ms(fault::DeviceClass::kMid, scaled),
              2.0 * fault::deadline_budget_ms(fault::DeviceClass::kMid, base),
              1e-9);
  fault::FaultPlan pinned = base;
  pinned.deadline_ms = 42.0;
  EXPECT_EQ(fault::deadline_budget_ms(fault::DeviceClass::kBudget, pinned),
            42.0);
}

TEST(LatencyModel, SpecPresetsParse) {
  const fault::FaultPlan budget = fault::parse_fault_plan("budget");
  EXPECT_GT(budget.latency_scale, 1.0);
  EXPECT_GT(budget.latency_slow_boost, 0.0);
  EXPECT_FALSE(budget.any());  // latency-only: injector stays off
  const fault::FaultPlan flagship = fault::parse_fault_plan("flagship");
  EXPECT_LT(flagship.latency_scale, 1.0);
  // Composes with a fault preset and k=v overrides.
  const fault::FaultPlan mixed =
      fault::parse_fault_plan("heavy,budget,deadline_ms=30");
  EXPECT_TRUE(mixed.any());
  EXPECT_EQ(mixed.deadline_ms, 30.0);
  EXPECT_EQ(mixed.latency_scale, budget.latency_scale);
}

// ---- Checkpoint round trips ------------------------------------------------

namespace {

ServiceCheckpoint sample_checkpoint() {
  ServiceCheckpoint ckpt;
  ckpt.config_digest = 0xDEADBEEFCAFEF00DULL;
  ckpt.slot = 21;
  ckpt.agg.slots_folded = 21;
  ckpt.agg.shots_folded = 168;
  ckpt.agg.ok = 150;
  ckpt.agg.correct = 120;
  ckpt.agg.shed = 6;
  ckpt.agg.rejected = 5;
  ckpt.agg.timeouts = 4;
  ckpt.agg.capture_lost = 2;
  ckpt.agg.decode_lost = 1;
  ckpt.agg.fault_events = 40;
  ckpt.agg.retries = 9;
  ckpt.agg.slots_fully_covered = 15;
  ckpt.agg.slots_degraded = 5;
  ckpt.agg.slots_lost = 1;
  ckpt.agg.slots_observed = 20;
  ckpt.agg.unstable_slots = 7;
  ckpt.agg.all_correct_slots = 11;
  ckpt.agg.all_incorrect_slots = 2;
  ckpt.agg.digest_chain = 0xFEEDFACE12345678ULL;
  ckpt.agg.latency_hist_100us[12] = 30;
  ckpt.agg.latency_hist_100us[444] = 2;
  ckpt.agg.devices.resize(8);
  ckpt.agg.devices[3].ok = 19;
  ckpt.agg.devices[3].latency_us_sum = 123456;
  ckpt.sched.next_shot = 168;
  ckpt.sched.devices.resize(8);
  ckpt.sched.devices[2].breaker.state = 1;
  ckpt.sched.devices[2].breaker.cooldown_left = 4;
  ckpt.sched.devices[2].breaker.opens = 2;
  ckpt.sched.devices[2].backlog_us = 314159;
  ckpt.sched.devices[5].breaker.sticky = true;
  ckpt.ledger_events.push_back({obs::FaultEventKind::kDeadlineTimeout, 2,
                                20, 0, 2, false, 7.25});
  ckpt.ledger_events.push_back(
      {obs::FaultEventKind::kRetry, 1, 3, 0, 1, true, 10.0});
  ckpt.telemetry_state = "{\"window\":4}";
  ckpt.timeline_state = "{\"format\":\"edgestab-timeline-state-v1\"}";
  return ckpt;
}

}  // namespace

TEST(Checkpoint, JsonRoundTripIsExact) {
  const ServiceCheckpoint ckpt = sample_checkpoint();
  const std::string json = serialize_checkpoint(ckpt);
  ServiceCheckpoint back;
  std::string error;
  ASSERT_TRUE(parse_checkpoint(json, &back, &error)) << error;
  // Full-surface digest equality covers every field class, including
  // the 64-bit values that must survive the JSON double parser.
  EXPECT_EQ(checkpoint_digest(back), checkpoint_digest(ckpt));
  EXPECT_EQ(back.config_digest, ckpt.config_digest);
  EXPECT_EQ(back.agg.digest_chain, ckpt.agg.digest_chain);
  EXPECT_EQ(aggregate_digest(back.agg), aggregate_digest(ckpt.agg));
  EXPECT_EQ(scheduler_digest(back.sched), scheduler_digest(ckpt.sched));
  EXPECT_EQ(back.ledger_events.size(), ckpt.ledger_events.size());
  EXPECT_EQ(back.telemetry_state, ckpt.telemetry_state);
  EXPECT_EQ(back.timeline_state, ckpt.timeline_state);
  // And the serialization itself is stable.
  EXPECT_EQ(serialize_checkpoint(back), json);
}

TEST(Checkpoint, ParseRejectsWrongFormatAndGarbage) {
  ServiceCheckpoint out;
  std::string error;
  EXPECT_FALSE(parse_checkpoint("{\"format\":\"bogus-v9\"}", &out, &error));
  EXPECT_FALSE(parse_checkpoint("not json at all", &out, &error));
  const std::string json = serialize_checkpoint(sample_checkpoint());
  EXPECT_FALSE(
      parse_checkpoint(json.substr(0, json.size() / 2), &out, &error));
}

TEST(Checkpoint, FileRoundTripAndAtomicTmp) {
  const ServiceCheckpoint ckpt = sample_checkpoint();
  const std::string path =
      testing::TempDir() + "/edgestab_ckpt_test.json";
  std::string error;
  ASSERT_TRUE(write_checkpoint_file(path, ckpt, &error)) << error;
  EXPECT_NE(std::fopen(path.c_str(), "rb"), nullptr);
  // The sibling tmp file must not survive the rename.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  ServiceCheckpoint back;
  ASSERT_TRUE(load_checkpoint_file(path, &back, &error)) << error;
  EXPECT_EQ(checkpoint_digest(back), checkpoint_digest(ckpt));
  std::remove(path.c_str());
}

// ---- End-to-end determinism ------------------------------------------------

namespace {

/// Small geometry that still exercises every tier: 6 devices cover all
/// three device classes twice; "budget,deadline_ms=24" makes deadline
/// timeouts (and thus breaker traffic) common; heavy fault rates feed
/// the capture/delivery sites.
ServiceConfig gate_config() {
  ServiceConfig config;
  config.devices = 6;
  config.shots = 6 * 36;
  config.stimulus_bank = 3;
  config.scene_size = 32;
  config.seed = 99;
  config.plan = fault::parse_fault_plan("moderate,budget,deadline_ms=24");
  config.shed_backlog_ms = 120.0;
  config.drain_ms_per_shot = 40.0;
  return config;
}

struct RunDigests {
  std::uint64_t agg = 0, ledger = 0, breaker = 0, telemetry = 0;
  bool operator==(const RunDigests& o) const {
    return agg == o.agg && ledger == o.ledger && breaker == o.breaker &&
           telemetry == o.telemetry;
  }
};

/// Reset every process-global the service touches, arm the injector and
/// a 4-item telemetry window (so checkpoint boundaries land mid-window),
/// run, and collect the digest surface.
RunDigests run_gate(Model& model, const ServiceConfig& config) {
  obs::FaultLedger::global().clear();
  auto& registry = obs::DeviceHealthRegistry::global();
  registry.clear();
  registry.set_enabled(true);
  registry.set_window_items(4);
  fault::FaultInjector::global().configure(config.plan);
  const SoakReport report = run_fleet_service(model, config);
  fault::FaultInjector::global().reset();
  registry.set_enabled(false);
  RunDigests d;
  d.agg = report.agg_digest;
  d.ledger = report.ledger_digest;
  d.breaker = report.breaker_digest;
  d.telemetry = report.telemetry_digest;
  return d;
}

}  // namespace

TEST(ServicePipeline, DigestsInvariantAcrossThreadCounts) {
  // Each develop worker classifies on its own model clone, so T clones
  // forward concurrently; the digests must not notice, on any tier.
  Workspace ws;
  Model model = ws.fresh_model();
  ServiceConfig config = gate_config();
  const BackendKind prev = active_backend();
  for (BackendKind tier :
       {BackendKind::kScalar, BackendKind::kAvx2, BackendKind::kInt8}) {
    if (set_active_backend(tier) != tier) continue;  // tier compiled out
    config.threads = 1;
    const RunDigests one = run_gate(model, config);
    config.threads = 3;
    const RunDigests three = run_gate(model, config);
    config.threads = 4;
    const RunDigests four = run_gate(model, config);
    EXPECT_TRUE(one == three) << backend_name(tier);
    EXPECT_TRUE(one == four) << backend_name(tier);
    EXPECT_NE(one.agg, 0u) << backend_name(tier);
    EXPECT_NE(one.ledger, 0u) << backend_name(tier);
  }
  set_active_backend(prev);
}

TEST(ServicePipeline, DevelopStageRowsAndEarlyStop) {
  Workspace ws;
  Model model = ws.fresh_model();
  ServiceConfig config = gate_config();
  config.threads = 4;
  obs::FaultLedger::global().clear();
  fault::FaultInjector::global().configure(config.plan);
  const SoakReport report = run_fleet_service(model, config);
  ASSERT_TRUE(report.completed);
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.stages[0].name, "develop");
  EXPECT_EQ(report.stages[1].name, "aggregate");
  EXPECT_EQ(report.stages[0].workers, config.threads);
  EXPECT_EQ(report.stages[1].workers, 1);
  for (const StageStats& s : report.stages) {
    // Every record, tombstones included, traverses every queue once.
    EXPECT_EQ(s.processed, config.shots) << s.name;
    EXPECT_LE(s.high_water, s.capacity) << s.name;
    EXPECT_GT(s.busy_ms, 0.0) << s.name;
    EXPECT_GE(s.blocked_pop_ms, 0.0) << s.name;
    EXPECT_GE(s.blocked_push_ms, 0.0) << s.name;
  }
  // The aggregator is the sink: it never pushes.
  EXPECT_EQ(report.stages[1].blocked_push_ms, 0.0);

  // A graceful stop tears the graph down by closing its two queues;
  // every one of the four develop workers must still unblock.
  const std::string ckpt_path =
      testing::TempDir() + "/edgestab_service_stop4.ckpt.json";
  config.checkpoint_path = ckpt_path;
  config.checkpoint_every_slots = 3;
  config.stop_after_checkpoints = 1;
  obs::FaultLedger::global().clear();
  const SoakReport stopped = run_fleet_service(model, config);
  fault::FaultInjector::global().reset();
  EXPECT_TRUE(stopped.stopped_at_checkpoint);
  EXPECT_FALSE(stopped.completed);
  EXPECT_EQ(stopped.checkpoints_written, 1);
  EXPECT_EQ(stopped.agg.slots_folded, 3);
  std::remove(ckpt_path.c_str());
}

TEST(ServicePipeline, StopAndResumeMatchesUninterrupted) {
  Workspace ws;
  Model model = ws.fresh_model();
  const std::string ckpt_path =
      testing::TempDir() + "/edgestab_service_resume.ckpt.json";

  ServiceConfig config = gate_config();
  const RunDigests reference = run_gate(model, config);

  // Stop gracefully after the second checkpoint (slot 14 of 36 — a
  // mid-telemetry-window boundary with the 4-item window run_gate arms).
  ServiceConfig first_half = config;
  first_half.checkpoint_path = ckpt_path;
  first_half.checkpoint_every_slots = 7;
  first_half.stop_after_checkpoints = 2;
  obs::FaultLedger::global().clear();
  auto& registry = obs::DeviceHealthRegistry::global();
  registry.clear();
  registry.set_enabled(true);
  registry.set_window_items(4);
  fault::FaultInjector::global().configure(first_half.plan);
  const SoakReport half = run_fleet_service(model, first_half);
  EXPECT_TRUE(half.stopped_at_checkpoint);
  EXPECT_FALSE(half.completed);
  EXPECT_EQ(half.checkpoints_written, 2);
  EXPECT_EQ(half.agg.slots_folded, 14);

  // Fresh globals (a new process), then resume to the end.
  ServiceConfig second_half = config;
  second_half.checkpoint_path = ckpt_path;
  second_half.checkpoint_every_slots = 7;
  second_half.resume = true;
  const RunDigests resumed = run_gate(model, second_half);
  EXPECT_TRUE(resumed == reference);
  std::remove(ckpt_path.c_str());
}

TEST(ServicePipeline, ResumeRefusesMismatchedConfig) {
  Workspace ws;
  Model model = ws.fresh_model();
  const std::string ckpt_path =
      testing::TempDir() + "/edgestab_service_mismatch.ckpt.json";
  ServiceConfig config = gate_config();
  config.checkpoint_path = ckpt_path;
  config.checkpoint_every_slots = 7;
  config.stop_after_checkpoints = 1;
  obs::FaultLedger::global().clear();
  fault::FaultInjector::global().configure(config.plan);
  (void)run_fleet_service(model, config);
  fault::FaultInjector::global().reset();

  ServiceConfig other = config;
  other.stop_after_checkpoints = 0;
  other.resume = true;
  other.seed = config.seed + 1;  // different stream geometry
  obs::FaultLedger::global().clear();
  EXPECT_THROW(run_fleet_service(model, other), CheckError);
  std::remove(ckpt_path.c_str());
}

TEST(ServicePipeline, ResumeRefusesBackendOrWeightMismatch) {
  // The kernel tier and the weights are part of the environment: a
  // checkpoint cut on one must not be continued on another.
  Workspace ws;
  Model model = ws.fresh_model();
  const std::string ckpt_path =
      testing::TempDir() + "/edgestab_service_env.ckpt.json";
  ServiceConfig config = gate_config();
  config.checkpoint_path = ckpt_path;
  config.checkpoint_every_slots = 7;
  config.stop_after_checkpoints = 1;
  ASSERT_EQ(set_active_backend(BackendKind::kScalar), BackendKind::kScalar);
  obs::FaultLedger::global().clear();
  fault::FaultInjector::global().configure(config.plan);
  (void)run_fleet_service(model, config);

  ServiceConfig resume = config;
  resume.stop_after_checkpoints = 0;
  resume.resume = true;

  ASSERT_EQ(set_active_backend(BackendKind::kInt8), BackendKind::kInt8);
  obs::FaultLedger::global().clear();
  EXPECT_THROW(run_fleet_service(model, resume), CheckError);
  set_active_backend(BackendKind::kScalar);

  Model other = ws.fresh_model();
  other.params().front()->value.data()[0] += 0.25f;
  obs::FaultLedger::global().clear();
  EXPECT_THROW(run_fleet_service(other, resume), CheckError);

  // The unchanged environment still resumes.
  obs::FaultLedger::global().clear();
  EXPECT_TRUE(run_fleet_service(model, resume).completed);
  fault::FaultInjector::global().reset();
  std::remove(ckpt_path.c_str());
}

TEST(ServicePipeline, ShedAccountingNeverSilent) {
  // Every admission decision lands in exactly one outcome bucket and
  // every shed/reject carries a ledger receipt — nothing is silently
  // dropped (the ISSUE's load-shedding contract).
  Workspace ws;
  Model model = ws.fresh_model();
  ServiceConfig config = gate_config();
  obs::FaultLedger::global().clear();
  fault::FaultInjector::global().configure(config.plan);
  const SoakReport report = run_fleet_service(model, config);
  fault::FaultInjector::global().reset();
  const AggregateState& agg = report.agg;
  EXPECT_EQ(agg.ok + agg.shed + agg.rejected + agg.timeouts +
                agg.capture_lost + agg.decode_lost,
            config.shots);
  long long shed_receipts = 0, reject_receipts = 0;
  for (const obs::FaultEvent& e :
       obs::FaultLedger::global().export_group_raw("service")) {
    if (e.kind == obs::FaultEventKind::kShedOverload) ++shed_receipts;
    if (e.kind == obs::FaultEventKind::kBreakerReject) ++reject_receipts;
  }
  EXPECT_EQ(shed_receipts, agg.shed);
  EXPECT_EQ(reject_receipts, agg.rejected);
  EXPECT_GT(agg.timeouts, 0);  // the tight deadline actually fired
}
