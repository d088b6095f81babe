// Tests for the service timeline (src/obs/timeline): fold-epoch
// bucketing, the transition-driven breaker census, the deterministic
// trace cap, checkpoint-state round trips (with knob-mismatch refusal),
// the timeline.json codec and digest (which must ignore the
// observational queue lanes), hostile-label escaping in timeline.html,
// and the end-to-end determinism contract — thread-count invariance and
// kill/resume bit-exactness of the series (DESIGN.md §18).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/workspace.h"
#include "fault/fault.h"
#include "obs/fault_ledger.h"
#include "obs/timeline/timeline.h"
#include "obs/timeline/timeline_report.h"
#include "service/pipeline.h"

using namespace edgestab;
using obs::BreakerTransition;
using obs::ShotTrace;
using obs::TimelineDoc;
using obs::TimelineEpoch;
using obs::TimelineRecorder;

// ---- Recorder accumulation -------------------------------------------------

namespace {

/// A recorder with a 2-slot epoch and tiny name tables, ready to fold.
void begin_tiny(TimelineRecorder& rec, int epoch_slots, int devices = 3) {
  rec.set_epoch_slots(epoch_slots);
  rec.begin_run({"s0", "s1"}, {"c0"}, {"ok", "bad"}, devices);
}

}  // namespace

TEST(TimelineRecorder, BucketsShotsIntoFoldEpochs) {
  TimelineRecorder rec;
  begin_tiny(rec, 2);
  rec.record_shot(0, 0, 10, true);
  rec.record_shot(0, 1, 0, false);  // no latency sample for a lost shot
  rec.note_slot_folded({1, 4});
  rec.record_shot(0, 0, 100, true);
  rec.note_slot_folded({2, 2});  // closes epoch 0
  rec.record_shot(0, 0, 1000, true);
  rec.note_slot_folded({0, 0});

  TimelineDoc doc = rec.snapshot();
  EXPECT_EQ(doc.slots_total, 3);
  ASSERT_EQ(doc.epochs.size(), 2u);  // one closed + the trailing partial
  const TimelineEpoch& e0 = doc.epochs[0];
  EXPECT_EQ(e0.index, 0);
  EXPECT_EQ(e0.slots, 2);
  ASSERT_EQ(e0.outcomes.size(), 2u);
  EXPECT_EQ(e0.outcomes[0], 2);  // both ok shots landed before the close
  EXPECT_EQ(e0.outcomes[1], 1);
  // log2-µs buckets: 10µs -> bucket 3, 100µs -> bucket 6; the lost shot
  // contributed nothing.
  ASSERT_EQ(e0.latency_hist.size(), 1u);
  EXPECT_EQ(e0.latency_hist[0].at(3), 1);
  EXPECT_EQ(e0.latency_hist[0].at(6), 1);
  EXPECT_EQ(e0.latency_hist[0].size(), 2u);
  // Queue lanes: stage 0 saw depths {1, 2}, stage 1 saw {4, 2}.
  ASSERT_EQ(e0.queues.size(), 2u);
  EXPECT_EQ(e0.queues[0].min, 1);
  EXPECT_EQ(e0.queues[0].max, 2);
  EXPECT_EQ(e0.queues[0].sum, 3);
  EXPECT_EQ(e0.queues[1].max, 4);
  const TimelineEpoch& e1 = doc.epochs[1];
  EXPECT_EQ(e1.index, 1);
  EXPECT_EQ(e1.slots, 1);
  EXPECT_EQ(e1.outcomes[0], 1);
  EXPECT_EQ(e1.outcomes[1], 0);
}

TEST(TimelineRecorder, CensusFollowsTransitionStream) {
  TimelineRecorder rec;
  begin_tiny(rec, 1, 4);
  rec.record_transition(1, 0, 1, "timeout_trip");
  rec.record_transition(2, 0, 1, "timeout_trip");
  rec.record_transition(2, 1, 2, "cooldown_elapsed");
  rec.note_slot_folded({0, 0});  // closes epoch 0

  TimelineDoc doc = rec.snapshot();
  ASSERT_EQ(doc.epochs.size(), 1u);
  ASSERT_EQ(doc.epochs[0].census.size(),
            static_cast<std::size_t>(obs::kTimelineCensusStates));
  EXPECT_EQ(doc.epochs[0].census[0], 2);  // devices 0 and 3 still closed
  EXPECT_EQ(doc.epochs[0].census[1], 1);  // device 1 open
  EXPECT_EQ(doc.epochs[0].census[2], 1);  // device 2 half-open
  EXPECT_EQ(doc.epochs[0].census[3], 0);
  ASSERT_EQ(doc.transitions.size(), 3u);
  EXPECT_EQ(doc.transitions[0].device, 1);
  EXPECT_EQ(doc.transitions[0].epoch, 0);
  EXPECT_EQ(doc.transitions[0].cause, "timeout_trip");
  EXPECT_EQ(doc.transitions[2].to, 2);
}

TEST(TimelineRecorder, TraceCapIsDeterministic) {
  TimelineRecorder rec;
  begin_tiny(rec, 64);
  for (std::size_t i = 0; i < TimelineRecorder::kTraceCap + 5; ++i) {
    ShotTrace t;
    t.g = static_cast<long long>(i);
    rec.record_trace(t);
  }
  TimelineDoc doc = rec.snapshot();
  EXPECT_EQ(doc.traces.size(), TimelineRecorder::kTraceCap);
  EXPECT_EQ(doc.traces_dropped, 5);
  // The cap keeps the EARLIEST traces in fold order.
  EXPECT_EQ(doc.traces.front().g, 0);
  EXPECT_EQ(doc.traces.back().g,
            static_cast<long long>(TimelineRecorder::kTraceCap) - 1);
}

// ---- Checkpoint-state round trip -------------------------------------------

namespace {

/// Feed a recorder a deterministic mixed sequence: shots, transitions,
/// a trace, slot folds — ending mid-epoch so the open partial epoch is
/// exercised by serialization.
void feed_sequence(TimelineRecorder& rec, int slots) {
  for (int s = 0; s < slots; ++s) {
    rec.record_shot(0, s % 2, 10 + 90 * s, s % 2 == 0);
    if (s == 1) rec.record_transition(0, 0, 1, "timeout_trip");
    if (s == 2) {
      ShotTrace t;
      t.g = s;
      t.queue_wait_us = 42;
      t.service_us = 1000;
      t.attempts.push_back({0, 1000});
      rec.record_trace(t);
    }
    rec.note_slot_folded({static_cast<long long>(s), 7});
  }
}

}  // namespace

TEST(TimelineState, RoundTripContinuesSeriesMidEpoch) {
  TimelineRecorder a;
  begin_tiny(a, 3);
  feed_sequence(a, 5);  // 1 closed epoch + 2 slots of the open one
  const std::string state = a.serialize_state();

  TimelineRecorder b;
  begin_tiny(b, 3);
  ASSERT_TRUE(b.restore_state(state));
  EXPECT_EQ(b.digest(), a.digest());
  // The restored snapshot is byte-identical, queue lanes included.
  EXPECT_EQ(obs::timeline_json(b.snapshot()),
            obs::timeline_json(a.snapshot()));
  // And both recorders continue identically past the restore point.
  feed_sequence(a, 4);
  feed_sequence(b, 4);
  EXPECT_EQ(b.digest(), a.digest());
  EXPECT_EQ(obs::timeline_json(b.snapshot()),
            obs::timeline_json(a.snapshot()));
}

TEST(TimelineState, RestoreRefusesKnobMismatchAndGarbage) {
  TimelineRecorder a;
  begin_tiny(a, 3);
  feed_sequence(a, 4);
  const std::string state = a.serialize_state();

  TimelineRecorder wrong_epoch;
  begin_tiny(wrong_epoch, 4);  // different bucketing
  EXPECT_FALSE(wrong_epoch.restore_state(state));

  TimelineRecorder wrong_ppm;
  begin_tiny(wrong_ppm, 3);
  wrong_ppm.set_trace_sample_ppm(1);
  EXPECT_FALSE(wrong_ppm.restore_state(state));

  TimelineRecorder ok;
  begin_tiny(ok, 3);
  EXPECT_FALSE(ok.restore_state("not json"));
  EXPECT_FALSE(ok.restore_state("{\"format\":\"bogus-v9\"}"));
  // A failed restore leaves the recorder usable.
  ASSERT_TRUE(ok.restore_state(state));
  EXPECT_EQ(ok.digest(), a.digest());
}

// ---- timeline.json codec + digest ------------------------------------------

TEST(TimelineReport, JsonRoundTripsByteExactly) {
  TimelineRecorder rec;
  begin_tiny(rec, 2);
  feed_sequence(rec, 5);
  TimelineDoc doc = rec.snapshot();
  doc.bench = "fig_test";
  const std::string json = obs::timeline_json(doc);

  TimelineDoc back;
  std::string error;
  ASSERT_TRUE(obs::parse_timeline(json, &back, &error)) << error;
  EXPECT_EQ(obs::timeline_json(back), json);
  EXPECT_EQ(obs::timeline_digest(back), obs::timeline_digest(doc));
  EXPECT_EQ(back.bench, "fig_test");
  EXPECT_EQ(back.epoch_slots, 2);
  ASSERT_EQ(back.epochs.size(), doc.epochs.size());
  EXPECT_EQ(back.epochs[0].queues[0].sum, doc.epochs[0].queues[0].sum);

  EXPECT_FALSE(obs::parse_timeline("{\"format\":\"bogus\"}", &back, &error));
  EXPECT_FALSE(obs::parse_timeline("nope", &back, &error));
}

TEST(TimelineReport, DigestIgnoresObservationalQueueLanes) {
  TimelineRecorder rec;
  begin_tiny(rec, 2);
  feed_sequence(rec, 4);
  TimelineDoc doc = rec.snapshot();
  const std::uint64_t before = obs::timeline_digest(doc);
  // Queue depths are wall-clock observations: perturbing them must not
  // move the digest...
  doc.epochs[0].queues[0].max += 100;
  doc.epochs[0].queues[1].sum += 1;
  EXPECT_EQ(obs::timeline_digest(doc), before);
  // ...but any deterministic surface does.
  doc.epochs[0].outcomes[0] += 1;
  EXPECT_NE(obs::timeline_digest(doc), before);
}

TEST(TimelineReport, HtmlEscapesHostileLabels) {
  TimelineDoc doc;
  doc.bench = "bench<script>alert(1)</script>";
  doc.epoch_slots = 2;
  doc.stages = {"\"><img src=x onerror=alert(2)>"};
  doc.classes = {"<script>alert(3)</script>"};
  doc.outcomes = {"ok"};
  TimelineEpoch e;
  e.index = 0;
  e.slots = 2;
  e.outcomes = {5};
  e.latency_hist.resize(1);
  e.census.assign(obs::kTimelineCensusStates, 0);
  e.queues.resize(1);
  doc.epochs.push_back(e);
  BreakerTransition tr;
  tr.cause = "<b>evil</b>";
  doc.transitions.push_back(tr);
  ShotTrace t;
  t.cls = 0;  // renders the hostile class label in the traces table
  doc.traces.push_back(t);

  const std::string html = obs::timeline_html(doc);
  EXPECT_EQ(html.find("<script>alert"), std::string::npos);
  EXPECT_EQ(html.find("<img src=x"), std::string::npos);
  EXPECT_EQ(html.find("<b>evil</b>"), std::string::npos);
  EXPECT_NE(html.find("&lt;script&gt;alert(3)&lt;/script&gt;"),
            std::string::npos);
  EXPECT_NE(html.find("&lt;img src=x onerror=alert(2)&gt;"),
            std::string::npos);
}

// ---- End-to-end determinism ------------------------------------------------

namespace {

/// The service-gate geometry from test_service.cpp, with a deliberately
/// small epoch so the 36-slot run closes several.
service::ServiceConfig timeline_gate_config() {
  service::ServiceConfig config;
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

/// Arm the timeline (5-slot epochs, generous trace sampling), reset the
/// service globals, run, and return the series digest.
std::uint64_t run_timeline_gate(Model& model,
                                const service::ServiceConfig& config) {
  auto& rec = TimelineRecorder::global();
  rec.clear();
  rec.set_epoch_slots(5);
  rec.set_trace_sample_ppm(100000);
  rec.set_enabled(true);
  obs::FaultLedger::global().clear();
  fault::FaultInjector::global().configure(config.plan);
  (void)service::run_fleet_service(model, config);
  fault::FaultInjector::global().reset();
  rec.set_enabled(false);
  return rec.digest();
}

}  // namespace

TEST(TimelineService, DigestInvariantAcrossThreadCounts) {
  Workspace ws;
  Model model = ws.fresh_model();
  service::ServiceConfig config = timeline_gate_config();
  config.threads = 1;
  const std::uint64_t one = run_timeline_gate(model, config);
  config.threads = 3;
  const std::uint64_t three = run_timeline_gate(model, config);
  EXPECT_EQ(one, three);
  EXPECT_NE(one, 0u);
  EXPECT_FALSE(TimelineRecorder::global().empty());
  TimelineRecorder::global().clear();
}

TEST(TimelineService, StopAndResumeContinuesSeriesExactly) {
  Workspace ws;
  Model model = ws.fresh_model();
  const std::string ckpt_path =
      testing::TempDir() + "/edgestab_timeline_resume.ckpt.json";

  service::ServiceConfig config = timeline_gate_config();
  const std::uint64_t reference = run_timeline_gate(model, config);

  // Stop after the second checkpoint: slot 14 is mid-epoch with the
  // 5-slot epochs run_timeline_gate arms, so the open partial epoch
  // rides through the checkpoint.
  service::ServiceConfig first_half = config;
  first_half.checkpoint_path = ckpt_path;
  first_half.checkpoint_every_slots = 7;
  first_half.stop_after_checkpoints = 2;
  (void)run_timeline_gate(model, first_half);

  service::ServiceConfig second_half = config;
  second_half.checkpoint_path = ckpt_path;
  second_half.checkpoint_every_slots = 7;
  second_half.resume = true;
  const std::uint64_t resumed = run_timeline_gate(model, second_half);
  EXPECT_EQ(resumed, reference);
  TimelineRecorder::global().clear();
  std::remove(ckpt_path.c_str());
}

TEST(TimelineService, ArmedResumeRefusesTimelineLessCheckpoint) {
  Workspace ws;
  Model model = ws.fresh_model();
  const std::string ckpt_path =
      testing::TempDir() + "/edgestab_timeline_unarmed.ckpt.json";

  // Cut a checkpoint with the timeline disarmed...
  service::ServiceConfig config = timeline_gate_config();
  config.checkpoint_path = ckpt_path;
  config.checkpoint_every_slots = 7;
  config.stop_after_checkpoints = 1;
  TimelineRecorder::global().set_enabled(false);
  obs::FaultLedger::global().clear();
  fault::FaultInjector::global().configure(config.plan);
  (void)service::run_fleet_service(model, config);
  fault::FaultInjector::global().reset();

  // ...then resuming WITH the timeline armed must refuse: the series
  // cannot be reconstructed for the already-folded half.
  service::ServiceConfig resume = config;
  resume.stop_after_checkpoints = 0;
  resume.resume = true;
  auto& rec = TimelineRecorder::global();
  rec.clear();
  rec.set_epoch_slots(5);
  rec.set_enabled(true);
  obs::FaultLedger::global().clear();
  fault::FaultInjector::global().configure(resume.plan);
  EXPECT_THROW(service::run_fleet_service(model, resume), CheckError);
  fault::FaultInjector::global().reset();
  rec.set_enabled(false);
  rec.clear();
  std::remove(ckpt_path.c_str());
}
