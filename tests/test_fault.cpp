// Tests for the fault-injection framework (src/fault) and the
// resilience policy built on it (src/core/resilience): plan parsing and
// validation, deterministic seed-derived fault draws, payload
// corruption bounds, retrying delivery, quarantine folding, fleet
// coverage accounting, and the instability metric over a degraded
// fleet — all against hand-computed expectations.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "codec/jpeg_like.h"
#include "core/instability.h"
#include "core/resilience.h"
#include "fault/fault.h"
#include "image/draw.h"
#include "obs/fault_ledger.h"
#include "util/check.h"

namespace edgestab {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::parse_fault_plan;
using obs::FaultEventKind;
using obs::FaultLedger;

// The injector and ledger are process-wide singletons; every test that
// arms them must disarm on the way out, pass or fail.
struct FaultEnvGuard {
  FaultEnvGuard() {
    FaultInjector::global().reset();
    FaultLedger::global().clear();
  }
  ~FaultEnvGuard() {
    FaultInjector::global().reset();
    FaultLedger::global().clear();
  }
};

ImageU8 test_image(int w = 32, int h = 24) {
  Image img(w, h, 3);
  fill_vertical_gradient(img, {0.6f, 0.5f, 0.4f}, {0.2f, 0.3f, 0.4f});
  paint_sdf(img, SdfCircle{w * 0.5f, h * 0.5f, w * 0.25f},
            {0.9f, 0.2f, 0.3f});
  return to_u8(img);
}

Capture test_capture() {
  JpegLikeCodec codec(80);
  Capture capture;
  capture.file = codec.encode(test_image());
  capture.format = ImageFormat::kJpegLike;
  capture.quality = 80;
  return capture;
}

// ---- FaultPlan parsing ------------------------------------------------------

TEST(FaultPlan, OffSpecsParseToInertPlans) {
  for (const char* spec : {"", "off", "none"}) {
    FaultPlan plan = parse_fault_plan(spec);
    EXPECT_FALSE(plan.any()) << "spec '" << spec << "'";
  }
}

TEST(FaultPlan, PresetsSetDocumentedRates) {
  FaultPlan moderate = parse_fault_plan("moderate");
  EXPECT_DOUBLE_EQ(moderate.dropout_rate, 0.05);
  EXPECT_DOUBLE_EQ(moderate.transient_rate, 0.05);
  EXPECT_DOUBLE_EQ(moderate.bitflip_rate, 0.05);
  EXPECT_DOUBLE_EQ(moderate.truncate_rate, 0.03);
  EXPECT_DOUBLE_EQ(moderate.straggler_rate, 0.10);
  EXPECT_DOUBLE_EQ(moderate.burst, 0.3);
  EXPECT_TRUE(moderate.any());

  FaultPlan light = parse_fault_plan("light");
  FaultPlan heavy = parse_fault_plan("heavy");
  EXPECT_LT(light.dropout_rate, moderate.dropout_rate);
  EXPECT_LT(moderate.dropout_rate, heavy.dropout_rate);
}

TEST(FaultPlan, PresetFirstWithOverrides) {
  FaultPlan plan = parse_fault_plan("moderate,dropout=0.2,attempts=5,seed=77");
  EXPECT_DOUBLE_EQ(plan.dropout_rate, 0.2);       // overridden
  EXPECT_DOUBLE_EQ(plan.transient_rate, 0.05);    // preset value kept
  EXPECT_EQ(plan.max_attempts, 5);
  EXPECT_EQ(plan.seed, 77u);
}

TEST(FaultPlan, KeyValueOnlySpec) {
  FaultPlan plan = parse_fault_plan(
      "bitflip=0.5,truncate=0.25,max_bitflips=3,straggler_ms=40,"
      "backoff_ms=2.5,quarantine_after=2");
  EXPECT_DOUBLE_EQ(plan.bitflip_rate, 0.5);
  EXPECT_DOUBLE_EQ(plan.truncate_rate, 0.25);
  EXPECT_EQ(plan.max_bitflips, 3);
  EXPECT_DOUBLE_EQ(plan.straggler_mean_ms, 40.0);
  EXPECT_DOUBLE_EQ(plan.backoff_base_ms, 2.5);
  EXPECT_EQ(plan.quarantine_after, 2);
  EXPECT_DOUBLE_EQ(plan.dropout_rate, 0.0);  // untouched defaults
}

TEST(FaultPlan, BadSpecsThrow) {
  EXPECT_THROW(parse_fault_plan("bogus"), CheckError);
  EXPECT_THROW(parse_fault_plan("dropout=notanumber"), CheckError);
  EXPECT_THROW(parse_fault_plan("dropout=1.5"), CheckError);
  EXPECT_THROW(parse_fault_plan("burst=-0.1"), CheckError);
  EXPECT_THROW(parse_fault_plan("attempts=0"), CheckError);
  EXPECT_THROW(parse_fault_plan("quarantine_after=0"), CheckError);
  EXPECT_THROW(parse_fault_plan("max_bitflips=0"), CheckError);
  EXPECT_THROW(parse_fault_plan("unknown_knob=1"), CheckError);
  // A preset is only legal as the first token.
  EXPECT_THROW(parse_fault_plan("dropout=0.1,moderate"), CheckError);
}

TEST(FaultPlan, DigestCoversEveryField) {
  FaultPlan a = parse_fault_plan("moderate");
  FaultPlan b = parse_fault_plan("moderate");
  EXPECT_EQ(a.digest(), b.digest());
  b.seed = a.seed + 1;
  EXPECT_NE(a.digest(), b.digest());
  FaultPlan c = parse_fault_plan("moderate,backoff_ms=11");
  EXPECT_NE(a.digest(), c.digest());
  EXPECT_FALSE(a.summary().empty());
}

// ---- FaultInjector ----------------------------------------------------------

TEST(FaultInjector, ConfigureArmsOnlyPlansWithRates) {
  FaultEnvGuard guard;
  auto& injector = FaultInjector::global();
  EXPECT_FALSE(injector.enabled());
  injector.configure(FaultPlan{});  // all-zero rates
  EXPECT_FALSE(injector.enabled());
  injector.configure(parse_fault_plan("moderate"));
  EXPECT_TRUE(injector.enabled());
  injector.reset();
  EXPECT_FALSE(injector.enabled());
  EXPECT_FALSE(injector.plan().any());
}

TEST(FaultInjector, DrawsAreDeterministicAndRateFaithful) {
  FaultEnvGuard guard;
  auto& injector = FaultInjector::global();

  injector.configure(parse_fault_plan("dropout=1"));
  EXPECT_TRUE(injector.capture_dropout(3, 5, 1));
  injector.configure(parse_fault_plan("dropout=0.5,transient=0.5"));
  int drops = 0;
  for (int item = 0; item < 64; ++item) {
    const bool first = injector.capture_dropout(3, item, 0);
    EXPECT_EQ(first, injector.capture_dropout(3, item, 0)) << item;
    if (first) ++drops;
  }
  // At rate 0.5 (plus burst-free correlation) a 64-draw schedule that is
  // all-drop or no-drop would mean the draw ignores its coordinates.
  EXPECT_GT(drops, 0);
  EXPECT_LT(drops, 64);

  // Every coordinate (device, item, shot, attempt) keys its own stream.
  bool device_matters = false;
  bool shot_matters = false;
  for (int item = 0; item < 64; ++item) {
    if (injector.capture_dropout(3, item, 0) !=
        injector.capture_dropout(4, item, 0))
      device_matters = true;
    if (injector.transient_failure(3, item, 0, 0) !=
        injector.transient_failure(3, item, 1, 0))
      shot_matters = true;
  }
  EXPECT_TRUE(device_matters);
  EXPECT_TRUE(shot_matters);
}

TEST(FaultInjector, CorruptPayloadIsDeterministicAndBounded) {
  FaultEnvGuard guard;
  auto& injector = FaultInjector::global();
  injector.configure(parse_fault_plan("bitflip=1,truncate=1,max_bitflips=4"));

  Bytes clean(256);
  for (std::size_t i = 0; i < clean.size(); ++i)
    clean[i] = static_cast<std::uint8_t>(i);

  Bytes once = clean;
  fault::PayloadFaults pf1 = injector.corrupt_payload(once, 2, 7, 1, 0);
  Bytes again = clean;
  fault::PayloadFaults pf2 = injector.corrupt_payload(again, 2, 7, 1, 0);
  EXPECT_EQ(once, again);
  EXPECT_EQ(pf1.bit_flips, pf2.bit_flips);
  EXPECT_EQ(pf1.truncated_bytes, pf2.truncated_bytes);

  EXPECT_TRUE(pf1.any());
  EXPECT_GE(pf1.truncated_bytes, 1u);  // truncate=1 always loses a tail
  EXPECT_LE(once.size(), clean.size());
  EXPECT_LE(pf1.bit_flips, 4);

  // A retry re-draws: some attempt within the budget must corrupt
  // differently, or retransmission could never help.
  Bytes retry = clean;
  fault::PayloadFaults pf3 = injector.corrupt_payload(retry, 2, 7, 1, 1);
  EXPECT_TRUE(retry != once || pf3.truncated_bytes != pf1.truncated_bytes ||
              pf3.bit_flips != pf1.bit_flips);

  // An empty payload (dropout) has nothing to corrupt.
  Bytes empty;
  fault::PayloadFaults pf4 = injector.corrupt_payload(empty, 2, 7, 1, 0);
  EXPECT_FALSE(pf4.any());
}

TEST(FaultInjector, BackoffDoublesPerAttempt) {
  FaultEnvGuard guard;
  auto& injector = FaultInjector::global();
  injector.configure(parse_fault_plan("transient=0.5,backoff_ms=10"));
  EXPECT_DOUBLE_EQ(injector.backoff_ms(0), 10.0);
  EXPECT_DOUBLE_EQ(injector.backoff_ms(1), 20.0);
  EXPECT_DOUBLE_EQ(injector.backoff_ms(2), 40.0);
  EXPECT_DOUBLE_EQ(injector.backoff_ms(3), 80.0);
}

TEST(FaultInjector, StragglerDelaysAreDeterministicAndPositive) {
  FaultEnvGuard guard;
  auto& injector = FaultInjector::global();
  injector.configure(parse_fault_plan("straggler=1,straggler_ms=100"));
  const double d1 = injector.straggler_delay_ms(0, 0, 0);
  EXPECT_GT(d1, 0.0);
  EXPECT_DOUBLE_EQ(d1, injector.straggler_delay_ms(0, 0, 0));
  injector.configure(parse_fault_plan("dropout=0.5"));  // straggler off
  EXPECT_DOUBLE_EQ(injector.straggler_delay_ms(0, 0, 0), 0.0);
}

// ---- deliver_shot -----------------------------------------------------------

TEST(DeliverShot, CleanPathMatchesAbortingDecode) {
  FaultEnvGuard guard;
  Capture capture = test_capture();
  ShotDelivery d = deliver_shot("test_clean", capture, 0, 11, 0, 0);
  ASSERT_TRUE(d.usable);
  EXPECT_EQ(d.attempts, 1);
  EXPECT_DOUBLE_EQ(d.delay_ms, 0.0);
  EXPECT_EQ(d.image, decode_capture(capture, {}));
  EXPECT_TRUE(FaultLedger::global().empty());
}

TEST(DeliverShot, FaultedDeliveryIsDeterministicAndAccounted) {
  FaultEnvGuard guard;
  FaultInjector::global().configure(parse_fault_plan(
      "bitflip=1,truncate=1,max_bitflips=64,attempts=2,straggler=1"));
  Capture capture = test_capture();

  int lost = 0;
  int usable = 0;
  for (int item = 0; item < 40; ++item) {
    ShotDelivery d = deliver_shot("test_faulted", capture, 0, 11, item, 0);
    ShotDelivery d2 = deliver_shot("repeat_run", capture, 0, 11, item, 0);
    EXPECT_EQ(d.usable, d2.usable) << item;
    EXPECT_EQ(d.attempts, d2.attempts) << item;
    EXPECT_DOUBLE_EQ(d.delay_ms, d2.delay_ms);
    EXPECT_EQ(d.image, d2.image) << item;
    EXPECT_GE(d.attempts, 1);
    EXPECT_LE(d.attempts, 2);
    EXPECT_GT(d.delay_ms, 0.0);  // straggler=1 always stalls
    d.usable ? ++usable : ++lost;
  }
  // Always-truncate against a 2-attempt budget must lose some shots;
  // a truncation that only nibbles the tail can still decode, so some
  // survive too (the corrupt-but-decodable path).
  EXPECT_GT(lost, 0);

  auto group = FaultLedger::global().find_group("test_faulted");
  ASSERT_TRUE(group.has_value());
  EXPECT_EQ(group->shots_lost, lost);
  EXPECT_EQ(group->events_by_kind[static_cast<int>(FaultEventKind::kShotLost)],
            lost);
  // A retry happens exactly when attempt 0's decode failed; a lost shot
  // adds a second decode failure with no further retry (attempts=2), so
  // retries = decode failures - lost.
  EXPECT_EQ(group->events_by_kind[static_cast<int>(FaultEventKind::kRetry)],
            group->events_by_kind[static_cast<int>(
                FaultEventKind::kDecodeFailure)] -
                lost);
  EXPECT_EQ(
      group->events_by_kind[static_cast<int>(FaultEventKind::kStragglerDelay)],
      40);
  ASSERT_EQ(group->devices.size(), 1u);
  EXPECT_EQ(group->devices[0].shots_lost, lost);
  EXPECT_GT(group->devices[0].payload_truncations, 0);
  EXPECT_GT(group->devices[0].total_delay_ms, 0.0);

  // The two identically-faulted groups tally identically.
  auto repeat = FaultLedger::global().find_group("repeat_run");
  ASSERT_TRUE(repeat.has_value());
  EXPECT_EQ(repeat->shots_lost, group->shots_lost);
  EXPECT_EQ(repeat->total_events, group->total_events);
  EXPECT_EQ(repeat->events_by_kind, group->events_by_kind);
}

// ---- Quarantine + coverage, hand-computed -----------------------------------

TEST(Quarantine, FoldQuarantinesAfterKConsecutiveLosses) {
  FaultEnvGuard guard;
  // 2 devices x 6 slots. Device 0 clean; device 1 loses slots 2 and 3.
  std::vector<unsigned char> usable = {
      1, 1, 1, 1, 1, 1,  // device 0
      1, 1, 0, 0, 1, 1,  // device 1
  };
  QuarantineDecision q = quarantine_fold("test_quarantine", 2, 6, usable,
                                         /*quarantine_after=*/2,
                                         /*slots_per_item=*/2);
  EXPECT_EQ(q.quarantined_devices, 1);
  EXPECT_EQ(q.quarantined_from[0], -1);
  // Second consecutive loss lands on slot 3 -> quarantined from slot 4.
  EXPECT_EQ(q.quarantined_from[1], 4);
  EXPECT_FALSE(q.excluded(0, 5));
  EXPECT_FALSE(q.excluded(1, 3));
  EXPECT_TRUE(q.excluded(1, 4));
  EXPECT_TRUE(q.excluded(1, 5));

  auto group = FaultLedger::global().find_group("test_quarantine");
  ASSERT_TRUE(group.has_value());
  ASSERT_EQ(group->entries.size(), 1u);
  EXPECT_EQ(group->entries[0].kind, FaultEventKind::kQuarantine);
  EXPECT_EQ(group->entries[0].device, 1);
  EXPECT_EQ(group->entries[0].item, 2);  // slot 4 / 2 slots per item
  EXPECT_DOUBLE_EQ(group->entries[0].detail, 2.0);
  EXPECT_EQ(group->quarantined_devices, 1);
}

TEST(Quarantine, SuccessResetsTheConsecutiveCounter) {
  std::vector<unsigned char> usable = {0, 1, 0, 1, 0, 1};  // alternating
  QuarantineDecision q = quarantine_fold("unused", 1, 6, usable,
                                         /*quarantine_after=*/2,
                                         /*slots_per_item=*/1,
                                         /*record=*/false);
  EXPECT_EQ(q.quarantined_devices, 0);
  EXPECT_EQ(q.quarantined_from[0], -1);
}

TEST(Quarantine, NonPositiveKDisablesTheFold) {
  std::vector<unsigned char> usable(8, 0);  // every shot lost
  QuarantineDecision q = quarantine_fold("unused", 1, 8, usable,
                                         /*quarantine_after=*/0,
                                         /*slots_per_item=*/1,
                                         /*record=*/false);
  EXPECT_EQ(q.quarantined_devices, 0);
  EXPECT_EQ(q.quarantined_from[0], -1);
}

TEST(Coverage, TallyMatchesHandComputedScenario) {
  FaultEnvGuard guard;
  // 2 devices, 3 items, 2 slots per item (slot 0 of each item feeds the
  // cross-environment observations). Device 1 loses item 1 entirely and
  // is quarantined from item 2 onward.
  std::vector<unsigned char> usable = {
      1, 1, 1, 1, 1, 1,  // device 0
      1, 1, 0, 0, 1, 1,  // device 1
  };
  QuarantineDecision q = quarantine_fold("cov", 2, 6, usable, 2, 2,
                                         /*record=*/false);
  FleetResilienceStats s = tally_fleet_coverage(2, 3, 2, usable, q);

  EXPECT_EQ(s.device_count, 2);
  EXPECT_EQ(s.item_count, 3);
  EXPECT_EQ(s.total_shots, 12);
  EXPECT_EQ(s.shots_lost, 2);      // device 1 slots 2, 3
  EXPECT_EQ(s.shots_excluded, 2);  // device 1 slots 4, 5 (usable, discarded)
  EXPECT_EQ(s.quarantined_devices, 1);
  ASSERT_EQ(s.quarantined_from_item.size(), 2u);
  EXPECT_EQ(s.quarantined_from_item[0], -1);
  EXPECT_EQ(s.quarantined_from_item[1], 2);
  ASSERT_EQ(s.usable_shots_by_device.size(), 2u);
  EXPECT_EQ(s.usable_shots_by_device[0], 6);
  EXPECT_EQ(s.usable_shots_by_device[1], 2);
  // Item 0 seen by both devices; items 1 and 2 by device 0 only.
  ASSERT_EQ(s.coverage_histogram.size(), 3u);
  EXPECT_EQ(s.coverage_histogram[0], 0);
  EXPECT_EQ(s.coverage_histogram[1], 2);
  EXPECT_EQ(s.coverage_histogram[2], 1);
  EXPECT_EQ(s.items_fully_covered, 1);
  EXPECT_EQ(s.items_degraded, 2);
  EXPECT_EQ(s.items_lost, 0);
  EXPECT_DOUBLE_EQ(s.mean_coverage, 4.0 / 3.0);
}

TEST(Coverage, AllLostFleetIsAccountedNotCrashed) {
  std::vector<unsigned char> usable(6, 0);  // 2 devices x 3 slots, all lost
  QuarantineDecision q = quarantine_fold("cov0", 2, 3, usable, 2, 1,
                                         /*record=*/false);
  FleetResilienceStats s = tally_fleet_coverage(2, 3, 1, usable, q);
  EXPECT_EQ(s.shots_lost, 6);
  EXPECT_EQ(s.items_lost, 3);
  EXPECT_EQ(s.items_fully_covered, 0);
  EXPECT_DOUBLE_EQ(s.mean_coverage, 0.0);
  EXPECT_EQ(s.coverage_histogram[0], 3);
}

// ---- Instability over a degraded fleet --------------------------------------

Observation obs_of(int item, int env, bool correct) {
  Observation o;
  o.item = item;
  o.env = env;
  o.correct = correct;
  o.predicted = correct ? 1 : 2;
  o.confidence = 0.5;
  return o;
}

TEST(DegradedFleet, InstabilityMatchesHandComputedValues) {
  // Full fleet: 3 environments x 4 items. Env 2 disagrees on item 0.
  std::vector<Observation> full = {
      obs_of(0, 0, true),  obs_of(0, 1, true),  obs_of(0, 2, false),
      obs_of(1, 0, true),  obs_of(1, 1, false), obs_of(1, 2, true),
      obs_of(2, 0, false), obs_of(2, 1, false), obs_of(2, 2, false),
      obs_of(3, 0, false), obs_of(3, 1, true),  obs_of(3, 2, true),
  };
  InstabilityResult all = compute_instability(full);
  EXPECT_EQ(all.total_items, 4);
  EXPECT_EQ(all.unstable_items, 3);  // items 0, 1, 3
  EXPECT_EQ(all.all_correct_items, 0);
  EXPECT_EQ(all.all_incorrect_items, 1);  // item 2
  EXPECT_DOUBLE_EQ(all.instability(), 0.75);

  // Quarantining env 2 removes its observations: item 0 becomes stable
  // (both survivors agree correctly), the rest keep their verdicts. The
  // metric must keep working on the degraded fleet and the numbers must
  // shift exactly as computed by hand.
  std::vector<Observation> degraded;
  for (const Observation& o : full)
    if (o.env != 2) degraded.push_back(o);
  InstabilityResult deg = compute_instability(degraded);
  EXPECT_EQ(deg.total_items, 4);
  EXPECT_EQ(deg.unstable_items, 2);  // items 1, 3
  EXPECT_EQ(deg.all_correct_items, 1);  // item 0
  EXPECT_EQ(deg.all_incorrect_items, 1);
  EXPECT_DOUBLE_EQ(deg.instability(), 0.5);

  // A fully lost item drops every environment: observed by fewer than 2
  // envs -> skipped entirely, shrinking the denominator.
  std::vector<Observation> item3_lost;
  for (const Observation& o : degraded)
    if (o.item != 3) item3_lost.push_back(o);
  InstabilityResult partial = compute_instability(item3_lost);
  EXPECT_EQ(partial.total_items, 3);
  EXPECT_EQ(partial.unstable_items, 1);
  EXPECT_DOUBLE_EQ(partial.instability(), 1.0 / 3.0);
}

}  // namespace
}  // namespace edgestab
