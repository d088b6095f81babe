#include "data/lab_rig.h"

#include <algorithm>
#include <atomic>
#include <string>

#include "data/labels.h"
#include "fault/fault.h"
#include "obs/drift.h"
#include "obs/fault_ledger.h"
#include "obs/obs.h"
#include "obs/telemetry/telemetry.h"
#include "runtime/parallel.h"
#include "runtime/seed.h"
#include "util/hashing.h"

namespace edgestab {

namespace {

/// Capture-site fault injection for one (phone, stimulus, shot). A
/// dropout loses the frame outright (not retryable — the emission has
/// moved on); a transient device failure is retried up to the plan's
/// attempt budget with recorded (never slept) backoff. Every decision is
/// a pure function of the fault seed and the shot coordinates, so the
/// schedule is identical at any thread count. Marks `record` dropped
/// when the shot is lost and files the receipts with the fault ledger.
void inject_capture_faults(const std::string& group,
                           const PhoneProfile& phone, int device,
                           std::size_t stimulus, std::size_t shot,
                           LabShot& record) {
  const auto& injector = fault::FaultInjector::global();
  if (!injector.enabled()) return;

  using obs::FaultEvent;
  using obs::FaultEventKind;
  auto& ledger = obs::FaultLedger::global();
  const int item = static_cast<int>(stimulus);
  const int rep = static_cast<int>(shot);

  if (injector.capture_dropout(phone.noise_stream, stimulus, shot)) {
    record.dropped = true;
    ledger.record(group, FaultEvent{FaultEventKind::kCaptureDropout, device,
                                    item, rep, 0, false, 0.0});
    ledger.record(group, FaultEvent{FaultEventKind::kShotLost, device, item,
                                    rep, 0, false, 1.0});
    if (obs::telemetry_enabled()) {
      obs::DeviceHealthRegistry::global().record_capture_loss(device, item,
                                                              rep, 0);
    }
    return;
  }

  const int max_attempts = std::max(1, injector.plan().max_attempts);
  std::vector<FaultEvent> events;
  int attempt = 0;
  while (attempt < max_attempts &&
         injector.transient_failure(phone.noise_stream, stimulus, shot,
                                    attempt)) {
    events.push_back(FaultEvent{FaultEventKind::kTransientFailure, device,
                                item, rep, attempt, false, 0.0});
    ++attempt;
    if (attempt < max_attempts)
      events.push_back(FaultEvent{FaultEventKind::kRetry, device, item, rep,
                                  attempt, false,
                                  injector.backoff_ms(attempt)});
  }
  const bool recovered = attempt < max_attempts;
  record.capture_attempts = recovered ? attempt + 1 : attempt;
  if (!recovered) {
    record.dropped = true;
    events.push_back(FaultEvent{FaultEventKind::kShotLost, device, item, rep,
                                attempt - 1, false,
                                static_cast<double>(attempt)});
  }
  for (FaultEvent& e : events) {
    if (e.kind != FaultEventKind::kShotLost) e.recovered = recovered;
    ledger.record(group, e);
  }
  if (obs::telemetry_enabled()) {
    auto& registry = obs::DeviceHealthRegistry::global();
    if (recovered) {
      // The shot itself is counted when delivery records it; only the
      // capture retries land here.
      registry.record_retries(device, item, attempt);
    } else {
      registry.record_capture_loss(device, item, rep, attempt - 1);
    }
  }
}

}  // namespace

namespace {
std::atomic<int> rig_run_counter{0};
}  // namespace

void reset_rig_run_counter() {
  rig_run_counter.store(0, std::memory_order_relaxed);
}

LabRun run_lab_rig(const std::vector<PhoneProfile>& fleet,
                   const LabRigConfig& config) {
  ES_TRACE_SCOPE("rig", "run_lab_rig");
  ES_CHECK(!fleet.empty());
  ES_CHECK(config.objects_per_class > 0);
  ES_CHECK(!config.angles.empty());
  ES_CHECK(config.shots_per_stimulus >= 1);

  // Group name for this rig run, shared by the drift auditor and the
  // fault ledger. A process can run the rig more than once (end-to-end
  // rig, then the raw bank's rig); stimulus ids restart from 0 each
  // time, so each run gets its own group name to keep reference
  // artifacts (and fault tallies) from colliding. The counter advances
  // unconditionally so group names agree whether or not drift auditing
  // is enabled. The string outlives every scope below.
  const int rig_run = rig_run_counter.fetch_add(1, std::memory_order_relaxed);
  const std::string group =
      rig_run == 0 ? "capture" : "capture#" + std::to_string(rig_run);
  if (obs::drift_enabled()) {
    for (std::size_t p = 0; p < fleet.size(); ++p)
      obs::DriftAuditor::global().set_env_label(
          group, static_cast<int>(p), fleet[p].name);
  }

  LabRun run;
  run.angle_count = static_cast<int>(config.angles.size());
  run.phone_count = static_cast<int>(fleet.size());

  // Object list: objects_per_class instances of each target class.
  std::vector<SceneSpec> objects;
  for (int cls : target_classes()) {
    for (int i = 0; i < config.objects_per_class; ++i) {
      SceneSpec spec;
      spec.class_id = cls;
      spec.instance_seed =
          config.seed * 131 + static_cast<std::uint64_t>(i);
      objects.push_back(spec);
      run.object_class.push_back(cls);
    }
  }

  // The stimulus grid fans out across the thread pool, one lane per
  // (object, angle) stimulus: render + display once, then every phone
  // photographs the emission. Each (phone, stimulus, shot) draws its
  // temporal noise from a counter-derived stream, so a capture's bits
  // depend only on the rig seed and its coordinates — never on which
  // lane produced it or in what order.
  //
  // Phones (the drift-audit environments) stay serial *within* a
  // stimulus: the auditor's reference is the first environment to tap an
  // item, which must be the same phone at every thread count.
  const std::size_t phones = fleet.size();
  const auto shots_per =
      static_cast<std::size_t>(config.shots_per_stimulus);
  const std::size_t stimuli =
      objects.size() * static_cast<std::size_t>(run.angle_count);
  run.shots.resize(stimuli * phones * shots_per);

  runtime::parallel_for(
      stimuli,
      [&](std::size_t s) {
        const std::size_t obj =
            s / static_cast<std::size_t>(run.angle_count);
        const int a =
            static_cast<int>(s % static_cast<std::size_t>(run.angle_count));
        SceneSpec spec = objects[obj];
        spec.view_angle = config.angles[static_cast<std::size_t>(a)];
        Image scene = render_scene(spec, config.scene_size);
        Image emission = display_on_screen(scene, config.screen);

        for (std::size_t p = 0; p < phones; ++p) {
          // The mount warp is noise-free: frame once, shoot shots_per.
          const Image framed = frame_emission(fleet[p], emission);
          for (std::size_t shot = 0; shot < shots_per; ++shot) {
            LabShot record;
            record.object_index = static_cast<int>(obj);
            record.class_id = spec.class_id;
            record.angle_index = a;
            record.phone_index = static_cast<int>(p);
            record.repeat = static_cast<int>(shot);
            inject_capture_faults(group, fleet[p], static_cast<int>(p), s,
                                  shot, record);
            if (!record.dropped) {
              // A surviving capture draws the same noise stream as a
              // clean run, so its pixels are bit-identical whether or
              // not faults were armed around it.
              Pcg32 rng = runtime::derive_rng(
                  config.seed, fleet[p].noise_stream, s, shot);
              if (obs::drift_enabled() && shot == 0) {
                // First shot of each stimulus: audit every ISP stage
                // inside the capture against the first phone's artifacts.
                ES_DRIFT_SCOPE(group.c_str(), static_cast<int>(s),
                               static_cast<int>(p));
                record.capture = take_framed_photo(fleet[p], framed, rng);
              } else {
                record.capture = take_framed_photo(fleet[p], framed, rng);
              }
            }
            run.shots[(s * phones + p) * shots_per + shot] =
                std::move(record);
          }
        }
      },
      /*grain=*/1);
  return run;
}

std::uint64_t rig_digest(const LabRigConfig& config) {
  Fingerprint fp;
  fp.add("lab-rig-v1");
  fp.add(config.objects_per_class).add(config.scene_size);
  fp.add(static_cast<double>(config.screen.backlight))
      .add(static_cast<double>(config.screen.black_level));
  for (float w : config.screen.white_point) fp.add(static_cast<double>(w));
  fp.add(static_cast<double>(config.screen.pixel_grid))
      .add(config.screen.output_scale);
  for (float a : config.angles) fp.add(static_cast<double>(a));
  fp.add(config.seed).add(config.shots_per_stimulus);
  return fp.value();
}

}  // namespace edgestab
