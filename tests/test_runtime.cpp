// Tests for the parallel runtime (src/runtime): pool and loop
// semantics, per-item seed derivation, model cloning for per-worker
// inference, and the determinism contract end to end — the same lab-rig
// experiment must produce bit-identical instability numbers,
// flip-ledger digests and drift summaries at 1, 2 and 8 lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "data/lab_rig.h"
#include "device/fleets.h"
#include "fault/fault.h"
#include "nn/mobilenet.h"
#include "nn/model.h"
#include "obs/drift.h"
#include "obs/fault_ledger.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "runtime/seed.h"
#include "runtime/thread_pool.h"
#include "tensor/backend.h"
#include "tensor/tensor.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace edgestab {
namespace {

// Restores the global pool width on scope exit so one test's resize (or
// a failed assertion mid-resize) never leaks lanes into the next test.
class PoolWidthGuard {
 public:
  PoolWidthGuard() : saved_(runtime::ThreadPool::global().threads()) {}
  ~PoolWidthGuard() { runtime::ThreadPool::set_global_threads(saved_); }

 private:
  int saved_;
};

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, ClampsLaneCountToAtLeastOne) {
  runtime::ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1);
  runtime::ThreadPool negative(-4);
  EXPECT_EQ(negative.threads(), 1);
}

TEST(ThreadPool, SetGlobalThreadsResizes) {
  PoolWidthGuard guard;
  runtime::ThreadPool::set_global_threads(3);
  EXPECT_EQ(runtime::ThreadPool::global().threads(), 3);
  runtime::ThreadPool::set_global_threads(1);
  EXPECT_EQ(runtime::ThreadPool::global().threads(), 1);
}

TEST(ThreadPool, ChunksPartitionTheRange) {
  runtime::ThreadPool pool(4);
  const std::size_t n = 23;
  const std::size_t grain = 5;  // 23 = 4*5 + 3: forces a remainder chunk
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.run_chunks(n, grain, [&](std::size_t begin, std::size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(begin, end);
  });
  std::sort(chunks.begin(), chunks.end());
  std::size_t expect_begin = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_EQ(begin, expect_begin);
    EXPECT_GT(end, begin);
    EXPECT_LE(end - begin, grain);
    expect_begin = end;
  }
  EXPECT_EQ(expect_begin, n);
}

// ---- parallel_for / parallel_for_2d / parallel_map --------------------------

TEST(ParallelFor, EmptyRangeNeverInvokesBody) {
  PoolWidthGuard guard;
  runtime::ThreadPool::set_global_threads(4);
  std::atomic<int> calls{0};
  runtime::parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  PoolWidthGuard guard;
  runtime::ThreadPool::set_global_threads(4);
  const std::size_t n = 1003;  // deliberately not a multiple of any grain
  std::vector<int> hits(n, 0);
  runtime::parallel_for(
      n, [&](std::size_t i) { ++hits[i]; }, /*grain=*/7);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelFor, SingleLanePoolRunsInline) {
  PoolWidthGuard guard;
  runtime::ThreadPool::set_global_threads(1);
  std::vector<int> hits(17, 0);
  runtime::parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, FirstExceptionPropagatesAndPoolSurvives) {
  PoolWidthGuard guard;
  runtime::ThreadPool::set_global_threads(4);
  EXPECT_THROW(
      runtime::parallel_for(
          100,
          [&](std::size_t i) {
            if (i == 37) throw std::runtime_error("boom at 37");
          },
          /*grain=*/3),
      std::runtime_error);
  // The pool must stay fully usable after an exceptional region.
  std::atomic<std::size_t> sum{0};
  runtime::parallel_for(10, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45u);
}

TEST(ParallelFor, NestedRegionsRunInlineWithoutDeadlock) {
  PoolWidthGuard guard;
  runtime::ThreadPool::set_global_threads(4);
  std::atomic<int> total{0};
  runtime::parallel_for(
      8,
      [&](std::size_t) {
        runtime::parallel_for(16,
                              [&](std::size_t) { total.fetch_add(1); });
      },
      /*grain=*/1);
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ParallelFor2D, CoversTheGridRowMajor) {
  PoolWidthGuard guard;
  runtime::ThreadPool::set_global_threads(4);
  const std::size_t rows = 7, cols = 5;
  std::vector<int> hits(rows * cols, 0);
  runtime::parallel_for_2d(rows, cols, [&](std::size_t r, std::size_t c) {
    ++hits[r * cols + c];
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i], 1) << "cell " << i;
  std::atomic<int> calls{0};
  runtime::parallel_for_2d(0, 9, [&](std::size_t, std::size_t) {
    calls.fetch_add(1);
  });
  runtime::parallel_for_2d(9, 0, [&](std::size_t, std::size_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelMap, ResultsLandInIndexOrder) {
  PoolWidthGuard guard;
  runtime::ThreadPool::set_global_threads(4);
  auto squares = runtime::parallel_map<std::uint64_t>(
      257, [](std::size_t i) { return static_cast<std::uint64_t>(i) * i; },
      /*grain=*/3);
  ASSERT_EQ(squares.size(), 257u);
  for (std::size_t i = 0; i < squares.size(); ++i)
    EXPECT_EQ(squares[i], static_cast<std::uint64_t>(i) * i);
}

// ---- Per-item seed derivation ----------------------------------------------

TEST(Seed, DerivationIsStableAndCoordinateSensitive) {
  // Same coordinates -> same seed, regardless of call site or timing.
  EXPECT_EQ(runtime::derive_seed(42u, 1, 2, 3),
            runtime::derive_seed(42u, 1, 2, 3));
  // Each coordinate matters, including trailing ones.
  std::set<std::uint64_t> seeds;
  seeds.insert(runtime::derive_seed(42u, 1, 2, 3));
  seeds.insert(runtime::derive_seed(42u, 1, 2, 4));
  seeds.insert(runtime::derive_seed(42u, 1, 3, 3));
  seeds.insert(runtime::derive_seed(42u, 2, 2, 3));
  seeds.insert(runtime::derive_seed(43u, 1, 2, 3));
  EXPECT_EQ(seeds.size(), 5u);
  // Coordinate order matters: (1,2) and (2,1) are different items.
  EXPECT_NE(runtime::derive_seed(42u, 1, 2), runtime::derive_seed(42u, 2, 1));
}

TEST(Seed, DerivedStreamsAreReproducibleAndDistinct) {
  Pcg32 a = runtime::derive_rng(7u, 3, 0);
  Pcg32 a_again = runtime::derive_rng(7u, 3, 0);
  Pcg32 b = runtime::derive_rng(7u, 3, 1);
  bool any_differs = false;
  for (int i = 0; i < 16; ++i) {
    std::uint32_t va = a.next_u32();
    EXPECT_EQ(va, a_again.next_u32());
    if (va != b.next_u32()) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

// ---- Model cloning ----------------------------------------------------------

TEST(ModelClone, ForwardsIdenticallyAndIsIndependent) {
  MobileNetConfig config;
  Model model = build_mini_mobilenet_v2(config);
  Pcg32 rng(21, 5);
  model.init(rng);

  Tensor input({2, 3, config.input_size, config.input_size});
  Pcg32 noise(9, 2);
  for (float& v : input.data())
    v = static_cast<float>(noise.uniform(-0.5, 0.5));

  Model copy = model.clone();
  Tensor out_orig = model.forward(input);
  Tensor out_copy = copy.forward(input);
  ASSERT_EQ(out_orig.shape(), out_copy.shape());
  for (std::size_t i = 0; i < out_orig.numel(); ++i)
    ASSERT_EQ(out_orig[i], out_copy[i]) << "logit " << i;

  // The clone owns its parameters: perturbing them must not leak back.
  for (Param* p : copy.params())
    for (float& v : p->value.data()) v += 0.25f;
  Tensor out_after = model.forward(input);
  for (std::size_t i = 0; i < out_orig.numel(); ++i)
    ASSERT_EQ(out_orig[i], out_after[i]) << "logit " << i;
}

// ---- End-to-end determinism across lane counts ------------------------------

struct EndToEndDigests {
  std::uint64_t observations = 0;
  std::uint64_t ledger = 0;
  std::uint64_t drift = 0;
  std::uint64_t faults = 0;      ///< fault-ledger fingerprint (0 clean)
  std::uint64_t resilience = 0;  ///< coverage/quarantine fingerprint
  int shots_lost = 0;
  std::size_t spans = 0;  ///< tracer events visible to the calling thread
};

// The lab rig names each run's drift group "capture", "capture#1", ...
// so repeated runs in one process don't collide; strip the run suffix
// when fingerprinting so the three fixture runs compare group-for-group.
std::string base_group(const std::string& group) {
  return group.substr(0, group.find('#'));
}

// One smoke-size end-to-end run (untrained mini model, 3 phones,
// 2 angles x 2 shots) at the given lane count, reduced to fingerprints
// of everything the paper's tables are built from. When `faulted`, the
// run executes under an aggressive fault plan — the fault schedule and
// the resulting retries / quarantines / coverage accounting must be
// just as lane-count-invariant as the clean numbers. `observed` arms the
// drift auditor and the tracer, as bench::Run does; unobserved runs leave
// the drift digests at 0.
EndToEndDigests run_fixture(int threads, bool faulted = false,
                            bool observed = true) {
  runtime::ThreadPool::set_global_threads(threads);
  auto& auditor = obs::DriftAuditor::global();
  auto& tracer = obs::Tracer::global();
  auditor.clear();
  auditor.set_enabled(observed);
  tracer.clear();
  tracer.set_enabled(observed);
  obs::FaultLedger::global().clear();
  if (faulted) {
    fault::FaultInjector::global().configure(fault::parse_fault_plan(
        "dropout=0.1,transient=0.1,bitflip=0.2,truncate=0.1,"
        "straggler=0.2,burst=0.4,attempts=2,quarantine_after=2"));
  }

  MobileNetConfig config;
  Model model = build_mini_mobilenet_v2(config);
  Pcg32 rng(7, 11);
  model.init(rng);

  LabRigConfig rig;
  rig.objects_per_class = 1;
  rig.angles = {-0.5f, 0.5f};
  rig.shots_per_stimulus = 2;
  rig.seed = 99;
  std::vector<PhoneProfile> fleet = end_to_end_fleet();
  if (fleet.size() > 3) fleet.resize(3);

  EndToEndResult result = run_end_to_end(model, fleet, rig);

  EndToEndDigests d;
  Fingerprint obs_fp;
  for (const Observation& o : result.observations)
    obs_fp.add(o.item)
        .add(o.env)
        .add(o.predicted)
        .add(o.correct ? 1 : 0)
        .add(o.confidence);
  obs_fp.add(result.overall.total_items).add(result.overall.unstable_items);
  for (double acc : result.accuracy_by_phone) obs_fp.add(acc);
  for (double wp : result.within_phone_instability) obs_fp.add(wp);
  d.observations = obs_fp.value();

  tracer.set_enabled(false);
  d.spans = tracer.size();
  tracer.clear();
  if (observed) {
    d.ledger = auditor.ledger().digest();
    Fingerprint drift_fp;
    for (const auto& s : auditor.stage_summaries())
      drift_fp.add(base_group(s.group))
          .add(s.stage)
          .add(s.psnr_db.count)
          .add(s.psnr_db.sum)
          .add(s.psnr_db.min)
          .add(s.psnr_db.max)
          .add(s.ssim.sum)
          .add(s.channel_mean_delta.sum)
          .add(s.channel_var_delta.sum)
          .add(s.identical_pairs);
    for (const auto& s : auditor.logit_summaries())
      drift_fp.add(base_group(s.group))
          .add(s.l2.sum)
          .add(s.linf.sum)
          .add(s.kl.sum)
          .add(s.top1_margin.sum)
          .add(s.comparisons)
          .add(s.top1_agree);
    d.drift = drift_fp.value();
    auditor.set_enabled(false);
    auditor.clear();
  }

  const FleetResilienceStats& res = result.resilience;
  Fingerprint res_fp;
  res_fp.add(res.faults_active ? 1 : 0)
      .add(res.device_count)
      .add(res.item_count)
      .add(res.total_shots)
      .add(res.shots_lost)
      .add(res.shots_excluded)
      .add(res.quarantined_devices)
      .add(res.items_fully_covered)
      .add(res.items_degraded)
      .add(res.items_lost)
      .add(res.mean_coverage);
  for (int v : res.quarantined_from_item) res_fp.add(v);
  for (int v : res.usable_shots_by_device) res_fp.add(v);
  for (int v : res.coverage_histogram) res_fp.add(v);
  d.resilience = res_fp.value();
  d.shots_lost = res.shots_lost;

  // Fingerprint the fault ledger via base_group for the same reason as
  // the drift summaries: the capture group name carries a per-process
  // run counter.
  Fingerprint fault_fp;
  for (const auto& g : obs::FaultLedger::global().summaries()) {
    fault_fp.add(base_group(g.group))
        .add(g.total_events)
        .add(g.shots_lost)
        .add(g.quarantined_devices)
        .add(g.dropped_entries);
    for (const auto& [kind, count] : g.events_by_kind)
      fault_fp.add(kind).add(count);
    for (const auto& row : g.devices)
      fault_fp.add(row.device)
          .add(row.dropouts)
          .add(row.transient_failures)
          .add(row.payload_bit_flips)
          .add(row.payload_truncations)
          .add(row.stragglers)
          .add(row.retries)
          .add(row.decode_failures)
          .add(row.shots_lost)
          .add(row.quarantined ? 1 : 0)
          .add(row.quarantined_from_item)
          .add(row.total_delay_ms);
    for (const auto& e : g.entries)
      fault_fp.add(static_cast<int>(e.kind))
          .add(e.device)
          .add(e.item)
          .add(e.shot)
          .add(e.attempt)
          .add(e.recovered ? 1 : 0)
          .add(e.detail);
  }
  d.faults = fault_fp.value();

  fault::FaultInjector::global().reset();
  obs::FaultLedger::global().clear();
  return d;
}

TEST(RuntimeDeterminism, EndToEndBitIdenticalAcrossLaneCounts) {
  PoolWidthGuard guard;
  EndToEndDigests one = run_fixture(1);
  EndToEndDigests two = run_fixture(2);
  EndToEndDigests eight = run_fixture(8);

  EXPECT_EQ(one.observations, two.observations);
  EXPECT_EQ(one.observations, eight.observations);
  EXPECT_EQ(one.ledger, two.ledger);
  EXPECT_EQ(one.ledger, eight.ledger);
  EXPECT_EQ(one.drift, two.drift);
  EXPECT_EQ(one.drift, eight.drift);
}

TEST(RuntimeDeterminism, Int8EndToEndBitIdenticalAcrossLaneCounts) {
  // The lab path on the quantized tier: the int8 kernels and the rig's
  // once-per-(phone, stimulus) framing (two of the fixture's three
  // phones are mounted) must be as lane-count-invariant as scalar.
  PoolWidthGuard guard;
  const BackendKind prev = active_backend();
  set_active_backend(BackendKind::kInt8);
  std::vector<PhoneProfile> fleet = end_to_end_fleet();
  int mounted = 0;
  for (std::size_t p = 0; p < 3 && p < fleet.size(); ++p)
    mounted += fleet[p].mount_dx != 0.0f || fleet[p].mount_dy != 0.0f ||
               fleet[p].mount_tilt != 0.0f;
  EXPECT_GE(mounted, 2) << "fixture no longer exercises the mount warp";
  EndToEndDigests one = run_fixture(1);
  EndToEndDigests two = run_fixture(2);
  EndToEndDigests eight = run_fixture(8);
  set_active_backend(prev);

  EXPECT_EQ(one.observations, two.observations);
  EXPECT_EQ(one.observations, eight.observations);
  EXPECT_EQ(one.ledger, two.ledger);
  EXPECT_EQ(one.ledger, eight.ledger);
  EXPECT_EQ(one.drift, two.drift);
  EXPECT_EQ(one.drift, eight.drift);
}

TEST(RuntimeDeterminism, FaultedEndToEndBitIdenticalAcrossLaneCounts) {
  PoolWidthGuard guard;
  EndToEndDigests one = run_fixture(1, /*faulted=*/true);
  EndToEndDigests two = run_fixture(2, /*faulted=*/true);
  EndToEndDigests eight = run_fixture(8, /*faulted=*/true);

  EXPECT_EQ(one.observations, two.observations);
  EXPECT_EQ(one.observations, eight.observations);
  EXPECT_EQ(one.ledger, two.ledger);
  EXPECT_EQ(one.ledger, eight.ledger);
  EXPECT_EQ(one.drift, two.drift);
  EXPECT_EQ(one.drift, eight.drift);
  EXPECT_EQ(one.faults, two.faults);
  EXPECT_EQ(one.faults, eight.faults);
  EXPECT_EQ(one.resilience, two.resilience);
  EXPECT_EQ(one.resilience, eight.resilience);

  // The aggressive plan must actually bite, or the test proves nothing.
  EXPECT_GT(one.shots_lost, 0);
}

// Observe, never alter: arming the drift auditor and the tracer must not
// move a single observation. One lane, so every span lands in the
// calling thread's buffer where size() sees it.
TEST(RuntimeDeterminism, ArmingDriftAndTracingNeverAltersResults) {
  PoolWidthGuard guard;
  EndToEndDigests armed = run_fixture(1, /*faulted=*/false,
                                      /*observed=*/true);
  EndToEndDigests unarmed = run_fixture(1, /*faulted=*/false,
                                        /*observed=*/false);

  // Both recorders really ran in the armed run; the unarmed one traced
  // nothing.
  EXPECT_NE(armed.drift, 0u);
  EXPECT_NE(armed.ledger, 0u);
  EXPECT_GT(armed.spans, 0u);
  EXPECT_EQ(unarmed.spans, 0u);

  EXPECT_EQ(armed.observations, unarmed.observations);
  EXPECT_EQ(armed.resilience, unarmed.resilience);
}

}  // namespace
}  // namespace edgestab
