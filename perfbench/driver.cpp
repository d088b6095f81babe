// edgestab benchmark driver.
//
// Times the public entry points of the edgestab libraries from outside:
// service::run_fleet_service for the stream workloads, run_end_to_end
// for the lab workload. One workload per process:
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--out DIR] [--size tiny] [--tamper-reference]
//   perfbench_driver --prime
//
// --trace 0 repeats the timed call for S seconds with every recorder
// the workload does not declare disarmed, and reports the end-to-end
// metrics. --trace 1 reports the per-layer metrics: it replays the
// workload through the same public calls the program makes, wrapped in
// spans kept in memory and written once to DIR at the end. Both modes
// check every timed call against a --threads 1 run of the same inputs.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. --prime trains (or loads) the cached base model once and
// records its digest; later runs refuse a different model.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "codec/codec.h"
#include "core/experiment.h"
#include "core/resilience.h"
#include "core/workspace.h"
#include "data/dataset.h"
#include "data/lab_rig.h"
#include "data/labels.h"
#include "data/render.h"
#include "data/screen.h"
#include "device/fleets.h"
#include "fault/fault.h"
#include "image/resize.h"
#include "isp/pipeline.h"
#include "isp/sensor.h"
#include "obs/drift.h"
#include "obs/fault_ledger.h"
#include "obs/profiler.h"
#include "obs/telemetry/telemetry.h"
#include "obs/timeline/timeline.h"
#include "obs/trace.h"
#include "runtime/parallel.h"
#include "runtime/seed.h"
#include "runtime/thread_pool.h"
#include "service/pipeline.h"
#include "tensor/backend.h"
#include "util/alloc_track.h"
#include "util/check.h"
#include "util/hashing.h"
#include "util/timer.h"

using namespace edgestab;

namespace {

/// Lanes of the global pool and stage-sizing hint for every timed call:
/// the 4-core benchmark host's nproc, fixed so runs on any host compare.
constexpr int kThreads = 4;
/// Set-up is repeated and its median reported (set-up is short, so one
/// sample is mostly noise).
constexpr int kSetupRepeats = 15;
/// Fewest timed calls per run, so the reported medians have a middle.
constexpr int kMinCalls = 3;
/// Untraced/traced replay pairs per traced run (interleaved, so warm-up
/// lands on neither side of the tracing-overhead ratio alone).
constexpr int kReplayPairs = 2;

const char* const kModelDigestFile = "perfbench.model_digest";

// ---- Workloads -------------------------------------------------------------

/// One fixed environment per workload: kernel tier, fault plan and
/// armed recorders are properties of the workload, never of the host.
struct Workload {
  const char* name = "";
  bool lab = false;  ///< run_end_to_end (else run_fleet_service)
  BackendKind tier = BackendKind::kScalar;
  const char* plan = "";  ///< fault plan spec; "" = clean
  bool telemetry = false;
  bool timeline = false;
  // Stream geometry of one timed call.
  int devices = 0;
  int slots = 0;
  int bank = 0;
  int scene = 0;
  // Lab rig size of one timed call.
  int objects_per_class = 0;
  /// Shots replayed shot by shot in the traced run.
  int replay_shots = 0;
};

// Why each workload exists is recorded in BENCHMARK.json.
const Workload kWorkloads[] = {
    {.name = "stream_scalar",
     .tier = BackendKind::kScalar,
     .devices = 32,
     .slots = 40,
     .bank = 4,
     .scene = 32,
     .replay_shots = 256},
    {.name = "stream_avx2_chaos",
     .tier = BackendKind::kAvx2,
     .plan = "heavy,budget,lat_slow=0.10",
     .telemetry = true,
     .timeline = true,
     .devices = 64,
     .slots = 100,
     .bank = 8,
     .scene = 48,
     .replay_shots = 256},
    {.name = "lab_int8",
     .lab = true,
     .tier = BackendKind::kInt8,
     .objects_per_class = 6,
     .replay_shots = 250},
};

/// --size tiny: every workload at smoke size, for the self-test.
Workload tiny(Workload w) {
  w.devices = std::min(w.devices, 8);
  w.slots = std::min(w.slots, 4);
  w.objects_per_class = std::min(w.objects_per_class, 1);
  w.replay_shots = 16;
  return w;
}

/// Everything a timed call consumes, generated from the workload seed.
struct Inputs {
  service::ServiceConfig service;  // stream workloads
  std::vector<PhoneProfile> fleet;  // lab workload
  LabRigConfig rig;                 // lab workload
  fault::FaultPlan plan;            // armed before every call
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  if (w.plan[0] != '\0') in.plan = fault::parse_fault_plan(w.plan);
  in.plan.seed = runtime::derive_seed(seed, 0xFA17);
  if (w.lab) {
    in.fleet = end_to_end_fleet();
    in.rig.objects_per_class = w.objects_per_class;
    in.rig.shots_per_stimulus = 2;  // feeds the within-phone numbers
    in.rig.seed = seed;
  } else {
    service::ServiceConfig& c = in.service;
    c.devices = w.devices;
    c.shots = static_cast<long long>(w.devices) * w.slots;
    c.stimulus_bank = w.bank;
    c.scene_size = w.scene;
    c.seed = seed;
    c.threads = kThreads;
    c.plan = in.plan;
  }
  return in;
}

long long planned_shots(const Workload& w, const Inputs& in) {
  if (!w.lab) return in.service.shots;
  return static_cast<long long>(target_classes().size()) *
         in.rig.objects_per_class *
         static_cast<long long>(in.rig.angles.size()) *
         static_cast<long long>(in.fleet.size()) *
         in.rig.shots_per_stimulus;
}

// ---- Measurement helpers ---------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  ES_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::uint64_t model_digest(Model& model) {
  const Bytes state = model.save_state();
  return fnv1a64(std::span<const std::uint8_t>(state.data(), state.size()));
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---- Counting allocation hooks (traced run only) ----------------------------

struct AllocCounts {
  std::atomic<long long> count[kAllocSiteCount] = {};
  std::atomic<long long> bytes = 0;
  std::atomic<long long> live = 0;
  std::atomic<long long> peak_live = 0;
};
AllocCounts g_alloc;

void count_alloc(AllocSite site, std::size_t bytes) {
  g_alloc.count[static_cast<int>(site)].fetch_add(1,
                                                  std::memory_order_relaxed);
  const auto b = static_cast<long long>(bytes);
  g_alloc.bytes.fetch_add(b, std::memory_order_relaxed);
  const long long now =
      g_alloc.live.fetch_add(b, std::memory_order_relaxed) + b;
  long long peak = g_alloc.peak_live.load(std::memory_order_relaxed);
  while (now > peak && !g_alloc.peak_live.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void count_free(AllocSite, std::size_t bytes) {
  g_alloc.live.fetch_sub(static_cast<long long>(bytes),
                         std::memory_order_relaxed);
}

const AllocHooks kCountingHooks{&count_alloc, &count_free};

// ---- Spans (traced run only) -----------------------------------------------

/// In-memory span log of the replaying thread. Spans nest by scope; a
/// layer's self time is its duration minus its children's.
struct SpanLog {
  struct Rec {
    const char* name;
    int parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  bool recording = false;
  std::vector<Rec> spans;
  int open = -1;
};
SpanLog g_spans;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Span {
 public:
  explicit Span(const char* name) {
    if (!g_spans.recording) return;
    index_ = static_cast<int>(g_spans.spans.size());
    g_spans.spans.push_back({name, g_spans.open, now_ns(), 0});
    g_spans.open = index_;
  }
  ~Span() {
    if (index_ < 0) return;
    SpanLog::Rec& rec = g_spans.spans[static_cast<std::size_t>(index_)];
    rec.end_ns = now_ns();
    g_spans.open = rec.parent;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

struct LayerTime {
  long long calls = 0;
  double self_ms = 0.0;
  double total_ms = 0.0;
};

std::map<std::string, LayerTime> layer_times() {
  const std::vector<SpanLog::Rec>& spans = g_spans.spans;
  std::vector<double> child_ms(spans.size(), 0.0);
  auto dur_ms = [](const SpanLog::Rec& r) {
    return static_cast<double>(r.end_ns - r.start_ns) * 1e-6;
  };
  for (const SpanLog::Rec& r : spans)
    if (r.parent >= 0)
      child_ms[static_cast<std::size_t>(r.parent)] += dur_ms(r);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& t = out[spans[i].name];
    ++t.calls;
    t.total_ms += dur_ms(spans[i]);
    t.self_ms += dur_ms(spans[i]) - child_ms[i];
  }
  return out;
}

/// Chrome trace_event JSON of every span plus the per-layer self times.
bool write_spans(const std::string& path,
                 const std::map<std::string, LayerTime>& layers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t t0 =
      g_spans.spans.empty() ? 0 : g_spans.spans.front().start_ns;
  std::fprintf(f, "{\"traceEvents\": [");
  for (std::size_t i = 0; i < g_spans.spans.size(); ++i) {
    const SpanLog::Rec& r = g_spans.spans[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f}",
                 i == 0 ? "" : ",", r.name,
                 static_cast<double>(r.start_ns - t0) * 1e-3,
                 static_cast<double>(r.end_ns - r.start_ns) * 1e-3);
  }
  std::fprintf(f, "\n], \"layers\": {");
  bool first = true;
  for (const auto& [name, t] : layers) {
    std::fprintf(f,
                 "%s\n\"%s\": {\"calls\": %lld, \"self_ms\": %.6f, "
                 "\"total_ms\": %.6f}",
                 first ? "" : ",", name.c_str(), t.calls, t.self_ms,
                 t.total_ms);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

// ---- Set-up and timed calls ------------------------------------------------

struct Setup {
  Model model;
  Inputs inputs;
};

/// Process start to first timed call: warm model-cache load, backend
/// selection, pool sizing, input generation.
Setup set_up(const Workload& w, std::uint64_t seed) {
  WorkspaceConfig config;
  config.verbose = false;
  Workspace ws(config);
  Model model = ws.base_model();
  runtime::ThreadPool::set_global_threads(kThreads);
  set_active_backend(w.tier);
  return {std::move(model), make_inputs(w, seed)};
}

/// Re-arm every process-wide recorder before a call, so no call
/// inherits another's state: only what the workload declares is armed.
void arm_recorders(const Workload& w, const Inputs& in) {
  obs::Tracer::global().set_enabled(false);
  obs::DriftAuditor::global().set_enabled(false);
  obs::Profiler::global().set_enabled(false);
  fault::FaultInjector& injector = fault::FaultInjector::global();
  if (in.plan.any())
    injector.configure(in.plan);
  else
    injector.reset();
  obs::FaultLedger::global().clear();
  obs::DeviceHealthRegistry& health = obs::DeviceHealthRegistry::global();
  health.clear();
  health.set_enabled(w.telemetry);
  obs::TimelineRecorder& timeline = obs::TimelineRecorder::global();
  timeline.clear();
  timeline.set_enabled(w.timeline);
  reset_rig_run_counter();
}

struct Call {
  long long shots = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// The deterministic outputs; each must equal the --threads 1 run's.
  std::vector<std::pair<std::string, std::uint64_t>> digests;
  std::string error;  ///< non-empty: the call broke an output invariant
  service::SoakReport soak;
};

std::uint64_t lab_digest(const EndToEndResult& r) {
  Fingerprint fp;
  auto add_instability = [&](const InstabilityResult& x) {
    fp.add(x.total_items).add(x.unstable_items).add(x.all_correct_items)
        .add(x.all_incorrect_items);
  };
  add_instability(r.overall);
  add_instability(r.overall_top3);
  for (const auto& [k, x] : r.by_class) fp.add(k), add_instability(x);
  for (const auto& [k, x] : r.by_angle) fp.add(k), add_instability(x);
  for (double a : r.accuracy_by_phone) fp.add(a);
  for (double a : r.accuracy_by_phone_top3) fp.add(a);
  for (double a : r.within_phone_instability) fp.add(a);
  for (const Observation& o : r.observations)
    fp.add(o.item).add(o.env).add(o.predicted).add(o.confidence)
        .add(static_cast<int>(o.correct));
  return fp.value();
}

Call timed_call(const Workload& w, Model& model, const Inputs& in) {
  arm_recorders(w, in);
  Call call;
  const double cpu0 = cpu_seconds();
  WallTimer wall;
  if (w.lab) {
    const EndToEndResult r = run_end_to_end(model, in.fleet, in.rig);
    call.wall_s = wall.seconds();
    call.cpu_s = cpu_seconds() - cpu0;
    call.shots = r.resilience.total_shots;
    if (call.shots != planned_shots(w, in) || r.resilience.shots_lost != 0)
      call.error = "lab run lost or skipped shots";
    call.digests = {{"lab_outputs", lab_digest(r)}};
    return call;
  }
  call.soak = service::run_fleet_service(model, in.service);
  call.wall_s = wall.seconds();
  call.cpu_s = cpu_seconds() - cpu0;
  const service::SoakReport& r = call.soak;
  const service::AggregateState& a = r.agg;
  call.shots = a.shots_folded;
  const long long accounted = a.ok + a.shed + a.rejected + a.timeouts +
                              a.capture_lost + a.decode_lost;
  if (!r.completed || a.shots_folded != in.service.shots ||
      accounted != in.service.shots)
    call.error = "outcome accounting identity broken";
  Fingerprint outcomes;
  outcomes.add(a.ok).add(a.correct).add(a.shed).add(a.rejected)
      .add(a.timeouts).add(a.capture_lost).add(a.decode_lost);
  call.digests = {{"outcomes", outcomes.value()},
                  {"aggregate", r.agg_digest},
                  {"ledger", r.ledger_digest},
                  {"breaker", r.breaker_digest}};
  if (w.telemetry) call.digests.emplace_back("telemetry", r.telemetry_digest);
  if (w.timeline)
    call.digests.emplace_back("timeline",
                              obs::TimelineRecorder::global().digest());
  return call;
}

/// The same call with one pool lane and one worker per stage.
Call reference_call(const Workload& w, Model& model, Inputs in) {
  runtime::ThreadPool::set_global_threads(1);
  in.service.threads = 1;
  Call ref = timed_call(w, model, in);
  runtime::ThreadPool::set_global_threads(kThreads);
  return ref;
}

/// True when every call kept its invariants and matched the reference.
bool check_calls(const std::vector<Call>& calls, const Call& ref) {
  bool ok = true;
  if (!ref.error.empty()) {
    std::fprintf(stderr, "[perfbench] reference run: %s\n",
                 ref.error.c_str());
    ok = false;
  }
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const Call& c = calls[i];
    if (!c.error.empty()) {
      std::fprintf(stderr, "[perfbench] call %zu: %s\n", i, c.error.c_str());
      ok = false;
    }
    for (std::size_t d = 0; d < c.digests.size(); ++d) {
      if (d < ref.digests.size() && c.digests[d] == ref.digests[d]) continue;
      std::fprintf(stderr,
                   "[perfbench] call %zu: %s digest %s differs from the "
                   "--threads 1 reference\n",
                   i, c.digests[d].first.c_str(),
                   hex64(c.digests[d].second).c_str());
      ok = false;
    }
  }
  return ok;
}

// ---- Per-layer replay (traced run) -----------------------------------------

/// One shot of the per-layer replay: who takes it, of what, with which
/// noise stream — the coordinates the program itself uses.
struct ReplayShot {
  const PhoneProfile* phone = nullptr;
  int device = 0;
  std::uint64_t stream = 0;
  int item = 0;
  int shot = 0;
  const Image* framed = nullptr;
  std::uint64_t rng_item = 0;  ///< derive_rng ids after (seed, stream)
  std::uint64_t rng_shot = 0;
};

/// Inputs of the replay, owned here so ReplayShot can point into them.
struct ReplaySet {
  std::vector<PhoneProfile> phones;
  std::vector<Image> framed;
  std::vector<ReplayShot> shots;
  std::uint64_t seed = 0;  ///< run seed of every noise stream
  /// Decode with the standard decoder, as the lab does (the service
  /// decodes with each phone's OS decoder).
  bool standard_decoder = false;
  int classify_batch = 0;  ///< 0: the replay does not classify
};

Image frame(const PhoneProfile& phone, const Image& emission) {
  if (phone.mount_dx == 0.0f && phone.mount_dy == 0.0f &&
      phone.mount_tilt == 0.0f)
    return emission;
  const float cx = static_cast<float>(emission.width()) / 2.0f;
  const float cy = static_cast<float>(emission.height()) / 2.0f;
  const Affine warp =
      Affine::rotate_about(phone.mount_tilt, cx, cy)
          .compose(Affine::translate(phone.mount_dx, phone.mount_dy));
  return warp_affine(emission, warp, emission.width(), emission.height());
}

/// The first shots of the stream, with the device profiles, stimulus
/// bank and noise streams run_fleet_service derives from its config.
/// Shots the armed fault plan drops at capture are skipped, as there.
ReplaySet stream_replay_set(const Workload& w, const Inputs& in) {
  static const float kBankAngles[] = {-1.0f, -0.5f, 0.0f, 0.5f, 1.0f};
  constexpr int kServiceClasses = 12;
  const service::ServiceConfig& c = in.service;
  const std::vector<PhoneProfile> base = end_to_end_fleet(c.divergence);
  ReplaySet set;
  set.seed = c.seed;
  set.classify_batch = c.inference_batch;
  for (int d = 0; d < c.devices; ++d) {
    PhoneProfile p = base[static_cast<std::size_t>(d) % base.size()];
    p.noise_stream = runtime::derive_seed(c.seed, 0x5EDE, d);
    set.phones.push_back(p);
  }
  for (std::size_t b = 0; b < base.size(); ++b) {
    for (int s = 0; s < c.stimulus_bank; ++s) {
      SceneSpec spec;
      spec.class_id = s % kServiceClasses;
      spec.instance_seed = runtime::derive_seed(c.seed, 0xBA4C, s);
      spec.view_angle = kBankAngles[static_cast<std::size_t>(s) % 5];
      set.framed.push_back(frame(
          base[b], display_on_screen(render_scene(spec, c.scene_size),
                                     ScreenConfig{})));
    }
  }
  const fault::FaultInjector& injector = fault::FaultInjector::global();
  for (long long g = 0; g < c.shots && static_cast<int>(set.shots.size()) <
                                            w.replay_shots; ++g) {
    const int d = static_cast<int>(g % c.devices);
    const long long slot = g / c.devices;
    const int stimulus = static_cast<int>(slot % c.stimulus_bank);
    const PhoneProfile& phone = set.phones[static_cast<std::size_t>(d)];
    if (injector.enabled() &&
        injector.capture_dropout(phone.noise_stream,
                                 static_cast<std::uint64_t>(slot), 0))
      continue;
    const std::size_t b = static_cast<std::size_t>(d) % base.size();
    ReplayShot r;
    r.phone = &phone;
    r.device = d;
    r.stream = phone.noise_stream;
    r.item = static_cast<int>(slot);
    r.framed = &set.framed[b * static_cast<std::size_t>(c.stimulus_bank) +
                           static_cast<std::size_t>(stimulus)];
    r.rng_item = static_cast<std::uint64_t>(stimulus);
    r.rng_shot = static_cast<std::uint64_t>(slot);
    set.shots.push_back(r);
  }
  return set;
}

/// The first stimuli of the lab rig, each photographed by every phone
/// shots_per_stimulus times, as run_lab_rig orders and seeds them.
/// Classification is timed by the phase replay instead.
ReplaySet lab_replay_set(const Workload& w, const Inputs& in) {
  const LabRigConfig& rig = in.rig;
  const std::vector<int>& classes = target_classes();
  const int angles = static_cast<int>(rig.angles.size());
  const int per_stimulus =
      static_cast<int>(in.fleet.size()) * rig.shots_per_stimulus;
  const int stimuli = std::min(
      (w.replay_shots + per_stimulus - 1) / per_stimulus,
      static_cast<int>(classes.size()) * rig.objects_per_class * angles);
  ReplaySet set;
  set.phones = in.fleet;
  set.seed = rig.seed;
  set.standard_decoder = true;
  set.framed.reserve(static_cast<std::size_t>(stimuli) * in.fleet.size());
  for (int s = 0; s < stimuli; ++s) {
    const int object = s / angles;
    SceneSpec spec;
    spec.class_id =
        classes[static_cast<std::size_t>(object / rig.objects_per_class)];
    spec.instance_seed = rig.seed * 131 + static_cast<std::uint64_t>(
                                              object % rig.objects_per_class);
    spec.view_angle = rig.angles[static_cast<std::size_t>(s % angles)];
    const Image emission =
        display_on_screen(render_scene(spec, rig.scene_size), rig.screen);
    for (std::size_t p = 0; p < set.phones.size(); ++p) {
      set.framed.push_back(frame(set.phones[p], emission));
      for (int shot = 0; shot < rig.shots_per_stimulus; ++shot) {
        ReplayShot r;
        r.phone = &set.phones[p];
        r.device = static_cast<int>(p);
        r.stream = set.phones[p].noise_stream;
        r.item = s;
        r.shot = shot;
        r.framed = &set.framed.back();
        r.rng_item = static_cast<std::uint64_t>(s);
        r.rng_shot = static_cast<std::uint64_t>(shot);
        set.shots.push_back(r);
      }
    }
  }
  return set;
}

struct ReplayStats {
  long long shots = 0;
  long long classified = 0;
  long long encoded_bytes = 0;
  long long delivery_attempts = 0;
  double wall_s = 0.0;
};

/// Each shot through expose_sensor -> run_isp -> encode ->
/// deliver_shot_collect -> capture_to_input, then classify_inputs at
/// the workload's batch: the calls the service stages make, in order.
ReplayStats replay_chain(Model& model, const ReplaySet& set) {
  ReplayStats st;
  WallTimer wall;
  const JpegDecodeOptions standard;
  std::vector<Tensor> batch;
  auto classify = [&] {
    Span span("nn.classify");
    classify_inputs(model, batch, 3, nullptr);
    st.classified += static_cast<long long>(batch.size());
    batch.clear();
  };
  for (const ReplayShot& s : set.shots) {
    Tensor input;
    {
      Span shot_span("replay.shot");
      Pcg32 rng =
          runtime::derive_rng(set.seed, s.stream, s.rng_item, s.rng_shot);
      RawImage raw;
      {
        Span span("isp.expose");
        raw = expose_sensor(*s.framed, s.phone->sensor, rng);
      }
      Image developed;
      {
        Span span("isp.develop");
        developed = run_isp(raw, s.phone->isp);
      }
      Capture capture;
      capture.format = s.phone->storage_format;
      capture.quality = s.phone->storage_quality;
      {
        Span span("codec.encode");
        capture.file = make_codec(capture.format, capture.quality)
                           ->encode(to_u8(developed));
      }
      st.encoded_bytes += static_cast<long long>(capture.file.size());
      std::vector<obs::FaultEvent> events;
      ShotDelivery delivery;
      {
        Span span("core.deliver");
        delivery = deliver_shot_collect(
            capture, s.device, s.stream, s.item, s.shot,
            set.standard_decoder ? standard : s.phone->os_decoder, events);
      }
      ++st.shots;
      st.delivery_attempts += delivery.attempts;
      if (!delivery.usable) continue;
      Span span("data.to_input");
      input = capture_to_input(delivery.image);
    }
    if (set.classify_batch <= 0) continue;
    batch.push_back(std::move(input));
    if (static_cast<int>(batch.size()) == set.classify_batch) classify();
  }
  if (!batch.empty()) classify();
  st.wall_s = wall.seconds();
  return st;
}

/// run_end_to_end's phases in its order, one span each.
long long replay_lab_phases(Model& model, const Inputs& in) {
  LabRun run;
  {
    Span span("data.lab_rig");
    run = run_lab_rig(in.fleet, in.rig);
  }
  const std::size_t n = run.shots.size();
  std::vector<ShotDelivery> delivered(n);
  {
    Span span("core.deliver_phase");
    runtime::parallel_for(n, [&](std::size_t i) {
      const LabShot& shot = run.shots[i];
      if (shot.dropped) return;
      delivered[i] = deliver_shot(
          "end_to_end", shot.capture, shot.phone_index,
          in.fleet[static_cast<std::size_t>(shot.phone_index)].noise_stream,
          stimulus_id(run, shot), shot.repeat);
    });
  }
  std::vector<Tensor> inputs(n);
  {
    Span span("data.to_input_phase");
    runtime::parallel_for(n, [&](std::size_t i) {
      if (delivered[i].usable)
        inputs[i] = capture_to_input(delivered[i].image);
    });
  }
  Span span("nn.classify");
  classify_inputs(model, inputs, 3, nullptr);
  return static_cast<long long>(n);
}

// ---- Output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, long long attempted,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted,
              correct ? 0LL : attempted);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit);
  std::printf("}}\n");
}

std::string compiled_flavors() {
  std::string s;
  auto add = [&](bool on, const char* name) {
    if (on) s += s.empty() ? name : std::string(",") + name;
  };
#ifdef EDGESTAB_TRACING
  add(true, "TRACING");
#endif
#ifdef EDGESTAB_DRIFT
  add(true, "DRIFT");
#endif
  add(fault::kFaultsCompiledIn, "FAULTS");
  add(obs::kTelemetryCompiledIn, "TELEMETRY");
  add(obs::kTimelineCompiledIn, "TIMELINE");
#ifdef EDGESTAB_PROFILE
  add(true, "PROFILE");
#endif
  add(kAvx2CompiledIn, "AVX2");
  return s;
}

/// Repeats the timed call for `seconds` (at least kMinCalls times) and
/// reports medians over calls. setup_s is added by the caller.
std::vector<Metric> end_to_end_metrics(const Workload& w, Model& model,
                                       const Inputs& in, double seconds,
                                       std::vector<Call>& calls) {
  WallTimer window;
  while (static_cast<int>(calls.size()) < kMinCalls ||
         window.seconds() < seconds)
    calls.push_back(timed_call(w, model, in));
  std::vector<double> rate, cpu_ms;
  for (const Call& c : calls) {
    rate.push_back(static_cast<double>(c.shots) / c.wall_s);
    cpu_ms.push_back(c.cpu_s * 1e3 / static_cast<double>(c.shots));
    std::printf("# call: %lld shots, %.3f s wall, %.3f s cpu\n", c.shots,
                c.wall_s, c.cpu_s);
  }
  return {{"shots_per_s", median(rate), "1/s"},
          {"cpu_ms_per_shot", median(cpu_ms), "ms"},
          {"peak_rss_mb", peak_rss_mib(), "MiB"}};
}

/// One untraced timed call for the service's stage statistics and the
/// CPU utilisation, the same call again with allocation counting, then
/// the span-wrapped replays.
std::vector<Metric> per_layer_metrics(const Workload& w, Model& model,
                                      const Inputs& in,
                                      std::vector<Call>& calls) {
  calls.push_back(timed_call(w, model, in));
  set_alloc_hooks(&kCountingHooks);
  calls.push_back(timed_call(w, model, in));
  set_alloc_hooks(nullptr);
  const Call& plain = calls[0];
  const Call& counted = calls[1];

  arm_recorders(w, in);
  long long lab_shots = 0;
  if (w.lab) {
    g_spans.recording = true;
    lab_shots = replay_lab_phases(model, in);
    g_spans.recording = false;
  }
  const ReplaySet set =
      w.lab ? lab_replay_set(w, in) : stream_replay_set(w, in);
  ReplayStats traced;
  double untraced_s = 0.0;
  for (int pass = 0; pass < kReplayPairs; ++pass) {
    untraced_s += replay_chain(model, set).wall_s;
    g_spans.recording = true;
    const ReplayStats st = replay_chain(model, set);
    g_spans.recording = false;
    traced.shots += st.shots;
    traced.classified += st.classified;
    traced.encoded_bytes += st.encoded_bytes;
    traced.delivery_attempts += st.delivery_attempts;
    traced.wall_s += st.wall_s;
  }

  const std::map<std::string, LayerTime> layers = layer_times();
  auto per = [](double x, long long n) {
    return n > 0 ? x / static_cast<double>(n) : 0.0;
  };
  auto self_ms = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_ms;
  };
  auto per_call = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0
                              : per(it->second.self_ms, it->second.calls);
  };
  std::vector<Metric> m = {
      {"isp.develop_ms", per_call("isp.develop"), "ms"},
      {"isp.expose_ms", per_call("isp.expose"), "ms"},
      {"codec.encode_ms", per_call("codec.encode"), "ms"},
      {"codec.bytes_per_shot",
       per(static_cast<double>(traced.encoded_bytes), traced.shots), "bytes"},
      {"core.deliver_ms", per_call("core.deliver"), "ms"},
      {"core.delivery_attempts_per_shot",
       per(static_cast<double>(traced.delivery_attempts), traced.shots),
       "count"},
      {"data.to_input_ms", per_call("data.to_input"), "ms"},
      {"nn.classify_ms_per_shot",
       per(self_ms("nn.classify"), w.lab ? lab_shots : traced.classified),
       "ms"},
      {"data.lab_rig_ms_per_shot", per(self_ms("data.lab_rig"), lab_shots),
       "ms"}};
  // The lab workload runs no service: its stage metrics read 0.
  for (const char* stage : {"capture", "isp", "codec", "decode", "inference"}) {
    double high_water = 0.0;
    for (const service::StageStats& s : plain.soak.stages)
      if (s.name == stage) high_water = static_cast<double>(s.high_water);
    m.push_back({std::string("service.queue_high_water.") + stage,
                 high_water, "count"});
  }
  // Shots the scheduler or the capture site turned into tombstones,
  // which skip ISP, codec and inference.
  const service::AggregateState& a = plain.soak.agg;
  m.push_back({"service.tombstone_share",
               per(static_cast<double>(a.shed + a.rejected + a.timeouts +
                                       a.capture_lost),
                   a.shots_folded),
               "ratio"});
  m.push_back({"runtime.cpu_util", plain.cpu_s / (plain.wall_s * kThreads),
               "ratio"});
  constexpr double kMiB = 1024.0 * 1024.0;
  auto site = [](AllocSite s) {
    return static_cast<double>(g_alloc.count[static_cast<int>(s)].load());
  };
  const double bytes_per_shot =
      per(static_cast<double>(g_alloc.bytes.load()), counted.shots);
  m.push_back({"alloc.tensor_per_shot",
               per(site(AllocSite::kTensor), counted.shots), "count"});
  m.push_back({"alloc.image_per_shot",
               per(site(AllocSite::kImage), counted.shots), "count"});
  m.push_back({"alloc.bytes_per_shot", bytes_per_shot, "bytes"});
  m.push_back({"alloc.mb_per_shot", bytes_per_shot / kMiB, "MiB"});
  m.push_back({"alloc.peak_live_mb",
               static_cast<double>(g_alloc.peak_live.load()) / kMiB, "MiB"});
  m.push_back({"trace.overhead_share", traced.wall_s / untraced_s - 1.0,
               "ratio"});
  return m;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string out = ".";
  bool tiny = false;
  bool tamper = false;
  bool prime = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N --seconds S --trace 0|1 [--out DIR] "
               "[--size tiny] [--tamper-reference]\n       "
               "perfbench_driver --prime\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      a.trace = std::atoi(value().c_str());
    } else if (arg == "--out") {
      a.out = value();
    } else if (arg == "--size") {
      if (value() != "tiny") usage("--size takes only 'tiny'");
      a.tiny = true;
    } else if (arg == "--tamper-reference") {
      a.tamper = true;
    } else if (arg == "--prime") {
      a.prime = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (a.prime) return a;
  if (a.workload.empty() || !have_seed || a.seconds <= 0.0 ||
      (a.trace != 0 && a.trace != 1))
    usage("need --workload, --seed, --seconds > 0 and --trace 0|1");
  return a;
}

/// Train or load the base model once, outside every timed section, and
/// pin its digest for every later run.
int prime() {
  Workspace ws;
  Model model = ws.base_model();
  const std::string digest = hex64(model_digest(model));
  const std::string path = ws.cache_dir() + "/" + kModelDigestFile;
  const std::string pinned = read_text(path);
  if (!pinned.empty() && pinned != digest) {
    std::fprintf(stderr,
                 "[perfbench] base model digest %s differs from the pinned "
                 "%s\n",
                 digest.c_str(), pinned.c_str());
    return 1;
  }
  std::ofstream(path) << digest;
  std::printf("[perfbench] base model %s primed\n", digest.c_str());
  return 0;
}

int run(const Args& args) {
  const auto clock_start = std::chrono::steady_clock::now();
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) found = &w;
  if (found == nullptr) usage(("unknown workload " + args.workload).c_str());
  const Workload w = args.tiny ? tiny(*found) : *found;

  const std::string pinned =
      read_text(Workspace().cache_dir() + "/" + kModelDigestFile);
  if (pinned.empty()) {
    std::fprintf(stderr,
                 "[perfbench] model cache not primed; run with --prime "
                 "first\n");
    return 1;
  }

  // Set-up, several times; the first sample runs from process start.
  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start =
        i == 0 ? clock_start : std::chrono::steady_clock::now();
    setup = set_up(w, args.seed);
    setup_s.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  if (active_backend() != w.tier) {
    std::fprintf(stderr,
                 "[perfbench] workload %s needs the %s tier but the %s "
                 "tier is active\n",
                 w.name, backend_name(w.tier),
                 backend_name(active_backend()));
    return 1;
  }
  const std::string digest = hex64(model_digest(setup.model));
  if (digest != pinned) {
    std::fprintf(stderr,
                 "[perfbench] base model digest %s differs from the "
                 "pinned %s\n",
                 digest.c_str(), pinned.c_str());
    return 1;
  }
  std::printf("# perfbench workload=%s seed=%" PRIu64
              " tier=%s threads=%d flavors=%s model=%s\n",
              w.name, args.seed, backend_name(active_backend()), kThreads,
              compiled_flavors().c_str(), digest.c_str());

  Model& model = setup.model;
  const Inputs& in = setup.inputs;
  std::vector<Call> calls;
  std::vector<Metric> metrics;
  Call ref;
  try {
    // The --threads 1 reference runs first, outside the measured
    // window: it also warms what the first timed call would pay for.
    ref = reference_call(w, model, in);
    if (args.tamper) ref.digests.front().second ^= 1;
    if (args.trace == 0) {
      metrics = end_to_end_metrics(w, model, in, args.seconds, calls);
      metrics.push_back({"setup_s", median(setup_s), "s"});
    } else {
      metrics = per_layer_metrics(w, model, in, calls);
      const std::string path = args.out + "/" + w.name + "-seed" +
                               std::to_string(args.seed) + ".spans.json";
      if (!write_spans(path, layer_times())) {
        std::fprintf(stderr, "[perfbench] cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("# spans: %zu in %s\n", g_spans.spans.size(),
                  path.c_str());
    }
  } catch (const std::exception& e) {
    // A call that does not finish fails the run: every shot it and the
    // earlier calls attempted counts as failed.
    std::fprintf(stderr, "[perfbench] call aborted: %s\n", e.what());
    long long attempted = planned_shots(w, in);
    for (const Call& c : calls) attempted += c.shots;
    print_result(false, attempted, metrics);
    return 0;
  }

  const bool correct = check_calls(calls, ref);
  long long attempted = 0;
  for (const Call& c : calls) attempted += c.shots;
  std::printf("# calls=%zu reference=%s\n", calls.size(),
              correct ? "match" : "MISMATCH");
  print_result(correct, attempted, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return args.prime ? prime() : run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] %s\n", e.what());
    return 1;
  }
}
