#include "obs/drift.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>

#include "image/metrics.h"
#include "obs/metrics.h"
#include "obs/telemetry/telemetry.h"

namespace edgestab::obs {

namespace {

struct TapContext {
  const char* group = nullptr;
  int item = 0;
  int env = 0;
};
thread_local TapContext t_drift_ctx;

// Groups whose drift environments index fleet devices: the capture
// rig(s) and the raw-pipeline audit tag taps with the phone index,
// software_isp tags with the ISP variant. Only device-indexed groups
// feed the health registry.
bool drift_env_is_device(const char* group) {
  const std::string_view g(group);
  return g.substr(0, 7) == "capture" || g == "raw_pipeline";
}

float clamp01(float v) { return v < 0.0f ? 0.0f : (v > 1.0f ? 1.0f : v); }

// Per-channel mean/variance of the clamped-[0,1] view of an image.
void channel_stats(const Image& img, std::vector<double>& mean,
                   std::vector<double>& var) {
  mean.assign(static_cast<std::size_t>(img.channels()), 0.0);
  var.assign(static_cast<std::size_t>(img.channels()), 0.0);
  double inv = 1.0 / static_cast<double>(img.pixel_count());
  for (int c = 0; c < img.channels(); ++c) {
    double s = 0.0, ss = 0.0;
    for (float v : img.plane(c)) {
      double d = clamp01(v);
      s += d;
      ss += d * d;
    }
    double m = s * inv;
    mean[static_cast<std::size_t>(c)] = m;
    var[static_cast<std::size_t>(c)] = std::max(0.0, ss * inv - m * m);
  }
}

std::uint64_t scaled(double value, double scale) {
  double v = value * scale;
  if (!(v > 0.0)) return 0;  // NaN / negative => 0
  return static_cast<std::uint64_t>(std::llround(v));
}

int argmax(std::span<const float> v) {
  return static_cast<int>(std::max_element(v.begin(), v.end()) - v.begin());
}

void softmax_into(std::span<const float> logits, std::vector<double>& out) {
  out.resize(logits.size());
  double mx = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp(static_cast<double>(logits[i]) - mx);
    sum += out[i];
  }
  for (double& p : out) p /= sum;
}

}  // namespace

// ---------------------------------------------------------------------------
// Internal storage

struct DriftAuditor::StoredImage {
  int width = 0, height = 0, channels = 0;
  int env = 0;
  std::vector<std::uint8_t> pixels;  // quantized clamped planar values
  std::vector<double> mean, var;     // exact stats of the clamped floats

  Image dequantize() const {
    Image img(width, height, channels);
    auto dst = img.data();
    for (std::size_t i = 0; i < pixels.size(); ++i)
      dst[i] = static_cast<float>(pixels[i]) / 255.0f;
    return img;
  }
};

// One completed comparison, staged until summary time. Folding the
// records in sorted (item, env) order makes every DriftStat (whose
// floating-point sums are association-order sensitive) independent of
// the order taps arrived in — the determinism contract parallel
// experiments rely on.
struct StageRecord {
  int item = 0;
  int env = 0;
  double psnr_db = 0.0;
  double ssim = 0.0;
  double mean_delta = 0.0;
  double var_delta = 0.0;
  bool identical = false;
};

struct LogitRecord {
  int item = 0;
  int env = 0;
  double l2 = 0.0;
  double linf = 0.0;
  double kl = 0.0;
  double top1_margin = 0.0;
  bool top1_agree = false;
};

template <typename Record>
void sort_records(std::vector<Record>& records) {
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              return a.item != b.item ? a.item < b.item : a.env < b.env;
            });
}

struct DriftAuditor::StageSlot {
  StageDriftSummary summary;        // static fields (names) only
  std::size_t item_cap = 0;         // id-based: audited iff item < cap
  std::map<int, StoredImage> refs;  // item -> reference artifact
  std::vector<StageRecord> records;
  Histogram* psnr_hist = nullptr;
  Histogram* ssim_hist = nullptr;
};

struct DriftAuditor::LogitSlot {
  LogitDriftSummary summary;  // static fields (names) only
  std::map<int, std::pair<int, std::vector<float>>> refs;  // item -> (env, v)
  std::vector<LogitRecord> records;
  std::int64_t skipped = 0;
  Histogram* l2_hist = nullptr;
  Histogram* linf_hist = nullptr;
  Histogram* kl_hist = nullptr;
};

// ---------------------------------------------------------------------------
// DriftScope

DriftScope::DriftScope(const char* group, int item, int env)
    : prev_group_(t_drift_ctx.group),
      prev_item_(t_drift_ctx.item),
      prev_env_(t_drift_ctx.env) {
  t_drift_ctx = {group, item, env};
}

DriftScope::~DriftScope() {
  t_drift_ctx = {prev_group_, prev_item_, prev_env_};
}

// ---------------------------------------------------------------------------
// DriftAuditor

DriftAuditor& DriftAuditor::global() {
  static DriftAuditor* auditor = new DriftAuditor();  // never destroyed
  return *auditor;
}

void DriftAuditor::set_max_audited_items(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  max_audited_items_ = n;
}

void DriftAuditor::set_env_label(const std::string& group, int env,
                                 const std::string& label) {
  std::lock_guard<std::mutex> lock(mu_);
  env_labels_[group][env] = label;
}

std::string DriftAuditor::env_label(const std::string& group, int env) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto git = env_labels_.find(group);
  if (git != env_labels_.end()) {
    auto eit = git->second.find(env);
    if (eit != git->second.end()) return eit->second;
  }
  return "env" + std::to_string(env);
}

void DriftAuditor::tap_stage(int stage_index, const char* stage_name,
                             const Image& rgb) {
  if (!enabled() || rgb.empty()) return;
  const TapContext ctx = t_drift_ctx;
  if (ctx.group == nullptr) return;

  // Locked phase 1: resolve the slot and the stored reference. Slot and
  // reference map nodes are stable and references immutable once
  // inserted, so the pointers stay valid off-lock.
  StageSlot* slot = nullptr;
  const StoredImage* ref = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::string key =
        std::string(ctx.group) + '\x1f' + std::to_string(stage_index);
    auto& owned = stages_[key];
    if (owned == nullptr) {
      owned = std::make_unique<StageSlot>();
      owned->summary.group = ctx.group;
      owned->summary.stage_index = stage_index;
      owned->summary.stage = stage_name;
      // Id-based audit cap: whichever image reaches the slot first fixes
      // the per-item byte cost (stages produce uniform shapes within a
      // group), and with it how many item ids fit the byte budget.
      owned->item_cap = std::min(
          max_audited_items_,
          std::max<std::size_t>(
              1, kMaxSlotRefBytes / std::max<std::size_t>(1, rgb.size())));
      std::string base = std::string("drift.") + ctx.group + "." + stage_name;
      owned->summary.psnr_metric = base + ".psnr_mdb";
      owned->summary.ssim_metric = base + ".ssim_loss_ppm";
      owned->psnr_hist =
          &MetricsRegistry::global().histogram(owned->summary.psnr_metric);
      owned->ssim_hist =
          &MetricsRegistry::global().histogram(owned->summary.ssim_metric);
    }
    slot = owned.get();

    if (ctx.item < 0 ||
        static_cast<std::size_t>(ctx.item) >= slot->item_cap) {
      // Over the id cap: count which limit bit. Audited-set membership
      // depends only on the item id, never on tap arrival order.
      if (ctx.item >= 0 &&
          static_cast<std::size_t>(ctx.item) < max_audited_items_)
        ++skipped_bytes_items_;
      else
        ++skipped_items_;
      return;
    }
    auto it = slot->refs.find(ctx.item);
    if (it != slot->refs.end()) ref = &it->second;
  }

  if (ref == nullptr) {
    // First environment to tap this (group, stage, item) becomes the
    // reference everyone else is compared against. Quantization and
    // stats run off-lock; per the ordering contract only one thread
    // sweeps a given item, so no other thread races this insert.
    StoredImage stored;
    stored.width = rgb.width();
    stored.height = rgb.height();
    stored.channels = rgb.channels();
    stored.env = ctx.env;
    stored.pixels.resize(rgb.size());
    auto src = rgb.data();
    for (std::size_t i = 0; i < src.size(); ++i)
      stored.pixels[i] =
          static_cast<std::uint8_t>(clamp01(src[i]) * 255.0f + 0.5f);
    channel_stats(rgb, stored.mean, stored.var);
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = slot->refs.emplace(ctx.item, std::move(stored));
    if (inserted) ref_bytes_ += rgb.size();
    return;
  }

  if (ref->env == ctx.env) return;  // re-tap from the reference environment
  if (ref->width != rgb.width() || ref->height != rgb.height() ||
      ref->channels != rgb.channels())
    return;

  // Off-lock phase 2: the expensive comparisons. Compare the clamped
  // display-referred views: intermediate ISP stages legitimately exceed
  // [0,1]; what matters downstream is the visible range, and the
  // quantized reference only holds that anyway.
  Image cur(rgb.width(), rgb.height(), rgb.channels());
  auto src = rgb.data();
  auto dst = cur.data();
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = clamp01(src[i]);
  Image ref_img = ref->dequantize();

  StageRecord rec;
  rec.item = ctx.item;
  rec.env = ctx.env;
  double m = mse(cur, ref_img);
  if (m <= 0.0) {
    rec.identical = true;
    rec.psnr_db = kPsnrCapDb;
  } else {
    rec.psnr_db = std::min(kPsnrCapDb, 10.0 * std::log10(1.0 / m));
  }
  rec.ssim = ssim(cur, ref_img);

  std::vector<double> mean, var;
  channel_stats(rgb, mean, var);
  for (int c = 0; c < rgb.channels(); ++c) {
    rec.mean_delta += std::abs(mean[static_cast<std::size_t>(c)] -
                               ref->mean[static_cast<std::size_t>(c)]);
    rec.var_delta += std::abs(var[static_cast<std::size_t>(c)] -
                              ref->var[static_cast<std::size_t>(c)]);
  }
  rec.mean_delta /= rgb.channels();
  rec.var_delta /= rgb.channels();

  // Per-stage drift magnitude flows into the device health books when
  // the environment is a fleet device.
  if (telemetry_enabled() && drift_env_is_device(ctx.group)) {
    DeviceHealthRegistry::global().record_stage_drift(ctx.env, ctx.item,
                                                      rec.psnr_db);
  }

  // Histograms are integer-bucketed atomics — order-independent, no
  // lock needed. The record is staged for the summary-time sorted fold.
  slot->psnr_hist->record(scaled(rec.psnr_db, 1000.0));  // milli-dB
  slot->ssim_hist->record(scaled(1.0 - rec.ssim, 1e6));  // loss ppm
  std::lock_guard<std::mutex> lock(mu_);
  slot->records.push_back(rec);
}

void DriftAuditor::record_logits(const std::string& group, int item, int env,
                                 std::span<const float> logits) {
  if (!enabled() || logits.empty()) return;

  LogitSlot* slot = nullptr;
  const std::pair<int, std::vector<float>>* stored = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& owned = logits_[group];
    if (owned == nullptr) {
      owned = std::make_unique<LogitSlot>();
      owned->summary.group = group;
      std::string base = "drift.logit." + group;
      owned->summary.l2_metric = base + ".l2_micro";
      owned->summary.linf_metric = base + ".linf_micro";
      owned->summary.kl_metric = base + ".kl_micro";
      owned->l2_hist =
          &MetricsRegistry::global().histogram(owned->summary.l2_metric);
      owned->linf_hist =
          &MetricsRegistry::global().histogram(owned->summary.linf_metric);
      owned->kl_hist =
          &MetricsRegistry::global().histogram(owned->summary.kl_metric);
    }
    slot = owned.get();

    // Id-based cap, same arrival-order independence as stage refs.
    if (item < 0 || static_cast<std::size_t>(item) >= kMaxLogitRefs) {
      ++slot->skipped;
      ++skipped_items_;
      return;
    }
    auto it = slot->refs.find(item);
    if (it == slot->refs.end()) {
      slot->refs.emplace(
          item, std::make_pair(env, std::vector<float>(logits.begin(),
                                                       logits.end())));
      return;
    }
    stored = &it->second;
  }

  const auto& [ref_env, ref] = *stored;
  if (ref_env == env || ref.size() != logits.size()) return;

  double l2 = 0.0, linf = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    double d = static_cast<double>(logits[i]) - ref[i];
    l2 += d * d;
    linf = std::max(linf, std::abs(d));
  }
  l2 = std::sqrt(l2);

  std::vector<double> p_ref, p_cur;
  softmax_into(ref, p_ref);
  softmax_into(logits, p_cur);
  double kl = 0.0;
  for (std::size_t i = 0; i < p_ref.size(); ++i)
    kl += p_ref[i] * std::log((p_ref[i] + 1e-12) / (p_cur[i] + 1e-12));
  kl = std::max(0.0, kl);

  // Top-1 margin of the current environment: how far the winning logit
  // sits above the runner-up (small margin = flip-prone).
  int top1 = argmax(logits);
  double second = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < logits.size(); ++i)
    if (static_cast<int>(i) != top1)
      second = std::max(second, static_cast<double>(logits[i]));

  LogitRecord rec;
  rec.item = item;
  rec.env = env;
  rec.l2 = l2;
  rec.linf = linf;
  rec.kl = kl;
  rec.top1_margin =
      static_cast<double>(logits[static_cast<std::size_t>(top1)]) - second;
  rec.top1_agree = top1 == argmax(ref);

  slot->l2_hist->record(scaled(l2, 1e6));
  slot->linf_hist->record(scaled(linf, 1e6));
  slot->kl_hist->record(scaled(kl, 1e6));
  std::lock_guard<std::mutex> lock(mu_);
  slot->records.push_back(rec);
}

void DriftAuditor::record_flips(const std::string& group,
                                std::span<const FlipOutcome> outcomes) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ledger_.add_group(group, outcomes);
}

std::vector<StageDriftSummary> DriftAuditor::stage_summaries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StageDriftSummary> out;
  out.reserve(stages_.size());
  for (const auto& [key, slot] : stages_) {
    StageDriftSummary s = slot->summary;
    // Fold staged records in sorted (item, env) order: float sums
    // associate identically no matter which thread compared what when.
    std::vector<StageRecord> records = slot->records;
    sort_records(records);
    for (const StageRecord& r : records) {
      s.psnr_db.add(r.psnr_db);
      s.ssim.add(r.ssim);
      s.channel_mean_delta.add(r.mean_delta);
      s.channel_var_delta.add(r.var_delta);
      if (r.identical) ++s.identical_pairs;
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.group != b.group ? a.group < b.group
                              : a.stage_index < b.stage_index;
  });
  return out;
}

std::vector<LogitDriftSummary> DriftAuditor::logit_summaries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LogitDriftSummary> out;
  out.reserve(logits_.size());
  for (const auto& [group, slot] : logits_) {
    LogitDriftSummary s = slot->summary;
    std::vector<LogitRecord> records = slot->records;
    sort_records(records);
    for (const LogitRecord& r : records) {
      s.l2.add(r.l2);
      s.linf.add(r.linf);
      s.kl.add(r.kl);
      s.top1_margin.add(r.top1_margin);
      ++s.comparisons;
      if (r.top1_agree) ++s.top1_agree;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::int64_t DriftAuditor::skipped_items() const {
  std::lock_guard<std::mutex> lock(mu_);
  return skipped_items_;
}

std::int64_t DriftAuditor::skipped_bytes_items() const {
  std::lock_guard<std::mutex> lock(mu_);
  return skipped_bytes_items_;
}

void DriftAuditor::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stages_.clear();
  logits_.clear();
  env_labels_.clear();
  ledger_.clear();
  ref_bytes_ = 0;
  skipped_items_ = 0;
  skipped_bytes_items_ = 0;
}

bool drift_enabled() {
  return DriftAuditor::global().enabled();
}

}  // namespace edgestab::obs
