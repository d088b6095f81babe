#include "obs/manifest.h"

#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>

#include "obs/json.h"
#include "obs/metrics.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace edgestab::obs {

ResourceUsage process_usage() {
  ResourceUsage usage;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru = {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    auto seconds = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) / 1e6;
    };
    usage.user_seconds = seconds(ru.ru_utime);
    usage.sys_seconds = seconds(ru.ru_stime);
#if defined(__APPLE__)
    usage.max_rss_kb = ru.ru_maxrss / 1024;  // bytes on Darwin
#else
    usage.max_rss_kb = ru.ru_maxrss;  // KiB on Linux
#endif
  }
#endif
  return usage;
}

namespace {

std::string trim(const std::string& s) {
  std::size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  std::size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

std::string read_first_line(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in.good()) return "";
  std::string line;
  std::getline(in, line);
  return trim(line);
}

}  // namespace

std::string hex_digest(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

std::string git_head_sha() {
  std::error_code ec;
  std::filesystem::path dir = std::filesystem::current_path(ec);
  if (ec) return "";
  for (; !dir.empty(); dir = dir.parent_path()) {
    std::filesystem::path git = dir / ".git";
    if (!std::filesystem::is_directory(git, ec)) {
      if (dir == dir.parent_path()) break;
      continue;
    }
    std::string head = read_first_line(git / "HEAD");
    if (head.rfind("ref: ", 0) == 0) {
      std::string sha = read_first_line(git / head.substr(5));
      if (!sha.empty()) return sha;
      // Ref not under refs/ as a loose file (packed-refs); report the
      // symbolic target rather than nothing.
      return head.substr(5);
    }
    return head;  // detached HEAD stores the SHA directly
  }
  return "";
}

RunManifest::RunManifest(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

void RunManifest::set_seed(std::uint64_t seed) {
  has_seed_ = true;
  seed_ = seed;
}

void RunManifest::set_wall_seconds(double seconds) {
  wall_seconds_ = seconds;
}

void RunManifest::set_field(const std::string& key,
                            const std::string& value) {
  for (auto& [k, v] : string_fields_)
    if (k == key) {
      v = value;
      return;
    }
  string_fields_.emplace_back(key, value);
}

void RunManifest::set_field(const std::string& key, double value) {
  for (auto& [k, v] : number_fields_)
    if (k == key) {
      v = value;
      return;
    }
  number_fields_.emplace_back(key, value);
}

const std::string* RunManifest::find_string_field(
    const std::string& key) const {
  for (const auto& [k, v] : string_fields_)
    if (k == key) return &v;
  return nullptr;
}

std::optional<double> RunManifest::find_number_field(
    const std::string& key) const {
  for (const auto& [k, v] : number_fields_)
    if (k == key) return v;
  return std::nullopt;
}

void RunManifest::add_digest(const std::string& name, std::uint64_t digest) {
  digests_.emplace_back(name, digest);
}

void RunManifest::add_device(ManifestDevice device) {
  devices_.push_back(std::move(device));
}

void RunManifest::add_artifact(const std::string& path) {
  artifacts_.push_back(path);
}

std::string RunManifest::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("edgestab-run-manifest-v1");
  w.key("bench").value(bench_name_);
  w.key("created_unix")
      .value(static_cast<std::int64_t>(std::time(nullptr)));
  std::string sha = git_head_sha();
  w.key("git_sha").value(sha.empty() ? "unknown" : sha);
  if (has_seed_) w.key("seed").value(seed_);
  if (wall_seconds_ >= 0.0) w.key("wall_seconds").value(wall_seconds_);

  {
    w.key("fields");
    w.begin_object();
    for (const auto& [key, value] : string_fields_) w.key(key).value(value);
    for (const auto& [key, value] : number_fields_) w.key(key).value(value);
    // Process resource accounting, folded in at render time so every
    // manifest writer — bench::Run and the micro-bench hook alike —
    // gains the data. Explicit set_field() values win.
    ResourceUsage usage = process_usage();
    if (find_number_field("user_seconds") == std::nullopt)
      w.key("user_seconds").value(usage.user_seconds);
    if (find_number_field("sys_seconds") == std::nullopt)
      w.key("sys_seconds").value(usage.sys_seconds);
    if (find_number_field("max_rss_kb") == std::nullopt)
      w.key("max_rss_kb").value(static_cast<double>(usage.max_rss_kb));
    w.end_object();
  }

  if (!devices_.empty()) {
    w.key("fleet");
    w.begin_array();
    for (const ManifestDevice& d : devices_) {
      w.begin_object();
      w.key("name").value(d.name);
      w.key("model_code").value(d.model_code);
      w.key("isp").value(d.isp);
      w.key("format").value(d.format);
      w.key("quality").value(d.quality);
      w.key("soc").value(d.soc);
      w.key("digest").value(d.digest);
      w.end_object();
    }
    w.end_array();
  }

  if (!digests_.empty()) {
    w.key("digests");
    w.begin_object();
    for (const auto& [name, digest] : digests_) w.key(name).value(hex_digest(digest));
    w.end_object();
  }

  auto counters = MetricsRegistry::global().counters();
  if (!counters.empty()) {
    w.key("counters");
    w.begin_object();
    for (const auto& [name, value] : counters) w.key(name).value(value);
    w.end_object();
  }

  auto histograms = MetricsRegistry::global().histograms();
  if (!histograms.empty()) {
    auto ms = [](double ns) { return ns / 1e6; };
    w.key("stage_timing_ms");
    w.begin_object();
    for (const auto& [name, s] : histograms) {
      if (!is_timing_histogram(name)) continue;
      w.key(name);
      w.begin_object();
      w.key("count").value(s.count);
      w.key("total").value(ms(static_cast<double>(s.sum)));
      w.key("mean").value(ms(s.mean()));
      w.key("p50").value(ms(s.p50));
      w.key("p95").value(ms(s.p95));
      w.key("p99").value(ms(s.p99));
      w.end_object();
    }
    w.end_object();
  }

  if (!artifacts_.empty()) {
    w.key("artifacts");
    w.begin_array();
    for (const std::string& a : artifacts_) w.value(a);
    w.end_array();
  }

  w.end_object();
  return w.take();
}

bool RunManifest::write(const std::string& path) const {
  std::string doc = to_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "[obs] cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  bool ok = written == doc.size() && std::fclose(f) == 0;
  if (!ok) std::fprintf(stderr, "[obs] short write to %s\n", path.c_str());
  return ok;
}

}  // namespace edgestab::obs
