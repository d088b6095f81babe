// Hot-path profiler: span-tree time attribution + allocation tracking.
//
// The tracer (obs/trace.h) records raw per-thread span events — great
// for timeline views, but its nesting is physical (which OS thread ran
// the code), so the same run folds into different trees at different
// --threads settings: the pool's dynamic scheduling makes chunk bodies
// children of whatever lane claimed them. The profiler instead maintains
// a LOGICAL call tree, live: every profile scope pushes onto a
// thread-local stack, and the thread pool propagates the submitting
// scope across the fan-out edge (runtime/task_context.h), so a span that
// runs on a worker lane still nests under the scope that dispatched it.
// Node identity — (parent, category, name) — is therefore invariant
// under thread count, and so are call counts and allocation totals.
//
// Per node the profiler aggregates: call count, inclusive wall time,
// exclusive wall time (inclusive minus same-thread child time), a
// per-call latency histogram (p50/p95), and — through the allocation
// hooks in util/alloc_track.h — allocation count/bytes, free
// count/bytes and peak live bytes attributed to the innermost open
// scope at allocation time.
//
// Determinism contract (mirrors FlipLedger/FaultLedger):
//   deterministic at any --threads:  node set, paths, call counts,
//       alloc/free counts and bytes — these feed the profile digest.
//   timing-dependent (never digested): inclusive/exclusive ns,
//       quantiles, peak live bytes (peaks depend on overlap).
// Exports order nodes canonically (DFS preorder, siblings sorted by
// category.name) regardless of the interleaving that built the tree.
//
// Exclusive-time identity: excl = incl − Σ(same-thread child incl), so
// over any single-threaded region Σ excl over the subtree telescopes to
// the root's inclusive time exactly. A scope that fans out to the pool
// keeps its parallel children's time in its own exclusive figure (the
// region's wall time IS attributable to it); the children additionally
// report their own inclusive/exclusive, which overlap in wall terms —
// the profile reports per-node attribution, not a partition of wall.
//
// Every ES_TRACE_SCOPE site (obs/obs.h) opens a profile scope and every
// tracked container reports through util/alloc_track.h; both stay inert
// until a bench arms the profiler (--profile).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"
#include "util/alloc_track.h"

namespace edgestab::obs {

class RunManifest;

/// One aggregated call-tree node, snapshotted. Nodes arrive in DFS
/// preorder with siblings sorted by label, so `depth` reconstructs the
/// tree shape and `path` ("/"-joined "category.name" labels) is unique.
struct ProfileNode {
  std::string path;
  std::string category;
  std::string name;
  int depth = 0;
  std::uint64_t calls = 0;
  std::uint64_t incl_ns = 0;
  std::uint64_t excl_ns = 0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t free_count = 0;
  std::uint64_t free_bytes = 0;
  std::uint64_t peak_live_bytes = 0;  ///< timing-dependent, not digested
};

/// Whole-run allocation totals with the per-site breakdown.
struct ProfileTotals {
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t free_count = 0;
  std::uint64_t free_bytes = 0;
  std::uint64_t peak_live_bytes = 0;  ///< timing-dependent, not digested
  std::uint64_t site_alloc_count[kAllocSiteCount] = {};
  std::uint64_t site_alloc_bytes[kAllocSiteCount] = {};
};

/// Process-wide profiler. Disabled by default; a bench arms it with
/// set_enabled(true) (the --profile flag). Scope begin/end and the
/// allocation hooks are the hot path: a relaxed flag load when disabled,
/// a thread-local stack push/pop plus relaxed atomics when enabled.
class Profiler {
 public:
  static Profiler& global();

  bool enabled() const;
  /// Enabling the first time installs the allocation and task-context
  /// hooks and latches armed(); disabling leaves them installed (they
  /// check enabled()) so mute/unmute is cheap and nesting-safe.
  void set_enabled(bool enabled);

  /// True once set_enabled(true) ever ran (until clear()): the signal
  /// that this run wants profile artifacts exported.
  bool armed() const;

  /// Drop every node and total and un-latch armed(). Must not run while
  /// any profile scope is open (tests and repeat harnesses call it
  /// between runs).
  void clear();

  /// Scope hot path (ProfileScope calls these; begin/end must pair on
  /// the same thread).
  void begin_scope(const char* category, const char* name);
  void end_scope();

  /// Allocation hot path (installed into util/alloc_track hooks).
  void on_alloc(AllocSite site, std::size_t bytes);
  void on_free(AllocSite site, std::size_t bytes);

  /// Canonical snapshot: DFS preorder, siblings sorted by label. Taken
  /// after parallel regions join (exporters run post-join).
  std::vector<ProfileNode> snapshot() const;
  ProfileTotals totals() const;

  /// Fingerprint over the deterministic fields of the canonical
  /// snapshot: paths, call counts, alloc/free counts and bytes. Equal
  /// at any --threads for a deterministic workload.
  std::string digest_hex() const;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

 private:
  Profiler() = default;
};

/// RAII profile scope; no-op unless the profiler is enabled at
/// construction (an end always pairs with its begin even if the
/// profiler is muted mid-scope). Usually emitted via the macros in
/// obs/obs.h rather than constructed directly.
class ProfileScope {
 public:
  ProfileScope(const char* category, const char* name) {
    Profiler& profiler = Profiler::global();
    if (!profiler.enabled()) return;
    active_ = true;
    profiler.begin_scope(category, name);
  }
  ~ProfileScope() {
    if (active_) Profiler::global().end_scope();
  }

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  bool active_ = false;
};

/// Parsed profile document (sentinel tooling + tests read profile.json
/// back through this).
struct ProfileDoc {
  std::string bench;
  std::string digest;
  ProfileTotals totals;
  double total_excl_ms = 0.0;
  double root_incl_ms = 0.0;
  std::vector<ProfileNode> nodes;
};

/// JSON document (schema "edgestab-profile-v1") of the profiler state.
std::string profile_json(const Profiler& profiler,
                         const std::string& bench_name);

/// Parse a profile document produced by profile_json.
bool parse_profile(const JsonValue& doc, ProfileDoc* out, std::string* error);

/// Top-N hotspot table (sorted by exclusive time) as printable text.
std::string hotspot_table(const std::vector<ProfileNode>& nodes,
                          std::size_t top_n = 12);

/// Self-contained flame-style HTML report (inline CSS, no scripts, no
/// external assets).
std::string profile_html(const std::vector<ProfileNode>& nodes,
                         const ProfileTotals& totals,
                         const std::string& bench_name);

/// Write <bench>.profile.json + <bench>.profile.html into `dir`, print
/// the hotspot table to stdout, and register artifacts, the profile
/// digest and headline allocation fields on `manifest` when given.
/// False on I/O failure.
bool write_profile_report(const Profiler& profiler,
                          const std::string& bench_name,
                          const std::string& dir, RunManifest* manifest);

}  // namespace edgestab::obs
