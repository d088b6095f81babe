// Prediction-flip ledger — the "which stimulus flipped where" half of
// the divergence auditor.
//
// core/instability reduces a set of per-environment observations to a
// single instability number; the ledger keeps the receipts. For every
// experiment group it records, per stimulus, which environments got it
// right and which got it wrong, tallies correct↔incorrect flips by
// ground-truth class and by (env, env) pair, and reproduces the exact
// item bookkeeping of `compute_instability` so its totals can be
// cross-checked against the paper metric for the same run (bench::Run
// fails the bench if they ever disagree).
//
// The ledger is plain bookkeeping — no images, no tensors — so it lives
// in src/obs; the drift auditor simply never feeds it while disabled.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace edgestab::obs {

/// One classification outcome of one stimulus in one environment —
/// a mirror of core's Observation, kept dependency-free so obs does not
/// link core.
struct FlipOutcome {
  int item = 0;
  int env = 0;
  bool correct = false;
  int predicted = -1;
  int class_id = -1;
};

/// One recorded correct↔incorrect flip: `env_correct` classified `item`
/// correctly while `env_incorrect` did not.
struct FlipEntry {
  int item = 0;
  int class_id = -1;
  int env_correct = 0;
  int env_incorrect = 0;
  int predicted_correct = -1;
  int predicted_incorrect = -1;
};

/// Per-group summary. The four *_items counters follow the exact
/// semantics of core::compute_instability: items seen in fewer than two
/// environments are skipped, an item is unstable iff at least one env is
/// correct AND at least one is incorrect, and all-wrong items stay in
/// the denominator.
struct LedgerGroupSummary {
  std::string group;
  int total_items = 0;
  int unstable_items = 0;
  int all_correct_items = 0;
  int all_incorrect_items = 0;

  /// Flip pair counts: one per (correct env, incorrect env) pair over
  /// all unstable items.
  std::map<int, int> flips_by_class;        ///< class_id -> flip pairs
  std::map<int, int> unstable_by_class;     ///< class_id -> unstable items
  std::map<std::pair<int, int>, int> flips_by_pair;  ///< (envA, envB) -> pairs

  /// Individual flip records, capped; `dropped_entries` counts the rest.
  std::vector<FlipEntry> entries;
  std::int64_t dropped_entries = 0;

  double instability() const {
    return total_items > 0
               ? static_cast<double>(unstable_items) / total_items
               : 0.0;
  }
};

/// Accumulates flip summaries per experiment group. Thread-compatible
/// (callers add whole groups; the DriftAuditor serializes access).
class FlipLedger {
 public:
  /// Max individual FlipEntry records kept per group; by-class /
  /// by-pair tallies are exact regardless.
  static constexpr std::size_t kMaxEntriesPerGroup = 20000;

  /// Ingest one experiment group's outcomes. If the group name was seen
  /// before the outcomes are appended to the existing per-item tallies
  /// and the summary is recomputed.
  void add_group(const std::string& group,
                 std::span<const FlipOutcome> outcomes);

  /// Fold another ledger (a per-thread shard) into this one. Each
  /// affected group's raw outcomes are re-sorted by (item, env), so the
  /// merged ledger — entries, tallies and digest() — is identical no
  /// matter how the work was sharded or in which order shards merge.
  void merge(const FlipLedger& other);

  std::vector<LedgerGroupSummary> summaries() const;
  std::optional<LedgerGroupSummary> find_group(const std::string& group) const;
  bool empty() const { return raw_.empty(); }

  /// Stable fingerprint over all group totals (for the provenance
  /// manifest digest).
  std::uint64_t digest() const;

  void clear();

 private:
  // Raw outcomes per group; summaries are rebuilt on demand so repeated
  // add_group calls for one group stay consistent.
  std::map<std::string, std::vector<FlipOutcome>> raw_;

  LedgerGroupSummary build_summary(const std::string& group) const;
};

}  // namespace edgestab::obs
