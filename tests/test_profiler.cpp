// Unit tests for the hot-path profiler (obs/profiler.h): scope nesting
// and the exclusive-time identity, canonical snapshot ordering,
// allocation attribution through the util/alloc_track hooks, lane-merge
// determinism (identical digests and alloc totals at any thread count),
// the profile JSON round trip, and report rendering.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "tensor/tensor.h"
#include "util/alloc_track.h"
#include "util/bytes.h"

namespace edgestab::obs {
namespace {

const ProfileNode* find_node(const std::vector<ProfileNode>& nodes,
                             const std::string& path) {
  for (const ProfileNode& n : nodes)
    if (n.path == path) return &n;
  return nullptr;
}

// Every test starts and ends with a pristine profiler so the suite works
// in any order and leaves no armed state behind for other tests.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override { Profiler::global().clear(); }
  void TearDown() override { Profiler::global().clear(); }
};

TEST_F(ProfilerTest, DisabledScopesAndAllocationsAreInert) {
  ASSERT_FALSE(Profiler::global().enabled());
  {
    ProfileScope scope("test", "ignored");
    Tensor t({8, 8});
    (void)t;
  }
  EXPECT_FALSE(Profiler::global().armed());
  EXPECT_TRUE(Profiler::global().snapshot().empty());
  EXPECT_EQ(Profiler::global().totals().alloc_count, 0u);
}

TEST_F(ProfilerTest, ScopeNestingBuildsTreeWithExclusiveTimeIdentity) {
  Profiler& p = Profiler::global();
  p.set_enabled(true);
  {
    ProfileScope outer("t", "outer");
    {
      ProfileScope inner("t", "inner");
    }
    {
      ProfileScope inner("t", "inner");  // second call, same node
    }
    {
      ProfileScope other("t", "other");
    }
  }
  p.set_enabled(false);

  auto nodes = p.snapshot();
  ASSERT_EQ(nodes.size(), 3u);
  const ProfileNode* outer = find_node(nodes, "t.outer");
  const ProfileNode* inner = find_node(nodes, "t.outer/t.inner");
  const ProfileNode* other = find_node(nodes, "t.outer/t.other");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(other, nullptr);

  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(outer->calls, 1u);
  EXPECT_EQ(inner->calls, 2u);
  EXPECT_EQ(other->calls, 1u);

  // Single-threaded region: the bookkeeping is exact, not approximate —
  // the parent's exclusive time is its inclusive time minus the summed
  // inclusive time of its (same-thread) children.
  EXPECT_EQ(outer->excl_ns,
            outer->incl_ns - inner->incl_ns - other->incl_ns);
  EXPECT_EQ(inner->excl_ns, inner->incl_ns);  // leaf
  EXPECT_GE(outer->incl_ns, inner->incl_ns + other->incl_ns);
}

TEST_F(ProfilerTest, SnapshotIsDfsPreorderWithSortedSiblings) {
  Profiler& p = Profiler::global();
  p.set_enabled(true);
  {
    // Enter siblings in anti-alphabetical order; the snapshot must not
    // depend on entry order.
    ProfileScope root("r", "root");
    { ProfileScope z("t", "zeta"); { ProfileScope leaf("t", "leaf"); } }
    { ProfileScope a("t", "alpha"); }
    { ProfileScope m("s", "mid"); }
  }
  p.set_enabled(false);

  auto nodes = p.snapshot();
  ASSERT_EQ(nodes.size(), 5u);
  EXPECT_EQ(nodes[0].path, "r.root");
  // Siblings sort by (category, name): s.mid < t.alpha < t.zeta.
  EXPECT_EQ(nodes[1].path, "r.root/s.mid");
  EXPECT_EQ(nodes[2].path, "r.root/t.alpha");
  EXPECT_EQ(nodes[3].path, "r.root/t.zeta");
  // DFS preorder: zeta's child follows zeta.
  EXPECT_EQ(nodes[4].path, "r.root/t.zeta/t.leaf");
  EXPECT_EQ(nodes[4].depth, 2);
}

TEST_F(ProfilerTest, AllocationsAttributeToInnermostScopeAndSite) {
  Profiler& p = Profiler::global();
  p.set_enabled(true);
  {
    ProfileScope outer("t", "outer");
    Bytes blob(100);
    {
      ProfileScope inner("t", "tensors");
      Tensor t({4, 8});  // 32 floats = 128 bytes at site kTensor
      (void)t;
    }
    (void)blob;
  }
  p.set_enabled(false);

  auto nodes = p.snapshot();
  const ProfileNode* outer = find_node(nodes, "t.outer");
  const ProfileNode* inner = find_node(nodes, "t.outer/t.tensors");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);

  EXPECT_GE(inner->alloc_count, 1u);
  EXPECT_GE(inner->alloc_bytes, 4u * 8u * sizeof(float));
  // The tensor died inside its scope, so its frees landed there too.
  EXPECT_EQ(inner->free_count, inner->alloc_count);
  EXPECT_EQ(inner->free_bytes, inner->alloc_bytes);
  EXPECT_GE(inner->peak_live_bytes, 4u * 8u * sizeof(float));
  // The Bytes buffer belongs to the outer scope, not the inner one.
  EXPECT_GE(outer->alloc_bytes, 100u);

  ProfileTotals totals = p.totals();
  EXPECT_EQ(totals.alloc_count, outer->alloc_count + inner->alloc_count);
  EXPECT_GE(
      totals.site_alloc_bytes[static_cast<int>(AllocSite::kTensor)],
      4u * 8u * sizeof(float));
  EXPECT_GE(totals.site_alloc_bytes[static_cast<int>(AllocSite::kBytes)],
            100u);
  EXPECT_EQ(totals.site_alloc_count[static_cast<int>(AllocSite::kImage)],
            0u);
}

TEST_F(ProfilerTest, UnscopedAllocationsLandInCatchAllNode) {
  Profiler& p = Profiler::global();
  p.set_enabled(true);
  Tensor t({2, 2});
  (void)t;
  p.set_enabled(false);

  const ProfileNode* unscoped =
      find_node(p.snapshot(), "profile.unscoped");
  ASSERT_NE(unscoped, nullptr);
  EXPECT_GE(unscoped->alloc_bytes, 2u * 2u * sizeof(float));
}

TEST_F(ProfilerTest, SuspendTracingAlsoMutesProfiler) {
  Profiler& p = Profiler::global();
  p.set_enabled(true);
  {
    SuspendTracing suspend;
    EXPECT_FALSE(p.enabled());
    ProfileScope scope("t", "hidden");
    Tensor t({4, 4});
    (void)t;
  }
  EXPECT_TRUE(p.enabled());
  p.set_enabled(false);
  EXPECT_TRUE(p.snapshot().empty());
  EXPECT_EQ(p.totals().alloc_count, 0u);
}

// One deterministic parallel workload: each item opens a profile scope
// on whatever lane runs it and allocates an item-dependent tensor. With
// ambient-scope propagation across the pool fan-out, the logical tree —
// and therefore the digest and the alloc totals — must be identical at
// every thread count.
struct WorkloadResult {
  std::string digest;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t item_calls = 0;
};

WorkloadResult run_workload(int threads) {
  runtime::ThreadPool::set_global_threads(threads);
  Profiler& p = Profiler::global();
  p.clear();
  p.set_enabled(true);
  {
    ProfileScope root("wl", "root");
    runtime::parallel_for(64, [](std::size_t i) {
      ProfileScope item("wl", "item");
      Tensor t({static_cast<int>(i % 7) + 1, 16});
      (void)t;
    }, /*grain=*/1);
  }
  p.set_enabled(false);

  WorkloadResult result;
  result.digest = p.digest_hex();
  ProfileTotals totals = p.totals();
  result.alloc_count = totals.alloc_count;
  result.alloc_bytes = totals.alloc_bytes;
  const ProfileNode* item = find_node(p.snapshot(), "wl.root/wl.item");
  if (item != nullptr) result.item_calls = item->calls;
  p.clear();
  return result;
}

TEST_F(ProfilerTest, LaneMergeIsDeterministicAcrossThreadCounts) {
  WorkloadResult one = run_workload(1);
  WorkloadResult two = run_workload(2);
  WorkloadResult eight = run_workload(8);
  runtime::ThreadPool::set_global_threads(
      runtime::ThreadPool::default_threads());

  EXPECT_EQ(one.item_calls, 64u);
  EXPECT_EQ(one.digest, two.digest);
  EXPECT_EQ(one.digest, eight.digest);
  EXPECT_EQ(one.alloc_count, two.alloc_count);
  EXPECT_EQ(one.alloc_count, eight.alloc_count);
  EXPECT_EQ(one.alloc_bytes, two.alloc_bytes);
  EXPECT_EQ(one.alloc_bytes, eight.alloc_bytes);
  EXPECT_EQ(two.item_calls, 64u);
  EXPECT_EQ(eight.item_calls, 64u);
}

TEST_F(ProfilerTest, DigestReflectsCallCounts) {
  Profiler& p = Profiler::global();
  p.set_enabled(true);
  { ProfileScope s("t", "a"); }
  p.set_enabled(false);
  std::string once = p.digest_hex();

  p.clear();
  p.set_enabled(true);
  { ProfileScope s("t", "a"); }
  { ProfileScope s("t", "a"); }
  p.set_enabled(false);
  EXPECT_NE(once, p.digest_hex());
}

TEST_F(ProfilerTest, ProfileJsonRoundTrips) {
  Profiler& p = Profiler::global();
  p.set_enabled(true);
  {
    ProfileScope root("t", "root");
    ProfileScope leaf("t", "leaf");
    Tensor t({8, 8});
    (void)t;
  }
  p.set_enabled(false);

  std::string json = profile_json(p, "unit_bench");
  std::string error;
  std::optional<JsonValue> doc = parse_json(json, &error);
  ASSERT_TRUE(doc.has_value()) << error;

  ProfileDoc parsed;
  ASSERT_TRUE(parse_profile(*doc, &parsed, &error)) << error;
  EXPECT_EQ(parsed.bench, "unit_bench");
  EXPECT_EQ(parsed.digest, p.digest_hex());

  auto nodes = p.snapshot();
  ASSERT_EQ(parsed.nodes.size(), nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(parsed.nodes[i].path, nodes[i].path);
    EXPECT_EQ(parsed.nodes[i].depth, nodes[i].depth);
    EXPECT_EQ(parsed.nodes[i].calls, nodes[i].calls);
    EXPECT_EQ(parsed.nodes[i].incl_ns, nodes[i].incl_ns);
    EXPECT_EQ(parsed.nodes[i].excl_ns, nodes[i].excl_ns);
    EXPECT_EQ(parsed.nodes[i].alloc_count, nodes[i].alloc_count);
    EXPECT_EQ(parsed.nodes[i].alloc_bytes, nodes[i].alloc_bytes);
    EXPECT_EQ(parsed.nodes[i].free_count, nodes[i].free_count);
    EXPECT_EQ(parsed.nodes[i].peak_live_bytes, nodes[i].peak_live_bytes);
  }

  ProfileTotals totals = p.totals();
  EXPECT_EQ(parsed.totals.alloc_count, totals.alloc_count);
  EXPECT_EQ(parsed.totals.alloc_bytes, totals.alloc_bytes);
  EXPECT_EQ(parsed.totals.free_bytes, totals.free_bytes);
  for (int s = 0; s < kAllocSiteCount; ++s) {
    EXPECT_EQ(parsed.totals.site_alloc_count[s],
              totals.site_alloc_count[s]);
    EXPECT_EQ(parsed.totals.site_alloc_bytes[s],
              totals.site_alloc_bytes[s]);
  }
}

TEST_F(ProfilerTest, ParseProfileRejectsWrongSchema) {
  std::string error;
  std::optional<JsonValue> doc =
      parse_json("{\"schema\":\"not-a-profile\",\"nodes\":[]}", &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ProfileDoc parsed;
  EXPECT_FALSE(parse_profile(*doc, &parsed, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(ProfilerTest, HotspotTableAndHtmlRenderNodes) {
  Profiler& p = Profiler::global();
  p.set_enabled(true);
  {
    ProfileScope root("bench", "unit");
    ProfileScope stage("isp", "demosaic");
    Tensor t({16, 16});
    (void)t;
  }
  p.set_enabled(false);

  auto nodes = p.snapshot();
  std::string table = hotspot_table(nodes);
  EXPECT_NE(table.find("isp.demosaic"), std::string::npos);
  EXPECT_NE(table.find("excl_ms"), std::string::npos);

  std::string html = profile_html(nodes, p.totals(), "unit_bench");
  EXPECT_NE(html.find("<html"), std::string::npos);
  EXPECT_NE(html.find("unit_bench"), std::string::npos);
  EXPECT_NE(html.find("isp.demosaic"), std::string::npos);
}

TEST_F(ProfilerTest, ProfileHtmlEscapesHostileScopeLabels) {
  Profiler& p = Profiler::global();
  p.set_enabled(true);
  {
    // Scope labels are user data (bench/stage names flow in verbatim)
    // and must come out HTML-escaped in the report.
    ProfileScope hostile("bench", "<script>alert('x')</script>");
    Tensor t({8, 8});
    (void)t;
  }
  p.set_enabled(false);

  std::string html =
      profile_html(p.snapshot(), p.totals(), "unit<bench> & \"quoted\"");
  EXPECT_EQ(html.find("<script>alert"), std::string::npos);
  EXPECT_EQ(html.find("unit<bench>"), std::string::npos);
  EXPECT_NE(html.find("&lt;script&gt;alert"), std::string::npos);
  EXPECT_NE(html.find("unit&lt;bench&gt; &amp; &quot;quoted&quot;"),
            std::string::npos);
}

TEST_F(ProfilerTest, WriteProfileReportEmitsArtifactsAndManifestFields) {
  Profiler& p = Profiler::global();
  p.set_enabled(true);
  {
    ProfileScope root("t", "root");
    Tensor t({8, 8});
    (void)t;
  }
  p.set_enabled(false);

  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "edgestab_profiler_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  RunManifest manifest("unit_bench");
  ASSERT_TRUE(
      write_profile_report(p, "unit_bench", dir.string(), &manifest));

  std::filesystem::path json_path = dir / "unit_bench.profile.json";
  std::filesystem::path html_path = dir / "unit_bench.profile.html";
  EXPECT_TRUE(std::filesystem::exists(json_path));
  EXPECT_TRUE(std::filesystem::exists(html_path));

  std::ifstream in(json_path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::string error;
  ProfileDoc parsed;
  std::optional<JsonValue> doc = parse_json(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(parse_profile(*doc, &parsed, &error)) << error;
  EXPECT_EQ(parsed.digest, p.digest_hex());

  const std::string* digest = manifest.find_string_field("profile_digest");
  ASSERT_NE(digest, nullptr);
  EXPECT_EQ(*digest, p.digest_hex());
  EXPECT_TRUE(manifest.find_number_field("profile_alloc_count").has_value());
  EXPECT_TRUE(manifest.find_number_field("profile_alloc_bytes").has_value());
  EXPECT_NE(manifest.to_json().find("unit_bench.profile.json"),
            std::string::npos);

  std::filesystem::remove_all(dir);
}

TEST_F(ProfilerTest, ClearResetsEverything) {
  Profiler& p = Profiler::global();
  p.set_enabled(true);
  {
    ProfileScope s("t", "a");
    Tensor t({4, 4});
    (void)t;
  }
  EXPECT_TRUE(p.armed());
  p.clear();
  EXPECT_FALSE(p.armed());
  EXPECT_FALSE(p.enabled());
  EXPECT_TRUE(p.snapshot().empty());
  EXPECT_EQ(p.totals().alloc_count, 0u);
  EXPECT_EQ(p.totals().alloc_bytes, 0u);
}

}  // namespace
}  // namespace edgestab::obs
