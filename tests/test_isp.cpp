// ISP + sensor tests: CFA geometry, raw container round-trips, sensor
// noise statistics and determinism, demosaic correctness on synthetic
// mosaics, individual stage invariants, pipeline composition, and the
// software-ISP consistency property the §6 experiment relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "image/metrics.h"
#include "isp/pipeline.h"
#include "isp/raw.h"
#include "isp/sensor.h"
#include "isp/software_isp.h"
#include "isp/stages.h"
#include "tensor/backend.h"
#include "util/rng.h"
#include "util/stats.h"

namespace edgestab {
namespace {

TEST(Cfa, RggbPattern) {
  EXPECT_EQ(cfa_color(BayerPattern::kRggb, 0, 0), 0);  // R
  EXPECT_EQ(cfa_color(BayerPattern::kRggb, 1, 0), 1);  // G
  EXPECT_EQ(cfa_color(BayerPattern::kRggb, 0, 1), 1);  // G
  EXPECT_EQ(cfa_color(BayerPattern::kRggb, 1, 1), 2);  // B
  // Periodicity.
  EXPECT_EQ(cfa_color(BayerPattern::kRggb, 4, 6), 0);
}

TEST(Cfa, BggrPattern) {
  EXPECT_EQ(cfa_color(BayerPattern::kBggr, 0, 0), 2);
  EXPECT_EQ(cfa_color(BayerPattern::kBggr, 1, 1), 0);
}

TEST(RawImage, SerializeRoundTripAtBitDepth) {
  Pcg32 rng(1);
  RawImage raw(16, 12, BayerPattern::kRggb, 0.06f, 10);
  for (float& v : raw.data())
    v = static_cast<float>(rng.uniform());
  // Quantize to the container's own precision first, then expect an
  // exact round-trip.
  Bytes data = raw.serialize();
  RawImage back = RawImage::deserialize(data);
  EXPECT_EQ(back.width(), 16);
  EXPECT_EQ(back.height(), 12);
  EXPECT_EQ(back.bit_depth(), 10);
  EXPECT_FLOAT_EQ(back.black_level(), 0.06f);
  for (std::size_t i = 0; i < raw.data().size(); ++i)
    EXPECT_NEAR(back.data()[i], raw.data()[i], 1.0f / 1023.0f);
  // Second round-trip is exact.
  EXPECT_EQ(RawImage::deserialize(back.serialize()).data(), back.data());
}

TEST(RawImage, DeserializeRejectsGarbage) {
  Bytes garbage{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_THROW(RawImage::deserialize(garbage), CheckError);
}

TEST(Sensor, DeterministicGivenSameRngState) {
  Image scene(32, 32, 3, 0.5f);
  SensorConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  Pcg32 rng1(7, 3), rng2(7, 3);
  RawImage a = expose_sensor(scene, cfg, rng1);
  RawImage b = expose_sensor(scene, cfg, rng2);
  EXPECT_EQ(a.data(), b.data());
}

TEST(Sensor, TemporalNoiseDiffersAcrossShots) {
  Image scene(32, 32, 3, 0.5f);
  SensorConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  Pcg32 rng(7, 3);
  RawImage a = expose_sensor(scene, cfg, rng);
  RawImage b = expose_sensor(scene, cfg, rng);
  EXPECT_NE(a.data(), b.data());
  // But only slightly: shots of the same scene are nearly identical.
  double mad = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i)
    mad += std::abs(a.data()[i] - b.data()[i]);
  mad /= static_cast<double>(a.data().size());
  EXPECT_LT(mad, 0.02);
}

TEST(Sensor, MeanLevelTracksSceneBrightness) {
  SensorConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  cfg.vignetting = 0.0f;
  Pcg32 rng(9);
  for (float level : {0.2f, 0.5f, 0.8f}) {
    Image scene(32, 32, 3, level);
    RawImage raw = expose_sensor(scene, cfg, rng);
    RunningStats s;
    for (float v : raw.data()) s.add(v);
    float expected = cfg.black_level + (1.0f - cfg.black_level) * level;
    EXPECT_NEAR(s.mean(), expected, 0.02) << "level=" << level;
  }
}

TEST(Sensor, VignettingDarkensCorners) {
  SensorConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  cfg.vignetting = 0.3f;
  cfg.read_noise = 0.0f;
  cfg.full_well = 1e7f;  // effectively noiseless
  Image scene(32, 32, 3, 0.6f);
  Pcg32 rng(11);
  RawImage raw = expose_sensor(scene, cfg, rng);
  float center = raw.at(16, 16);
  float corner = raw.at(0, 0);
  EXPECT_GT(center, corner + 0.05f);
}

TEST(Sensor, PrnuFixedPerUnit) {
  SensorConfig cfg;
  cfg.width = 16;
  cfg.height = 16;
  cfg.read_noise = 0.0f;
  cfg.full_well = 1e7f;
  cfg.prnu_sigma = 0.05f;
  Image scene(16, 16, 3, 0.5f);
  Pcg32 rng1(1, 1), rng2(2, 9);
  RawImage a = expose_sensor(scene, cfg, rng1);
  RawImage b = expose_sensor(scene, cfg, rng2);
  // Same unit seed -> same fixed pattern even with different temporal rng.
  for (std::size_t i = 0; i < a.data().size(); ++i)
    EXPECT_NEAR(a.data()[i], b.data()[i], 2e-3f);
  // Different unit seed -> different pattern.
  cfg.unit_seed = 999;
  Pcg32 rng3(1, 1);
  RawImage c = expose_sensor(scene, cfg, rng3);
  EXPECT_NE(a.data(), c.data());
}

TEST(Stages, BlackLevelSubtraction) {
  RawImage raw(8, 8, BayerPattern::kRggb, 0.1f, 10);
  for (float& v : raw.data()) v = 0.55f;
  black_level_subtract(raw);
  for (float v : raw.data()) EXPECT_NEAR(v, 0.5f, 1e-5f);
}

/// Build a mosaic from a known constant-color image.
RawImage mosaic_of(float r, float g, float b, int size,
                   BayerPattern pattern = BayerPattern::kRggb) {
  RawImage raw(size, size, pattern, 0.0f, 10);
  for (int y = 0; y < size; ++y)
    for (int x = 0; x < size; ++x) {
      int c = raw.color_at(x, y);
      raw.at(x, y) = c == 0 ? r : (c == 1 ? g : b);
    }
  return raw;
}

class DemosaicTest
    : public ::testing::TestWithParam<std::pair<DemosaicKind, BayerPattern>> {
};

TEST_P(DemosaicTest, RecoversConstantColors) {
  auto [kind, pattern] = GetParam();
  RawImage raw = mosaic_of(0.7f, 0.4f, 0.2f, 16, pattern);
  Image rgb = demosaic(raw, kind);
  // Interior pixels recover the exact constant color.
  for (int y = 4; y < 12; ++y)
    for (int x = 4; x < 12; ++x) {
      EXPECT_NEAR(rgb.at(x, y, 0), 0.7f, 0.02f);
      EXPECT_NEAR(rgb.at(x, y, 1), 0.4f, 0.02f);
      EXPECT_NEAR(rgb.at(x, y, 2), 0.2f, 0.02f);
    }
}

TEST_P(DemosaicTest, PreservesSampledSites) {
  auto [kind, pattern] = GetParam();
  Pcg32 rng(13);
  RawImage raw(12, 12, pattern, 0.0f, 10);
  for (float& v : raw.data()) v = static_cast<float>(rng.uniform());
  Image rgb = demosaic(raw, kind);
  for (int y = 0; y < 12; ++y)
    for (int x = 0; x < 12; ++x)
      EXPECT_FLOAT_EQ(rgb.at(x, y, raw.color_at(x, y)), raw.at(x, y));
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndPatterns, DemosaicTest,
    ::testing::Values(
        std::make_pair(DemosaicKind::kBilinear, BayerPattern::kRggb),
        std::make_pair(DemosaicKind::kBilinear, BayerPattern::kBggr),
        std::make_pair(DemosaicKind::kMalvar, BayerPattern::kRggb),
        std::make_pair(DemosaicKind::kMalvar, BayerPattern::kBggr)));

TEST(Stages, MalvarSharperThanBilinearOnEdges) {
  // A vertical step edge: gradient-corrected demosaicing should
  // reconstruct it with lower error than plain bilinear.
  int size = 32;
  RawImage raw(size, size, BayerPattern::kRggb, 0.0f, 12);
  Image truth(size, size, 3);
  for (int y = 0; y < size; ++y)
    for (int x = 0; x < size; ++x) {
      float v = x < size / 2 ? 0.2f : 0.8f;
      for (int c = 0; c < 3; ++c) truth.at(x, y, c) = v;
      raw.at(x, y) = v;
    }
  Image bil = demosaic(raw, DemosaicKind::kBilinear);
  Image mal = demosaic(raw, DemosaicKind::kMalvar);
  EXPECT_LT(mse(mal, truth), mse(bil, truth));
}

/// Runs a test body on the scalar tier, restoring the caller's tier.
class ScalarTier {
 public:
  ScalarTier() : prev_(active_backend()) {
    set_active_backend(BackendKind::kScalar);
  }
  ~ScalarTier() { set_active_backend(prev_); }

 private:
  BackendKind prev_;
};

bool same_bytes(const Image& a, const Image& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

TEST(Stages, ScalarMalvarInteriorMatchesClampedBorder) {
  // Pad a mosaic S by two clamp-replicated pixels on every side (an even
  // offset keeps the CFA phase). The padded mosaic's interior runs the
  // in-bounds loop over exactly the taps S's clamped border reference
  // reads, so every pixel of S must come back bit for bit.
  ScalarTier scalar;
  Pcg32 rng(19);
  const int sizes[][2] = {{3, 4}, {5, 5}, {6, 9}, {64, 64}};
  for (BayerPattern pattern : {BayerPattern::kRggb, BayerPattern::kBggr})
    for (const auto& size : sizes) {
      const int w = size[0], h = size[1];
      RawImage small(w, h, pattern, 0.0f, 10);
      for (float& v : small.data()) v = static_cast<float>(rng.uniform());
      RawImage padded(w + 4, h + 4, pattern, 0.0f, 10);
      for (int y = 0; y < h + 4; ++y)
        for (int x = 0; x < w + 4; ++x)
          padded.at(x, y) = small.at_clamped(x - 2, y - 2);
      const Image want = demosaic(small, DemosaicKind::kMalvar);
      const Image big = demosaic(padded, DemosaicKind::kMalvar);
      Image got(w, h, 3);
      for (int c = 0; c < 3; ++c)
        for (int y = 0; y < h; ++y)
          for (int x = 0; x < w; ++x) got.at(x, y, c) = big.at(x + 2, y + 2, c);
      EXPECT_TRUE(same_bytes(got, want)) << w << "x" << h;
    }
}

TEST(Stages, ScalarBoxBlurMatchesClampedTapLoop) {
  ScalarTier scalar;
  Pcg32 rng(21);
  const int sizes[][2] = {{1, 1}, {2, 3}, {5, 7}, {64, 64}};
  for (const auto& size : sizes)
    for (int radius = 1; radius <= 3; ++radius) {
      const int w = size[0], h = size[1];
      Image src(w, h, 3);
      for (float& v : src.data()) v = static_cast<float>(rng.uniform());
      const float inv =
          1.0f / static_cast<float>((2 * radius + 1) * (2 * radius + 1));
      Image want(w, h, 3);
      for (int c = 0; c < 3; ++c)
        for (int y = 0; y < h; ++y)
          for (int x = 0; x < w; ++x) {
            float sum = 0.0f;
            for (int dy = -radius; dy <= radius; ++dy)
              for (int dx = -radius; dx <= radius; ++dx)
                sum += src.at_clamped(x + dx, y + dy, c);
            want.at(x, y, c) = sum * inv;
          }
      EXPECT_TRUE(same_bytes(box_blur(src, radius), want))
          << w << "x" << h << " radius " << radius;
    }
}

TEST(Stages, WhiteBalancePreset) {
  Image img(4, 4, 3, 0.5f);
  white_balance_preset(img, {2.0f, 1.0f, 0.5f});
  EXPECT_FLOAT_EQ(img.at(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(img.at(0, 0, 1), 0.5f);
  EXPECT_FLOAT_EQ(img.at(0, 0, 2), 0.25f);
}

TEST(Stages, GrayWorldEqualizesChannelMeans) {
  Pcg32 rng(15);
  Image img(16, 16, 3);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x) {
      img.at(x, y, 0) = 0.6f + static_cast<float>(rng.uniform(-0.1, 0.1));
      img.at(x, y, 1) = 0.4f + static_cast<float>(rng.uniform(-0.1, 0.1));
      img.at(x, y, 2) = 0.2f + static_cast<float>(rng.uniform(-0.1, 0.1));
    }
  white_balance_gray_world(img);
  std::array<double, 3> means{};
  for (int c = 0; c < 3; ++c) {
    for (float v : img.plane(c)) means[static_cast<std::size_t>(c)] += v;
    means[static_cast<std::size_t>(c)] /= 256.0;
  }
  EXPECT_NEAR(means[0], means[1], 1e-4);
  EXPECT_NEAR(means[1], means[2], 1e-4);
}

TEST(Stages, ToneMapMonotoneAndBounded) {
  Image img(8, 1, 3);
  for (int x = 0; x < 8; ++x)
    for (int c = 0; c < 3; ++c)
      img.at(x, 0, c) = static_cast<float>(x) / 7.0f;
  tone_map(img, 2.2f, 0.4f);
  for (int x = 1; x < 8; ++x)
    EXPECT_GE(img.at(x, 0, 0), img.at(x - 1, 0, 0));
  EXPECT_NEAR(img.at(0, 0, 0), 0.0f, 1e-5f);
  EXPECT_NEAR(img.at(7, 0, 0), 1.0f, 1e-5f);
}

TEST(Stages, DenoiseReducesNoiseEnergy) {
  Pcg32 rng(17);
  Image clean(16, 16, 3, 0.5f);
  Image noisy = clean;
  for (float& v : noisy.data())
    v += static_cast<float>(rng.normal(0.0, 0.05));
  Image denoised = noisy;
  denoise_box(denoised, 1, 0.8f);
  EXPECT_LT(mse(denoised, clean), mse(noisy, clean));
}

TEST(Stages, SharpenAmplifiesEdges) {
  Image img(16, 16, 3);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x)
      for (int c = 0; c < 3; ++c)
        img.at(x, y, c) = x < 8 ? 0.3f : 0.7f;
  Image sharpened = img;
  sharpen_unsharp(sharpened, 1, 1.0f);
  // Overshoot on both sides of the edge.
  EXPECT_LT(sharpened.at(7, 8, 0), img.at(7, 8, 0));
  EXPECT_GT(sharpened.at(8, 8, 0), img.at(8, 8, 0));
}

TEST(Stages, SaturationIdentityAndGray) {
  Pcg32 rng(19);
  Image img(4, 4, 3);
  for (float& v : img.data()) v = static_cast<float>(rng.uniform());
  Image copy = img;
  saturate(copy, 1.0f);
  for (std::size_t i = 0; i < img.data().size(); ++i)
    EXPECT_FLOAT_EQ(copy.data()[i], img.data()[i]);
  saturate(copy, 0.0f);  // full desaturation -> all channels equal
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x) {
      EXPECT_NEAR(copy.at(x, y, 0), copy.at(x, y, 1), 1e-5f);
      EXPECT_NEAR(copy.at(x, y, 1), copy.at(x, y, 2), 1e-5f);
    }
}

TEST(Pipeline, OutputsDisplayRangeImage) {
  SensorConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  Image scene(32, 32, 3, 0.5f);
  Pcg32 rng(21);
  RawImage raw = expose_sensor(scene, cfg, rng);
  Image out = run_isp(raw, IspConfig{});
  EXPECT_EQ(out.width(), 32);
  EXPECT_EQ(out.channels(), 3);
  for (float v : out.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(SoftwareIsp, ConsistentButDifferent) {
  // The §6 property: each converter is deterministic, and the two
  // produce visibly different renditions of identical raws.
  SensorConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  Pcg32 rng(23);
  Image scene(32, 32, 3);
  for (float& v : scene.data()) v = static_cast<float>(rng.uniform());
  Pcg32 shot_rng(5, 5);
  RawImage raw = expose_sensor(scene, cfg, shot_rng);

  Image a1 = run_isp(raw, magick_isp());
  Image a2 = run_isp(raw, magick_isp());
  EXPECT_EQ(to_u8(a1), to_u8(a2));  // consistent

  Image b = run_isp(raw, photo_isp());
  EXPECT_GT(diff_fraction(a1, b, 0.05f), 0.05);  // different rendition
}

}  // namespace
}  // namespace edgestab
