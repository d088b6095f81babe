#include "isp/stages.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "image/color.h"
#include "tensor/backend.h"
#include "tensor/kernels_avx2.h"

namespace edgestab {

namespace {

/// a * b + c in one rounding wherever the target has FMA, else in two.
/// This file builds with -ffp-contract=off, so the compiler fuses
/// nothing on its own; each fmadd below stands where GCC's default
/// contraction fused that product into its sum in the reference build,
/// which keeps every stage bit-identical to it on every host.
inline float fmadd(float a, float b, float c) {
#ifdef __FMA__
  return std::fma(a, b, c);
#else
  return a * b + c;
#endif
}

}  // namespace

void black_level_subtract(RawImage& raw) {
  const float black = raw.black_level();
  const float scale = 1.0f / (1.0f - black);
  for (float& v : raw.data())
    v = std::max(0.0f, (v - black) * scale);
}

namespace {

/// Parity (x & 1, y & 1) of the red CFA site for `pattern`.
void red_site_parity(BayerPattern pattern, int& red_x, int& red_y) {
  red_x = red_y = 0;
  for (int py = 0; py < 2; ++py)
    for (int px = 0; px < 2; ++px)
      if (cfa_color(pattern, px, py) == 0) {
        red_x = px;
        red_y = py;
      }
}

/// Scalar-reference bilinear interpolation of one pixel: each missing
/// color is the average of adjacent same-color sites (out-of-bounds
/// neighbors are skipped, not clamped — clamping would mix in a
/// different CFA color at the borders).
void demosaic_bilinear_px(const RawImage& raw, Image& out, int x, int y) {
  const int w = raw.width();
  const int h = raw.height();
  int c = raw.color_at(x, y);
  out.at(x, y, c) = raw.at(x, y);
  for (int miss = 0; miss < 3; ++miss) {
    if (miss == c) continue;
    float sum = 0.0f;
    int count = 0;
    for (int dy = -1; dy <= 1; ++dy)
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0) continue;
        int sx = x + dx, sy = y + dy;
        if (sx < 0 || sx >= w || sy < 0 || sy >= h) continue;
        if (raw.color_at(sx, sy) != miss) continue;
        sum += raw.at(sx, sy);
        ++count;
      }
    out.at(x, y, miss) = count > 0 ? sum / static_cast<float>(count)
                                   : raw.at(x, y);
  }
}

Image demosaic_bilinear(const RawImage& raw) {
  const int w = raw.width();
  const int h = raw.height();
  Image out(w, h, 3);
  if (use_avx2() && w >= 12 && h > 2) {
    // Interior rows run the vector kernel; the 1-pixel border keeps the
    // fully-checked scalar reference.
    for (int x = 0; x < w; ++x) {
      demosaic_bilinear_px(raw, out, x, 0);
      demosaic_bilinear_px(raw, out, x, h - 1);
    }
    for (int y = 1; y < h - 1; ++y) {
      demosaic_bilinear_px(raw, out, 0, y);
      demosaic_bilinear_px(raw, out, w - 1, y);
    }
    int red_x, red_y;
    red_site_parity(raw.pattern(), red_x, red_y);
    avx2::demosaic_bilinear_rows_f32(
        raw.data().data(), w, h, red_x, red_y, 1, h - 1,
        out.plane(0).data(), out.plane(1).data(), out.plane(2).data());
    return out;
  }
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) demosaic_bilinear_px(raw, out, x, y);
  return out;
}

/// The 5x5 neighbourhood of one CFA site, as Malvar-He-Cutler reads it.
struct MalvarTaps {
  float v0;
  float l, r, u, d;      ///< axial, distance 1
  float ll, rr, uu, dd;  ///< axial, distance 2
  float ul, ur, dl, dr;  ///< diagonal, distance 1
};

/// Malvar-He-Cutler estimates at one site (the 5x5 kernels from the 2004
/// paper, coefficients /8) into `rgb[3]`. `c` is the site's CFA colour;
/// at a green site `ch`/`cv` are the colours of its horizontal/vertical
/// neighbours. Shared by the clamped border and the in-bounds interior,
/// so the two agree bit for bit.
void malvar_site(const MalvarTaps& t, int c, int ch, int cv, float* rgb) {
  const float lr = t.l + t.r;
  const float ud = t.u + t.d;
  const float llrr = t.ll + t.rr;
  const float uudd = t.uu + t.dd;
  const float cross = lr + t.u + t.d;
  const float axial2 = llrr + t.uu + t.dd;
  const float diag = t.ul + t.ur + t.dl + t.dr;
  rgb[c] = t.v0;
  if (c != 1) {
    // Green at an R or B site.
    const float g = (fmadd(2.0f, cross, 4.0f * t.v0) - axial2) / 8.0f;
    rgb[1] = std::max(g, 0.0f);
    // Opposite color (R at B / B at R): diagonal kernel.
    const float opp =
        fmadd(-1.5f, axial2, fmadd(6.0f, t.v0, 2.0f * diag)) / 8.0f;
    rgb[c == 0 ? 2 : 0] = std::max(opp, 0.0f);
  } else {
    // At a green site: one of R/B has horizontal neighbors, the
    // other vertical.
    const float v5 = 5.0f * t.v0;
    const float hor =
        (fmadd(0.5f, uudd, fmadd(4.0f, lr, v5) - llrr) - diag) / 8.0f;
    const float ver =
        (fmadd(0.5f, llrr, fmadd(4.0f, ud, v5) - uudd) - diag) / 8.0f;
    rgb[ch] = std::max(hor, 0.0f);
    rgb[cv] = std::max(ver, 0.0f);
  }
}

/// Scalar-reference Malvar-He-Cutler interpolation of one pixel, with
/// clamped taps (the 2-pixel border).
void demosaic_malvar_px(const RawImage& raw, Image& out, int x, int y) {
  auto m = [&](int sx, int sy) { return raw.at_clamped(sx, sy); };
  const MalvarTaps t{m(x, y),         m(x - 1, y),     m(x + 1, y),
                     m(x, y - 1),     m(x, y + 1),     m(x - 2, y),
                     m(x + 2, y),     m(x, y - 2),     m(x, y + 2),
                     m(x - 1, y - 1), m(x + 1, y - 1), m(x - 1, y + 1),
                     m(x + 1, y + 1)};
  // Neighbor colors from CFA parity (pure function — safe at borders
  // where x+1 == w).
  float rgb[3];
  malvar_site(t, raw.color_at(x, y), cfa_color(raw.pattern(), x + 1, y),
              cfa_color(raw.pattern(), x, y + 1), rgb);
  for (int c = 0; c < 3; ++c) out.at(x, y, c) = rgb[c];
}

/// Malvar-He-Cutler over the interior rows and columns 2..n-3, where
/// every tap is in bounds: plain pointer loads instead of clamped ones.
void demosaic_malvar_interior(const RawImage& raw, Image& out) {
  const int w = raw.width();
  const int h = raw.height();
  ES_CHECK(w > 4 && h > 4 && out.width() == w && out.height() == h &&
           out.channels() == 3 &&
           raw.data().size() == static_cast<std::size_t>(w) * h);
  int cfa[2][2];
  for (int py = 0; py < 2; ++py)
    for (int px = 0; px < 2; ++px)
      cfa[py][px] = cfa_color(raw.pattern(), px, py);
  const float* src = raw.data().data();
  float* planes[3] = {out.plane(0).data(), out.plane(1).data(),
                      out.plane(2).data()};
  for (int y = 2; y < h - 2; ++y) {
    const float* row = src + static_cast<std::size_t>(y) * w;
    const float* up = row - w;
    const float* dn = row + w;
    const float* up2 = up - w;
    const float* dn2 = dn + w;
    const int* cfa_row = cfa[y & 1];
    const int* cfa_next = cfa[(y + 1) & 1];
    const std::size_t base = static_cast<std::size_t>(y) * w;
    for (int x = 2; x < w - 2; ++x) {
      const MalvarTaps t{row[x],     row[x - 1], row[x + 1], up[x],
                         dn[x],      row[x - 2], row[x + 2], up2[x],
                         dn2[x],     up[x - 1],  up[x + 1],  dn[x - 1],
                         dn[x + 1]};
      float rgb[3];
      malvar_site(t, cfa_row[x & 1], cfa_row[(x + 1) & 1], cfa_next[x & 1],
                  rgb);
      for (int c = 0; c < 3; ++c) planes[c][base + x] = rgb[c];
    }
  }
}

Image demosaic_malvar(const RawImage& raw) {
  const int w = raw.width();
  const int h = raw.height();
  Image out(w, h, 3);
  if (w <= 4 || h <= 4) {
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) demosaic_malvar_px(raw, out, x, y);
    return out;
  }
  // The 2-pixel border (where at_clamped taps clamp) keeps the scalar
  // reference; interior rows run the vector kernel or the in-bounds
  // scalar loop.
  for (int x = 0; x < w; ++x)
    for (int y : {0, 1, h - 2, h - 1}) demosaic_malvar_px(raw, out, x, y);
  for (int y = 2; y < h - 2; ++y)
    for (int x : {0, 1, w - 2, w - 1}) demosaic_malvar_px(raw, out, x, y);
  if (use_avx2() && w >= 14) {
    int red_x, red_y;
    red_site_parity(raw.pattern(), red_x, red_y);
    avx2::demosaic_malvar_rows_f32(
        raw.data().data(), w, h, red_x, red_y, 2, h - 2,
        out.plane(0).data(), out.plane(1).data(), out.plane(2).data());
  } else {
    demosaic_malvar_interior(raw, out);
  }
  return out;
}

}  // namespace

Image demosaic(const RawImage& raw, DemosaicKind kind) {
  switch (kind) {
    case DemosaicKind::kBilinear: return demosaic_bilinear(raw);
    case DemosaicKind::kMalvar: return demosaic_malvar(raw);
  }
  ES_CHECK_MSG(false, "unknown demosaic kind");
  return {};
}

void white_balance_preset(Image& rgb, const std::array<float, 3>& gains) {
  ES_CHECK(rgb.channels() == 3);
  for (int c = 0; c < 3; ++c) {
    float g = gains[static_cast<std::size_t>(c)];
    for (float& v : rgb.plane(c)) v *= g;
  }
}

void white_balance_gray_world(Image& rgb) {
  ES_CHECK(rgb.channels() == 3);
  std::array<double, 3> means{};
  for (int c = 0; c < 3; ++c) {
    double sum = 0.0;
    for (float v : rgb.plane(c)) sum += v;
    means[static_cast<std::size_t>(c)] =
        sum / static_cast<double>(rgb.pixel_count());
  }
  double gray = (means[0] + means[1] + means[2]) / 3.0;
  std::array<float, 3> gains{};
  for (int c = 0; c < 3; ++c) {
    double m = std::max(means[static_cast<std::size_t>(c)], 1e-6);
    gains[static_cast<std::size_t>(c)] = static_cast<float>(gray / m);
  }
  white_balance_preset(rgb, gains);
}

void color_correct(Image& rgb, const std::array<float, 9>& matrix) {
  if (use_avx2()) {
    ES_CHECK(rgb.channels() == 3);
    // Fused matrix + clamp over the three planes.
    avx2::ccm_planes_f32(rgb.plane(0).data(), rgb.plane(1).data(),
                         rgb.plane(2).data(), rgb.pixel_count(),
                         matrix.data(), 0.0f, 4.0f);
    return;
  }
  apply_color_matrix(rgb, matrix);
  rgb.clamp(0.0f, 4.0f);  // allow modest overshoot; tone map clamps later
}

Image box_blur(const Image& src, int radius) {
  const int w = src.width();
  const int h = src.height();
  ES_CHECK(radius > 0 && w > 0 && h > 0);
  Image dst(w, h, src.channels());
  const float inv =
      1.0f / static_cast<float>((2 * radius + 1) * (2 * radius + 1));
  if (use_avx2()) {
    for (int c = 0; c < src.channels(); ++c)
      avx2::box_blur_plane_f32(src.plane(c).data(), w, h, radius, inv,
                               dst.plane(c).data());
    return dst;
  }
  // A clamp-replicated padded copy, the layout the AVX2 kernel reads:
  // every tap is then a plain in-bounds load.
  const int taps = 2 * radius + 1;
  const int pw = w + 2 * radius;
  const int ph = h + 2 * radius;
  thread_local std::vector<float> padded;
  padded.resize(static_cast<std::size_t>(pw) * ph);
  for (int c = 0; c < src.channels(); ++c) {
    const float* plane = src.plane(c).data();
    for (int py = 0; py < ph; ++py) {
      const int y = std::clamp(py - radius, 0, h - 1);
      const float* srow = plane + static_cast<std::size_t>(y) * w;
      float* prow = padded.data() + static_cast<std::size_t>(py) * pw;
      std::fill_n(prow, radius, srow[0]);
      std::copy_n(srow, w, prow + radius);
      std::fill_n(prow + radius + w, radius, srow[w - 1]);
    }
    float* out = dst.plane(c).data();
    for (int y = 0; y < h; ++y) {
      const float* pbase = padded.data() + static_cast<std::size_t>(y) * pw;
      float* orow = out + static_cast<std::size_t>(y) * w;
      for (int x = 0; x < w; ++x) {
        float sum = 0.0f;
        for (int dy = 0; dy < taps; ++dy) {
          const float* prow = pbase + static_cast<std::size_t>(dy) * pw + x;
          for (int dx = 0; dx < taps; ++dx) sum += prow[dx];
        }
        orow[x] = sum * inv;
      }
    }
  }
  return dst;
}

void denoise_box(Image& rgb, int radius, float strength) {
  if (radius <= 0 || strength <= 0.0f) return;
  ES_CHECK(strength <= 1.0f);
  const Image blurred = box_blur(rgb, radius);
  for (std::size_t i = 0; i < rgb.data().size(); ++i)
    rgb.data()[i] = fmadd(blurred.data()[i] - rgb.data()[i], strength,
                          rgb.data()[i]);
}

namespace {

/// Smoothstep-based contrast curve blended with identity:
/// g + (s - g) * strength with s = g^2 (3 - 2g).
float s_curve(float g, float strength) {
  const float s_minus_g = fmadd(g * g, fmadd(-2.0f, g, 3.0f), -g);
  return fmadd(s_minus_g, strength, g);
}

}  // namespace

void tone_map(Image& rgb, float gamma, float s_curve_strength) {
  ES_CHECK(gamma > 0.0f);
  if (use_avx2()) {
    // The curve is applied through a 1024-knot LUT uniform in sqrt(x)
    // (gamma curves are near-linear in that domain, so linear
    // interpolation holds ~1e-6 of the scalar pow even at the dark end).
    // Knots are built with the scalar expression, so the LUT itself is
    // deterministic per (gamma, strength).
    constexpr int kKnots = 1024;
    std::vector<float> lut(kKnots + 1);
    const float inv_gamma = 1.0f / gamma;
    for (int i = 0; i < kKnots; ++i) {
      const float t = static_cast<float>(i) / (kKnots - 1);
      float g = std::pow(t * t, inv_gamma);
      if (s_curve_strength != 0.0f) g = s_curve(g, s_curve_strength);
      lut[static_cast<std::size_t>(i)] = std::clamp(g, 0.0f, 1.0f);
    }
    lut[kKnots] = lut[kKnots - 1];
    avx2::lut_map_sqrt_f32(rgb.data().data(), rgb.data().size(), lut.data(),
                           kKnots);
    return;
  }
  for (float& v : rgb.data()) {
    float g = std::pow(std::clamp(v, 0.0f, 1.0f), 1.0f / gamma);
    if (s_curve_strength != 0.0f) g = s_curve(g, s_curve_strength);
    v = std::clamp(g, 0.0f, 1.0f);
  }
}

void sharpen_unsharp(Image& rgb, int radius, float amount) {
  if (radius <= 0 || amount <= 0.0f) return;
  const Image blurred = box_blur(rgb, radius);
  for (std::size_t i = 0; i < rgb.data().size(); ++i) {
    float detail = rgb.data()[i] - blurred.data()[i];
    rgb.data()[i] =
        std::clamp(fmadd(amount, detail, rgb.data()[i]), 0.0f, 1.0f);
  }
}

void saturate(Image& rgb, float factor) {
  ES_CHECK(rgb.channels() == 3);
  if (factor == 1.0f) return;
  for (int y = 0; y < rgb.height(); ++y)
    for (int x = 0; x < rgb.width(); ++x) {
      float r = rgb.at(x, y, 0);
      float g = rgb.at(x, y, 1);
      float b = rgb.at(x, y, 2);
      float luma = fmadd(0.114f, b, fmadd(0.299f, r, 0.587f * g));
      rgb.at(x, y, 0) = std::clamp(fmadd(r - luma, factor, luma), 0.0f, 1.0f);
      rgb.at(x, y, 1) = std::clamp(fmadd(g - luma, factor, luma), 0.0f, 1.0f);
      rgb.at(x, y, 2) = std::clamp(fmadd(b - luma, factor, luma), 0.0f, 1.0f);
    }
}

}  // namespace edgestab
