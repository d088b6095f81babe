#include "tensor/kernels_avx2.h"

#include "util/check.h"

#if defined(EDGESTAB_AVX2) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace edgestab::avx2 {

namespace {

inline __m256 load_strided(const float* p, __m256i vidx, int stride) {
  // Gather for stride > 1: it reads exactly the eight addressed floats,
  // so it is safe at plane edges where a wide load would overrun.
  return stride == 1 ? _mm256_loadu_ps(p) : _mm256_i32gather_ps(p, vidx, 4);
}

/// Even-index lanes of p[0..15] ({p0,p2,...,p14}) — the stride-2 tap
/// load. Reads 16 floats, so callers must guarantee that much headroom
/// (the padded depthwise buffer does).
inline __m256 load_even(const float* p) {
  const __m256 a = _mm256_loadu_ps(p);
  const __m256 b = _mm256_loadu_ps(p + 8);
  const __m256 s = _mm256_shuffle_ps(a, b, 0x88);
  return _mm256_castpd_ps(
      _mm256_permute4x64_pd(_mm256_castps_pd(s), 0xD8));
}

/// Store mask with the first `rem` (1..7) lanes enabled.
inline __m256i tail_mask(int rem) {
  alignas(32) static const int kTab[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                           0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTab + 8 - rem));
}

/// Lanes l where (x + l) & 1 == parity, as a blend mask.
inline __m256 parity_mask(int x, int parity) {
  static const __m256 kEven = _mm256_castsi256_ps(
      _mm256_setr_epi32(-1, 0, -1, 0, -1, 0, -1, 0));
  static const __m256 kOdd = _mm256_castsi256_ps(
      _mm256_setr_epi32(0, -1, 0, -1, 0, -1, 0, -1));
  return ((x & 1) == parity) ? kEven : kOdd;
}

}  // namespace

void gemm_f32(const float* a, const float* b, float* c, int m, int k,
              int n, bool accumulate) {
  const auto an = [&](int i) { return a + static_cast<std::size_t>(i) * k; };
  const auto cn = [&](int i) { return c + static_cast<std::size_t>(i) * n; };
  const __m256 vzero = _mm256_setzero_ps();
  const auto cload = [&](const float* p) {
    return accumulate ? _mm256_loadu_ps(p) : vzero;
  };
  int j = 0;
  // 6x16 register tiles (12 accumulators + 2 B vectors + 1 broadcast =
  // 15 of 16 ymm): C stays in registers across the whole k loop, each
  // pair of B loads feeds six FMAs per row pair.
  //
  // Each 16-column B panel is first packed into a contiguous k x 16
  // block: B rows sit n*4 bytes apart, and the conv GEMMs' n is often a
  // power-of-two spatial size (32x32 -> 4096-byte stride), which aliases
  // the panel's lines into a handful of L1 sets — every row-tile pass
  // then re-reads the whole panel from L2. Packed, the panel is ~k*64
  // bytes of well-distributed lines read from L1 by all ceil(m/6)
  // passes. Packing only relocates loads; per-element FMA order is
  // untouched, so results are bit-identical to the unpacked walk (which
  // small-m calls still take — one pass can't amortize the copy).
  thread_local std::vector<float> panel;
  const bool pack = m > 6;
  if (pack && panel.size() < static_cast<std::size_t>(k) * 16)
    panel.resize(static_cast<std::size_t>(k) * 16);
  for (; j + 16 <= n; j += 16) {
    const float* pb = b + j;
    std::size_t pstride = static_cast<std::size_t>(n);
    if (pack) {
      float* dst = panel.data();
      for (int p = 0; p < k; ++p, dst += 16) {
        const float* brow = b + static_cast<std::size_t>(p) * n + j;
        _mm256_storeu_ps(dst, _mm256_loadu_ps(brow));
        _mm256_storeu_ps(dst + 8, _mm256_loadu_ps(brow + 8));
      }
      pb = panel.data();
      pstride = 16;
    }
    int i = 0;
    for (; i + 6 <= m; i += 6) {
      __m256 acc[12];
      for (int r = 0; r < 6; ++r) {
        acc[2 * r] = cload(cn(i + r) + j);
        acc[2 * r + 1] = cload(cn(i + r) + j + 8);
      }
      for (int p = 0; p < k; ++p) {
        const float* brow = pb + static_cast<std::size_t>(p) * pstride;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        for (int r = 0; r < 6; ++r) {
          const __m256 av = _mm256_set1_ps(an(i + r)[p]);
          acc[2 * r] = _mm256_fmadd_ps(av, b0, acc[2 * r]);
          acc[2 * r + 1] = _mm256_fmadd_ps(av, b1, acc[2 * r + 1]);
        }
      }
      for (int r = 0; r < 6; ++r) {
        _mm256_storeu_ps(cn(i + r) + j, acc[2 * r]);
        _mm256_storeu_ps(cn(i + r) + j + 8, acc[2 * r + 1]);
      }
    }
    for (; i + 2 <= m; i += 2) {
      __m256 c00 = cload(cn(i) + j);
      __m256 c01 = cload(cn(i) + j + 8);
      __m256 c10 = cload(cn(i + 1) + j);
      __m256 c11 = cload(cn(i + 1) + j + 8);
      for (int p = 0; p < k; ++p) {
        const float* brow = pb + static_cast<std::size_t>(p) * pstride;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        __m256 av = _mm256_set1_ps(an(i)[p]);
        c00 = _mm256_fmadd_ps(av, b0, c00);
        c01 = _mm256_fmadd_ps(av, b1, c01);
        av = _mm256_set1_ps(an(i + 1)[p]);
        c10 = _mm256_fmadd_ps(av, b0, c10);
        c11 = _mm256_fmadd_ps(av, b1, c11);
      }
      _mm256_storeu_ps(cn(i) + j, c00);
      _mm256_storeu_ps(cn(i) + j + 8, c01);
      _mm256_storeu_ps(cn(i + 1) + j, c10);
      _mm256_storeu_ps(cn(i + 1) + j + 8, c11);
    }
    for (; i < m; ++i) {
      __m256 c0 = cload(cn(i) + j);
      __m256 c1 = cload(cn(i) + j + 8);
      for (int p = 0; p < k; ++p) {
        const float* brow = pb + static_cast<std::size_t>(p) * pstride;
        const __m256 av = _mm256_set1_ps(an(i)[p]);
        c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), c0);
        c1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), c1);
      }
      _mm256_storeu_ps(cn(i) + j, c0);
      _mm256_storeu_ps(cn(i) + j + 8, c1);
    }
  }
  if (j + 8 <= n) {
    for (int i = 0; i < m; ++i) {
      __m256 c0 = cload(cn(i) + j);
      for (int p = 0; p < k; ++p)
        c0 = _mm256_fmadd_ps(
            _mm256_set1_ps(an(i)[p]),
            _mm256_loadu_ps(b + static_cast<std::size_t>(p) * n + j), c0);
      _mm256_storeu_ps(cn(i) + j, c0);
    }
    j += 8;
  }
  for (; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      float sum = accumulate ? cn(i)[j] : 0.0f;
      for (int p = 0; p < k; ++p)
        sum += an(i)[p] * b[static_cast<std::size_t>(p) * n + j];
      cn(i)[j] = sum;
    }
}

void depthwise_plane_f32(const float* in, int in_h, int in_w,
                         const float* w, int kernel, int stride, int pad,
                         float bias, float* out, int out_h, int out_w) {
  // Interior ox range where every kx tap is a valid column; borders run
  // the fully-checked scalar path (identical tap-skipping semantics to
  // the scalar reference).
  const int lo = std::min(
      out_w, std::max(0, pad > 0 ? (pad + stride - 1) / stride : 0));
  const int hi = std::min(out_w, std::max(lo, (in_w - kernel + pad) / stride + 1));
  const __m256i vidx = _mm256_setr_epi32(0, stride, 2 * stride, 3 * stride,
                                         4 * stride, 5 * stride, 6 * stride,
                                         7 * stride);
  const __m256 vbias = _mm256_set1_ps(bias);
  // Per-tap weight broadcasts hoisted out of the pixel loops; depthwise
  // filters here are tiny (3x3 in practice), so a fixed register/stack
  // array covers every real kernel.
  constexpr int kMaxHoist = 25;
  __m256 vw[kMaxHoist];
  const bool hoisted = kernel * kernel <= kMaxHoist;
  if (hoisted)
    for (int t = 0; t < kernel * kernel; ++t) vw[t] = _mm256_set1_ps(w[t]);
  if (kernel == 3 && (stride == 1 || stride == 2)) {
    // Fast path for the ubiquitous 3x3 case: stage the plane into a
    // zero-padded buffer so border taps become ordinary w*0 loads and
    // every output row — however narrow — runs the full vector loop.
    // The 16-float right margin licenses whole-vector (and stride-2
    // 16-float) loads at row ends; partial tail blocks compute all
    // eight lanes from padding and store through a lane mask.
    const int pw = in_w + 2 * pad + 16;
    const int ph = in_h + 2 * pad;
    // Buffers are cached per geometry (a model alternates between a
    // handful of plane shapes): the zero borders survive across calls —
    // only the interior is rewritten — so steady-state cost is one
    // interior copy, not a full clear.
    struct PaddedPlane {
      int pw = 0, ph = 0;
      std::vector<float> buf;
    };
    thread_local std::vector<PaddedPlane> planes;
    PaddedPlane* pp = nullptr;
    for (PaddedPlane& cand : planes)
      if (cand.pw == pw && cand.ph == ph) {
        pp = &cand;
        break;
      }
    if (pp == nullptr) {
      planes.emplace_back();
      pp = &planes.back();
      pp->pw = pw;
      pp->ph = ph;
      pp->buf.assign(static_cast<std::size_t>(pw) * ph, 0.0f);
    }
    std::vector<float>& padded = pp->buf;
    for (int y = 0; y < in_h; ++y)
      std::copy_n(in + static_cast<std::size_t>(y) * in_w, in_w,
                  padded.data() +
                      static_cast<std::size_t>(y + pad) * pw + pad);
    const auto rows = [&](auto ld) {
      for (int oy = 0; oy < out_h; ++oy) {
        const float* p0 =
            padded.data() + static_cast<std::size_t>(oy) * stride * pw;
        const float* p1 = p0 + pw;
        const float* p2 = p1 + pw;
        float* orow = out + static_cast<std::size_t>(oy) * out_w;
        for (int ox = 0; ox < out_w; ox += 8) {
          const int ix0 = ox * stride;
          __m256 acc = vbias;
          acc = _mm256_fmadd_ps(vw[0], ld(p0 + ix0), acc);
          acc = _mm256_fmadd_ps(vw[1], ld(p0 + ix0 + 1), acc);
          acc = _mm256_fmadd_ps(vw[2], ld(p0 + ix0 + 2), acc);
          acc = _mm256_fmadd_ps(vw[3], ld(p1 + ix0), acc);
          acc = _mm256_fmadd_ps(vw[4], ld(p1 + ix0 + 1), acc);
          acc = _mm256_fmadd_ps(vw[5], ld(p1 + ix0 + 2), acc);
          acc = _mm256_fmadd_ps(vw[6], ld(p2 + ix0), acc);
          acc = _mm256_fmadd_ps(vw[7], ld(p2 + ix0 + 1), acc);
          acc = _mm256_fmadd_ps(vw[8], ld(p2 + ix0 + 2), acc);
          if (ox + 8 <= out_w)
            _mm256_storeu_ps(orow + ox, acc);
          else
            _mm256_maskstore_ps(orow + ox, tail_mask(out_w - ox), acc);
        }
      }
    };
    if (stride == 1)
      rows([](const float* p) { return _mm256_loadu_ps(p); });
    else
      rows([](const float* p) { return load_even(p); });
    return;
  }
  for (int oy = 0; oy < out_h; ++oy) {
    float* orow = out + static_cast<std::size_t>(oy) * out_w;
    const auto scalar_px = [&](int ox) {
      float sum = bias;
      for (int ky = 0; ky < kernel; ++ky) {
        const int iy = oy * stride - pad + ky;
        if (iy < 0 || iy >= in_h) continue;
        const float* irow = in + static_cast<std::size_t>(iy) * in_w;
        for (int kx = 0; kx < kernel; ++kx) {
          const int ix = ox * stride - pad + kx;
          if (ix < 0 || ix >= in_w) continue;
          sum += w[ky * kernel + kx] * irow[ix];
        }
      }
      orow[ox] = sum;
    };
    for (int ox = 0; ox < lo; ++ox) scalar_px(ox);
    int ox = lo;
    for (; ox + 8 <= hi; ox += 8) {
      __m256 acc = vbias;
      const int ix0 = ox * stride - pad;
      for (int ky = 0; ky < kernel; ++ky) {
        const int iy = oy * stride - pad + ky;
        if (iy < 0 || iy >= in_h) continue;
        const float* irow = in + static_cast<std::size_t>(iy) * in_w;
        for (int kx = 0; kx < kernel; ++kx)
          acc = _mm256_fmadd_ps(
              hoisted ? vw[ky * kernel + kx]
                      : _mm256_set1_ps(w[ky * kernel + kx]),
              load_strided(irow + ix0 + kx, vidx, stride), acc);
      }
      _mm256_storeu_ps(orow + ox, acc);
    }
    for (; ox < out_w; ++ox) scalar_px(ox);
  }
}

void box_blur_plane_f32(const float* src, int w, int h, int radius,
                        float inv, float* dst) {
  // Clamp-replicated padded copy: every tap becomes a plain load, and
  // the 8-float right margin licenses whole-vector loads at row ends.
  const int pw = w + 2 * radius + 8;
  const int ph = h + 2 * radius;
  thread_local std::vector<float> padded;
  padded.resize(static_cast<std::size_t>(pw) * ph);
  for (int py = 0; py < ph; ++py) {
    const int y = std::clamp(py - radius, 0, h - 1);
    const float* srow = src + static_cast<std::size_t>(y) * w;
    float* prow = padded.data() + static_cast<std::size_t>(py) * pw;
    for (int i = 0; i < radius; ++i) prow[i] = srow[0];
    std::copy_n(srow, w, prow + radius);
    for (int i = radius + w; i < pw; ++i) prow[i] = srow[w - 1];
  }
  const int taps = 2 * radius + 1;
  const __m256 vinv = _mm256_set1_ps(inv);
  for (int y = 0; y < h; ++y) {
    const float* pbase = padded.data() + static_cast<std::size_t>(y) * pw;
    float* drow = dst + static_cast<std::size_t>(y) * w;
    for (int x = 0; x < w; x += 8) {
      __m256 sum = _mm256_setzero_ps();
      for (int dy = 0; dy < taps; ++dy) {
        const float* prow = pbase + static_cast<std::size_t>(dy) * pw + x;
        for (int dx = 0; dx < taps; ++dx)
          sum = _mm256_add_ps(sum, _mm256_loadu_ps(prow + dx));
      }
      sum = _mm256_mul_ps(sum, vinv);
      if (x + 8 <= w)
        _mm256_storeu_ps(drow + x, sum);
      else
        _mm256_maskstore_ps(drow + x, tail_mask(w - x), sum);
    }
  }
}

void ccm_planes_f32(float* r, float* g, float* b, std::size_t n,
                    const float* m9, float lo, float hi) {
  const __m256 vlo = _mm256_set1_ps(lo), vhi = _mm256_set1_ps(hi);
  __m256 m[9];
  for (int i = 0; i < 9; ++i) m[i] = _mm256_set1_ps(m9[i]);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vr = _mm256_loadu_ps(r + i);
    const __m256 vg = _mm256_loadu_ps(g + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    __m256 nr = _mm256_fmadd_ps(
        m[0], vr, _mm256_fmadd_ps(m[1], vg, _mm256_mul_ps(m[2], vb)));
    __m256 ng = _mm256_fmadd_ps(
        m[3], vr, _mm256_fmadd_ps(m[4], vg, _mm256_mul_ps(m[5], vb)));
    __m256 nb = _mm256_fmadd_ps(
        m[6], vr, _mm256_fmadd_ps(m[7], vg, _mm256_mul_ps(m[8], vb)));
    _mm256_storeu_ps(r + i, _mm256_min_ps(_mm256_max_ps(nr, vlo), vhi));
    _mm256_storeu_ps(g + i, _mm256_min_ps(_mm256_max_ps(ng, vlo), vhi));
    _mm256_storeu_ps(b + i, _mm256_min_ps(_mm256_max_ps(nb, vlo), vhi));
  }
  for (; i < n; ++i) {
    const float vr = r[i], vg = g[i], vb = b[i];
    r[i] = std::clamp(m9[0] * vr + m9[1] * vg + m9[2] * vb, lo, hi);
    g[i] = std::clamp(m9[3] * vr + m9[4] * vg + m9[5] * vb, lo, hi);
    b[i] = std::clamp(m9[6] * vr + m9[7] * vg + m9[8] * vb, lo, hi);
  }
}

void lut_map_sqrt_f32(float* data, std::size_t n, const float* lut,
                      int lut_size) {
  const __m256 vzero = _mm256_setzero_ps();
  const __m256 vone = _mm256_set1_ps(1.0f);
  const __m256 vscale = _mm256_set1_ps(static_cast<float>(lut_size - 1));
  const __m256i vone_i = _mm256_set1_epi32(1);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 x = _mm256_loadu_ps(data + i);
    x = _mm256_sqrt_ps(_mm256_min_ps(_mm256_max_ps(x, vzero), vone));
    const __m256 t = _mm256_mul_ps(x, vscale);
    const __m256i idx = _mm256_cvttps_epi32(t);
    const __m256 frac = _mm256_sub_ps(t, _mm256_cvtepi32_ps(idx));
    const __m256 y0 = _mm256_i32gather_ps(lut, idx, 4);
    const __m256 y1 =
        _mm256_i32gather_ps(lut, _mm256_add_epi32(idx, vone_i), 4);
    _mm256_storeu_ps(data + i,
                     _mm256_fmadd_ps(_mm256_sub_ps(y1, y0), frac, y0));
  }
  for (; i < n; ++i) {
    const float x = std::sqrt(std::clamp(data[i], 0.0f, 1.0f));
    const float t = x * static_cast<float>(lut_size - 1);
    const int idx = static_cast<int>(t);
    const float frac = t - static_cast<float>(idx);
    data[i] = lut[idx] + (lut[idx + 1] - lut[idx]) * frac;
  }
}

void gemm8x8_pair_f32(const float* x, const float* l, const float* r,
                      float* out) {
  __m256 t[8];
  for (int y = 0; y < 8; ++y) {
    __m256 acc = _mm256_setzero_ps();
    for (int j = 0; j < 8; ++j)
      acc = _mm256_fmadd_ps(_mm256_set1_ps(x[y * 8 + j]),
                            _mm256_loadu_ps(r + j * 8), acc);
    t[y] = acc;
  }
  for (int i = 0; i < 8; ++i) {
    __m256 acc = _mm256_setzero_ps();
    for (int y = 0; y < 8; ++y)
      acc = _mm256_fmadd_ps(_mm256_set1_ps(l[i * 8 + y]), t[y], acc);
    _mm256_storeu_ps(out + i * 8, acc);
  }
}

void demosaic_bilinear_rows_f32(const float* raw, int width, int /*height*/,
                                int red_x, int red_y, int y0, int y1,
                                float* r_plane, float* g_plane,
                                float* b_plane) {
  const __m256 quarter = _mm256_set1_ps(0.25f);
  const __m256 half = _mm256_set1_ps(0.5f);
  for (int y = y0; y < y1; ++y) {
    const float* row = raw + static_cast<std::size_t>(y) * width;
    const float* up = row - width;
    const float* dn = row + width;
    float* rp = r_plane + static_cast<std::size_t>(y) * width;
    float* gp = g_plane + static_cast<std::size_t>(y) * width;
    float* bp = b_plane + static_cast<std::size_t>(y) * width;
    const bool red_row = ((y & 1) == red_y);
    // Parity of the row's non-green ("primary") site.
    const int prim_parity = red_row ? red_x : (red_x ^ 1);
    int x = 1;
    for (; x + 8 <= width - 1; x += 8) {
      const __m256 v0 = _mm256_loadu_ps(row + x);
      const __m256 l = _mm256_loadu_ps(row + x - 1);
      const __m256 r = _mm256_loadu_ps(row + x + 1);
      const __m256 u = _mm256_loadu_ps(up + x);
      const __m256 d = _mm256_loadu_ps(dn + x);
      const __m256 ul = _mm256_loadu_ps(up + x - 1);
      const __m256 ur = _mm256_loadu_ps(up + x + 1);
      const __m256 dl = _mm256_loadu_ps(dn + x - 1);
      const __m256 dr = _mm256_loadu_ps(dn + x + 1);
      const __m256 cross = _mm256_mul_ps(
          _mm256_add_ps(_mm256_add_ps(l, r), _mm256_add_ps(u, d)), quarter);
      const __m256 diag = _mm256_mul_ps(
          _mm256_add_ps(_mm256_add_ps(ul, ur), _mm256_add_ps(dl, dr)),
          quarter);
      const __m256 lr = _mm256_mul_ps(_mm256_add_ps(l, r), half);
      const __m256 ud = _mm256_mul_ps(_mm256_add_ps(u, d), half);
      const __m256 prim = parity_mask(x, prim_parity);
      // blendv: primary lanes take the second operand.
      const __m256 same = _mm256_blendv_ps(lr, v0, prim);
      const __m256 green = _mm256_blendv_ps(v0, cross, prim);
      const __m256 other = _mm256_blendv_ps(ud, diag, prim);
      _mm256_storeu_ps(gp + x, green);
      if (red_row) {
        _mm256_storeu_ps(rp + x, same);
        _mm256_storeu_ps(bp + x, other);
      } else {
        _mm256_storeu_ps(bp + x, same);
        _mm256_storeu_ps(rp + x, other);
      }
    }
    for (; x < width - 1; ++x) {
      const bool prim = ((x & 1) == prim_parity);
      const float v0 = row[x];
      const float cross = ((row[x - 1] + row[x + 1]) + (up[x] + dn[x])) * 0.25f;
      const float diag =
          ((up[x - 1] + up[x + 1]) + (dn[x - 1] + dn[x + 1])) * 0.25f;
      const float lr = (row[x - 1] + row[x + 1]) * 0.5f;
      const float ud = (up[x] + dn[x]) * 0.5f;
      const float same = prim ? v0 : lr;
      const float other = prim ? diag : ud;
      gp[x] = prim ? cross : v0;
      if (red_row) {
        rp[x] = same;
        bp[x] = other;
      } else {
        bp[x] = same;
        rp[x] = other;
      }
    }
  }
}

void demosaic_malvar_rows_f32(const float* raw, int width, int /*height*/,
                              int red_x, int red_y, int y0, int y1,
                              float* r_plane, float* g_plane,
                              float* b_plane) {
  const __m256 eighth = _mm256_set1_ps(0.125f);
  const __m256 vzero = _mm256_setzero_ps();
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 four = _mm256_set1_ps(4.0f);
  const __m256 five = _mm256_set1_ps(5.0f);
  const __m256 six = _mm256_set1_ps(6.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 mlowf = _mm256_set1_ps(1.5f);
  for (int y = y0; y < y1; ++y) {
    const float* row = raw + static_cast<std::size_t>(y) * width;
    const float* up = row - width;
    const float* dn = row + width;
    const float* up2 = row - 2 * width;
    const float* dn2 = row + 2 * width;
    float* rp = r_plane + static_cast<std::size_t>(y) * width;
    float* gp = g_plane + static_cast<std::size_t>(y) * width;
    float* bp = b_plane + static_cast<std::size_t>(y) * width;
    const bool red_row = ((y & 1) == red_y);
    const int prim_parity = red_row ? red_x : (red_x ^ 1);
    int x = 2;
    for (; x + 8 <= width - 2; x += 8) {
      const __m256 v0 = _mm256_loadu_ps(row + x);
      const __m256 l = _mm256_loadu_ps(row + x - 1);
      const __m256 r = _mm256_loadu_ps(row + x + 1);
      const __m256 u = _mm256_loadu_ps(up + x);
      const __m256 d = _mm256_loadu_ps(dn + x);
      const __m256 ll = _mm256_loadu_ps(row + x - 2);
      const __m256 rr = _mm256_loadu_ps(row + x + 2);
      const __m256 uu = _mm256_loadu_ps(up2 + x);
      const __m256 dd = _mm256_loadu_ps(dn2 + x);
      const __m256 ul = _mm256_loadu_ps(up + x - 1);
      const __m256 ur = _mm256_loadu_ps(up + x + 1);
      const __m256 dl = _mm256_loadu_ps(dn + x - 1);
      const __m256 dr = _mm256_loadu_ps(dn + x + 1);
      const __m256 cross =
          _mm256_add_ps(_mm256_add_ps(l, r), _mm256_add_ps(u, d));
      const __m256 lrs = _mm256_add_ps(l, r);
      const __m256 uds = _mm256_add_ps(u, d);
      const __m256 lls = _mm256_add_ps(ll, rr);
      const __m256 uus = _mm256_add_ps(uu, dd);
      const __m256 axial2 = _mm256_add_ps(lls, uus);
      const __m256 diag =
          _mm256_add_ps(_mm256_add_ps(ul, ur), _mm256_add_ps(dl, dr));
      // Green at a non-green site: (2*cross + 4*v0 - axial2)/8.
      const __m256 gf = _mm256_max_ps(
          _mm256_mul_ps(
              _mm256_sub_ps(
                  _mm256_fmadd_ps(two, cross, _mm256_mul_ps(four, v0)),
                  axial2),
              eighth),
          vzero);
      // Opposite color at a non-green site: (6*v0 + 2*diag - 1.5*axial2)/8.
      const __m256 opp = _mm256_max_ps(
          _mm256_mul_ps(
              _mm256_sub_ps(
                  _mm256_fmadd_ps(six, v0, _mm256_mul_ps(two, diag)),
                  _mm256_mul_ps(mlowf, axial2)),
              eighth),
          vzero);
      // Horizontal / vertical estimates at a green site.
      const __m256 hor = _mm256_max_ps(
          _mm256_mul_ps(
              _mm256_sub_ps(
                  _mm256_fmadd_ps(
                      half, uus,
                      _mm256_sub_ps(
                          _mm256_fmadd_ps(five, v0,
                                          _mm256_mul_ps(four, lrs)),
                          lls)),
                  diag),
              eighth),
          vzero);
      const __m256 ver = _mm256_max_ps(
          _mm256_mul_ps(
              _mm256_sub_ps(
                  _mm256_fmadd_ps(
                      half, lls,
                      _mm256_sub_ps(
                          _mm256_fmadd_ps(five, v0,
                                          _mm256_mul_ps(four, uds)),
                          uus)),
                  diag),
              eighth),
          vzero);
      const __m256 prim = parity_mask(x, prim_parity);
      const __m256 same = _mm256_blendv_ps(hor, v0, prim);
      const __m256 green = _mm256_blendv_ps(v0, gf, prim);
      const __m256 other = _mm256_blendv_ps(ver, opp, prim);
      _mm256_storeu_ps(gp + x, green);
      if (red_row) {
        _mm256_storeu_ps(rp + x, same);
        _mm256_storeu_ps(bp + x, other);
      } else {
        _mm256_storeu_ps(bp + x, same);
        _mm256_storeu_ps(rp + x, other);
      }
    }
    for (; x < width - 2; ++x) {
      const bool prim = ((x & 1) == prim_parity);
      const float v0 = row[x];
      const float lrs = row[x - 1] + row[x + 1];
      const float uds = up[x] + dn[x];
      const float cross = lrs + uds;
      const float lls = row[x - 2] + row[x + 2];
      const float uus = up2[x] + dn2[x];
      const float axial2 = lls + uus;
      const float diag =
          (up[x - 1] + up[x + 1]) + (dn[x - 1] + dn[x + 1]);
      const float gf =
          std::max((2.0f * cross + 4.0f * v0 - axial2) * 0.125f, 0.0f);
      const float opp = std::max(
          (6.0f * v0 + 2.0f * diag - 1.5f * axial2) * 0.125f, 0.0f);
      const float hor = std::max(
          (5.0f * v0 + 4.0f * lrs - lls + 0.5f * uus - diag) * 0.125f,
          0.0f);
      const float ver = std::max(
          (5.0f * v0 + 4.0f * uds - uus + 0.5f * lls - diag) * 0.125f,
          0.0f);
      const float same = prim ? v0 : hor;
      const float other = prim ? opp : ver;
      gp[x] = prim ? gf : v0;
      if (red_row) {
        rp[x] = same;
        bp[x] = other;
      } else {
        bp[x] = same;
        rp[x] = other;
      }
    }
  }
}

// ---- int8 tier helpers -----------------------------------------------------
//
// Both are exact: they return the same bits as the scalar reference loops
// in tensor/int8.cpp for every input, so the int8 tier's results do not
// depend on which of the two a host runs.

float max_abs_f32(const float* data, std::size_t n) {
  const __m256 vabs = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  __m256 m = _mm256_setzero_ps();
  std::size_t i = 0;
  // maxps(a, m) returns m when a is NaN — the lane keeps its running max,
  // as std::max(m, NaN) does. Max is order-free, so the lane split and
  // the final horizontal fold are exact.
  for (; i + 8 <= n; i += 8)
    m = _mm256_max_ps(_mm256_and_ps(_mm256_loadu_ps(data + i), vabs), m);
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, m);
  float max_abs = 0.0f;
  for (float v : lanes) max_abs = std::max(max_abs, v);
  for (; i < n; ++i) max_abs = std::max(max_abs, std::fabs(data[i]));
  return max_abs;
}

namespace {

inline std::int8_t quantize_one(float y) {
  return static_cast<std::int8_t>(std::clamp(std::lround(y), -127L, 127L));
}

/// Codes of p[0..7] * inv as int32 lanes (see quantize_s8). ORs into
/// `bad` the lanes whose y is NaN or |y| >= 2^63.
[[gnu::always_inline]] inline __m256i quantize8(const float* p, __m256 vinv,
                                                __m256& bad) {
  const __m256 vsign = _mm256_set1_ps(-0.0f);
  const __m256 y = _mm256_mul_ps(_mm256_loadu_ps(p), vinv);
  // !(|y| < 2^63): true for NaN, +-inf and the huge finite values.
  bad = _mm256_or_ps(
      bad, _mm256_cmp_ps(_mm256_andnot_ps(vsign, y),
                         _mm256_set1_ps(9223372036854775808.0f),
                         _CMP_NLT_UQ));
  const __m256 yc = _mm256_min_ps(_mm256_max_ps(y, _mm256_set1_ps(-127.0f)),
                                  _mm256_set1_ps(127.0f));
  const __m256 t = _mm256_round_ps(yc, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256 up =
      _mm256_cmp_ps(_mm256_andnot_ps(vsign, _mm256_sub_ps(yc, t)),
                    _mm256_set1_ps(0.5f), _CMP_GE_OQ);
  const __m256 step = _mm256_or_ps(_mm256_and_ps(yc, vsign),
                                   _mm256_set1_ps(1.0f));
  return _mm256_cvttps_epi32(_mm256_add_ps(t, _mm256_and_ps(up, step)));
}

}  // namespace

void quantize_s8(const float* src, std::size_t n, float inv,
                 std::int8_t* dst) {
  // clamp(lround(y), -127, 127) == lround(clamp(y, -127, 127)): lround
  // is monotone and fixes +-127. Below 2^23, t = trunc(y) and y - t are
  // exact, so round-half-away-from-zero is t + (|y - t| >= 0.5 ? sign(y)
  // : 0). Lanes whose y is NaN or |y| >= 2^63 (lround's result is
  // platform-defined there) take std::lround itself.
  const __m256 vinv = _mm256_set1_ps(inv);
  // packs_epi32 / packs_epi16 interleave 128-bit halves; this restores
  // source order across the four vectors of a 32-element block.
  const __m256i vorder = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256 bad = _mm256_setzero_ps();
    const __m256i q01 = _mm256_packs_epi32(quantize8(src + i, vinv, bad),
                                           quantize8(src + i + 8, vinv, bad));
    const __m256i q23 =
        _mm256_packs_epi32(quantize8(src + i + 16, vinv, bad),
                           quantize8(src + i + 24, vinv, bad));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_permutevar8x32_epi32(_mm256_packs_epi16(q01, q23), vorder));
    if (_mm256_movemask_ps(bad) != 0)
      for (std::size_t l = i; l < i + 32; ++l)
        dst[l] = quantize_one(src[l] * inv);
  }
  // 8-element blocks, then the 0..7 tail through a zero-padded block.
  for (; i < n; i += 8) {
    const std::size_t len = std::min<std::size_t>(8, n - i);
    alignas(32) float pad[8] = {};
    const float* p = src + i;
    if (len < 8) p = std::copy(p, p + len, pad) - len;
    __m256 bad = _mm256_setzero_ps();
    const __m256i q = quantize8(p, vinv, bad);
    const __m128i q16 = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                        _mm256_extracti128_si256(q, 1));
    alignas(16) std::int8_t codes[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(codes),
                    _mm_packs_epi16(q16, q16));
    std::copy(codes, codes + len, dst + i);
    if (_mm256_movemask_ps(bad) != 0)
      for (std::size_t l = i; l < i + len; ++l)
        dst[l] = quantize_one(src[l] * inv);
  }
}

}  // namespace edgestab::avx2

#else  // EDGESTAB_AVX2 compiled out: link-satisfying stubs. Dispatch is
       // guarded by backend_available(kAvx2), so reaching one is a bug.

namespace edgestab::avx2 {

namespace {
[[noreturn]] void unavailable() {
  ES_CHECK_MSG(false, "AVX2 kernel called but EDGESTAB_AVX2 is compiled out");
  __builtin_unreachable();
}
}  // namespace

void gemm_f32(const float*, const float*, float*, int, int, int, bool) {
  unavailable();
}
void depthwise_plane_f32(const float*, int, int, const float*, int, int,
                         int, float, float*, int, int) {
  unavailable();
}
void box_blur_plane_f32(const float*, int, int, int, float, float*) {
  unavailable();
}
void ccm_planes_f32(float*, float*, float*, std::size_t, const float*,
                    float, float) {
  unavailable();
}
void lut_map_sqrt_f32(float*, std::size_t, const float*, int) {
  unavailable();
}
void gemm8x8_pair_f32(const float*, const float*, const float*, float*) {
  unavailable();
}
void demosaic_bilinear_rows_f32(const float*, int, int, int, int, int, int,
                                float*, float*, float*) {
  unavailable();
}
void demosaic_malvar_rows_f32(const float*, int, int, int, int, int, int,
                              float*, float*, float*) {
  unavailable();
}
float max_abs_f32(const float*, std::size_t) { unavailable(); }
void quantize_s8(const float*, std::size_t, float, std::int8_t*) {
  unavailable();
}

}  // namespace edgestab::avx2

#endif
