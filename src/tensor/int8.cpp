#include "tensor/int8.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/backend.h"
#include "tensor/kernels_avx2.h"

namespace edgestab::int8 {

namespace {

/// The AVX2 quantizer and max-abs reduction return the scalar loops'
/// bits for every input, so they are chosen by what the host can run —
/// not by the active backend — and int8 results never depend on it.
bool vector_helpers() {
  static const bool ok = kAvx2CompiledIn && cpu_supports_avx2();
  return ok;
}

/// Largest reduction length whose every partial sum of int8 x int8
/// products is exact in int32: |a * b| <= 128^2 and k * 128^2 <=
/// INT32_MAX. Up to it an int32 accumulator never wraps and sat32 is the
/// identity, so the narrower (twice as wide per vector) accumulator
/// gives the exact int64 result.
constexpr int kInt32ExactK = INT32_MAX / (128 * 128);  // 131071

}  // namespace

float tensor_scale(const float* data, std::size_t n) {
  float max_abs = 0.0f;
  if (vector_helpers()) {
    max_abs = avx2::max_abs_f32(data, n);
  } else {
    for (std::size_t i = 0; i < n; ++i)
      max_abs = std::max(max_abs, std::fabs(data[i]));
  }
  return max_abs / 127.0f;
}

void quantize(const float* src, std::size_t n, float scale,
              std::int8_t* dst) {
  if (scale <= 0.0f) {
    std::fill(dst, dst + n, std::int8_t{0});
    return;
  }
  const float inv = 1.0f / scale;
  if (vector_helpers()) {
    avx2::quantize_s8(src, n, inv, dst);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    long q = std::lround(src[i] * inv);
    q = std::clamp(q, -127L, 127L);
    dst[i] = static_cast<std::int8_t>(q);
  }
}

void quantize_rows(const float* src, int rows, int cols, std::int8_t* dst,
                   float* scales) {
  for (int i = 0; i < rows; ++i) {
    const float* row = src + static_cast<std::size_t>(i) * cols;
    scales[i] = tensor_scale(row, static_cast<std::size_t>(cols));
    quantize(row, static_cast<std::size_t>(cols), scales[i],
             dst + static_cast<std::size_t>(i) * cols);
  }
}

void quantize_cols(const float* src, int rows, int cols, std::int8_t* dst,
                   float* scales) {
  for (int j = 0; j < cols; ++j) {
    float max_abs = 0.0f;
    for (int i = 0; i < rows; ++i)
      max_abs = std::max(
          max_abs, std::fabs(src[static_cast<std::size_t>(i) * cols + j]));
    scales[j] = max_abs / 127.0f;
  }
  for (int i = 0; i < rows; ++i) {
    const float* row = src + static_cast<std::size_t>(i) * cols;
    std::int8_t* drow = dst + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) {
      if (scales[j] <= 0.0f) {
        drow[j] = 0;
        continue;
      }
      long q = std::lround(row[j] / scales[j]);
      drow[j] = static_cast<std::int8_t>(std::clamp(q, -127L, 127L));
    }
  }
}

std::int32_t sat32(std::int64_t v) {
  constexpr std::int64_t kMin = INT32_MIN;
  constexpr std::int64_t kMax = INT32_MAX;
  return static_cast<std::int32_t>(std::clamp(v, kMin, kMax));
}

namespace {

template <typename Acc>
void gemm_s8_rows(const std::int8_t* a, const std::int8_t* b,
                  std::int32_t* c, int m, int k, int n) {
  std::vector<Acc> acc(static_cast<std::size_t>(n));
  for (int i = 0; i < m; ++i) {
    std::fill(acc.begin(), acc.end(), Acc{0});
    const std::int8_t* arow = a + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const Acc av = arow[p];
      if (av == 0) continue;
      const std::int8_t* brow = b + static_cast<std::size_t>(p) * n;
      for (int j = 0; j < n; ++j) acc[j] += av * brow[j];
    }
    std::int32_t* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) crow[j] = sat32(acc[j]);
  }
}

}  // namespace

void gemm_s8(const std::int8_t* a, const std::int8_t* b, std::int32_t* c,
             int m, int k, int n) {
  if (k <= kInt32ExactK)
    gemm_s8_rows<std::int32_t>(a, b, c, m, k, n);
  else
    gemm_s8_rows<std::int64_t>(a, b, c, m, k, n);
}

void requant_rows(const std::int32_t* acc, int m, int n, float act_scale,
                  const float* row_scales, const float* bias, float* out) {
  for (int i = 0; i < m; ++i) {
    const float scale = act_scale * row_scales[i];
    const float b = bias ? bias[i] : 0.0f;
    const std::int32_t* arow = acc + static_cast<std::size_t>(i) * n;
    float* orow = out + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j)
      orow[j] = static_cast<float>(arow[j]) * scale + b;
  }
}

void requant_cols(const std::int32_t* acc, int m, int n,
                  const float* row_act_scales, const float* col_scales,
                  const float* bias, float* out) {
  for (int i = 0; i < m; ++i) {
    const float act_scale = row_act_scales[i];
    const std::int32_t* arow = acc + static_cast<std::size_t>(i) * n;
    float* orow = out + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j)
      orow[j] = static_cast<float>(arow[j]) * (act_scale * col_scales[j]) +
                (bias ? bias[j] : 0.0f);
  }
}

namespace {

template <typename Acc>
void depthwise_plane_s8_acc(const std::int8_t* in, int in_h, int in_w,
                            const std::int8_t* w, int kernel, int stride,
                            int pad, float bias, float combined_scale,
                            float* out, int out_h, int out_w) {
  // Output rows / columns whose every tap lands inside the plane, as the
  // half-open ranges [y0, y1) and [x0, x1). Outside them out-of-bounds
  // taps are skipped one by one; inside, no tap needs a bounds check.
  // Integer sums are exact, so both walks give the same accumulator.
  const auto interior = [&](int in_len, int out_len, int& lo, int& hi) {
    lo = std::min((pad + stride - 1) / stride, out_len);
    const int last = in_len - kernel + pad;  // largest in-bounds o*stride
    hi = last < 0 ? lo : std::clamp(last / stride + 1, lo, out_len);
  };
  int y0, y1, x0, x1;
  interior(in_h, out_h, y0, y1);
  interior(in_w, out_w, x0, x1);

  for (int oy = 0; oy < out_h; ++oy) {
    float* orow = out + static_cast<std::size_t>(oy) * out_w;
    const bool row_inside = oy >= y0 && oy < y1;
    for (int ox = 0; ox < out_w; ++ox) {
      Acc acc = 0;
      if (row_inside && ox >= x0 && ox < x1) {
        const std::int8_t* base =
            in + static_cast<std::size_t>(oy * stride - pad) * in_w +
            (ox * stride - pad);
        for (int ky = 0; ky < kernel; ++ky) {
          const std::int8_t* irow = base + static_cast<std::size_t>(ky) * in_w;
          const std::int8_t* wrow = w + ky * kernel;
          for (int kx = 0; kx < kernel; ++kx)
            acc += static_cast<Acc>(wrow[kx]) * irow[kx];
        }
      } else {
        for (int ky = 0; ky < kernel; ++ky) {
          const int iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= in_h) continue;
          const std::int8_t* irow = in + static_cast<std::size_t>(iy) * in_w;
          for (int kx = 0; kx < kernel; ++kx) {
            const int ix = ox * stride - pad + kx;
            if (ix < 0 || ix >= in_w) continue;
            acc += static_cast<Acc>(w[ky * kernel + kx]) * irow[ix];
          }
        }
      }
      orow[ox] = static_cast<float>(sat32(acc)) * combined_scale + bias;
    }
  }
}

}  // namespace

void depthwise_plane_s8(const std::int8_t* in, int in_h, int in_w,
                        const std::int8_t* w, int kernel, int stride,
                        int pad, float bias, float combined_scale,
                        float* out, int out_h, int out_w) {
  if (kernel * kernel <= kInt32ExactK)
    depthwise_plane_s8_acc<std::int32_t>(in, in_h, in_w, w, kernel, stride,
                                         pad, bias, combined_scale, out,
                                         out_h, out_w);
  else
    depthwise_plane_s8_acc<std::int64_t>(in, in_h, in_w, w, kernel, stride,
                                         pad, bias, combined_scale, out,
                                         out_h, out_w);
}

}  // namespace edgestab::int8
