// Int8 quantized inference tier (BackendKind::kInt8).
//
// Dynamic symmetric quantization, zero-point 0 everywhere:
//
//   * weights   — per-output-channel scales (per-row for conv weight
//     matrices [out_c, in_c*K*K], per-column for dense [in, out]):
//     scale = max|w| / 127, q = clamp(lround(w / scale), -127, 127).
//   * activations — one scale per sample, computed the same way from the
//     live activation values (per im2col matrix for conv, per plane for
//     depthwise, per row for dense). A sample's codes never depend on
//     which other samples share its batch.
//   * accumulate — products are summed exactly, then saturated once to
//     int32 (`sat32`). This is the "saturating int32 accumulate" of the
//     backend contract: the exact sum makes it order-independent, the
//     final saturation models a 32-bit accumulator register. Up to
//     k = 131071 terms (k * 128^2 <= INT32_MAX) every partial sum fits
//     int32, so the kernels accumulate in int32 and sat32 is the
//     identity; longer reductions accumulate in int64.
//   * requantize — out = float(sat32(acc)) * w_scale[c] * act_scale
//     + bias[c]. Pure function of the quantized operands: bit-exact
//     across runs and thread counts.
//
// tensor_scale and quantize run an AVX2 kernel when the host has AVX2
// (whatever the active backend): it returns the scalar loops' bits for
// every input, so no int8 result depends on the host's instruction set.
//
// Every step is integer or a deterministic float expression, so the tier
// meets the within-backend bit-exactness contract (DESIGN.md §15) at any
// --threads. Divergence from the scalar float tier is the signal, not an
// error — it feeds the drift/flip-ledger machinery as a distinct numeric
// environment.
#pragma once

#include <cstddef>
#include <cstdint>

namespace edgestab::int8 {

/// Symmetric per-tensor scale: max|x| / 127 (0 when the tensor is all
/// zeros — quantize() then produces all-zero codes).
float tensor_scale(const float* data, std::size_t n);

/// q = clamp(lround(x / scale), -127, 127); all zeros when scale <= 0.
void quantize(const float* src, std::size_t n, float scale,
              std::int8_t* dst);

/// Quantize a row-major [rows, cols] matrix with one scale per row
/// (conv weights: row = output channel). `scales` receives `rows` entries.
void quantize_rows(const float* src, int rows, int cols, std::int8_t* dst,
                   float* scales);

/// Quantize a row-major [rows, cols] matrix with one scale per column
/// (dense weights [in, out]: column = output unit). `scales` receives
/// `cols` entries.
void quantize_cols(const float* src, int rows, int cols, std::int8_t* dst,
                   float* scales);

/// Saturate an exact int64 sum to the int32 accumulator range.
std::int32_t sat32(std::int64_t v);

/// C[m,n] = sat32(sum_p A[m,k] * B[k,n]) — exact sums (int32 up to
/// k = 131071, int64 beyond), one saturation per output element.
void gemm_s8(const std::int8_t* a, const std::int8_t* b, std::int32_t* c,
             int m, int k, int n);

/// out[i,j] = float(acc[i,j]) * act_scale * row_scales[i] + bias[i]
/// (bias may be null). Conv layout: row = output channel.
void requant_rows(const std::int32_t* acc, int m, int n, float act_scale,
                  const float* row_scales, const float* bias, float* out);

/// out[i,j] = float(acc[i,j]) * (row_act_scales[i] * col_scales[j]) +
/// bias[j] (bias may be null). Dense layout: row = sample, column =
/// output unit.
void requant_cols(const std::int32_t* acc, int m, int n,
                  const float* row_act_scales, const float* col_scales,
                  const float* bias, float* out);

/// Quantized depthwise convolution of one plane. Out-of-bounds taps are
/// skipped (zero-point 0 makes this identical to zero padding).
/// `combined_scale` = activation scale * this channel's weight scale;
/// out = float(sat32(acc)) * combined_scale + bias.
void depthwise_plane_s8(const std::int8_t* in, int in_h, int in_w,
                        const std::int8_t* w, int kernel, int stride,
                        int pad, float bias, float combined_scale,
                        float* out, int out_h, int out_w);

}  // namespace edgestab::int8
