// AVX2/FMA kernel tier (BackendKind::kAvx2).
//
// Raw-pointer kernels over planar float data — the vector counterparts of
// the scalar reference loops in tensor/ops.cpp, isp/stages.cpp and
// codec/dct.cpp. They are *numerically distinct* from the scalar tier by
// design: FMA contraction and vector-lane accumulation order produce
// last-ULP differences, the same class of divergence the paper measures
// across SoCs. Within the tier every kernel is deterministic (fixed
// instruction sequence, no thread-count dependence).
//
// The two int8 helpers at the end are the exception: they are exact
// (bit-identical to their scalar references), so the int8 tier picks
// them by host capability, not by the active backend.
//
// kernels_avx2.cpp is the only TU compiled with -mavx2 -mfma (CMake
// EDGESTAB_AVX2). Callers must dispatch behind use_avx2() /
// backend_available(BackendKind::kAvx2); when the tier is compiled out,
// these symbols still link but abort if reached.
#pragma once

#include <cstddef>
#include <cstdint>

namespace edgestab::avx2 {

/// C[m,n] = A[m,k] * B[k,n] (row-major), accumulating into C when
/// `accumulate` is set. The kernel handles the non-accumulating case
/// itself (register tiles start at zero) so callers skip the pre-zeroing
/// pass the scalar gemm contract requires.
void gemm_f32(const float* a, const float* b, float* c, int m, int k, int n,
              bool accumulate);

/// Depthwise convolution of one [in_h, in_w] plane with a [kernel,
/// kernel] filter. The 3x3 stride-1/2 fast path computes borders from a
/// zero-padded plane (out-of-bounds taps contribute w * (+0.0)); other
/// geometries skip out-of-bounds taps like the scalar reference. The two
/// conventions agree except in signed-zero cases — an intra-tier detail
/// covered by the cross-backend divergence contract (DESIGN.md §15).
void depthwise_plane_f32(const float* in, int in_h, int in_w,
                         const float* w, int kernel, int stride, int pad,
                         float bias, float* out, int out_h, int out_w);

/// Box blur of one [h, w] plane with clamped (edge-replicated) borders:
/// dst[y][x] = inv * sum of the (2*radius+1)^2 neighborhood. Tap order
/// matches the scalar reference (dy outer, dx inner), so per-pixel sums
/// are the same additions in the same order.
void box_blur_plane_f32(const float* src, int w, int h, int radius,
                        float inv, float* dst);

/// In-place 3x3 color matrix over three planes of n pixels, result
/// clamped to [lo, hi]. m9 is row-major.
void ccm_planes_f32(float* r, float* g, float* b, std::size_t n,
                    const float* m9, float lo, float hi);

/// In-place per-element curve: clamp x to [0,1], take t = sqrt(x), then
/// linearly interpolate a LUT of `lut_size` knots uniform in t (knot i
/// holds curve((i / (lut_size-1))^2)). The sqrt re-parameterization
/// linearizes gamma-style curves near zero, where a LUT uniform in x
/// would lose several digits. `lut` must hold lut_size + 1 entries (the
/// last duplicated) so the t == 1 lane never reads past the table.
void lut_map_sqrt_f32(float* data, std::size_t n, const float* lut,
                      int lut_size);

/// out = L * (X * R) for 8x8 row-major matrices — both DCT passes in one
/// call (forward: L = C, R = C^T; inverse: L = C^T, R = C).
void gemm8x8_pair_f32(const float* x, const float* l, const float* r,
                      float* out);

/// Bilinear CFA interpolation of interior rows [y0, y1) (1-pixel border
/// excluded on every side; the caller fills borders with the scalar
/// path). `red_x`/`red_y` are the parities of the red site (RGGB: 0,0;
/// BGGR: 1,1). Planes are width*height, row-major.
void demosaic_bilinear_rows_f32(const float* raw, int width, int height,
                                int red_x, int red_y, int y0, int y1,
                                float* r_plane, float* g_plane,
                                float* b_plane);

/// Malvar-He-Cutler interpolation of interior rows [y0, y1) (2-pixel
/// border excluded; caller fills borders with the scalar path).
void demosaic_malvar_rows_f32(const float* raw, int width, int height,
                              int red_x, int red_y, int y0, int y1,
                              float* r_plane, float* g_plane,
                              float* b_plane);

/// max |x| over n floats; NaN elements are skipped. Exact: the same bits
/// as the scalar std::max(m, std::fabs(x)) loop for every input.
float max_abs_f32(const float* data, std::size_t n);

/// dst[i] = clamp(lround(src[i] * inv), -127, 127) without a libm call
/// per element. Exact: the same codes as the std::lround reference for
/// every float input, NaN and infinities included.
void quantize_s8(const float* src, std::size_t n, float inv,
                 std::int8_t* dst);

}  // namespace edgestab::avx2
