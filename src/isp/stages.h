// Individual ISP pipeline stages (paper §6: "common stages of an ISP
// pipeline include color correction, lens correction, demosaicing and
// noise reduction"). Each stage is a pure function so pipelines can be
// composed, reordered and ablated.
#pragma once

#include <array>

#include "image/image.h"
#include "isp/raw.h"

namespace edgestab {

/// Subtract the black level pedestal and rescale to [0,1] linear.
void black_level_subtract(RawImage& raw);

enum class DemosaicKind {
  kBilinear,  ///< average of same-color neighbors
  kMalvar,    ///< gradient-corrected (Malvar-He-Cutler 5x5 kernels)
};

/// Interpolate the mosaic to full linear RGB.
Image demosaic(const RawImage& raw, DemosaicKind kind);

/// White-balance gains. Preset applies fixed gains; gray-world estimates
/// gains so channel means equalize.
void white_balance_preset(Image& rgb, const std::array<float, 3>& gains);
void white_balance_gray_world(Image& rgb);

/// 3x3 color correction matrix in linear light (row-major).
void color_correct(Image& rgb, const std::array<float, 9>& matrix);

/// Box blur of every plane over (2*radius+1)^2 taps with clamped
/// borders (radius > 0): each output sums its taps row by row, left to
/// right, then scales by 1/taps — the same order on every tier. The
/// shared kernel of denoise_box and sharpen_unsharp.
Image box_blur(const Image& src, int radius);

/// Chroma-preserving denoise: box-filter each channel, blend by strength
/// in [0,1].
void denoise_box(Image& rgb, int radius, float strength);

/// Global tone mapping: gamma encode then an s-curve of adjustable
/// contrast around mid-gray. Input linear, output display-referred.
void tone_map(Image& rgb, float gamma, float s_curve_strength);

/// Unsharp-mask sharpening on the display-referred image.
void sharpen_unsharp(Image& rgb, int radius, float amount);

/// Saturation adjustment in display space (1 = identity).
void saturate(Image& rgb, float factor);

}  // namespace edgestab
