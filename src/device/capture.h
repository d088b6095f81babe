// The photo-taking path: displayed scene -> optics -> sensor -> ISP ->
// storage codec. Mirrors the paper's lab rig where each phone photographs
// the same image shown on a monitor (§3.2, Figure 2).
#pragma once

#include <optional>

#include "device/phone.h"
#include "image/image.h"
#include "util/rng.h"

namespace edgestab {

/// A stored photo: compressed bytes + the format they are in, plus the
/// raw mosaic when the phone supports raw capture (§9.2).
struct Capture {
  Bytes file;
  ImageFormat format = ImageFormat::kJpegLike;
  int quality = 0;
  std::optional<RawImage> raw;
};

/// Photograph `screen_emission` (linear-light radiance of the displayed
/// image, any resolution) with the given phone. `rng` drives temporal
/// sensor noise — two calls with the same phone and scene model two
/// consecutive shots (Figure 1). Equal to
/// take_framed_photo(phone, frame_emission(phone, screen_emission), rng).
Capture take_photo(const PhoneProfile& phone, const Image& screen_emission,
                   Pcg32& rng);

/// Optics + mount: the emission as the phone's sensor sees it, warped by
/// the phone's small geometric offset/tilt (a copy when it has none).
/// Noise-free and a pure function of (phone, emission), so a rig that
/// shoots one stimulus several times frames it once.
Image frame_emission(const PhoneProfile& phone, const Image& screen_emission);

/// The per-shot rest of take_photo: expose `framed` (from frame_emission)
/// on the sensor, run the phone's ISP and store the file.
Capture take_framed_photo(const PhoneProfile& phone, const Image& framed,
                          Pcg32& rng);

/// Decode a capture's stored bytes with a given OS decoder behaviour
/// (inference may happen on a different device than the one that took
/// the photo). Aborts (CheckError) on malformed bytes — use
/// try_decode_capture when the payload may have been corrupted in
/// transit.
ImageU8 decode_capture(const Capture& capture,
                       const JpegDecodeOptions& os_decoder);

/// Total variant of decode_capture for untrusted payloads: malformed
/// bytes, an empty capture (dropout) or an out-of-enum format come back
/// as a typed DecodeResult instead of killing the process.
DecodeResult try_decode_capture(const Capture& capture,
                                const JpegDecodeOptions& os_decoder);

/// Convert a raw capture with a software ISP (the §9.2 consistent
/// pipeline), producing a display-referred image.
Image develop_raw(const RawImage& raw, const IspConfig& software_isp);

}  // namespace edgestab
