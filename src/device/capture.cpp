#include "device/capture.h"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "image/resize.h"
#include "obs/obs.h"

namespace edgestab {

namespace {

// EDGESTAB_PERF_CANARY_MS injects a per-shot sleep into the capture
// stage: a known slowdown that changes no pixels, used by the regression
// gate to prove the sentinel flags wall-time regressions without
// touching digests. 0 / unset = off.
int perf_canary_ms() {
  static const int ms = [] {
    const char* env = std::getenv("EDGESTAB_PERF_CANARY_MS");
    return env != nullptr ? std::atoi(env) : 0;
  }();
  return ms;
}

}  // namespace

Capture take_photo(const PhoneProfile& phone, const Image& screen_emission,
                   Pcg32& rng) {
  return take_framed_photo(phone, frame_emission(phone, screen_emission),
                           rng);
}

Image frame_emission(const PhoneProfile& phone,
                     const Image& screen_emission) {
  ES_CHECK(screen_emission.channels() == 3);
  if (phone.mount_dx == 0.0f && phone.mount_dy == 0.0f &&
      phone.mount_tilt == 0.0f)
    return screen_emission;
  // The warp maps output (sensor-facing) coordinates to screen
  // coordinates.
  ES_TRACE_SCOPE("device", "frame_warp");
  const float cx = static_cast<float>(screen_emission.width()) / 2.0f;
  const float cy = static_cast<float>(screen_emission.height()) / 2.0f;
  const Affine warp =
      Affine::rotate_about(phone.mount_tilt, cx, cy)
          .compose(Affine::translate(phone.mount_dx, phone.mount_dy));
  return warp_affine(screen_emission, warp, screen_emission.width(),
                     screen_emission.height());
}

Capture take_framed_photo(const PhoneProfile& phone, const Image& framed,
                          Pcg32& rng) {
  ES_TRACE_SCOPE("device", "take_photo");
  ES_CHECK(framed.channels() == 3);
  if (int ms = perf_canary_ms(); ms > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));

  RawImage raw = expose_sensor(framed, phone.sensor, rng);
  Image developed = run_isp(raw, phone.isp);

  Capture capture;
  capture.format = phone.storage_format;
  capture.quality = phone.storage_quality;
  {
    ES_TRACE_SCOPE("device", "store_file");
    auto codec = make_codec(phone.storage_format, phone.storage_quality);
    capture.file = codec->encode(to_u8(developed));
  }
  if (phone.supports_raw) capture.raw = raw;
  ES_COUNT("device.shots_captured", 1);
  return capture;
}

ImageU8 decode_capture(const Capture& capture,
                       const JpegDecodeOptions& os_decoder) {
  ES_TRACE_SCOPE("device", "decode_capture");
  if (capture.format == ImageFormat::kJpegLike) {
    JpegLikeCodec codec(capture.quality, os_decoder);
    return codec.decode(capture.file);
  }
  auto codec = make_codec(capture.format, capture.quality);
  return codec->decode(capture.file);
}

DecodeResult try_decode_capture(const Capture& capture,
                                const JpegDecodeOptions& os_decoder) {
  ES_TRACE_SCOPE("device", "decode_capture");
  try {
    if (capture.format == ImageFormat::kJpegLike) {
      // Constructing the codec validates the quality field, which on a
      // dropped or mangled capture may itself be garbage.
      JpegLikeCodec codec(capture.quality, os_decoder);
      return codec.try_decode(capture.file);
    }
    auto codec = try_make_codec(capture.format, capture.quality);
    if (!codec) {
      DecodeResult result;
      result.status = DecodeStatus::kUnknownFormat;
      result.message = "unknown storage format " +
                       std::to_string(static_cast<int>(capture.format));
      return result;
    }
    return codec->try_decode(capture.file);
  } catch (const CheckError& e) {
    DecodeResult result;
    result.status = DecodeStatus::kBadHeader;
    result.message = e.what();
    return result;
  }
}

Image develop_raw(const RawImage& raw, const IspConfig& software_isp) {
  ES_TRACE_SCOPE("device", "develop_raw");
  return run_isp(raw, software_isp);
}

}  // namespace edgestab
