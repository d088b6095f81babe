// Binary serialization primitives (little-endian) + file helpers.
// Used by codec bitstreams, model checkpoints, and the workspace cache.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/alloc_track.h"

namespace edgestab {

/// Codec bitstreams, checkpoints and cache payloads. The tracked
/// allocator reports (de)allocations to the hot-path profiler when one
/// is armed; in profile-off builds it IS std::allocator, so the type is
/// exactly std::vector<std::uint8_t>.
using Bytes = TrackedVector<std::uint8_t, AllocSite::kBytes>;

/// Append-only little-endian byte writer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f32(float v);
  void f64(double v);
  void str(const std::string& s);  ///< u32 length prefix + bytes
  void raw(std::span<const std::uint8_t> data);
  void f32_array(std::span<const float> data);  ///< u64 count + payload

  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Bounds-checked little-endian byte reader; throws CheckError on
/// truncation (corrupt bitstreams must not read out of bounds).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  float f32();
  double f64();
  std::string str();
  std::vector<float> f32_array();
  void raw(std::span<std::uint8_t> out);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  std::size_t position() const { return pos_; }

 private:
  void need(std::size_t n) const;
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Read an entire file; throws CheckError if missing/unreadable.
Bytes read_file(const std::string& path);
/// Write an entire file; throws CheckError on failure.
void write_file(const std::string& path, std::span<const std::uint8_t> data);
/// Read an entire file as text; nullopt when it cannot be opened or read.
std::optional<std::string> read_text_file(const std::string& path);
/// Write `text` as the whole of `path`. On failure prints one
/// "cannot open" / "short write" line to stderr and returns false:
/// artifact exporters report a failed write, they do not throw.
bool write_text_file(const std::string& path, std::string_view text);
/// True if the path exists and is a regular file.
bool file_exists(const std::string& path);
/// mkdir -p equivalent.
void make_dirs(const std::string& path);

}  // namespace edgestab
