#include "util/bytes.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/check.h"

namespace edgestab {

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::f32(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u32(bits);
}

void ByteWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

void ByteWriter::raw(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::f32_array(std::span<const float> data) {
  u64(data.size());
  for (float v : data) f32(v);
}

void ByteReader::need(std::size_t n) const {
  ES_CHECK_MSG(pos_ + n <= data_.size(),
               "byte stream truncated: need " << n << " at " << pos_
                                              << " of " << data_.size());
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  std::uint16_t lo = u8();
  std::uint16_t hi = u8();
  return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t ByteReader::u32() {
  std::uint32_t lo = u16();
  std::uint32_t hi = u16();
  return lo | (hi << 16);
}

std::uint64_t ByteReader::u64() {
  std::uint64_t lo = u32();
  std::uint64_t hi = u32();
  return lo | (hi << 32);
}

float ByteReader::f32() {
  std::uint32_t bits = u32();
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double ByteReader::f64() {
  std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::str() {
  std::uint32_t len = u32();
  need(len);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

std::vector<float> ByteReader::f32_array() {
  std::uint64_t n = u64();
  need(n * 4);
  std::vector<float> out(n);
  for (std::uint64_t i = 0; i < n; ++i) out[i] = f32();
  return out;
}

void ByteReader::raw(std::span<std::uint8_t> out) {
  need(out.size());
  std::memcpy(out.data(), data_.data() + pos_, out.size());
  pos_ += out.size();
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  ES_CHECK_MSG(in.good(), "cannot open " << path);
  auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  Bytes data(size);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(size));
  ES_CHECK_MSG(in.good(), "read failed for " << path);
  return data;
}

void write_file(const std::string& path, std::span<const std::uint8_t> data) {
  std::ofstream out(path, std::ios::binary);
  ES_CHECK_MSG(out.good(), "cannot open " << path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  ES_CHECK_MSG(out.good(), "write failed for " << path);
}

std::optional<std::string> read_text_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buffer[4096];
  std::size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0)
    text.append(buffer, got);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return std::nullopt;
  return text;
}

bool write_text_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (!(std::fclose(f) == 0 && ok)) {
    std::fprintf(stderr, "short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_regular_file(path, ec);
}

void make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  ES_CHECK_MSG(!ec, "mkdir failed for " << path << ": " << ec.message());
}

}  // namespace edgestab
