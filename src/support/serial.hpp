// Minimal binary (de)serialisation for DiskStore frames. Little-endian
// fixed-width integers and length-prefixed strings. The reader is fully
// bounds-checked and never throws: frames are input from outside the
// program, so any truncated or malformed buffer flips a sticky error flag,
// subsequent reads return zero values, and the caller checks `AtEnd()` once
// at the end — a corrupt entry must decode as "miss", never as UB.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace hipacc::support {

class BinaryWriter {
 public:
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void Str(std::string_view s) {
    U64(s.size());
    out_.append(s.data(), s.size());
  }

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  std::uint32_t U32() {
    if (!Need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint64_t U64() {
    if (!Need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    pos_ += 8;
    return v;
  }
  std::string Str() {
    const std::uint64_t n = U64();
    if (!Need(n)) return {};
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  /// True iff every read so far was in-bounds and consumed the whole
  /// buffer: a frame decodes only when this holds at the end.
  bool AtEnd() const noexcept { return ok_ && pos_ == data_.size(); }

 private:
  bool Need(std::uint64_t n) {
    if (!ok_ || n > data_.size() - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace hipacc::support
