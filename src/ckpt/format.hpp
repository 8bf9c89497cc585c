#pragma once

/// \file format.hpp
/// Versioned binary serialization primitives for the checkpoint layer.
///
/// Everything durable in AvgPipe — parameter tensors, optimizer slots, RNG
/// engine streams, sync-policy state — flows through the ByteWriter /
/// ByteReader pair defined here. The encoding is deliberately boring:
/// little-endian fixed-width integers, raw IEEE-754 bytes for doubles (a
/// checkpointed weight must restore *bit-exactly*, so no decimal round-trip
/// is ever allowed), and length-prefixed strings. Integrity is layered on
/// top by the record framing in checkpoint.hpp (CRC-32 per record plus a
/// whole-file CRC in the manifest); this file only defines the payload
/// codecs. These codecs are also the direct prerequisite for the ROADMAP's
/// socket/shm transport: a tensor that can cross a crash can cross a wire.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "optim/optimizer.hpp"
#include "tensor/tensor.hpp"

namespace avgpipe::ckpt {

/// Current on-disk format version (header field of every checkpoint file).
constexpr std::uint32_t kFormatVersion = 1;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8.
/// `seed` lets callers chain incremental updates:
/// crc32(b, crc32(a)) == crc32(a ++ b).
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

/// CRC of a ++ b from crc1 = crc32(a), crc2 = crc32(b) and len2 = |b|,
/// without touching the bytes again (O(log len2) GF(2) matrix products).
std::uint32_t crc32_combine(std::uint32_t crc1, std::uint32_t crc2,
                            std::uint64_t len2);

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  /// Pre-size the buffer so appends never reallocate (and copy) it.
  void reserve(std::size_t n) { buf_.reserve(n); }
  /// Keep only the first `n` bytes (and the buffer's capacity).
  void truncate(std::size_t n) { buf_.resize(std::min(n, buf_.size())); }
  std::size_t size() const { return buf_.size(); }

  /// Overwrite a field already appended at `pos` (counts and lengths whose
  /// value is only known once the bytes after them are written).
  void patch_u32(std::size_t pos, std::uint32_t v) { put(pos, v, 4); }
  void patch_u64(std::size_t pos, std::uint64_t v) { put(pos, v, 8); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i64(std::int64_t v) { le(static_cast<std::uint64_t>(v), 8); }

  /// Raw IEEE-754 bytes, LE — bit-exact by construction.
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    le(bits, 8);
  }

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  /// u32 length prefix + raw bytes.
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }

  const std::vector<std::uint8_t>& buffer() const { return buf_; }

 private:
  void le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void put(std::size_t pos, std::uint64_t v, int n) {
    AVGPIPE_CHECK(n <= static_cast<int>(buf_.size()) &&
                      pos <= buf_.size() - static_cast<std::size_t>(n),
                  "patch past the end of the buffer");
    for (int i = 0; i < n; ++i) {
      buf_[pos + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian byte source; every underrun or trailing-junk
/// condition is an avgpipe::Error, never silent garbage (a torn or bit-
/// flipped payload that slips past the CRC must still fail loudly).
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(std::span<const std::uint8_t> buf)
      : ByteReader(buf.data(), buf.size()) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(le(8)); }

  double f64() {
    const std::uint64_t bits = le(8);
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  const std::uint8_t* bytes(std::size_t n) {
    need(n);
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

  /// Decoders call this last: leftover bytes mean the payload and the code
  /// disagree about the format — corruption or a version skew, either fatal.
  void expect_done(const char* what) const {
    AVGPIPE_CHECK(done(), what << ": " << remaining()
                               << " trailing bytes after decode");
  }

 private:
  void need(std::size_t n) const {
    // `n <= size_ - pos_` rather than `pos_ + n <= size_`: a corrupted
    // length field near SIZE_MAX must not wrap the sum and slip through.
    AVGPIPE_CHECK(n <= size_ - pos_, "checkpoint payload truncated: need "
                                         << n << " bytes at offset " << pos_
                                         << ", have " << size_ - pos_);
  }
  std::uint64_t le(int n) {
    need(static_cast<std::size_t>(n));
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// -- tensor / optimizer codecs ------------------------------------------------

/// ndim, dims, then numel raw f64 values.
void write_tensor(ByteWriter& w, const tensor::Tensor& t);
tensor::Tensor read_tensor(ByteReader& r);

/// u32 count + tensors.
void write_tensor_list(ByteWriter& w, const std::vector<tensor::Tensor>& ts);
std::vector<tensor::Tensor> read_tensor_list(ByteReader& r);

/// name, steps, scalars, slots (see optim::OptimizerState).
void write_optimizer_state(ByteWriter& w, const optim::OptimizerState& s);
optim::OptimizerState read_optimizer_state(ByteReader& r);

}  // namespace avgpipe::ckpt
