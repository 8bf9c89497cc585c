#include "ckpt/format.hpp"

#include <array>

namespace avgpipe::ckpt {

namespace {

constexpr std::uint32_t kCrcPoly = 0xEDB88320u;  // reflected IEEE 802.3

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: t[0] is the classic bytewise table, and t[k][b] is
/// the CRC state after byte b is followed by k zero bytes, so eight table
/// lookups advance the CRC over eight input bytes at once.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? kCrcPoly ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Little-endian load; compilers fold the shifts into one unaligned mov.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// GF(2) 32x32 matrix (one column per bit) times a vector.
std::uint32_t gf2_times(const std::array<std::uint32_t, 32>& mat,
                        std::uint32_t vec) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; vec != 0; ++i, vec >>= 1) {
    if ((vec & 1u) != 0) sum ^= mat[i];
  }
  return sum;
}

std::array<std::uint32_t, 32> gf2_square(
    const std::array<std::uint32_t, 32>& mat) {
  std::array<std::uint32_t, 32> sq{};
  for (std::size_t i = 0; i < 32; ++i) sq[i] = gf2_times(mat, mat[i]);
  return sq;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto& t = kCrcTables;
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; size -= 8, p += 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_combine(std::uint32_t crc1, std::uint32_t crc2,
                            std::uint64_t len2) {
  if (len2 == 0) return crc1;
  // Appending len2 zero bytes to A is linear over GF(2): square the
  // one-zero-bit operator up to one byte, then apply the operator for each
  // set bit of len2 while squaring (zlib's crc32_combine).
  std::array<std::uint32_t, 32> odd{};
  odd[0] = kCrcPoly;
  for (std::size_t i = 1; i < 32; ++i) odd[i] = 1u << (i - 1);
  std::array<std::uint32_t, 32> even = gf2_square(odd);  // 2 zero bits
  odd = gf2_square(even);                                 // 4 zero bits
  for (;;) {
    even = gf2_square(odd);
    if ((len2 & 1u) != 0) crc1 = gf2_times(even, crc1);
    len2 >>= 1;
    if (len2 == 0) break;
    odd = gf2_square(even);
    if ((len2 & 1u) != 0) crc1 = gf2_times(odd, crc1);
    len2 >>= 1;
    if (len2 == 0) break;
  }
  return crc1 ^ crc2;
}

void write_tensor(ByteWriter& w, const tensor::Tensor& t) {
  const auto& shape = t.shape();
  w.u32(static_cast<std::uint32_t>(shape.size()));
  for (const std::size_t d : shape) w.u64(d);
  const auto v = t.data();
  // One raw memcpy of the whole buffer: Scalar is double and the encoding is
  // its IEEE-754 bytes, so per-element f64() calls would only add overhead.
  static_assert(sizeof(tensor::Scalar) == 8, "Scalar must be f64 on disk");
  w.bytes(v.data(), v.size() * sizeof(tensor::Scalar));
}

tensor::Tensor read_tensor(ByteReader& r) {
  const std::uint32_t ndim = r.u32();
  AVGPIPE_CHECK(ndim <= 8, "tensor record: implausible rank " << ndim);
  tensor::Shape shape(ndim);
  for (auto& d : shape) {
    d = static_cast<std::size_t>(r.u64());
    AVGPIPE_CHECK(d > 0 && d <= (1ull << 32),
                  "tensor record: implausible dim " << d);
  }
  tensor::Tensor t = tensor::Tensor::uninitialized(shape);
  auto v = t.data();
  const std::uint8_t* raw = r.bytes(v.size() * sizeof(tensor::Scalar));
  std::memcpy(v.data(), raw, v.size() * sizeof(tensor::Scalar));
  return t;
}

void write_tensor_list(ByteWriter& w, const std::vector<tensor::Tensor>& ts) {
  w.u32(static_cast<std::uint32_t>(ts.size()));
  for (const auto& t : ts) write_tensor(w, t);
}

std::vector<tensor::Tensor> read_tensor_list(ByteReader& r) {
  const std::uint32_t n = r.u32();
  std::vector<tensor::Tensor> ts;
  ts.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) ts.push_back(read_tensor(r));
  return ts;
}

void write_optimizer_state(ByteWriter& w, const optim::OptimizerState& s) {
  w.str(s.name);
  w.u64(s.steps);
  w.u32(static_cast<std::uint32_t>(s.scalars.size()));
  for (const double v : s.scalars) w.f64(v);
  write_tensor_list(w, s.slots);
}

optim::OptimizerState read_optimizer_state(ByteReader& r) {
  optim::OptimizerState s;
  s.name = r.str();
  s.steps = static_cast<std::size_t>(r.u64());
  const std::uint32_t n = r.u32();
  s.scalars.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) s.scalars.push_back(r.f64());
  s.slots = read_tensor_list(r);
  return s;
}

}  // namespace avgpipe::ckpt
