#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace avgpipe::tensor {

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (auto d : shape) n *= d;
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

const std::shared_ptr<detail::Storage>& Tensor::empty_storage() {
  static const std::shared_ptr<detail::Storage> empty =
      std::make_shared<detail::Storage>(0, false);
  return empty;
}

Tensor Tensor::full(Shape shape, Scalar value) {
  Tensor t = uninitialized(std::move(shape));
  t.fill_(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, Scalar stddev) {
  Tensor t = uninitialized(std::move(shape));
  for (auto& x : t.data()) x = rng.normal(0.0, stddev);
  return t;
}

Tensor Tensor::from(std::initializer_list<Scalar> values) {
  return Tensor({values.size()}, std::vector<Scalar>(values));
}

Tensor Tensor::from2d(
    std::initializer_list<std::initializer_list<Scalar>> rows) {
  AVGPIPE_CHECK(rows.size() > 0, "from2d needs at least one row");
  const std::size_t cols = rows.begin()->size();
  std::vector<Scalar> values;
  values.reserve(rows.size() * cols);
  for (const auto& row : rows) {
    AVGPIPE_CHECK(row.size() == cols, "ragged rows in from2d");
    values.insert(values.end(), row.begin(), row.end());
  }
  return Tensor({rows.size(), cols}, std::move(values));
}

Tensor Tensor::reshape(Shape new_shape) const {
  AVGPIPE_CHECK(shape_numel(new_shape) == numel(),
                "reshape " << shape_to_string(shape_) << " -> "
                           << shape_to_string(new_shape) << " changes numel");
  Tensor view = *this;
  view.shape_ = std::move(new_shape);
  return view;
}

Tensor Tensor::view(std::size_t offset, Shape shape) const {
  const std::size_t n = shape_numel(shape);
  AVGPIPE_CHECK(offset <= numel_ && n <= numel_ - offset,
                "view [" << offset << ", " << offset + n << ") of a "
                         << numel_ << "-element tensor");
  Tensor v = *this;
  v.offset_ += offset;
  v.numel_ = n;
  v.shape_ = std::move(shape);
  return v;
}

Tensor Tensor::clone() const {
  Tensor copy = uninitialized(shape_);
  std::ranges::copy(data(), copy.data().begin());
  return copy;
}

void Tensor::fill_(Scalar value) { std::ranges::fill(data(), value); }

void Tensor::axpy_(Scalar alpha, const Tensor& other) {
  AVGPIPE_CHECK(numel() == other.numel(), "axpy_ numel mismatch");
  const auto a = data();
  const auto b = other.data();
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += alpha * b[i];
}

void Tensor::scale_(Scalar alpha) {
  for (Scalar& a : data()) a *= alpha;
}

void Tensor::lerp_(const Tensor& other, Scalar t) {
  AVGPIPE_CHECK(numel() == other.numel(), "lerp_ numel mismatch");
  const auto a = data();
  const auto b = other.data();
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += t * (b[i] - a[i]);
}

void Tensor::copy_from(const Tensor& other) {
  AVGPIPE_CHECK(numel() == other.numel(), "copy_from numel mismatch");
  std::ranges::copy(other.data(), data().begin());
}

Scalar Tensor::sum() const {
  Scalar acc = 0.0;
  for (const Scalar a : data()) acc += a;
  return acc;
}

Scalar Tensor::mean() const {
  return numel() > 0 ? sum() / static_cast<Scalar>(numel()) : 0.0;
}

Scalar Tensor::abs_max() const {
  Scalar m = 0.0;
  for (const Scalar a : data()) m = std::max(m, std::fabs(a));
  return m;
}

Scalar Tensor::norm() const { return std::sqrt(dot(*this)); }

Scalar Tensor::dot(const Tensor& other) const {
  AVGPIPE_CHECK(numel() == other.numel(), "dot numel mismatch");
  Scalar acc = 0.0;
  const auto a = data();
  const auto b = other.data();
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

Scalar Tensor::max_abs_diff(const Tensor& other) const {
  AVGPIPE_CHECK(numel() == other.numel(), "max_abs_diff numel mismatch");
  Scalar m = 0.0;
  const auto a = data();
  const auto b = other.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

std::string Tensor::to_string(std::size_t max_elems) const {
  std::ostringstream os;
  os << "Tensor" << shape_to_string(shape_) << " {";
  const std::size_t n = std::min(numel(), max_elems);
  for (std::size_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << (*this)[i];
  }
  if (numel() > max_elems) os << ", ...";
  os << '}';
  return os.str();
}

namespace {

/// Views start on 64-byte boundaries: offsets round up to 8 scalars.
std::size_t align_up(std::size_t n) { return (n + 7) / 8 * 8; }

/// Fresh views shaped like `like`: one buffer per shard of `like`, or one
/// for all of it when `one`; zero-filled when `zero`, else for callers that
/// write every element, gaps included.
std::vector<Tensor> laid_out(std::span<const Tensor> like, bool one,
                             bool zero) {
  std::vector<Tensor> out;
  out.reserve(like.size());
  for (std::size_t first = 0, last = 0; first < like.size(); first = last) {
    last = one ? like.size() : shard_end(like, first);
    std::size_t end = 0;
    for (std::size_t j = first; j < last; ++j) {
      end = align_up(end) + like[j].numel();
    }
    const Tensor buffer = zero ? Tensor({end}) : Tensor::uninitialized({end});
    for (std::size_t j = first, at = 0; j < last; ++j) {
      out.push_back(buffer.view(at, like[j].shape()));
      at = align_up(at + like[j].numel());
    }
  }
  return out;
}

}  // namespace

std::vector<Tensor> flat_zeros(std::span<const Tensor> like) {
  return laid_out(like, true, true);
}

std::vector<Tensor> zeros_like(std::span<const Tensor> like) {
  return laid_out(like, false, true);
}

std::vector<Tensor> clone_set(std::span<const Tensor> src) {
  std::vector<Tensor> out = laid_out(src, false, false);
  copy_into(out, src);
  return out;
}

void copy_into(std::span<Tensor> dst, std::span<const Tensor> src) {
  for_each_shard(
      [](std::span<Scalar> d, std::span<const Scalar> s) {
        std::ranges::copy(s, d.begin());
      },
      dst, src);
}

std::size_t shard_end(std::span<const Tensor> set, std::size_t first) {
  std::size_t last = first + 1;
  for (; last < set.size() && set[last].aliases(set[last - 1]); ++last) {
    const Tensor& prev = set[last - 1];
    if (set[last].offset() != prev.offset() + align_up(prev.numel())) break;
  }
  return last;
}

}  // namespace avgpipe::tensor
