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

Tensor Tensor::clone() const {
  Tensor copy = uninitialized(shape_);
  std::copy(storage_->data(), storage_->data() + storage_->size(),
            copy.storage_->data());
  return copy;
}

void Tensor::fill_(Scalar value) {
  std::fill(storage_->data(), storage_->data() + storage_->size(), value);
}

void Tensor::axpy_(Scalar alpha, const Tensor& other) {
  AVGPIPE_CHECK(numel() == other.numel(), "axpy_ numel mismatch");
  Scalar* a = storage_->data();
  const Scalar* b = other.storage_->data();
  const std::size_t n = numel();
  for (std::size_t i = 0; i < n; ++i) a[i] += alpha * b[i];
}

void Tensor::scale_(Scalar alpha) {
  Scalar* a = storage_->data();
  const std::size_t n = numel();
  for (std::size_t i = 0; i < n; ++i) a[i] *= alpha;
}

void Tensor::lerp_(const Tensor& other, Scalar t) {
  AVGPIPE_CHECK(numel() == other.numel(), "lerp_ numel mismatch");
  Scalar* a = storage_->data();
  const Scalar* b = other.storage_->data();
  const std::size_t n = numel();
  for (std::size_t i = 0; i < n; ++i) a[i] += t * (b[i] - a[i]);
}

void Tensor::copy_from(const Tensor& other) {
  AVGPIPE_CHECK(numel() == other.numel(), "copy_from numel mismatch");
  std::copy(other.storage_->data(), other.storage_->data() + other.numel(),
            storage_->data());
}

Scalar Tensor::sum() const {
  const Scalar* a = storage_->data();
  const std::size_t n = numel();
  Scalar acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i];
  return acc;
}

Scalar Tensor::mean() const {
  return numel() > 0 ? sum() / static_cast<Scalar>(numel()) : 0.0;
}

Scalar Tensor::abs_max() const {
  const Scalar* a = storage_->data();
  const std::size_t n = numel();
  Scalar m = 0.0;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(a[i]));
  return m;
}

Scalar Tensor::norm() const { return std::sqrt(dot(*this)); }

Scalar Tensor::dot(const Tensor& other) const {
  AVGPIPE_CHECK(numel() == other.numel(), "dot numel mismatch");
  Scalar acc = 0.0;
  const Scalar* a = storage_->data();
  const Scalar* b = other.storage_->data();
  const std::size_t n = numel();
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

Scalar Tensor::max_abs_diff(const Tensor& other) const {
  AVGPIPE_CHECK(numel() == other.numel(), "max_abs_diff numel mismatch");
  Scalar m = 0.0;
  const Scalar* a = storage_->data();
  const Scalar* b = other.storage_->data();
  const std::size_t n = numel();
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

std::string Tensor::to_string(std::size_t max_elems) const {
  std::ostringstream os;
  os << "Tensor" << shape_to_string(shape_) << " {";
  const std::size_t n = std::min(numel(), max_elems);
  for (std::size_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << storage_->data()[i];
  }
  if (numel() > max_elems) os << ", ...";
  os << '}';
  return os.str();
}

}  // namespace avgpipe::tensor
