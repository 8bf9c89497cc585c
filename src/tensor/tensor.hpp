#pragma once

/// \file tensor.hpp
/// Dense row-major N-dimensional tensor with shared storage.
///
/// This is the numeric substrate for the real-training path of the
/// reproduction (statistical-efficiency experiments, threaded pipeline
/// runtime). It deliberately supports only what the models need: contiguous
/// row-major layout, views via reshape, and a small set of kernels. Scalars
/// are double so numeric gradient checks and averaging-equivalence tests are
/// robust.
///
/// Storage is a ref-counted, 64-byte-aligned buffer recycled through the
/// size-bucketed arena (arena.hpp), so forward/backward over a micro-batch
/// stops hitting `operator new` per op once shapes repeat. `Tensor(Shape)`
/// zero-fills; `Tensor::uninitialized(Shape)` skips the fill for outputs
/// that every kernel overwrites completely.

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "tensor/arena.hpp"

namespace avgpipe::tensor {

using Shape = std::vector<std::size_t>;

/// Number of elements implied by a shape (empty shape = scalar = 1 element).
std::size_t shape_numel(const Shape& shape);
/// "[2, 3, 4]"
std::string shape_to_string(const Shape& shape);

namespace detail {

/// Ref-counted flat buffer; returns itself to the arena on destruction.
class Storage {
 public:
  Storage(std::size_t n, bool zero_fill) : data_(arena::acquire(n)), size_(n) {
    if (zero_fill && data_ != nullptr) {
      for (std::size_t i = 0; i < size_; ++i) data_[i] = 0.0;
    }
  }
  ~Storage() { arena::release(data_, size_); }

  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  Scalar* data() { return data_; }
  const Scalar* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  Scalar* data_;
  std::size_t size_;
};

}  // namespace detail

/// Reference-counted dense tensor. Copying a Tensor aliases storage
/// (shallow); use clone() for a deep copy. All views are contiguous.
class Tensor {
 public:
  /// Empty 0-element tensor (shares a process-wide empty storage).
  Tensor() : storage_(empty_storage()), shape_{0} {}

  /// Zeroed tensor of the given shape.
  explicit Tensor(Shape shape)
      : storage_(
            std::make_shared<detail::Storage>(shape_numel(shape), true)),
        shape_(std::move(shape)) {}

  Tensor(Shape shape, const std::vector<Scalar>& values)
      : storage_(
            std::make_shared<detail::Storage>(shape_numel(shape), false)),
        shape_(std::move(shape)) {
    AVGPIPE_CHECK(values.size() == storage_->size(),
                  "value count " << values.size() << " != shape "
                                 << shape_to_string(shape_));
    std::copy(values.begin(), values.end(), storage_->data());
  }

  // -- factories --------------------------------------------------------------

  /// Arena-allocated tensor whose contents are NOT initialised. Only for
  /// outputs the caller overwrites completely before any read.
  static Tensor uninitialized(Shape shape) {
    Tensor t;
    t.storage_ = std::make_shared<detail::Storage>(shape_numel(shape), false);
    t.shape_ = std::move(shape);
    return t;
  }

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, Scalar value);
  static Tensor ones(Shape shape) { return full(std::move(shape), 1.0); }
  /// Gaussian init with given stddev.
  static Tensor randn(Shape shape, Rng& rng, Scalar stddev = 1.0);
  /// Uniform init in [lo, hi).
  static Tensor rand_uniform(Shape shape, Rng& rng, Scalar lo, Scalar hi);
  /// 1-D tensor from a list.
  static Tensor from(std::initializer_list<Scalar> values);
  /// 2-D tensor from nested lists.
  static Tensor from2d(std::initializer_list<std::initializer_list<Scalar>> rows);

  // -- shape ------------------------------------------------------------------

  const Shape& shape() const { return shape_; }
  std::size_t ndim() const { return shape_.size(); }
  std::size_t numel() const { return storage_->size(); }
  std::size_t dim(std::size_t i) const {
    AVGPIPE_CHECK(i < shape_.size(), "dim " << i << " out of range");
    return shape_[i];
  }

  /// View with a new shape over the same storage (numel must match).
  Tensor reshape(Shape new_shape) const;

  // -- element access ----------------------------------------------------------

  std::span<Scalar> data() { return {storage_->data(), storage_->size()}; }
  std::span<const Scalar> data() const {
    return {storage_->data(), storage_->size()};
  }

  Scalar& operator[](std::size_t i) { return storage_->data()[i]; }
  Scalar operator[](std::size_t i) const { return storage_->data()[i]; }

  Scalar& at(std::size_t i, std::size_t j) {
    return storage_->data()[i * shape_.at(1) + j];
  }
  Scalar at(std::size_t i, std::size_t j) const {
    return storage_->data()[i * shape_.at(1) + j];
  }

  /// True if both tensors alias the same storage.
  bool aliases(const Tensor& other) const { return storage_ == other.storage_; }
  /// Number of Tensor handles sharing this storage (1 = sole owner).
  long use_count() const { return storage_.use_count(); }

  // -- whole-tensor operations (detached; no autograd) -------------------------

  Tensor clone() const;
  void fill_(Scalar value);
  void zero_() { fill_(0.0); }
  /// this += alpha * other (shape must match). The optimizer workhorse.
  void axpy_(Scalar alpha, const Tensor& other);
  /// this *= alpha.
  void scale_(Scalar alpha);
  /// this = (1-t)*this + t*other — the elastic-averaging pull (paper §3.2 ❷).
  void lerp_(const Tensor& other, Scalar t);
  /// this = other (deep copy into existing storage; shapes must match).
  void copy_from(const Tensor& other);

  Scalar sum() const;
  Scalar mean() const;
  Scalar abs_max() const;
  /// L2 norm over all elements.
  Scalar norm() const;
  /// Sum of elementwise products (flattened dot).
  Scalar dot(const Tensor& other) const;

  /// Max elementwise |a-b|; shapes must match.
  Scalar max_abs_diff(const Tensor& other) const;

  std::string to_string(std::size_t max_elems = 32) const;

 private:
  static const std::shared_ptr<detail::Storage>& empty_storage();

  std::shared_ptr<detail::Storage> storage_;
  Shape shape_;
};

/// Shapes equal?
bool same_shape(const Tensor& a, const Tensor& b);

}  // namespace avgpipe::tensor
