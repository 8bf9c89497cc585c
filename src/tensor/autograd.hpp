#pragma once

/// \file autograd.hpp
/// Reverse-mode automatic differentiation over `Tensor`.
///
/// A `Variable` wraps a value tensor plus (optionally) a gradient buffer and
/// a backward closure linking it to its inputs. Calling `backward()` on a
/// scalar output walks the recorded DAG in reverse creation order and
/// accumulates gradients into every reachable variable with
/// `requires_grad == true`. The design follows the define-by-run style of
/// the frameworks the paper builds on: the graph is rebuilt on every forward
/// pass, so pipeline stages can own disjoint sub-graphs and exchange only
/// boundary activations/gradients (see runtime/).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.hpp"

namespace avgpipe::tensor {

class Variable;

namespace detail {

struct VarData {
  Tensor value;
  Tensor grad;  ///< the first contribution, adopted; owned once written
  bool requires_grad = false;
  bool grad_allocated = false;
  std::uint64_t seq = 0;  ///< creation order; backward runs in descending seq
  std::vector<std::shared_ptr<VarData>> parents;
  /// Propagates this node's grad into parents' grads. Null for leaves.
  std::function<void(VarData&)> backward_fn;

  /// grad += g. The first contribution is adopted by reference (ops hand
  /// over freshly computed gradients and never write them afterwards); a
  /// later one copies first if another handle still shares the buffer.
  void accumulate_grad(const Tensor& g);
};

}  // namespace detail

/// Handle to a node in the autograd graph. Cheap to copy (shared ownership).
class Variable {
 public:
  /// Null variable; usable only after assignment.
  Variable() = default;

  /// Leaf variable. Parameters pass requires_grad=true.
  explicit Variable(Tensor value, bool requires_grad = false);

  bool defined() const { return data_ != nullptr; }

  const Tensor& value() const { return data_->value; }
  Tensor& value() { return data_->value; }

  /// Gradient buffer; zeros of value-shape if never accumulated.
  const Tensor& grad() const;
  /// Mutable gradient buffer (optimizers and gradient scaling).
  Tensor& mutable_grad() { return const_cast<Tensor&>(grad()); }
  bool requires_grad() const { return data_ && data_->requires_grad; }

  const Shape& shape() const { return data_->value.shape(); }
  std::size_t numel() const { return data_->value.numel(); }

  /// Clear this node's gradient (keeps the buffer).
  void zero_grad();

  /// Reverse-mode sweep seeding d(out)/d(out) = 1. Output must be scalar.
  void backward() const;
  /// Reverse-mode sweep with an explicit seed gradient (for pipeline stages:
  /// the seed is the gradient arriving from the downstream stage).
  void backward(const Tensor& seed) const;

  /// Value copy detached from the graph (no grad history).
  Variable detach() const;

  /// Internal: construct an op output. `backward_fn` receives the output
  /// node and must accumulate into parents.
  static Variable make_op(Tensor value,
                          std::vector<Variable> parents,
                          std::function<void(detail::VarData&)> backward_fn);

  std::shared_ptr<detail::VarData> data() const { return data_; }

 private:
  explicit Variable(std::shared_ptr<detail::VarData> data)
      : data_(std::move(data)) {}

  std::shared_ptr<detail::VarData> data_;
};

/// Count of graph nodes created so far (diagnostic; monotone).
std::uint64_t autograd_nodes_created();

}  // namespace avgpipe::tensor
