#include "tensor/autograd.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_set>

namespace avgpipe::tensor {

namespace {
std::atomic<std::uint64_t> g_seq{0};
}

std::uint64_t autograd_nodes_created() { return g_seq.load(); }

namespace detail {

void VarData::accumulate_grad(const Tensor& g) {
  AVGPIPE_CHECK(g.numel() == value.numel(),
                "gradient numel mismatch: " << g.numel() << " vs "
                                            << value.numel());
  if (!grad_allocated) {
    // First contribution: adopt the incoming buffer by reference. Ops hand
    // over freshly computed gradients and never write to them afterwards.
    grad = g.reshape(value.shape());
    grad_allocated = true;
    return;
  }
  if (grad.use_count() > 1) {
    // Copy on write: another handle (the producer's own gradient, a sibling
    // parent, a caller's seed) still reads this buffer.
    Tensor own = Tensor::uninitialized(value.shape());
    own.copy_from(grad);
    grad = std::move(own);
  }
  grad.axpy_(1.0, g);
}

}  // namespace detail

Variable::Variable(Tensor value, bool requires_grad) {
  data_ = std::make_shared<detail::VarData>();
  data_->value = std::move(value);
  data_->requires_grad = requires_grad;
  data_->seq = g_seq.fetch_add(1, std::memory_order_relaxed);
}

const Tensor& Variable::grad() const {
  AVGPIPE_CHECK(data_ != nullptr, "grad() on null variable");
  if (!data_->grad_allocated) {
    data_->grad = Tensor(data_->value.shape());
    data_->grad_allocated = true;
  }
  return data_->grad;
}

void Variable::zero_grad() {
  if (data_ && data_->grad_allocated) data_->grad.zero_();
}

Variable Variable::make_op(Tensor value, std::vector<Variable> parents,
                           std::function<void(detail::VarData&)> backward_fn) {
  bool any_grad = false;
  for (const auto& p : parents) any_grad = any_grad || p.requires_grad();

  auto data = std::make_shared<detail::VarData>();
  data->value = std::move(value);
  data->requires_grad = any_grad;
  data->seq = g_seq.fetch_add(1, std::memory_order_relaxed);
  if (any_grad) {
    data->parents.reserve(parents.size());
    for (auto& p : parents) data->parents.push_back(p.data());
    data->backward_fn = std::move(backward_fn);
  }
  return Variable(std::move(data));
}

void Variable::backward() const {
  AVGPIPE_CHECK(data_ != nullptr, "backward() on null variable");
  AVGPIPE_CHECK(numel() == 1,
                "backward() without seed requires a scalar output, got "
                    << shape_to_string(shape()));
  backward(Tensor::ones(data_->value.shape()));
}

void Variable::backward(const Tensor& seed) const {
  AVGPIPE_CHECK(data_ != nullptr, "backward() on null variable");
  AVGPIPE_CHECK(data_->requires_grad,
                "backward() on a variable that does not require grad");
  data_->accumulate_grad(seed);

  // Collect reachable grad-requiring nodes (iterative DFS), then run their
  // backward functions in descending creation order. Creation order is a
  // valid topological order because inputs always exist before outputs.
  std::vector<detail::VarData*> nodes;
  std::unordered_set<detail::VarData*> seen;
  std::vector<detail::VarData*> stack{data_.get()};
  seen.insert(data_.get());
  while (!stack.empty()) {
    detail::VarData* node = stack.back();
    stack.pop_back();
    nodes.push_back(node);
    for (const auto& parent : node->parents) {
      if (parent->requires_grad && seen.insert(parent.get()).second) {
        stack.push_back(parent.get());
      }
    }
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const detail::VarData* a, const detail::VarData* b) {
              return a->seq > b->seq;
            });

  // Interior gradients are consumed once: release each right after its
  // backward function runs, so only leaves retain grad across sweeps (a
  // second backward() on the same graph accumulates leaf grads without
  // double-counting stale interior ones) and the buffers the node handed
  // on by reference lose a sharer before their next contribution.
  for (detail::VarData* node : nodes) {
    if (node->backward_fn && node->grad_allocated) {
      node->backward_fn(*node);
      node->grad = Tensor();
      node->grad_allocated = false;
    }
  }

  // A leaf may have adopted a buffer that is still shared (with a sibling
  // leaf or the caller's seed). Leaves end the sweep as sole owners, so
  // zero_grad and in-place optimizer writes reach no other tensor.
  for (detail::VarData* node : nodes) {
    if (!node->backward_fn && node->grad_allocated &&
        node->grad.use_count() > 1) {
      node->grad = node->grad.clone();
    }
  }
}

Variable Variable::detach() const {
  AVGPIPE_CHECK(data_ != nullptr, "detach() on null variable");
  return Variable(data_->value, /*requires_grad=*/false);
}

}  // namespace avgpipe::tensor
