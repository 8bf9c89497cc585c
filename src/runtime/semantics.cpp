#include "runtime/semantics.hpp"

#include "tensor/ops.hpp"

namespace avgpipe::runtime {

namespace {

/// Forward + loss for a batch; flattens LM-style [B,S,V] logits.
tensor::Variable batch_loss(nn::Sequential& model, const data::Batch& batch) {
  tensor::Variable in(batch.inputs);
  tensor::Variable out = model.forward(in);
  if (out.shape().size() == 3) {
    const auto& s = out.shape();
    return tensor::softmax_cross_entropy(
        tensor::reshape(out, {s[0] * s[1], s[2]}), batch.targets);
  }
  return tensor::softmax_cross_entropy(out, batch.targets);
}

}  // namespace

// -- SyncTrainer -------------------------------------------------------------------

SyncTrainer::SyncTrainer(nn::Sequential model,
                         std::unique_ptr<optim::Optimizer> opt,
                         std::string name)
    : model_(std::move(model)), opt_(std::move(opt)), name_(std::move(name)) {}

double SyncTrainer::train_batch(const data::Batch& batch) {
  opt_->zero_grad();
  tensor::Variable loss = batch_loss(model_, batch);
  loss.backward();
  opt_->step();
  return loss.value()[0];
}

// -- StalenessTrainer ---------------------------------------------------------------

StalenessTrainer::StalenessTrainer(nn::Sequential model,
                                   std::unique_ptr<optim::Optimizer> opt,
                                   std::size_t delay,
                                   std::size_t micro_batches,
                                   bool update_per_micro_batch,
                                   std::string name)
    : model_(std::move(model)),
      opt_(std::move(opt)),
      delay_(delay),
      micro_batches_(micro_batches),
      update_per_micro_batch_(update_per_micro_batch),
      name_(std::move(name)) {
  AVGPIPE_CHECK(micro_batches_ >= 1, "need at least one micro-batch");
}

void StalenessTrainer::push_version() {
  versions_.push_back(tensor::clone_values(model_.parameters()));
  while (versions_.size() > delay_ + 1) versions_.pop_front();
}

double StalenessTrainer::stale_gradient(const data::Batch& batch) {
  auto values = tensor::values_of(model_.parameters());

  // Swap in the stale weights, evaluate, swap back. Gradients land in the
  // (shared) grad buffers and are applied to the *current* weights — the
  // defining inconsistency of multi-version pipelines.
  const std::vector<tensor::Tensor> current = tensor::clone_set(values);
  tensor::copy_into(values, versions_.front());
  tensor::Variable loss = batch_loss(model_, batch);
  loss.backward();
  tensor::copy_into(values, current);
  return loss.value()[0];
}

double StalenessTrainer::train_batch(const data::Batch& batch) {
  auto micro = data::slice_micro_batches(batch, micro_batches_);
  double loss_sum = 0;
  if (update_per_micro_batch_) {
    // PipeDream: one stale update per micro-batch.
    for (const auto& mb : micro) {
      push_version();
      opt_->zero_grad();
      loss_sum += stale_gradient(mb);
      opt_->step();
    }
    return loss_sum / static_cast<double>(micro.size());
  }
  // 2BW: accumulate the whole batch at one stale version, apply once.
  push_version();
  opt_->zero_grad();
  for (const auto& mb : micro) loss_sum += stale_gradient(mb);
  const double inv_m = 1.0 / static_cast<double>(micro.size());
  for (auto& p : opt_->params()) {
    const_cast<tensor::Variable&>(p).mutable_grad().scale_(inv_m);
  }
  opt_->step();
  return loss_sum * inv_m;
}

// -- evaluation helpers ----------------------------------------------------------------

double evaluate_accuracy(nn::Sequential& model, data::DataLoader& loader,
                         std::size_t epoch, std::size_t batches) {
  model.set_training(false);
  double acc = 0;
  const std::size_t n = std::min(batches, loader.batches_per_epoch());
  for (std::size_t i = 0; i < n; ++i) {
    const data::Batch batch = loader.batch(epoch, i);
    tensor::Variable in(batch.inputs);
    tensor::Variable out = model.forward(in);
    acc += tensor::accuracy(out.value(), batch.targets);
  }
  model.set_training(true);
  return acc / static_cast<double>(n);
}

double evaluate_loss(nn::Sequential& model, data::DataLoader& loader,
                     std::size_t epoch, std::size_t batches) {
  model.set_training(false);
  double loss = 0;
  const std::size_t n = std::min(batches, loader.batches_per_epoch());
  for (std::size_t i = 0; i < n; ++i) {
    const data::Batch batch = loader.batch(epoch, i);
    loss += batch_loss(model, batch).value()[0];
  }
  model.set_training(true);
  return loss / static_cast<double>(n);
}

}  // namespace avgpipe::runtime
