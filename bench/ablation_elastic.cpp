/// \file ablation_elastic.cpp
/// Ablations of the elastic-averaging design (real training, paper §3):
///
///  * α sweep: the pull strength. The paper fixes α = 1/N; this shows the
///    sensitivity around that choice (α = 0 lets replicas diverge; α = 1
///    resets them to the reference every iteration).
///  * N sweep: statistical efficiency as parallel pipelines are added.
///
/// Both run real training on the BERT-style pair-classification stand-in.

#include <cstdio>

#include "common/table.hpp"
#include "core/avgpipe.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"

using namespace avgpipe;

namespace {

nn::ModelFactory model_factory() {
  return [](std::uint64_t seed) {
    return nn::make_bert_like(32, 16, 2, 32, 2, 2, seed, 0.05);
  };
}

runtime::OptimizerFactory adam(double lr) {
  return [lr](std::vector<tensor::Variable> params) {
    return std::unique_ptr<optim::Optimizer>(
        std::make_unique<optim::Adam>(std::move(params), lr));
  };
}

/// AvgPipe as an update-rule trainer: one stage, the whole batch as one
/// micro-batch, synchronous reference applies.
core::AvgPipeConfig update_rule_config(std::size_t pipelines, double alpha) {
  core::AvgPipeConfig config;
  config.num_pipelines = pipelines;
  config.micro_batches = 1;
  config.alpha = alpha;
  return config;
}

/// Epochs to reach the accuracy target (0 = never within the cap).
std::size_t epochs_to_target(core::AvgPipe& trainer,
                             const data::Dataset& ds, double target,
                             std::size_t max_epochs) {
  data::DataLoader loader(ds, 16, 99);
  for (std::size_t epoch = 0; epoch < max_epochs; ++epoch) {
    const std::size_t per_iter = trainer.batches_per_iteration();
    std::size_t i = 0;
    while (i + per_iter <= loader.batches_per_epoch()) {
      std::vector<data::Batch> batches;
      for (std::size_t p = 0; p < per_iter; ++p) {
        batches.push_back(loader.batch(epoch, i++));
      }
      trainer.train_iteration(batches);
    }
    if (runtime::evaluate_accuracy(trainer.eval_model(), loader, 0, 6) >=
        target) {
      return epoch + 1;
    }
  }
  return 0;
}

/// Max parameter distance between the two replicas after training.
double replica_divergence(core::AvgPipe& trainer) {
  return core::max_abs_diff(trainer.replica_snapshot(0),
                            trainer.replica_snapshot(1));
}

}  // namespace

int main() {
  data::SyntheticPairClassification ds(384, 32, 12, 4, 9, 0.7);
  const double target = 0.78;
  const std::size_t cap = 40;

  std::printf("== Elastic-averaging ablations (BERT stand-in, N=2) ==\n\n");
  std::printf("-- alpha sweep (paper default: 1/N = 0.5) --\n");
  Table t1({"alpha", "epochs to target", "replica divergence"});
  for (double alpha : {0.05, 0.1, 0.25, 0.5, 0.75, 0.95}) {
    core::AvgPipe trainer(model_factory(), adam(3e-3),
                          update_rule_config(2, alpha));
    const std::size_t epochs = epochs_to_target(trainer, ds, target, cap);
    t1.row()
        .cell(alpha, 2)
        .cell(epochs > 0 ? std::to_string(epochs) : std::string("-"))
        .cell(replica_divergence(trainer), 4);
  }
  t1.print();
  std::printf("(weak pulls leave the replicas far apart; strong pulls damp\n"
              " progress — the paper's 1/N sits in the workable middle)\n\n");

  std::printf("-- pipeline-count sweep (alpha = 1/N) --\n");
  Table t2({"N", "epochs to target"});
  for (std::size_t n : {1u, 2u, 3u, 4u}) {
    core::AvgPipe trainer(model_factory(), adam(3e-3),
                          update_rule_config(n, 0.0));
    const std::size_t epochs = epochs_to_target(trainer, ds, target, cap);
    t2.row()
        .cell_int(static_cast<long long>(n))
        .cell(epochs > 0 ? std::to_string(epochs) : std::string("-"));
  }
  t2.print();
  std::printf("(each added pipeline consumes more data per iteration; the\n"
              " epochs-to-target should grow slowly, not proportionally)\n");
  return 0;
}
