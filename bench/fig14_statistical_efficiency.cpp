/// \file fig14_statistical_efficiency.cpp
/// Reproduces Figure 14: statistical efficiency — epochs needed to reach the
/// target metric for PyTorch (synchronous data parallelism; GPipe/Dapple
/// share its update rule), PipeDream (multi-version stale updates),
/// PipeDream-2BW (one-step-stale updates) and AvgPipe (elastic averaging,
/// N=2).
///
/// This bench runs *real training* on laptop-scale stand-ins of the paper's
/// workloads (see DESIGN.md for the substitutions): an LSTM classifier for
/// GNMT/WMT16, a Transformer pair-classifier for BERT/QQP and a
/// weight-dropped LSTM language model for AWD/PTB. Expected shape: AvgPipe
/// matches PyTorch's epochs; PipeDream needs more (notably on AWD, where the
/// paper reports it fails to reach the target).

#include <cstdio>
#include <functional>
#include <memory>
#include <utility>

#include "common/table.hpp"
#include "core/avgpipe.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"

using namespace avgpipe;

namespace {

struct Workload {
  std::string name;
  const data::Dataset& dataset;
  std::size_t batch_size;
  nn::ModelFactory model;
  runtime::OptimizerFactory optimizer;
  /// Returns the metric; `higher_is_better` decides the comparison.
  std::function<double(nn::Sequential&, data::DataLoader&)> metric;
  double target;
  bool higher_is_better;
  std::size_t max_epochs;
};

std::size_t epochs_to_target(runtime::TrainerBase& trainer,
                             const Workload& w) {
  data::DataLoader loader(w.dataset, w.batch_size, /*seed=*/99);
  for (std::size_t epoch = 0; epoch < w.max_epochs; ++epoch) {
    const std::size_t per_iter = trainer.batches_per_iteration();
    std::size_t i = 0;
    while (i + per_iter <= loader.batches_per_epoch()) {
      std::vector<data::Batch> batches;
      for (std::size_t p = 0; p < per_iter; ++p) {
        batches.push_back(loader.batch(epoch, i++));
      }
      trainer.train_iteration(batches);
    }
    const double metric = w.metric(trainer.eval_model(), loader);
    const bool reached = w.higher_is_better ? metric >= w.target
                                            : metric <= w.target;
    if (reached) return epoch + 1;
  }
  return 0;  // did not converge
}

void run_workload(const Workload& w) {
  std::printf("== Figure 14 — %s (target %s %.3f within %zu epochs) ==\n",
              w.name.c_str(), w.higher_is_better ? ">=" : "<=", w.target,
              w.max_epochs);
  Table table({"system", "epochs", "status"});

  auto report = [&](const std::string& name, std::size_t epochs) {
    table.row()
        .cell(name)
        .cell(epochs > 0 ? std::to_string(epochs) : std::string("-"))
        .cell(epochs > 0 ? "reached" : "did not reach target");
  };

  {
    nn::Sequential model = w.model(1234);
    runtime::SyncTrainer trainer(model, w.optimizer(model.parameters()),
                                 "PyTorch");
    report("PyTorch (sync DP/GPipe/Dapple)", epochs_to_target(trainer, w));
  }
  {
    nn::Sequential model = w.model(1234);
    runtime::StalenessTrainer trainer(model, w.optimizer(model.parameters()),
                                      /*delay=*/5, /*micro_batches=*/4,
                                      /*per_micro=*/true, "PipeDream");
    report("PipeDream (stale, per-micro-batch)",
           epochs_to_target(trainer, w));
  }
  {
    nn::Sequential model = w.model(1234);
    runtime::StalenessTrainer trainer(model, w.optimizer(model.parameters()),
                                      /*delay=*/1, /*micro_batches=*/4,
                                      /*per_micro=*/false, "PipeDream-2BW");
    report("PipeDream-2BW (1-stale)", epochs_to_target(trainer, w));
  }
  const std::pair<core::SyncPolicyKind, const char*> avgpipe_rows[] = {
      {core::SyncPolicyKind::kElastic, "AvgPipe (elastic averaging, N=2)"},
      {core::SyncPolicyKind::kBsp, "AvgPipe[bsp] (model averaging, N=2)"},
      {core::SyncPolicyKind::kBmuf, "AvgPipe[bmuf] (block momentum, N=2)"},
  };
  for (const auto& [kind, label] : avgpipe_rows) {
    // Update rule only: one stage, the whole batch as one micro-batch, and
    // synchronous reference applies.
    core::AvgPipeConfig config;
    config.num_pipelines = 2;
    config.micro_batches = 1;
    config.sync.kind = kind;
    core::AvgPipe trainer(w.model, w.optimizer, config);
    report(label, epochs_to_target(trainer, w));
  }

  table.print();
  std::printf("\n");
}

}  // namespace

int main() {
  Rng rng(1);

  auto adam = [](double lr) {
    return [lr](std::vector<tensor::Variable> params) {
      return std::unique_ptr<optim::Optimizer>(
          std::make_unique<optim::Adam>(std::move(params), lr));
    };
  };
  auto sgd = [](double lr) {
    return [lr](std::vector<tensor::Variable> params) {
      return std::unique_ptr<optim::Optimizer>(
          std::make_unique<optim::Sgd>(std::move(params), lr));
    };
  };

  auto accuracy_metric = [](nn::Sequential& m, data::DataLoader& l) {
    return runtime::evaluate_accuracy(m, l, 0, 6);
  };
  auto loss_metric = [](nn::Sequential& m, data::DataLoader& l) {
    return runtime::evaluate_loss(m, l, 0, 6);
  };

  // GNMT stand-in: deep-ish LSTM classifier trained with Adam (the paper
  // trains GNMT with Adam; target BLEU becomes target accuracy here).
  data::SyntheticSeqClassification gnmt_data(384, 32, 16, 4, /*seed=*/7,
                                             /*signal=*/0.62);
  run_workload(Workload{
      "GNMT (LSTM seq classifier)", gnmt_data, 32,
      [](std::uint64_t seed) { return nn::make_gnmt_like(32, 16, 24, 2, 4, seed); },
      adam(4e-3), accuracy_metric, 0.94, true, 40});

  // BERT stand-in: Transformer pair classifier with Adam (QQP paraphrase
  // task; the paper's target is 67 % top-1 within 3 epochs).
  data::SyntheticPairClassification bert_data(384, 32, 12, 4, /*seed=*/9,
                                              /*signal=*/0.7);
  run_workload(Workload{
      "BERT (Transformer pair classifier)", bert_data, 16,
      [](std::uint64_t seed) {
        return nn::make_bert_like(32, 16, 2, 32, 2, 2, seed, 0.05);
      },
      adam(3e-3), accuracy_metric, 0.78, true, 40});

  // AWD stand-in: weight-dropped LSTM LM with SGD; target validation loss
  // slightly above the generating chain's entropy floor.
  // The paper trains AWD with a large SGD learning rate (30); a large rate
  // relative to scale is exactly what makes stale multi-version updates
  // diverge.
  data::SyntheticLanguageModel awd_data(4096, 24, 12, /*seed=*/11,
                                        /*concentration=*/0.25);
  const double floor = awd_data.entropy_floor();
  run_workload(Workload{
      "AWD (weight-dropped LSTM LM)", awd_data, 20,
      [](std::uint64_t seed) { return nn::make_awd_like(24, 16, 24, 2, seed, 0.2); },
      sgd(8.0), loss_metric, floor + 0.4, false, 40});

  std::printf(
      "Paper shape: AvgPipe matches PyTorch's statistical efficiency across\n"
      "all workloads; PipeDream's multi-version training needs more epochs\n"
      "and fails to match on AWD.\n");
  return 0;
}
