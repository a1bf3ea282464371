#include "fl/fedavg_ft.h"

#include "core/eval.h"

namespace subfed {

FedAvgFinetune::FedAvgFinetune(FlContext ctx, std::size_t finetune_epochs)
    : FedAvg(std::move(ctx)), finetune_epochs_(finetune_epochs) {}

double FedAvgFinetune::client_test_accuracy(std::size_t k) {
  const ClientDataPtr data = ctx_.data->client_ptr(k);
  Model model = ctx_.spec.build();
  model.load_state(global_);

  if (finetune_epochs_ > 0) {
    Sgd optimizer(model.parameters(), ctx_.sgd);
    TrainConfig config = ctx_.train;
    config.epochs = finetune_epochs_;
    // Dedicated stream so fine-tuning does not perturb round training RNG.
    Rng rng = Rng(ctx_.seed).split("finetune", k);
    const TrainStats stats = train_local(model, optimizer, data->train_images,
                                         data->train_labels, config, rng);
    finetune_steps_.fetch_add(stats.steps, std::memory_order_relaxed);
  }
  return evaluate_client_test(model, ctx_.data->client_test(k)).accuracy;
}

}  // namespace subfed
