// Client test-set evaluation over shared per-label slices.
//
// A client's test set is the immutable per-label TestSlice objects of its
// labels (FederatedData::client_test), not a private copy of the
// label-filtered global test set. This helper evaluates a model over their
// virtual concatenation with exactly the batching the old materialized path
// used (fixed-size batches that cross slice boundaries), so loss and accuracy
// are bit-identical to evaluating the concatenated tensor.
#pragma once

#include "data/client_data.h"
#include "nn/model.h"
#include "nn/trainer.h"

namespace subfed {

/// Inference-mode evaluation of `model` over a client's test slices, in
/// labels_present order — equivalent to `evaluate()` on the concatenation.
EvalStats evaluate_client_test(Model& model, const TestSet& test,
                               std::size_t batch_size = 64);

}  // namespace subfed
