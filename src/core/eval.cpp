#include "core/eval.h"

#include <cstring>

#include "nn/loss.h"

namespace subfed {

EvalStats evaluate_client_test(Model& model, const TestSet& test, std::size_t batch_size) {
  std::size_t n = 0;
  for (const TestSlice* s : test) n += static_cast<std::size_t>(s->images.shape()[0]);
  EvalStats stats;
  stats.examples = n;
  if (n == 0) return stats;

  // Row addressing into the virtual concatenation: slice s covers rows
  // [offset_s, offset_s + rows_s). Slices are label-major in labels_present
  // order, matching the layout the materialized test tensor used to have.
  const std::size_t row_floats =
      test.front()->images.numel() / static_cast<std::size_t>(test.front()->images.shape()[0]);
  std::vector<std::size_t> dims = test.front()->images.shape().dims();

  double total_loss = 0.0;
  std::size_t correct = 0, batches = 0;
  std::size_t slice = 0, slice_row = 0;
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t count = std::min(batch_size, n - start);
    dims[0] = count;
    Tensor batch_images{Shape(dims)};
    std::vector<std::int32_t> batch_labels(count);
    for (std::size_t i = 0; i < count; ++i) {
      const TestSlice& s = *test[slice];
      const std::size_t rows = static_cast<std::size_t>(s.images.shape()[0]);
      std::memcpy(batch_images.data() + i * row_floats,
                  s.images.data() + slice_row * row_floats, row_floats * sizeof(float));
      batch_labels[i] = s.label;
      if (++slice_row == rows) {
        slice_row = 0;
        ++slice;
      }
    }
    Tensor logits = model.forward(batch_images, /*train=*/false);
    LossResult loss = softmax_cross_entropy(logits, batch_labels);
    total_loss += loss.loss;
    correct += loss.correct;
    ++batches;
  }
  stats.loss = total_loss / batches;
  stats.accuracy = static_cast<double>(correct) / n;
  return stats;
}

}  // namespace subfed
