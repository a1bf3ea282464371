// Wire format round-trips, payload accounting, ledger, closed-form model.
#include <gtest/gtest.h>

#include "comm/ledger.h"
#include "comm/serialize.h"
#include "nn/model_zoo.h"
#include "pruning/unstructured.h"
#include "util/check.h"
#include "util/rng.h"

namespace subfed {
namespace {

StateDict sample_state() {
  Rng rng(1);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  return m.state();
}

TEST(Serialize, DenseRoundTrip) {
  const StateDict state = sample_state();
  const std::vector<std::uint8_t> bytes = encode_update(state, nullptr);
  const StateDict decoded = decode_update(bytes);
  ASSERT_EQ(decoded.size(), state.size());
  for (std::size_t e = 0; e < state.size(); ++e) {
    EXPECT_EQ(decoded[e].first, state[e].first);
    EXPECT_EQ(decoded[e].second, state[e].second);
  }
}

TEST(Serialize, MaskedRoundTripZeroesPruned) {
  Rng rng(2);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  ModelMask mask = ModelMask::ones_like(m, MaskScope::kAllPrunable);
  mask = derive_magnitude_mask(m, mask, 0.5);
  mask.apply_to_weights(m);
  const StateDict state = m.state();

  const std::vector<std::uint8_t> bytes = encode_update(state, &mask);
  const StateDict decoded = decode_update(bytes);
  for (std::size_t e = 0; e < state.size(); ++e) {
    EXPECT_EQ(decoded[e].second, state[e].second) << state[e].first;
  }
}

TEST(Serialize, MaskedSmallerThanDense) {
  Rng rng(3);
  Model m = ModelSpec::lenet5(10).build_init(rng);
  ModelMask mask = ModelMask::ones_like(m, MaskScope::kAllPrunable);
  mask = derive_magnitude_mask(m, mask, 0.7);
  const StateDict state = m.state();

  const std::size_t dense = encode_update(state, nullptr).size();
  const std::size_t sparse = encode_update(state, &mask).size();
  EXPECT_LT(sparse, dense);
  // 70% of covered weights drop to 1 bit from 32 bits; expect a big cut.
  EXPECT_LT(static_cast<double>(sparse), 0.55 * static_cast<double>(dense));
}

TEST(Serialize, PayloadBytesMatchesFormula) {
  Rng rng(4);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  const StateDict state = m.state();

  // Dense: 4 bytes per scalar.
  EXPECT_EQ(payload_bytes(state, nullptr), state.numel() * 4);

  ModelMask mask = ModelMask::ones_like(m, MaskScope::kAllPrunable);
  mask = derive_magnitude_mask(m, mask, 0.5);
  std::size_t expected = 0;
  for (const auto& [name, tensor] : state) {
    if (const Tensor* mt = mask.find(name)) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < mt->numel(); ++i) kept += ((*mt)[i] != 0.0f);
      expected += kept * 4 + (tensor.numel() + 7) / 8;
    } else {
      expected += tensor.numel() * 4;
    }
  }
  EXPECT_EQ(payload_bytes(state, &mask), expected);
}

TEST(Serialize, EncodedSizeTracksPayloadPlusSmallHeader) {
  const StateDict state = sample_state();
  const std::size_t payload = payload_bytes(state, nullptr);
  const std::size_t encoded = encode_update(state, nullptr).size();
  EXPECT_GE(encoded, payload);
  EXPECT_LT(encoded - payload, 1024u);  // names + shapes only
}

TEST(Serialize, PayloadBytesEqualsEncodedSizeMinusHeaderEverywhere) {
  // The ledger charges payload_bytes while the channel materializes
  // encode_update — this exact identity is what keeps the two from
  // diverging, including on the degenerate shapes.
  Rng rng(11);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  ModelMask mask = ModelMask::ones_like(m, MaskScope::kAllPrunable);
  mask = derive_magnitude_mask(m, mask, 0.5);

  auto expect_identity = [](const StateDict& state, const ModelMask* mask_ptr) {
    EXPECT_EQ(encode_update(state, mask_ptr).size(),
              payload_bytes(state, mask_ptr) + encoded_header_bytes(state));
  };

  const StateDict state = m.state();
  expect_identity(state, nullptr);
  expect_identity(state, &mask);

  // Empty mask object: every entry is uncovered (dense).
  const ModelMask empty_mask;
  expect_identity(state, &empty_mask);

  // Empty state: header only.
  const StateDict empty_state;
  expect_identity(empty_state, nullptr);
  EXPECT_EQ(payload_bytes(empty_state, nullptr), 0u);

  // Zero-dim tensors: a [0]-shaped entry and a mask covering it.
  StateDict degenerate;
  degenerate.add("empty", Tensor(Shape{0}));
  degenerate.add("tiny", Tensor(Shape{3}, 1.5f));
  ModelMask degenerate_mask;
  degenerate_mask.set("empty", Tensor(Shape{0}));
  expect_identity(degenerate, nullptr);
  expect_identity(degenerate, &degenerate_mask);

  // Fully-pruned entry: bitmap transmitted, zero values.
  StateDict pruned_state;
  pruned_state.add("w", Tensor(Shape{9}, 2.0f));
  ModelMask pruned_mask;
  pruned_mask.set("w", Tensor(Shape{9}));  // all zeros
  expect_identity(pruned_state, &pruned_mask);
  EXPECT_EQ(payload_bytes(pruned_state, &pruned_mask), 2u);  // ⌈9/8⌉ bitmap only

  // And the degenerate payloads still round-trip through decode.
  const StateDict decoded = decode_update(encode_update(pruned_state, &pruned_mask));
  ASSERT_EQ(decoded.size(), 1u);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(decoded[0].second[i], 0.0f);
}

TEST(Serialize, RejectsCorruptBuffers) {
  const StateDict state = sample_state();
  std::vector<std::uint8_t> bytes = encode_update(state, nullptr);
  bytes[0] ^= 0xFF;  // break magic
  EXPECT_THROW(decode_update(bytes), CheckError);

  std::vector<std::uint8_t> truncated = encode_update(state, nullptr);
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(decode_update(truncated), CheckError);

  std::vector<std::uint8_t> padded = encode_update(state, nullptr);
  padded.push_back(0);
  EXPECT_THROW(decode_update(padded), CheckError);

  // Claimed counts are checked against the bytes left before anything is
  // sized from them: rank 2^32-1 in 17 bytes and a 2^38-float tensor used to
  // throw std::bad_alloc, a 2^28-float tensor in 21 bytes allocated 1 GiB
  // before failing, and dims whose product wraps to 0 decoded as an empty
  // tensor with a huge shape.
  auto claiming = [](std::uint32_t rank, std::vector<std::uint32_t> dims) {
    std::vector<std::uint8_t> bytes{0x56, 0x41, 0x46, 0x53,  // "SFAV"
                                    1, 0, 0, 0,              // one entry
                                    0, 0, 0, 0};             // empty name
    dims.insert(dims.begin(), rank);
    for (const std::uint32_t v : dims) {
      for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    bytes.push_back(0);  // unmasked
    return bytes;
  };
  EXPECT_THROW(decode_update(claiming(0xFFFFFFFFu, {})), CheckError);
  EXPECT_THROW(decode_update(claiming(3, {65536, 65536, 64})), CheckError);
  EXPECT_THROW(decode_update(claiming(1, {1u << 28})), CheckError);
  EXPECT_THROW(decode_update(claiming(4, {65536, 65536, 65536, 65536})), CheckError);
}

TEST(Ledger, AccumulatesPerRoundAndTotals) {
  CommLedger ledger;
  ledger.record(0, 100, 200);
  ledger.record(0, 50, 25);
  ledger.record(2, 1, 1);
  EXPECT_EQ(ledger.rounds(), 3u);
  EXPECT_EQ(ledger.round_up(0), 150u);
  EXPECT_EQ(ledger.round_down(0), 225u);
  EXPECT_EQ(ledger.round_up(1), 0u);
  EXPECT_EQ(ledger.total_up(), 151u);
  EXPECT_EQ(ledger.total_down(), 226u);
  EXPECT_EQ(ledger.total(), 377u);
  EXPECT_THROW(ledger.round_up(5), CheckError);
}

TEST(ClosedForm, MatchesPaperFormula) {
  // FedAvg MNIST-style: R rounds × 10 clients × |W|·32bit × 2.
  const std::uint64_t cost = closed_form_cost_bytes(300, 10, 21900);
  EXPECT_EQ(cost, 300ull * 10 * 21900 * 4 * 2);
  // With masks, each direction adds ⌈bits/8⌉.
  const std::uint64_t masked = closed_form_cost_bytes(1, 1, 100, 64);
  EXPECT_EQ(masked, (100ull * 4 + 8) * 2);
}

TEST(LinkModel, AsymmetricTransferTime) {
  LinkModel link;  // 1 MB/s up, 8 MB/s down
  const double t = link.transfer_seconds(2 * 1024 * 1024, 8 * 1024 * 1024);
  EXPECT_NEAR(t, 2.0 + 1.0, 1e-9);
  // Uplink dominates for symmetric payloads — the paper's bottleneck claim.
  const double sym = link.transfer_seconds(1024 * 1024, 1024 * 1024);
  EXPECT_GT(1.0, 0.125);
  EXPECT_NEAR(sym, 1.0 + 0.125, 1e-9);
}

}  // namespace
}  // namespace subfed
