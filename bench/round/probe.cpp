#include "probe.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "comm/channel.h"
#include "core/aggregate.h"
#include "fl/fedavg.h"
#include "fl/subfedavg.h"
#include "metrics/flops.h"
#include "nn/loss.h"
#include "nn/sgd.h"
#include "nn/trainer.h"
#include "pruning/gate.h"
#include "pruning/structured.h"
#include "pruning/unstructured.h"
#include "stats.h"
#include "tensor/backend.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace subfed::bench {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

void append_json_string(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

bool same_tensor(const Tensor& a, const Tensor& b) {
  return a.shape().dims() == b.shape().dims() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

bool same_state(const StateDict& a, const StateDict& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || !same_tensor(a[i].second, b[i].second)) return false;
  }
  return true;
}

bool same_mask(const ModelMask& a, const ModelMask& b) {
  if (a.num_entries() != b.num_entries()) return false;
  auto ia = a.begin();
  for (auto ib = b.begin(); ib != b.end(); ++ia, ++ib) {
    if (ia->first != ib->first || !same_tensor(ia->second, ib->second)) return false;
  }
  return true;
}

/// Sub-FedAvg's gate configuration from the spec's parameters, with the
/// registry's defaults (fl/registry.cpp). The replay ≡ run_client check fails
/// loudly if the two ever drift apart.
SubFedAvgConfig gate_config(const ExperimentSpec& spec, bool hybrid) {
  const AlgoParams p = spec.resolved_algo_params();
  SubFedAvgConfig config;
  config.hybrid = hybrid;
  const double target = p.get_double("target", 0.5);
  const double step = p.get_double("step", 0.1);
  config.unstructured = {p.get_double("acc_threshold", 0.5), target,
                         p.get_double("epsilon", 1e-4), step};
  if (hybrid) {
    config.structured = {p.get_double("channel_acc_threshold", p.get_double("acc_threshold", 0.5)),
                         p.get_double("channel_target", 0.45),
                         p.get_double("channel_epsilon", 0.05),
                         p.get_double("channel_step", step)};
    config.bn_l1 = static_cast<float>(p.get_double("bn_l1", 1e-4));
  }
  return config;
}

const char* kind_tag(const std::string& kind) {
  if (kind == "Conv2d") return "conv";
  if (kind == "BatchNorm2d") return "bn";
  if (kind == "Linear") return "linear";
  return "other";
}

/// Per-layer metric names, in BENCHMARK.json order, with their units.
struct MetricDef {
  const char* name;
  const char* unit;
};
constexpr MetricDef kLayerMetrics[] = {
    {"session.sample_s", "s"},
    {"session.exchange_s", "s"},
    {"session.aggregate_s", "s"},
    {"session.eval_s", "s"},
    {"session.codec_share", "fraction"},
    {"session.phase_coverage", "fraction"},
    {"fl.parallel_efficiency", "fraction"},
    {"fl.client_refaults", "count"},
    {"core.client_round_s", "s"},
    {"core.aggregate_s", "s"},
    {"core.eval_client_s", "s"},
    {"nn.conv.fwd_s", "s"},
    {"nn.conv.bwd_s", "s"},
    {"nn.bn.fwd_s", "s"},
    {"nn.bn.bwd_s", "s"},
    {"nn.linear.fwd_s", "s"},
    {"nn.linear.bwd_s", "s"},
    {"nn.other.fwd_s", "s"},
    {"nn.other.bwd_s", "s"},
    {"nn.loss_s", "s"},
    {"nn.sgd_step_s", "s"},
    {"nn.gather_s", "s"},
    {"nn.val_eval_share", "fraction"},
    {"nn.state_s", "s"},
    {"nn.steps", "count"},
    {"pruning.magnitude_mask_share", "fraction"},
    {"pruning.channel_mask_share", "fraction"},
    {"pruning.apply_grads_share", "fraction"},
    {"pruning.combined_mask_share", "fraction"},
    {"pruning.gate_share", "fraction"},
    {"pruning.weight_density", "fraction"},
    {"pruning.channel_density", "fraction"},
    {"pruning.mask_commit_ratio", "fraction"},
    {"tensor.plan_hit_ratio", "fraction"},
    {"tensor.density_scans", "count"},
    {"tensor.workspace_reuse_ratio", "fraction"},
    {"tensor.conv_speedup_measured", "ratio"},
    {"tensor.conv_speedup_predicted", "ratio"},
    {"comm.encode_s", "s"},
    {"comm.decode_s", "s"},
    {"comm.up_bytes", "bytes"},
    {"comm.down_bytes", "bytes"},
    {"comm.compression_ratio", "ratio"},
    {"data.synth_s", "s"},
    {"data.fetch_s", "s"},
    {"data.cache_hit_ratio", "fraction"},
    {"trace.overhead", "fraction"},
    {"trace.coverage", "fraction"},
};

/// Replayed leaf spans and the per-layer metric each one feeds. The
/// per-layer-index spans (nn.L<i>.<kind>.fwd|bwd) join them once the probe
/// model is known.
/// Work that some workloads never do (FedAvg has no masks and no validation
/// gate) feeds a *_share metric — its time ÷ core.client_round_s — so no
/// reported time is identically zero.
constexpr std::pair<const char*, const char*> kLeafSpans[] = {
    {"nn.loss", "nn.loss_s"},
    {"nn.sgd_step", "nn.sgd_step_s"},
    {"nn.gather", "nn.gather_s"},
    {"nn.val_eval", "nn.val_eval_share"},
    {"nn.state", "nn.state_s"},
    {"pruning.magnitude_mask", "pruning.magnitude_mask_share"},
    {"pruning.channel_mask", "pruning.channel_mask_share"},
    {"pruning.apply_grads", "pruning.apply_grads_share"},
    {"pruning.combined_mask", "pruning.combined_mask_share"},
    {"pruning.gate", "pruning.gate_share"},
};

}  // namespace

// ---------------------------------------------------------------------------
// SpanLedger

SpanLedger::SpanLedger()
    : epoch_(Clock::now()), epoch_us_(static_cast<double>(telemetry::trace_now_us())) {}

int SpanLedger::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.push_back(name);
  stats_.emplace_back();
  return static_cast<int>(names_.size() - 1);
}

void SpanLedger::open(int id, bool fine) {
  int exported = -1;
  if (!fine || detail_) {
    exported = static_cast<int>(exported_.size());
    exported_.push_back({id, 0.0, 0.0, stack_.empty() ? -1 : stack_.back().id, round_, client_});
  }
  stack_.push_back({id, {}, 0, exported});
  // Read the clock last, so the span excludes its own bookkeeping.
  const Clock::time_point now = Clock::now();
  stack_.back().start = now;
  if (exported >= 0) {
    exported_[static_cast<std::size_t>(exported)].start_us =
        epoch_us_ + static_cast<double>(ns_between(epoch_, now)) / 1e3;
  }
}

void SpanLedger::close() {
  const Clock::time_point now = Clock::now();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = ns_between(frame.start, now);
  Stat& stat = stats_[static_cast<std::size_t>(frame.id)];
  ++stat.count;
  stat.total_ns += dur;
  stat.self_ns += dur - frame.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (frame.exported >= 0) exported_[static_cast<std::size_t>(frame.exported)].dur_us = dur / 1e3;
}

std::string SpanLedger::chrome_trace(const std::vector<telemetry::Span>& program) const {
  std::ostringstream os;
  os.precision(15);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
     << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"program\"}},\n"
     << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"bench probes\"}}";
  for (const telemetry::Span& span : program) {
    os << ",\n{\"name\":";
    append_json_string(os, span.name);
    os << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.tid << ",\"ts\":" << span.start_us
       << ",\"dur\":" << span.dur_us << "}";
  }
  for (const Exported& span : exported_) {
    os << ",\n{\"name\":";
    append_json_string(os, names_[static_cast<std::size_t>(span.id)]);
    os << ",\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":" << span.start_us
       << ",\"dur\":" << span.dur_us << ",\"args\":{\"round\":" << span.round
       << ",\"client\":" << span.client << ",\"parent\":";
    append_json_string(os, span.parent < 0 ? "" : names_[static_cast<std::size_t>(span.parent)]);
    os << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Prober

struct Prober::Impl {
  explicit Impl(const ExperimentSpec& s) : spec(s) {
    const std::string quant = spec.quantize;
    quantize = parse_quant_codec(quant);
    delta = spec.codec == "delta";
    materialized = spec.transport != "memory";

    id_restore = ledger.intern("probe.restore");
    id_client = ledger.intern("probe.client");
    id_client_round = ledger.intern("core.client_round");
    id_aggregate = ledger.intern("core.aggregate");
    id_eval_client = ledger.intern("core.eval_client");
    id_replay = ledger.intern("replay");
    id_epoch = ledger.intern("nn.epoch");
    id_step = ledger.intern("nn.step");
    id_dense = ledger.intern("tensor.dense_conv_ref");
    id_encode = ledger.intern("comm.encode");
    id_decode = ledger.intern("comm.decode");
    id_fetch = ledger.intern("data.fetch");
    for (const auto& [span, metric] : kLeafSpans) {
      leaf_ids.push_back(ledger.intern(span));
      leaf_metric.push_back(metric);
    }
    id_loss = ledger.intern("nn.loss");
    id_sgd = ledger.intern("nn.sgd_step");
    id_gather = ledger.intern("nn.gather");
    id_val = ledger.intern("nn.val_eval");
    id_state = ledger.intern("nn.state");
    id_magnitude = ledger.intern("pruning.magnitude_mask");
    id_channel = ledger.intern("pruning.channel_mask");
    id_apply_grads = ledger.intern("pruning.apply_grads");
    id_combined = ledger.intern("pruning.combined_mask");
    id_gate = ledger.intern("pruning.gate");

    // The probe's own data: construction time is data.synth_s, and probes
    // never touch the live federation's (possibly lazy, cached) data.
    const Clock::time_point start = Clock::now();
    probe_data = std::make_unique<FederatedData>(spec.dataset_spec(), spec.data_config());
    samples["data.synth_s"].push_back(ns_between(start, Clock::now()) / 1e9);
    if (probe_data->lazy()) {
      fetch_data = std::make_unique<FederatedData>(spec.dataset_spec(), spec.data_config());
    }
    ctx = spec.make_context(*probe_data);
  }

  /// Builds the probe model(s) and the per-layer-index span names on first use.
  void ensure_models(const FlContext& algorithm_ctx, bool hybrid, float bn_l1) {
    if (replay_model) return;
    model_spec = algorithm_ctx.spec;
    replay_model = std::make_unique<Model>(model_spec.build());
    dense_model = std::make_unique<Model>(model_spec.build());
    if (hybrid) {
      replay_model->set_bn_l1(bn_l1);
      dense_model->set_bn_l1(bn_l1);
    }
    for (std::size_t i = 0; i < replay_model->num_layers(); ++i) {
      const char* tag = kind_tag(replay_model->layer(i).kind());
      const std::string base = "nn.L" + std::to_string(i) + "." + tag;
      layer_fwd.push_back(ledger.intern(base + ".fwd"));
      layer_bwd.push_back(ledger.intern(base + ".bwd"));
      layer_conv.push_back(std::string(tag) == "conv");
      leaf_ids.push_back(layer_fwd.back());
      leaf_metric.push_back(std::string("nn.") + tag + ".fwd_s");
      leaf_ids.push_back(layer_bwd.back());
      leaf_metric.push_back(std::string("nn.") + tag + ".bwd_s");
    }
  }

  struct Replay {
    StateDict state;
    ModelMask mask;
    std::size_t steps = 0;
    std::size_t commits = 0;
    std::size_t candidates = 0;
    double weight_density = 1.0;
    double channel_density = 1.0;
    std::int64_t epoch1_conv_ns = 0;
    std::vector<std::vector<std::size_t>> epoch1_batches;
  };

  /// train_local's loop (nn/trainer.cpp), one span per call it makes.
  void train_replay(Model& model, Sgd& optimizer, const ClientData& data, Rng& rng,
                    const std::function<void(std::size_t)>& on_epoch_end,
                    const ModelMask* grad_mask, Replay& out) {
    const Tensor& images = data.train_images;
    const std::vector<std::int32_t>& labels = data.train_labels;
    const std::size_t n = images.shape()[0];
    const std::size_t batch = std::min(ctx.train.batch_size, n);
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t epoch = 1; epoch <= ctx.train.epochs; ++epoch) {
      SpanLedger::Scope epoch_span(ledger, id_epoch);
      rng.shuffle(order);
      std::size_t step = 0;
      for (std::size_t start = 0; start < n; start += batch, ++step) {
        ledger.set_detail(step < 2);
        SpanLedger::Scope step_span(ledger, id_step, true);
        const std::size_t count = std::min(batch, n - start);
        const std::span<const std::size_t> idx(order.data() + start, count);
        if (epoch == 1) out.epoch1_batches.emplace_back(idx.begin(), idx.end());
        Tensor x;
        std::vector<std::int32_t> batch_labels(count);
        {
          SpanLedger::Scope s(ledger, id_gather, true);
          x = gather_rows(images, idx);
          for (std::size_t i = 0; i < count; ++i) batch_labels[i] = labels[idx[i]];
        }
        for (std::size_t i = 0; i < model.num_layers(); ++i) {
          SpanLedger::Scope s(ledger, layer_fwd[i], true);
          const Clock::time_point t0 = Clock::now();
          x = model.layer(i).forward(x, /*train=*/true);
          if (epoch == 1 && layer_conv[i]) out.epoch1_conv_ns += ns_between(t0, Clock::now());
        }
        LossResult loss;
        {
          SpanLedger::Scope s(ledger, id_loss, true);
          loss = softmax_cross_entropy(x, batch_labels);
        }
        Tensor g = std::move(loss.grad_logits);
        for (std::size_t i = model.num_layers(); i-- > 0;) {
          SpanLedger::Scope s(ledger, layer_bwd[i], true);
          const Clock::time_point t0 = Clock::now();
          g = model.layer(i).backward(g);
          if (epoch == 1 && layer_conv[i]) out.epoch1_conv_ns += ns_between(t0, Clock::now());
        }
        if (grad_mask != nullptr) {
          SpanLedger::Scope s(ledger, id_apply_grads, true);
          grad_mask->apply_to_grads(model);
        }
        {
          SpanLedger::Scope s(ledger, id_sgd, true);
          optimizer.step();
        }
        ++out.steps;
      }
      ledger.set_detail(true);
      if (on_epoch_end) on_epoch_end(epoch);
    }
  }

  /// SubFedAvgClient::run_round (core/subfedavg_client.cpp) on the probe model.
  Replay replay_subfedavg(const StateDict& received, const ClientData& data, std::size_t k,
                          std::size_t round_index, ModelMask weight_mask,
                          ChannelMask channel_mask, double pruned_us, double pruned_s) {
    Replay out;
    Model& model = *replay_model;
    const bool hybrid = gate.hybrid;
    auto combined = [&] {
      return hybrid ? channel_mask.to_model_mask(model).intersected(weight_mask) : weight_mask;
    };
    SpanLedger::Scope replay_span(ledger, id_replay);
    std::optional<Sgd> optimizer;
    {
      SpanLedger::Scope s(ledger, id_state);
      model.load_state(received);
    }
    ModelMask own;
    {
      SpanLedger::Scope s(ledger, id_combined);
      own = combined();
      own.apply_to_weights(model);
    }
    {
      SpanLedger::Scope s(ledger, id_state);
      optimizer.emplace(model.parameters(), ctx.sgd);
    }
    const double next_us = next_pruned_fraction(pruned_us, gate.unstructured.step_rate,
                                                gate.unstructured.target_rate);
    const double next_s = next_pruned_fraction(pruned_s, gate.structured.step_rate,
                                               gate.structured.target_rate);
    std::optional<ModelMask> us_first, us_last;
    std::optional<ChannelMask> s_first, s_last;
    auto on_epoch_end = [&](std::size_t epoch) {
      if (epoch != 1 && epoch != ctx.train.epochs) return;
      ModelMask us;
      {
        SpanLedger::Scope s(ledger, id_magnitude);
        us = derive_magnitude_mask(model, weight_mask, next_us);
      }
      ++out.candidates;
      std::optional<ChannelMask> cm;
      if (hybrid) {
        SpanLedger::Scope s(ledger, id_channel);
        cm = derive_channel_mask(model, channel_mask, next_s);
        ++out.candidates;
      }
      if (epoch == 1) {
        us_first = us;
        s_first = cm;
      }
      if (epoch == ctx.train.epochs) {
        us_last = std::move(us);
        s_last = std::move(cm);
      }
    };
    Rng rng = Rng(spec.seed).split("subfed-client", k).split("round", round_index);
    train_replay(model, *optimizer, data, rng, on_epoch_end, &own, out);

    EvalStats val;
    {
      SpanLedger::Scope s(ledger, id_val);
      val = evaluate(model, data.val_images, data.val_labels);
    }
    {
      SpanLedger::Scope s(ledger, id_gate);
      const double d_us = ModelMask::hamming_distance(*us_first, *us_last);
      if (prune_gate_open(gate.unstructured, {val.accuracy, pruned_us, d_us})) {
        weight_mask = std::move(*us_last);
        ++out.commits;
      }
      if (hybrid) {
        const double d_s = ChannelMask::hamming_distance(*s_first, *s_last);
        if (prune_gate_open(gate.structured, {val.accuracy, pruned_s, d_s})) {
          channel_mask = std::move(*s_last);
          ++out.commits;
        }
      }
    }
    {
      SpanLedger::Scope s(ledger, id_combined);
      own = combined();
      own.apply_to_weights(model);
    }
    {
      SpanLedger::Scope s(ledger, id_state);
      out.state = model.state();
    }
    out.mask = std::move(own);
    out.weight_density = 1.0 - weight_mask.pruned_fraction();
    out.channel_density = 1.0 - channel_mask.pruned_fraction();
    return out;
  }

  /// FedAvg::run_client (fl/fedavg.cpp): a fresh model per client round.
  Replay replay_fedavg(const StateDict& received, const ClientData& data, std::size_t k,
                       std::size_t round_index) {
    Replay out;
    SpanLedger::Scope replay_span(ledger, id_replay);
    std::optional<Model> model;
    std::optional<Sgd> optimizer;
    {
      SpanLedger::Scope s(ledger, id_state);
      model.emplace(model_spec.build());
      model->load_state(received);
      optimizer.emplace(model->parameters(), ctx.sgd);
    }
    Rng rng = Rng(spec.seed).split("client-round", k * 1000003ULL + round_index);
    train_replay(*model, *optimizer, data, rng, {}, nullptr, out);
    {
      SpanLedger::Scope s(ledger, id_state);
      out.state = model->state();
    }
    return out;
  }

  /// Conv forward+backward time over `batches` with the unpruned `global`.
  std::int64_t dense_conv_ns(const StateDict& global, const ClientData& data,
                             const std::vector<std::vector<std::size_t>>& batches) {
    SpanLedger::Scope span(ledger, id_dense);
    Model& model = *dense_model;
    model.load_state(global);
    std::int64_t conv_ns = 0;
    for (const std::vector<std::size_t>& idx : batches) {
      Tensor x = gather_rows(data.train_images, idx);
      std::vector<std::int32_t> batch_labels(idx.size());
      for (std::size_t i = 0; i < idx.size(); ++i) batch_labels[i] = data.train_labels[idx[i]];
      for (std::size_t i = 0; i < model.num_layers(); ++i) {
        const Clock::time_point t0 = Clock::now();
        x = model.layer(i).forward(x, /*train=*/true);
        if (layer_conv[i]) conv_ns += ns_between(t0, Clock::now());
      }
      Tensor g = softmax_cross_entropy(x, batch_labels).grad_logits;
      for (std::size_t i = model.num_layers(); i-- > 0;) {
        const Clock::time_point t0 = Clock::now();
        g = model.layer(i).backward(g);
        if (layer_conv[i]) conv_ns += ns_between(t0, Clock::now());
      }
      model.zero_grad();
    }
    return conv_ns;
  }

  /// Probes every client of the live round `round`'s cohort on copies of the
  /// pre-round state, then checks the cohort's aggregate against the live
  /// round's new global model.
  void probe_round(FederationSession& session, std::size_t round, double exchange_s) {
    const std::size_t round_index = round - 1;
    std::unique_ptr<FederatedAlgorithm> probe = spec.make_algorithm(ctx);
    {
      ledger.set_context(round, 0);
      SpanLedger::Scope s(ledger, id_restore);
      probe->restore_checkpoint_state(std::move(sections));
    }
    sections.clear();
    auto* sub = dynamic_cast<SubFedAvg*>(probe.get());
    auto* fedavg = dynamic_cast<FedAvg*>(probe.get());
    SUBFEDAVG_CHECK(sub != nullptr || fedavg != nullptr,
                    "the round probe knows Sub-FedAvg and FedAvg, not " << probe->name());
    gate = sub != nullptr ? gate_config(spec, sub->hybrid()) : SubFedAvgConfig{};
    ensure_models(probe->context(), gate.hybrid, gate.bn_l1);
    const StateDict global = sub != nullptr ? sub->global_state() : fedavg->global_state();

    std::vector<ClientUpdate> updates;
    double client_sum = 0.0;
    for (const std::size_t k : cohort) {
      ledger.set_context(round, k);
      SpanLedger::Scope client_span(ledger, id_client);
      const std::vector<SpanLedger::Stat> before = ledger.stats();

      // Pre-round client state, copied before run_client mutates the probe.
      ModelMask weight_mask, pre_mask;
      ChannelMask channel_mask;
      double pruned_us = 0.0, pruned_s = 0.0;
      if (sub != nullptr) {
        SubFedAvgClient& client = sub->client(k);
        weight_mask = client.weight_mask();
        channel_mask = client.channel_mask();
        pruned_us = client.unstructured_pruned();
        pruned_s = client.structured_pruned();
        pre_mask = client.combined_mask();
      }
      const ModelMask* down_mask = sub != nullptr ? &pre_mask : nullptr;

      // comm, downlink: what a materializing transport does to the broadcast.
      std::vector<std::uint8_t> down;
      StateDict decoded_down;
      {
        SpanLedger::Scope s(ledger, id_encode);
        down = encode_payload(global, down_mask, quantize);
      }
      {
        SpanLedger::Scope s(ledger, id_decode);
        decoded_down = decode_payload(down);
      }
      const StateDict& received = materialized ? decoded_down : global;

      // data: a cold fetch (lazy data) or the resident alias (eager data).
      if (fetch_data == nullptr || fetched.insert(k).second) {
        FederatedData& source = fetch_data != nullptr ? *fetch_data : *probe_data;
        SpanLedger::Scope s(ledger, id_fetch);
        const Clock::time_point t0 = Clock::now();
        (void)source.client_ptr(k);
        samples["data.fetch_s"].push_back(ns_between(t0, Clock::now()) / 1e9);
      }

      // core: the algorithm's real client round.
      ClientJob job;
      job.client = k;
      job.broadcast = &global;
      job.mask = down_mask;
      ClientResult result;
      double client_round_s = 0.0;
      {
        SpanLedger::Scope s(ledger, id_client_round);
        const Clock::time_point t0 = Clock::now();
        result = probe->run_client(round_index, job, received, /*detached=*/false);
        client_round_s = ns_between(t0, Clock::now()) / 1e9;
      }
      client_sum += client_round_s;

      // nn + pruning: the same client round, replayed call by call.
      const ClientDataPtr data = probe_data->client_ptr(k);
      const std::vector<SpanLedger::Stat> before_replay = ledger.stats();
      Replay replay = sub != nullptr
                          ? replay_subfedavg(received, *data, k, round_index, weight_mask,
                                             channel_mask, pruned_us, pruned_s)
                          : replay_fedavg(received, *data, k, round_index);
      const std::vector<SpanLedger::Stat> after_replay = ledger.stats();
      ++checks;
      if (!same_state(replay.state, result.update.state) ||
          !same_mask(replay.mask, result.update.mask)) {
        failures.push_back("round " + std::to_string(round) + " client " +
                           std::to_string(k) + ": the nn replay diverged from run_client");
      }

      // tensor: conv time with the unpruned global vs the client's weights.
      const std::int64_t dense_ns = dense_conv_ns(global, *data, replay.epoch1_batches);
      if (replay.epoch1_conv_ns > 0) {
        samples["tensor.conv_speedup_measured"].push_back(static_cast<double>(dense_ns) /
                                                          replay.epoch1_conv_ns);
      }
      samples["tensor.conv_speedup_predicted"].push_back(
          sub != nullptr ? reduction_report(*replay_model, &channel_mask, &weight_mask).flop_speedup
                         : 1.0);

      // comm, uplink: the client's reply encode and the server's decode.
      ClientUpdate server_update;
      {
        StateDict upload = result.update.state;
        const ModelMask* up_mask = result.update.mask.empty() ? nullptr : &result.update.mask;
        std::vector<std::uint8_t> up;
        {
          SpanLedger::Scope s(ledger, id_encode);
          if (delta) subtract_reference(upload, up_mask, received);
          up = encode_payload(upload, up_mask, quantize);
        }
        SpanLedger::Scope s(ledger, id_decode);
        server_update.state = decode_payload(up, &server_update.mask);
        if (delta) {
          apply_reference(server_update.state,
                          server_update.mask.empty() ? nullptr : &server_update.mask, received);
        }
        server_update.num_examples = result.update.num_examples;
      }
      updates.push_back(materialized ? std::move(server_update) : std::move(result.update));

      // core: the client's personalized evaluation.
      {
        SpanLedger::Scope s(ledger, id_eval_client);
        const Clock::time_point e0 = Clock::now();
        (void)probe->client_test_accuracy(k);
        samples["core.eval_client_s"].push_back(ns_between(e0, Clock::now()) / 1e9);
      }

      const std::vector<SpanLedger::Stat>& after = ledger.stats();
      auto delta_s = [&](const std::vector<SpanLedger::Stat>& from,
                         const std::vector<SpanLedger::Stat>& to, int id) {
        const std::size_t i = static_cast<std::size_t>(id);
        return (to[i].self_ns - (i < from.size() ? from[i].self_ns : 0)) / 1e9;
      };
      samples["core.client_round_s"].push_back(client_round_s);
      samples["comm.encode_s"].push_back(delta_s(before, after, id_encode));
      samples["comm.decode_s"].push_back(delta_s(before, after, id_decode));
      std::map<std::string, double> leaf;
      double covered = 0.0;
      for (std::size_t i = 0; i < leaf_ids.size(); ++i) {
        const double v = delta_s(before_replay, after_replay, leaf_ids[i]);
        leaf[leaf_metric[i]] += v;
        covered += v;
      }
      for (const auto& [name, value] : leaf) {
        const bool share = name.ends_with("_share");
        samples[name].push_back(share ? value / client_round_s : value);
      }
      samples["trace.coverage"].push_back(covered / client_round_s);
      samples["nn.steps"].push_back(static_cast<double>(replay.steps));
      samples["pruning.weight_density"].push_back(replay.weight_density);
      samples["pruning.channel_density"].push_back(replay.channel_density);
      commits += replay.commits;
      candidates += replay.candidates;
    }

    // core: the server's aggregation of the probed cohort, which must be the
    // live round's new global model.
    ledger.set_context(round, 0);
    StateDict aggregated;
    {
      SpanLedger::Scope s(ledger, id_aggregate);
      const Clock::time_point a0 = Clock::now();
      aggregated = sub != nullptr ? sub_fedavg_aggregate(updates, global)
                                  : fedavg_aggregate(updates);
      samples["core.aggregate_s"].push_back(ns_between(a0, Clock::now()) / 1e9);
    }
    ++checks;
    if (!same_state(aggregated, session.algorithm().global_model())) {
      failures.push_back("round " + std::to_string(round) +
                         ": the probed cohort's aggregate differs from the live global model");
    }
    const std::size_t threads = std::min(cohort.size(), ThreadPool::global().size() + 1);
    if (exchange_s > 0.0) {
      samples["fl.parallel_efficiency"].push_back(client_sum /
                                                  (exchange_s * static_cast<double>(threads)));
    }
  }

  ExperimentSpec spec;
  QuantCodec quantize = QuantCodec::kNone;
  bool delta = false;
  bool materialized = false;
  SpanLedger ledger;
  FlContext ctx;
  std::unique_ptr<FederatedData> probe_data;
  std::unique_ptr<FederatedData> fetch_data;  ///< lazy workloads: every first fetch is cold
  std::set<std::size_t> fetched;
  ModelSpec model_spec;
  std::unique_ptr<Model> replay_model;
  std::unique_ptr<Model> dense_model;
  SubFedAvgConfig gate;

  int id_restore, id_client, id_client_round, id_aggregate, id_eval_client, id_replay, id_epoch,
      id_step, id_dense, id_encode, id_decode, id_fetch, id_loss, id_sgd, id_gather, id_val,
      id_state, id_magnitude, id_channel, id_apply_grads, id_combined, id_gate;
  std::vector<int> layer_fwd, layer_bwd;
  std::vector<bool> layer_conv;
  std::vector<int> leaf_ids;  ///< replayed leaf spans (trace.coverage numerator)
  std::vector<std::string> leaf_metric;

  // Pending probe: the pre-round state and the round's cohort.
  bool pending = false;
  std::vector<StateDict> sections;
  std::vector<std::size_t> cohort;

  // Live-round accounting.
  DeviceStats device_before{};
  bool device_clean = true;  ///< false for the round after a probe (math-thread switch replans)
  std::uint64_t plan_hits = 0, plan_misses = 0, leases = 0, reuses = 0;
  std::uint64_t up_before = 0, down_before = 0;
  const FederatedData* live_data = nullptr;
  std::uint64_t data_hits0 = 0, data_misses0 = 0, data_hits1 = 0, data_misses1 = 0;
  std::size_t refaults0 = 0, refaults1 = 0, live_rounds = 0;
  double compression_ratio = 0.0;

  std::map<std::string, std::vector<double>> samples;
  std::size_t commits = 0, candidates = 0;
  std::size_t checks = 0;  ///< probe self-checks run
  std::vector<std::string> failures;
};

Prober::Prober(const ExperimentSpec& spec) : impl_(std::make_unique<Impl>(spec)) {}

Prober::~Prober() = default;

void Prober::before_round(FederationSession& session, std::size_t round) {
  Impl& m = *impl_;
  FederatedAlgorithm& algorithm = session.algorithm();
  if (m.live_data == nullptr) {
    m.live_data = algorithm.context().data;
    m.data_hits0 = m.data_hits1 = m.live_data->cache_hits();
    m.data_misses0 = m.data_misses1 = m.live_data->cache_misses();
    if (const auto* sub = dynamic_cast<const SubFedAvg*>(&algorithm)) {
      m.refaults0 = m.refaults1 = sub->client_refaults();
    }
  }
  m.pending = round % kProbeEvery == 0 && round <= m.spec.rounds;
  if (m.pending) {
    m.sections = algorithm.checkpoint_state();
    m.cohort.clear();
  }
  m.up_before = session.total_up_bytes();
  m.down_before = session.total_down_bytes();
  m.device_before = default_device().stats();
}

void Prober::on_cohort(std::span<const std::size_t> sampled) {
  if (impl_->pending) impl_->cohort.assign(sampled.begin(), sampled.end());
}

void Prober::after_round(FederationSession& session, std::size_t round, double wall_s) {
  Impl& m = *impl_;
  const DeviceStats now = default_device().stats();
  if (m.device_clean) {
    m.plan_hits += now.plan_hits - m.device_before.plan_hits;
    m.plan_misses += now.plan_misses - m.device_before.plan_misses;
    m.leases += now.workspace_leases - m.device_before.workspace_leases;
    m.reuses += now.workspace_reuses - m.device_before.workspace_reuses;
    m.samples["tensor.density_scans"].push_back(
        static_cast<double>(now.density_scans - m.device_before.density_scans));
  }
  const FederationSession::RoundPhases& phases = session.last_phases();
  const double accounted = phases.sample + phases.broadcast_encode + phases.transport_exchange +
                           phases.collect + phases.aggregate;
  m.samples["session.sample_s"].push_back(phases.sample);
  m.samples["session.exchange_s"].push_back(phases.transport_exchange);
  m.samples["session.aggregate_s"].push_back(phases.aggregate);
  m.samples["session.codec_share"].push_back((phases.broadcast_encode + phases.collect) / wall_s);
  m.samples["session.phase_coverage"].push_back(accounted / wall_s);
  m.samples["comm.up_bytes"].push_back(
      static_cast<double>(session.total_up_bytes() - m.up_before));
  m.samples["comm.down_bytes"].push_back(
      static_cast<double>(session.total_down_bytes() - m.down_before));
  ++m.live_rounds;
  if (const auto* sub = dynamic_cast<const SubFedAvg*>(&session.algorithm())) {
    m.refaults1 = sub->client_refaults();
  }
  m.data_hits1 = m.live_data->cache_hits();
  m.data_misses1 = m.live_data->cache_misses();
  m.compression_ratio = session.algorithm().channel().compression_ratio();

  m.device_clean = !m.pending;
  if (!m.pending) return;
  m.pending = false;
  // Probes run one client at a time on this thread; a single-panel GEMM cap
  // keeps them from fanning out over the idle pool, so each client is timed
  // the way the live round runs it (inside one pool task).
  const std::size_t math_threads_before = math_threads();
  set_math_threads(1);
  try {
    m.probe_round(session, round, phases.transport_exchange);
  } catch (const std::exception& e) {
    m.failures.push_back("round " + std::to_string(round) + " probe: " + e.what());
  }
  set_math_threads(math_threads_before);
}

void Prober::after_eval(FederationSession& session) {
  Impl& m = *impl_;
  m.samples["session.eval_s"].push_back(session.last_phases().eval);
  m.data_hits1 = m.live_data->cache_hits();
  m.data_misses1 = m.live_data->cache_misses();
}

std::vector<LayerMetric> Prober::metrics(const FederationRun& traced,
                                         double untraced_round_p50) const {
  const Impl& m = *impl_;
  auto count = [&](const char* name) {
    const auto it = m.samples.find(name);
    return it == m.samples.end() ? std::size_t{0} : it->second.size();
  };
  auto ratio = [](double num, double den, double fallback) {
    return den > 0.0 ? num / den : fallback;
  };
  const double data_hits = static_cast<double>(m.data_hits1 - m.data_hits0);
  const double data_misses = static_cast<double>(m.data_misses1 - m.data_misses0);
  const std::size_t probes = count("core.client_round_s");
  std::vector<LayerMetric> out;
  for (const MetricDef& def : kLayerMetrics) {
    const std::string name = def.name;
    double value = 0.0;
    std::size_t n = m.live_rounds;
    if (name == "fl.client_refaults") {
      value = ratio(static_cast<double>(m.refaults1 - m.refaults0),
                    static_cast<double>(m.live_rounds), 0.0);
    } else if (name == "pruning.mask_commit_ratio") {
      value = ratio(static_cast<double>(m.commits), static_cast<double>(m.candidates), 0.0);
      n = probes;
    } else if (name == "tensor.plan_hit_ratio") {
      value = ratio(static_cast<double>(m.plan_hits),
                    static_cast<double>(m.plan_hits + m.plan_misses), 0.0);
    } else if (name == "tensor.workspace_reuse_ratio") {
      value = ratio(static_cast<double>(m.reuses), static_cast<double>(m.leases), 0.0);
    } else if (name == "comm.compression_ratio") {
      value = m.compression_ratio;
    } else if (name == "data.cache_hit_ratio") {
      // Eager data has no cache: every client is resident.
      value = ratio(data_hits, data_hits + data_misses, 1.0);
    } else if (name == "trace.overhead") {
      value = ratio(median(traced.round_s), untraced_round_p50, 1.0) - 1.0;
      n = traced.round_s.size();
    } else {
      const auto it = m.samples.find(def.name);
      n = it == m.samples.end() ? 0 : it->second.size();
      value = n == 0 ? 0.0 : median(it->second);
    }
    out.push_back({name, def.unit, value, n});
  }
  return out;
}

const std::vector<std::string>& Prober::failures() const noexcept { return impl_->failures; }

std::size_t Prober::checks() const noexcept { return impl_->checks; }

std::string Prober::self_time_table() const {
  const Impl& m = *impl_;
  const std::vector<SpanLedger::Stat>& stats = m.ledger.stats();
  std::vector<std::size_t> order(stats.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return stats[a].self_ns > stats[b].self_ns; });
  double total = 0.0;
  for (const SpanLedger::Stat& s : stats) total += s.self_ns / 1e9;
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof(line), "%-28s %10s %12s %12s %7s\n", "span (bench probes)", "count",
                "total_s", "self_s", "self%");
  os << line;
  for (const std::size_t i : order) {
    if (stats[i].count == 0) continue;
    std::snprintf(line, sizeof(line), "%-28s %10llu %12.6f %12.6f %6.2f%%\n",
                  m.ledger.name(static_cast<int>(i)).c_str(),
                  static_cast<unsigned long long>(stats[i].count), stats[i].total_ns / 1e9,
                  stats[i].self_ns / 1e9, total > 0.0 ? 100.0 * stats[i].self_ns / 1e9 / total : 0.0);
    os << line;
  }
  return os.str();
}

void Prober::write_trace(const std::string& path) const {
  const std::string json = impl_->ledger.chrome_trace(telemetry::drain_spans());
  std::ofstream out(path, std::ios::trunc);
  SUBFEDAVG_CHECK(out.good(), "cannot write trace '" << path << "'");
  out << json;
  SUBFEDAVG_CHECK(out.good(), "short write to trace '" << path << "'");
}

}  // namespace subfed::bench
