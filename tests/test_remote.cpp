// Remote federation over real sockets: tcp rounds bit-identical to loopback
// for every registered algorithm, straggler eviction when a worker dies
// mid-round, a worker whose replies carry malformed client state, worker
// reconnect limits, fail-fast spec validation, and sweep sharding of whole
// runs across workers.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/channel.h"
#include "comm/transport.h"
#include "fl/experiment.h"
#include "fl/registry.h"
#include "fl/sweep.h"
#include "fl/worker.h"
#include "net/socket.h"
#include "serve/session.h"
#include "util/check.h"
#include "util/logging.h"

namespace subfed {
namespace {

ExperimentSpec small_spec(const std::string& algo) {
  set_log_level(LogLevel::kWarn);
  ExperimentSpec spec;
  spec.dataset = "mnist";
  spec.clients = 6;
  spec.shard = 25;
  spec.test_per_class = 8;
  spec.rounds = 2;
  spec.epochs = 1;
  spec.sample = 0.5;
  spec.eval_every = 1;
  spec.seed = 17;
  spec.algo = algo;
  return spec;
}

void expect_same_learning(const RunResult& a, const RunResult& b, const std::string& label) {
  EXPECT_EQ(a.final_avg_accuracy, b.final_avg_accuracy) << label;
  ASSERT_EQ(a.curve.size(), b.curve.size()) << label;
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].round, b.curve[i].round) << label;
    EXPECT_EQ(a.curve[i].avg_accuracy, b.curve[i].avg_accuracy) << label;
  }
  ASSERT_EQ(a.final_per_client.size(), b.final_per_client.size()) << label;
  for (std::size_t k = 0; k < a.final_per_client.size(); ++k) {
    EXPECT_EQ(a.final_per_client[k], b.final_per_client[k]) << label;
  }
}

/// A just-freed localhost port: bound ephemerally, resolved, released.
std::string probe_endpoint() {
  net::TcpListener probe(net::parse_host_port("127.0.0.1:0"));
  return probe.endpoint();
}

struct TcpRun {
  RunResult result;
  std::size_t evicted = 0;
  std::string error;                       ///< coordinator's throw, if any
  std::vector<WorkerStats> stats;          ///< per worker
  std::vector<std::string> worker_errors;  ///< per worker; "" = clean exit
};

/// Runs `spec` as a tcp coordinator with an in-process worker fleet —
/// separate threads, separate FederatedAlgorithm instances, real sockets;
/// the only shared state is the test's address space.
TcpRun run_over_tcp(ExperimentSpec spec, std::size_t workers,
                    std::vector<std::size_t> max_exchanges = {}) {
  spec.transport = "tcp";
  spec.listen = "127.0.0.1:0";
  spec.channel_workers = workers;
  const FederatedData data(spec.dataset_spec(), spec.data_config());
  const FlContext ctx = spec.make_context(data);
  std::unique_ptr<FederatedAlgorithm> algorithm = spec.make_algorithm(ctx);
  const std::string endpoint = algorithm->channel().transport_endpoint();

  TcpRun out;
  out.stats.resize(workers);
  out.worker_errors.resize(workers);
  std::vector<std::thread> fleet;
  fleet.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    fleet.emplace_back([&, w] {
      WorkerOptions options;
      options.connect = endpoint;
      if (w < max_exchanges.size()) options.max_exchanges = max_exchanges[w];
      try {
        out.stats[w] = run_worker(options);
      } catch (const std::exception& e) {
        out.worker_errors[w] = e.what();
      }
    });
  }

  try {
    out.result = run_federation(*algorithm, spec.driver_config());
    out.evicted = algorithm->channel().evicted_updates();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  algorithm.reset();  // transport teardown sends kShutdown to the fleet
  for (std::thread& t : fleet) t.join();
  return out;
}

// ---------------------------------------------------------------------------
// Bit-identity

TEST(RemoteFederation, TcpMatchesLoopbackBitIdenticallyForEveryAlgorithm) {
  for (const std::string& algo : list_algorithms()) {
    if (algo.rfind("test_", 0) == 0) continue;  // this binary's test doubles
    ExperimentSpec loopback_spec = small_spec(algo);
    loopback_spec.transport = "loopback";
    const ExecutedRun loopback = execute_experiment(loopback_spec);

    const TcpRun tcp = run_over_tcp(small_spec(algo), /*workers=*/2);
    ASSERT_TRUE(tcp.error.empty()) << algo << ": " << tcp.error;
    for (const std::string& error : tcp.worker_errors) {
      EXPECT_TRUE(error.empty()) << algo << ": " << error;
    }
    expect_same_learning(loopback.result, tcp.result, algo);
    // Same envelopes → same ledger: traffic and the simulated round clock
    // must agree to the byte/tick, not just the accuracy.
    EXPECT_EQ(tcp.result.up_bytes, loopback.result.up_bytes) << algo;
    EXPECT_EQ(tcp.result.down_bytes, loopback.result.down_bytes) << algo;
    EXPECT_EQ(tcp.result.simulated_seconds, loopback.result.simulated_seconds) << algo;
  }
}

// ---------------------------------------------------------------------------
// Failure handling

TEST(RemoteFederation, BufferedRunEvictsKilledWorkerAndCompletes) {
  ExperimentSpec spec = small_spec("fedavg");
  spec.aggregation = "buffered";
  spec.buffer_k = 2;
  spec.rounds = 3;
  // Worker 0 dies mid-round after serving one exchange: it accepts a second
  // request and drops the connection without replying.
  const TcpRun tcp = run_over_tcp(spec, /*workers=*/2, /*max_exchanges=*/{1});
  ASSERT_TRUE(tcp.error.empty()) << tcp.error;
  EXPECT_EQ(tcp.stats[0].exchanges, 1u);
  EXPECT_TRUE(tcp.worker_errors[0].empty()) << tcp.worker_errors[0];
  EXPECT_TRUE(tcp.worker_errors[1].empty()) << tcp.worker_errors[1];
  EXPECT_GE(tcp.evicted, 1u);            // the dead exchange became a straggler
  EXPECT_EQ(tcp.result.curve.size(), 3u);  // ...and every round still closed
  EXPECT_EQ(tcp.result.skipped_rounds, 0u);
}

TEST(RemoteFederation, SyncRoundFailsFastWhenTheOnlyWorkerDies) {
  ExperimentSpec spec = small_spec("fedavg");
  const TcpRun tcp = run_over_tcp(spec, /*workers=*/1, /*max_exchanges=*/{1});
  ASSERT_FALSE(tcp.error.empty());
  EXPECT_NE(tcp.error.find("died before replying"), std::string::npos) << tcp.error;
  EXPECT_EQ(tcp.stats[0].exchanges, 1u);
}

/// A worker that speaks the protocol by hand — kHello, kSetup, then one reply
/// per kExchange — and answers each exchange with its mirror's reply after
/// dropping the last entry of the reply's first side-band section.
void serve_malformed_client_state(const std::string& endpoint) {
  const net::Deadline io = net::Deadline::after_ms(20000);
  net::TcpConn conn = net::TcpConn::connect(net::parse_host_port(endpoint), io);
  net::NetFrame setup;
  if (!conn.valid() || !net::send_frame(conn, net::FrameKind::kHello, 0, {}, io) ||
      !net::recv_frame(conn, &setup, io) || setup.kind != net::FrameKind::kSetup) {
    ADD_FAILURE() << "the fake worker could not join " << endpoint;
    return;
  }
  const std::unique_ptr<FederationSession> mirror = FederationSession::mirror_from_kv(
      std::string(setup.payload.begin(), setup.payload.end()));
  net::NetFrame frame;
  while (net::recv_frame(conn, &frame) && frame.kind == net::FrameKind::kExchange) {
    Envelope reply = decode_envelope(mirror->algorithm().serve_remote(frame.payload));
    if (reply.sections.size() > 1) {
      const StateDict section = decode_update(reply.sections[1]);
      StateDict shorter;
      for (std::size_t e = 0; e + 1 < section.size(); ++e) {
        shorter.add(section[e].first, section[e].second);
      }
      reply.sections[1] = encode_update(shorter, nullptr);
    }
    if (!net::send_frame(conn, net::FrameKind::kReply, frame.tag, encode_envelope(reply), io)) {
      return;
    }
  }
}

TEST(RemoteFederation, SyncRoundRefusesAReplyWithMalformedClientState) {
  for (const char* algo : {"standalone", "lg_fedavg", "fedmtl", "subfedavg_un", "subfedavg_hy"}) {
    ExperimentSpec spec = small_spec(algo);
    spec.transport = "tcp";
    spec.listen = "127.0.0.1:0";
    spec.channel_workers = 1;
    spec.rpc_timeout_ms = 20000;
    std::unique_ptr<FederationSession> session = FederationSession::from_spec(spec);
    std::thread worker(serve_malformed_client_state,
                       session->algorithm().channel().transport_endpoint());
    EXPECT_THROW(session->advance_round(), CheckError) << algo;
    session.reset();  // transport teardown sends kShutdown to the worker
    worker.join();
  }
}

TEST(RemoteFederation, WorkerGivesUpAfterItsReconnectBudget) {
  WorkerOptions options;
  options.connect = probe_endpoint();  // nobody listens there anymore
  options.reconnect = 1;
  EXPECT_THROW(run_worker(options), CheckError);
}

// ---------------------------------------------------------------------------
// Fail-fast validation

TEST(RemoteFederation, MisconfiguredSpecsFailAtParseTimeWithActionableMessages) {
  ExperimentSpec spec;
  spec.transport = "tcp";
  try {
    spec.validate();
    FAIL() << "tcp without listen must throw";
  } catch (const CheckError& e) {
    // The message must tell the user how to wire up the other side.
    EXPECT_NE(std::string(e.what()).find("worker --connect"), std::string::npos) << e.what();
  }

  spec.listen = "not-an-address";
  EXPECT_THROW(spec.validate(), CheckError);
  spec.listen = "127.0.0.1:0";
  EXPECT_NO_THROW(spec.validate());

  spec.connect = "10.0.0.1:9000";  // the connect role is the worker binary
  EXPECT_THROW(spec.validate(), CheckError);
  spec.connect.clear();

  spec.transport = "loopback";  // listen= without transport=tcp
  EXPECT_THROW(spec.validate(), CheckError);
  spec.listen.clear();
  EXPECT_NO_THROW(spec.validate());

  spec.transport = "carrier-pigeon";
  try {
    spec.validate();
    FAIL() << "unknown transport must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("tcp"), std::string::npos) << e.what();
  }
}

TEST(RemoteFederation, TransportRegistryRejectsTcpWithoutListen) {
  EXPECT_THROW(make_transport("tcp", TransportOptions{}), CheckError);
}

// ---------------------------------------------------------------------------
// Sweep sharding

TEST(RemoteFederation, SweepShardsWholeRunsAcrossWorkersBitIdentically) {
  const std::string endpoint = probe_endpoint();

  SweepDescription description;
  description.base = small_spec("fedavg");
  description.add_axis("algo=fedavg,standalone");
  const std::vector<SweepRun> runs = description.expand();
  ASSERT_EQ(runs.size(), 2u);

  std::vector<std::string> worker_errors(2);
  std::vector<std::thread> fleet;
  for (std::size_t w = 0; w < 2; ++w) {
    fleet.emplace_back([&, w] {
      WorkerOptions options;
      options.connect = endpoint;
      options.reconnect = 20;  // the coordinator binds a beat later than we dial
      try {
        run_worker(options);
      } catch (const std::exception& e) {
        worker_errors[w] = e.what();
      }
    });
  }

  SweepOptions options;
  options.listen = endpoint;
  options.remote_workers = 2;
  options.echo_progress = false;
  options.out_dir.clear();  // results checked in memory
  const SweepSummary summary = run_sweep(runs, options);
  for (std::thread& t : fleet) t.join();

  for (const std::string& error : worker_errors) EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(summary.outcomes.size(), 2u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const SweepRunOutcome& outcome = summary.outcomes[i];
    ASSERT_TRUE(outcome.ok) << outcome.run.name << ": " << outcome.error;
    EXPECT_EQ(outcome.run.name, runs[i].name);
    // A remotely executed grid point must reproduce the local run exactly —
    // the JSON round trip uses max_digits10, so doubles survive bit-for-bit.
    const ExecutedRun local = execute_experiment(runs[i].spec);
    EXPECT_EQ(outcome.result.final_avg_accuracy, local.result.final_avg_accuracy)
        << outcome.run.name;
    EXPECT_EQ(outcome.result.up_bytes, local.result.up_bytes) << outcome.run.name;
    EXPECT_EQ(outcome.algorithm_name, local.algorithm_name) << outcome.run.name;
  }
}

}  // namespace
}  // namespace subfed
