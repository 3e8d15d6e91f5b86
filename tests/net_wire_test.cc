// pds::net end-to-end: transports (in-process, Unix socketpair, TCP
// loopback), the SsiServer/TokenClient handshake, and the secure
// aggregation protocol over the real wire — byte-identical results to the
// in-process protocol, measured framed-byte accounting, and quorum /
// timeout / retry behaviour with dropped or flaky tokens.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "common/clock.h"
#include "common/rng.h"
#include "global/agg_protocols.h"
#include "net/ssi_server.h"
#include "net/token_client.h"
#include "obs/obs.h"
#include "pds/pds_node.h"

namespace pds::net {
namespace {

using global::AggFunc;
using global::Participant;
using global::SourceTuple;

// ---------------------------------------------------------------------------
// Transports

TEST(NetTransportTest, InProcessPairDelivers) {
  auto [a, b] = InProcessTransport::CreatePair();
  Bytes frame = EncodeBye();
  ASSERT_TRUE(a->Send(frame).ok());
  auto got = b->Recv(1000);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ByteView(*got), ByteView(frame));
  EXPECT_EQ(a->bytes_sent(), frame.size());
  EXPECT_EQ(b->bytes_received(), frame.size());
  EXPECT_EQ(a->frames_sent(), 1u);
}

TEST(NetTransportTest, InProcessRecvTimesOut) {
  auto [a, b] = InProcessTransport::CreatePair();
  (void)a;
  auto got = b->Recv(20);
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(NetTransportTest, InProcessCloseUnblocksAndFailsSends) {
  auto [a, b] = InProcessTransport::CreatePair();
  a->Close();
  EXPECT_EQ(b->Recv(1000).status().code(), StatusCode::kIoError);
  EXPECT_EQ(b->Send(EncodeBye()).code(), StatusCode::kIoError);
}

TEST(NetTransportTest, InProcessQueueBackpressure) {
  auto [a, b] = InProcessTransport::CreatePair(/*max_queued=*/2);
  Bytes frame = EncodeBye();
  ASSERT_TRUE(a->Send(frame).ok());
  ASSERT_TRUE(a->Send(frame).ok());
  EXPECT_EQ(a->Send(frame).code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(b->Recv(100).ok());
  EXPECT_TRUE(a->Send(frame).ok());
}

TEST(NetTransportTest, UnixPairReassemblesFrames) {
  auto pair = SocketTransport::CreateUnixPair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  auto& [a, b] = *pair;
  // A large frame (crosses many 4 KiB reads) followed by a small one.
  TupleBatchMsg big;
  big.round_id = 1;
  big.batch.reserve(100);
  for (int i = 0; i < 100; ++i) {
    big.batch.push_back(Bytes(1000, static_cast<uint8_t>(i)));
  }
  Bytes big_frame = EncodeTupleBatch(big);
  ASSERT_GT(big_frame.size(), 64u * 1024);
  Bytes small_frame = EncodeBye();
  ASSERT_TRUE(a->Send(big_frame).ok());
  ASSERT_TRUE(a->Send(small_frame).ok());

  auto got_big = b->Recv(2000);
  ASSERT_TRUE(got_big.ok()) << got_big.status().ToString();
  EXPECT_EQ(ByteView(*got_big), ByteView(big_frame));
  auto got_small = b->Recv(2000);
  ASSERT_TRUE(got_small.ok());
  EXPECT_EQ(ByteView(*got_small), ByteView(small_frame));
  EXPECT_EQ(b->bytes_received(), big_frame.size() + small_frame.size());
}

TEST(NetTransportTest, SocketShortDeadlineReadsBufferedFrame) {
  // A whole frame already in the socket is returned even when the deadline
  // is under one millisecond; only an empty socket times out.
  auto pair = SocketTransport::CreateUnixPair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  auto& [a, b] = *pair;
  Bytes frame = EncodeBye();
  for (uint32_t deadline_ms : {0u, 1u}) {
    ASSERT_TRUE(a->Send(frame).ok());
    auto got = b->Recv(deadline_ms);
    ASSERT_TRUE(got.ok()) << "Recv(" << deadline_ms
                          << "): " << got.status().ToString();
    EXPECT_EQ(ByteView(*got), ByteView(frame));
  }
  EXPECT_EQ(b->Recv(0).status().code(), StatusCode::kDeadlineExceeded);
}

TEST(NetTransportTest, SocketRejectsGarbageHeader) {
  auto pair = SocketTransport::CreateUnixPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = *pair;
  Bytes garbage(16, 0x5A);
  ASSERT_TRUE(a->Send(garbage).ok());
  EXPECT_EQ(b->Recv(1000).status().code(), StatusCode::kCorruption);
}

TEST(NetTransportTest, TcpLoopbackConnectAndExchange) {
  TcpListener listener;
  ASSERT_TRUE(listener.Listen(0).ok());
  ASSERT_NE(listener.port(), 0);

  auto client = SocketTransport::ConnectTcp("127.0.0.1", listener.port(), 2000);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto server = listener.Accept(2000);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Bytes frame = EncodeHelloAck(HelloAckMsg{true});
  ASSERT_TRUE((*client)->Send(frame).ok());
  auto got = (*server)->Recv(2000);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ByteView(*got), ByteView(frame));
}

// ---------------------------------------------------------------------------
// Protocol over the wire

/// Deterministic token fleet + tuples, seeded exactly like AggProtocolTest
/// so in-process and wire runs can be compared byte for byte.
struct TestFleet {
  std::vector<std::unique_ptr<mcu::SecureToken>> tokens;
  std::vector<Participant> participants;
  std::unique_ptr<mcu::SecureToken> verifier;
};

TestFleet MakeTestFleet(size_t n, const char* key = "fleet-test") {
  TestFleet f;
  crypto::SymmetricKey fleet_key = crypto::KeyFromString(key);
  for (uint64_t i = 0; i < n; ++i) {
    mcu::SecureToken::Config cfg;
    cfg.token_id = i;
    cfg.fleet_key = fleet_key;
    cfg.rng_seed = 100 + i;
    f.tokens.push_back(std::make_unique<mcu::SecureToken>(cfg));
  }
  Rng rng(55);
  for (uint64_t i = 0; i < n; ++i) {
    Participant p;
    p.token = f.tokens[i].get();
    int tuples = 5 + static_cast<int>(rng.Uniform(10));
    for (int t = 0; t < tuples; ++t) {
      SourceTuple st;
      st.group = "city-" + std::to_string(rng.Uniform(5));
      st.value = static_cast<double>(rng.Uniform(100));
      p.tuples.push_back(std::move(st));
    }
    f.participants.push_back(std::move(p));
  }
  mcu::SecureToken::Config vcfg;
  vcfg.token_id = 9000;
  vcfg.fleet_key = fleet_key;
  f.verifier = std::make_unique<mcu::SecureToken>(vcfg);
  return f;
}

/// Connects `fleet` to a server over in-process transports; returns the
/// running clients (caller joins them after Shutdown). Token 0's faults are
/// seed-driven: on failure, print `clients[0]->injection_log().ToString()`
/// and rerun with the same seed to reproduce the exact fault sequence.
std::vector<std::unique_ptr<TokenClient>> ConnectClients(
    SsiServer* server, TestFleet* fleet, FaultPlan faults_for_token0 = {}) {
  std::vector<std::unique_ptr<TokenClient>> clients;
  clients.reserve(fleet->participants.size());
  for (size_t i = 0; i < fleet->participants.size(); ++i) {
    auto [server_end, client_end] = InProcessTransport::CreatePair();
    TokenClient::Config cfg;
    cfg.token = fleet->tokens[i].get();
    cfg.tuples = fleet->participants[i].tuples;
    if (i == 0) {
      cfg.faults = faults_for_token0;
    }
    auto client =
        std::make_unique<TokenClient>(std::move(client_end), std::move(cfg));
    client->Start();
    auto idx = server->AcceptSession(std::move(server_end));
    EXPECT_TRUE(idx.ok()) << idx.status().ToString();
    clients.push_back(std::move(client));
  }
  return clients;
}

void JoinAll(SsiServer* server,
             std::vector<std::unique_ptr<TokenClient>>* clients) {
  server->Shutdown();
  for (auto& c : *clients) {
    c->Stop();
    EXPECT_TRUE(c->Join().ok());
  }
}

TEST(NetSecureAggTest, LoopbackMatchesInProcessByteIdentical) {
  // Two identically-seeded fleets: one runs the in-process protocol, the
  // other the wire protocol. Same item order, same partitions, same token
  // RNG streams => exactly equal results, leakage and token work.
  TestFleet inproc = MakeTestFleet(6);
  global::SecureAggProtocol::Config pcfg;
  pcfg.partition_capacity = 16;
  global::SecureAggProtocol protocol(pcfg);
  auto expected = protocol.Execute(inproc.participants, AggFunc::kSum);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  TestFleet wired = MakeTestFleet(6);
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = wired.verifier.get();
  SsiServer server(scfg);
  auto clients = ConnectClients(&server, &wired);
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  // Bit-exact group results (doubles compared with ==).
  ASSERT_EQ(output->groups.size(), expected->groups.size());
  for (const auto& [group, value] : expected->groups) {
    ASSERT_TRUE(output->groups.count(group)) << group;
    EXPECT_EQ(output->groups[group], value) << group;
  }
  // Same SSI view and same token work as in-process.
  EXPECT_EQ(output->leakage.tuples_observed,
            expected->leakage.tuples_observed);
  EXPECT_EQ(output->leakage.distinct_classes,
            expected->leakage.distinct_classes);
  EXPECT_EQ(output->metrics.token_crypto_ops,
            expected->metrics.token_crypto_ops);
  EXPECT_EQ(output->metrics.rounds, expected->metrics.rounds);
  EXPECT_EQ(output->metrics.tokens_missing, 0u);
  EXPECT_EQ(server.last_report().responders, 6u);
}

TEST(NetSecureAggTest, FramedBytesExceedSyntheticAccounting) {
  TestFleet inproc = MakeTestFleet(6);
  global::SecureAggProtocol::Config pcfg;
  pcfg.partition_capacity = 16;
  global::SecureAggProtocol protocol(pcfg);
  auto synthetic = protocol.Execute(inproc.participants, AggFunc::kSum);
  ASSERT_TRUE(synthetic.ok());

  TestFleet wired = MakeTestFleet(6);
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = wired.verifier.get();
  SsiServer server(scfg);
  auto clients = ConnectClients(&server, &wired);
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok());

  // The wire pays for frame headers, length prefixes and round metadata on
  // top of the ciphertexts the in-process model counts.
  EXPECT_GT(output->metrics.bytes, synthetic->metrics.bytes);
  EXPECT_GT(output->metrics.bytes_token_to_ssi,
            synthetic->metrics.bytes_token_to_ssi);
  EXPECT_GT(output->metrics.bytes_ssi_to_token,
            synthetic->metrics.bytes_ssi_to_token);
  // Directional sum invariant over measured frames.
  EXPECT_EQ(output->metrics.bytes, output->metrics.bytes_token_to_ssi +
                                       output->metrics.bytes_ssi_to_token);
}

TEST(NetSecureAggTest, SocketLoopbackMatchesInProcess) {
  TestFleet inproc = MakeTestFleet(4);
  global::SecureAggProtocol::Config pcfg;
  pcfg.partition_capacity = 16;
  global::SecureAggProtocol protocol(pcfg);
  auto expected = protocol.Execute(inproc.participants, AggFunc::kSum);
  ASSERT_TRUE(expected.ok());

  TestFleet wired = MakeTestFleet(4);
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = wired.verifier.get();
  SsiServer server(scfg);
  std::vector<std::unique_ptr<TokenClient>> clients;
  for (size_t i = 0; i < wired.participants.size(); ++i) {
    auto pair = SocketTransport::CreateUnixPair();
    ASSERT_TRUE(pair.ok());
    TokenClient::Config ccfg;
    ccfg.token = wired.tokens[i].get();
    ccfg.tuples = wired.participants[i].tuples;
    auto client = std::make_unique<TokenClient>(std::move(pair->second),
                                                std::move(ccfg));
    client->Start();
    auto idx = server.AcceptSession(std::move(pair->first));
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    clients.push_back(std::move(client));
  }
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  ASSERT_EQ(output->groups.size(), expected->groups.size());
  for (const auto& [group, value] : expected->groups) {
    EXPECT_EQ(output->groups[group], value) << group;
  }
}

// ---------------------------------------------------------------------------
// Slot-packed Paillier round over the wire

/// The querier-side packed context, built exactly as the in-process
/// PackedPaillierProtocol builds it so both runs share keypair and layout.
struct PackedContext {
  std::vector<std::string> domain;
  std::unique_ptr<crypto::PackedAggregate> agg;
};

PackedContext MakePackedContext(size_t fleet_size) {
  PackedContext ctx;
  for (int i = 0; i < 5; ++i) {
    ctx.domain.push_back("city-" + std::to_string(i));
  }
  Rng key_rng(42);
  auto paillier = crypto::Paillier::Generate(256, &key_rng);
  EXPECT_TRUE(paillier.ok());
  auto agg = crypto::PackedAggregate::Create(*paillier, fleet_size,
                                             /*max_value=*/4096,
                                             2 * ctx.domain.size());
  EXPECT_TRUE(agg.ok());
  ctx.agg = std::make_unique<crypto::PackedAggregate>(std::move(agg).value());
  return ctx;
}

TEST(NetPackedAggTest, PackedLoopbackMatchesInProcessByteIdentical) {
  // In-process packed protocol vs the same fleet over the wire: identical
  // keypair, layout and token RNG streams => identical groups, leakage and
  // token work.
  TestFleet inproc = MakeTestFleet(6);
  global::PackedPaillierProtocol::Config pcfg;
  for (int i = 0; i < 5; ++i) {
    pcfg.domain.push_back("city-" + std::to_string(i));
  }
  pcfg.max_slot_value = 4096;
  pcfg.paillier_bits = 256;
  pcfg.key_seed = 42;
  global::PackedPaillierProtocol protocol(pcfg);
  auto expected = protocol.Execute(inproc.participants, AggFunc::kSum);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  TestFleet wired = MakeTestFleet(6);
  PackedContext ctx = MakePackedContext(6);
  SsiServer::Config scfg;
  scfg.verifier = wired.verifier.get();
  SsiServer server(scfg);
  std::vector<std::unique_ptr<TokenClient>> clients;
  for (size_t i = 0; i < wired.participants.size(); ++i) {
    auto [server_end, client_end] = InProcessTransport::CreatePair();
    TokenClient::Config ccfg;
    ccfg.token = wired.tokens[i].get();
    ccfg.tuples = wired.participants[i].tuples;
    ccfg.packed = ctx.agg.get();
    auto client =
        std::make_unique<TokenClient>(std::move(client_end), std::move(ccfg));
    client->Start();
    auto idx = server.AcceptSession(std::move(server_end));
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    clients.push_back(std::move(client));
  }
  auto output = server.RunPackedAggregation(AggFunc::kSum, *ctx.agg,
                                            ctx.domain);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  ASSERT_EQ(output->groups.size(), expected->groups.size());
  for (const auto& [group, value] : expected->groups) {
    ASSERT_TRUE(output->groups.count(group)) << group;
    EXPECT_EQ(output->groups[group], value) << group;
  }
  EXPECT_EQ(output->metrics.rounds, 1u);
  EXPECT_EQ(output->metrics.token_crypto_ops,
            expected->metrics.token_crypto_ops);
  EXPECT_EQ(output->leakage.tuples_observed,
            expected->leakage.tuples_observed);
  EXPECT_EQ(output->leakage.distinct_classes,
            expected->leakage.distinct_classes);
  EXPECT_EQ(output->metrics.tokens_missing, 0u);
  // Directional sum invariant over measured frames.
  EXPECT_EQ(output->metrics.bytes, output->metrics.bytes_token_to_ssi +
                                       output->metrics.bytes_ssi_to_token);
}

TEST(NetPackedAggTest, PackedRoundToleratesStragglersUnderQuorum) {
  // Packed ciphertexts are independent, so a missing token only shrinks
  // the aggregate: the run proceeds at quorum with the responders' totals.
  TestFleet wired = MakeTestFleet(4);
  PackedContext ctx = MakePackedContext(4);
  std::vector<Participant> responders(wired.participants.begin() + 1,
                                      wired.participants.end());
  auto expected = global::PlainAggregate(responders, AggFunc::kSum);

  SsiServer::Config scfg;
  scfg.verifier = wired.verifier.get();
  scfg.deadline_ms = ScaledMs(100);
  scfg.max_retries = 0;
  scfg.quorum = 0.5;
  SsiServer server(scfg);
  std::vector<std::unique_ptr<TokenClient>> clients;
  for (size_t i = 0; i < wired.participants.size(); ++i) {
    auto [server_end, client_end] = InProcessTransport::CreatePair();
    TokenClient::Config ccfg;
    ccfg.token = wired.tokens[i].get();
    ccfg.tuples = wired.participants[i].tuples;
    ccfg.packed = ctx.agg.get();
    if (i == 0) {
      ccfg.faults.swallow_first = 10;  // token 0 never answers
    }
    auto client =
        std::make_unique<TokenClient>(std::move(client_end), std::move(ccfg));
    client->Start();
    auto idx = server.AcceptSession(std::move(server_end));
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    clients.push_back(std::move(client));
  }
  auto output = server.RunPackedAggregation(AggFunc::kSum, *ctx.agg,
                                            ctx.domain);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_EQ(output->metrics.tokens_missing, 1u);
  EXPECT_EQ(server.last_report().responders, 3u);
  ASSERT_EQ(output->groups.size(), expected.size());
  for (const auto& [group, value] : expected) {
    EXPECT_EQ(output->groups[group], value) << group;
  }
}

TEST(NetSecureAggTest, PdsNodesExportAndAggregateOverWire) {
  // Full stack: PdsNode-backed clients run the policy-checked export at
  // Connect() and only then answer wire rounds.
  using embdb::ColumnType;
  using embdb::Schema;
  using embdb::Tuple;
  using embdb::Value;
  crypto::SymmetricKey fleet_key = crypto::KeyFromString("fleet-test");
  const char* cities[] = {"lyon", "paris", "nice"};
  Rng rng(17);
  std::vector<std::unique_ptr<node::PdsNode>> nodes;
  std::map<std::string, double> plain;
  for (uint64_t i = 0; i < 4; ++i) {
    node::PdsNode::Config cfg;
    cfg.node_id = 1 + i;
    cfg.fleet_key = fleet_key;
    cfg.flash_geometry.page_size = 512;
    cfg.flash_geometry.pages_per_block = 8;
    cfg.flash_geometry.block_count = 256;
    cfg.rng_seed = 1 + i;
    auto pds_node = std::make_unique<node::PdsNode>(cfg);
    Schema bills("bills", {{"id", ColumnType::kUint64, ""},
                           {"city", ColumnType::kString, ""},
                           {"amount", ColumnType::kDouble, ""}});
    ASSERT_TRUE(pds_node->DefineTable(bills).ok());
    pds_node->policies().AddRule(
        {"owner", ac::Action::kInsert, "bills", {}, std::nullopt});
    pds_node->policies().AddRule({"stats-agency", ac::Action::kShare, "bills",
                                  {"city", "amount"}, std::nullopt});
    ac::Subject owner{"owner", "user-" + std::to_string(i)};
    int rows = 2 + static_cast<int>(rng.Uniform(3));
    for (int r = 0; r < rows; ++r) {
      const char* city = cities[rng.Uniform(3)];
      double amount = static_cast<double>(rng.Uniform(500));
      Tuple t = {Value::U64(static_cast<uint64_t>(r)), Value::Str(city),
                 Value::F64(amount)};
      ASSERT_TRUE(pds_node->InsertAs(owner, "bills", t).ok());
      plain[city] += amount;
    }
    nodes.push_back(std::move(pds_node));
  }

  mcu::SecureToken::Config vcfg;
  vcfg.token_id = 9000;
  vcfg.fleet_key = fleet_key;
  mcu::SecureToken verifier(vcfg);
  SsiServer::Config scfg;
  scfg.partition_capacity = 8;
  scfg.verifier = &verifier;
  SsiServer server(scfg);

  std::vector<std::unique_ptr<TokenClient>> clients;
  for (auto& pds_node : nodes) {
    auto [server_end, client_end] = InProcessTransport::CreatePair();
    TokenClient::Config ccfg;
    ccfg.pds_node = pds_node.get();
    ccfg.subject = {"stats-agency", "insee"};
    ccfg.table = "bills";
    ccfg.group_column = "city";
    ccfg.value_column = "amount";
    auto client =
        std::make_unique<TokenClient>(std::move(client_end), std::move(ccfg));
    client->Start();
    auto idx = server.AcceptSession(std::move(server_end));
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    clients.push_back(std::move(client));
  }
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  ASSERT_EQ(output->groups.size(), plain.size());
  for (const auto& [city, sum] : plain) {
    EXPECT_NEAR(output->groups[city], sum, 1e-9) << city;
  }
  EXPECT_FALSE(output->leakage.plaintext_groups_visible);
}

TEST(NetSecureAggTest, ConcurrentSessionsOverExecutor) {
  // Wire work fanned over a FleetExecutor while every client runs its own
  // thread: the TSan CI job races this test.
  TestFleet serial_fleet = MakeTestFleet(6);
  SsiServer::Config ref_cfg;
  ref_cfg.partition_capacity = 16;
  ref_cfg.verifier = serial_fleet.verifier.get();
  SsiServer ref_server(ref_cfg);
  auto ref_clients = ConnectClients(&ref_server, &serial_fleet);
  auto ref = ref_server.RunSecureAggregation(AggFunc::kAvg);
  JoinAll(&ref_server, &ref_clients);
  ASSERT_TRUE(ref.ok());

  TestFleet fleet = MakeTestFleet(6);
  global::FleetExecutor exec(4);
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = fleet.verifier.get();
  scfg.executor = &exec;
  SsiServer server(scfg);
  auto clients = ConnectClients(&server, &fleet);
  auto output = server.RunSecureAggregation(AggFunc::kAvg);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  // Executor fan-out must not change results or accounting.
  ASSERT_EQ(output->groups.size(), ref->groups.size());
  for (const auto& [group, value] : ref->groups) {
    EXPECT_EQ(output->groups[group], value) << group;
  }
  EXPECT_EQ(output->metrics.bytes, ref->metrics.bytes);
  EXPECT_EQ(output->metrics.token_crypto_ops,
            ref->metrics.token_crypto_ops);
}

// ---------------------------------------------------------------------------
// Quorum, timeout, retry

TEST(NetQuorumTest, DroppedTokenCompletesAtQuorum) {
  TestFleet fleet = MakeTestFleet(5);
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = fleet.verifier.get();
  scfg.deadline_ms = ScaledMs(150);
  scfg.max_retries = 1;
  scfg.backoff_ms = ScaledMs(5);
  scfg.quorum = 0.8;  // 4 of 5 suffice
  SsiServer server(scfg);
  // Token 0 swallows every request it will ever see.
  FaultPlan plan;
  plan.seed = 11;
  plan.swallow_first = 100;
  auto clients = ConnectClients(&server, &fleet, plan);
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString() << "\nfaults (seed "
                           << plan.seed << "):\n"
                           << clients[0]->injection_log().ToString();

  // The result covers exactly the four responders.
  std::vector<Participant> responders(fleet.participants.begin() + 1,
                                      fleet.participants.end());
  auto expected = global::PlainAggregate(responders, AggFunc::kSum);
  ASSERT_EQ(output->groups.size(), expected.size());
  for (const auto& [group, value] : expected) {
    EXPECT_NEAR(output->groups[group], value, 1e-9) << group;
  }
  // The shortfall is visible in Metrics and the round report.
  EXPECT_EQ(output->metrics.tokens_missing, 1u);
  EXPECT_EQ(server.last_report().responders, 4u);
  EXPECT_EQ(server.last_report().missing_tokens, 1u);
  EXPECT_GT(server.last_report().deadline_hits, 0u);
  EXPECT_GT(server.last_report().retries, 0u);
}

TEST(NetQuorumTest, FullQuorumFailsWhenTokenDrops) {
  TestFleet fleet = MakeTestFleet(4);
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = fleet.verifier.get();
  scfg.deadline_ms = ScaledMs(150);
  scfg.max_retries = 0;
  scfg.quorum = 1.0;
  SsiServer server(scfg);
  FaultPlan plan;
  plan.seed = 12;
  plan.swallow_first = 100;
  auto clients = ConnectClients(&server, &fleet, plan);
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  EXPECT_EQ(output.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(output.status().message().find("quorum"), std::string::npos);
}

TEST(NetQuorumTest, RetryRecoversFlakyToken) {
  TestFleet fleet = MakeTestFleet(4);
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = fleet.verifier.get();
  scfg.deadline_ms = ScaledMs(150);
  scfg.max_retries = 2;
  scfg.backoff_ms = ScaledMs(5);
  scfg.quorum = 1.0;
  SsiServer server(scfg);
  // Token 0 drops exactly one request; the retry of the same round lands.
  FaultPlan plan;
  plan.seed = 13;
  plan.swallow_first = 1;
  auto clients = ConnectClients(&server, &fleet, plan);
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString() << "\nfaults (seed "
                           << plan.seed << "):\n"
                           << clients[0]->injection_log().ToString();
  EXPECT_EQ(clients[0]->injection_log().Count(FaultKind::kSwallowRequest), 1u);

  auto expected = global::PlainAggregate(fleet.participants, AggFunc::kSum);
  for (const auto& [group, value] : expected) {
    EXPECT_NEAR(output->groups[group], value, 1e-9) << group;
  }
  EXPECT_EQ(output->metrics.tokens_missing, 0u);
  EXPECT_EQ(server.last_report().responders, 4u);
  EXPECT_GE(server.last_report().retries, 1u);
  EXPECT_GE(server.last_report().deadline_hits, 1u);
}

// ---------------------------------------------------------------------------
// Synchronous sessions: the token answers inside the SSI's Recv

/// Server side of a session whose token runs pumped (TokenClient::PumpOnce)
/// on the SSI's own thread: Recv first lets the token handle what the SSI
/// sent, then polls for its answer. A reply is thus already buffered when
/// the SSI waits for it, and a token that sends nothing times out at once
/// instead of after a real deadline.
class PumpedTransport : public Transport {
 public:
  PumpedTransport(std::unique_ptr<Transport> inner, TokenClient* client)
      : inner_(std::move(inner)), client_(client) {}

  Status Send(ByteView frame) override { return inner_->Send(frame); }
  Result<Bytes> Recv(uint32_t deadline_ms) override {
    (void)deadline_ms;
    // PumpOnce handles one frame; a handshake ack and the next round
    // request may be queued together.
    for (int i = 0; i < 3; ++i) {
      (void)client_->PumpOnce();
      auto got = inner_->Recv(0);
      if (got.ok() || got.status().code() != StatusCode::kDeadlineExceeded) {
        return got;
      }
    }
    return Status::DeadlineExceeded("token sent nothing");
  }
  void Close() override { inner_->Close(); }
  bool closed() const override { return inner_->closed(); }

 private:
  std::unique_ptr<Transport> inner_;
  TokenClient* client_;
};

/// Connects `fleet` through PumpedTransports. The first `silent` tokens
/// swallow every round request, so they straggle in the collect round.
std::vector<std::unique_ptr<TokenClient>> ConnectPumped(
    SsiServer* server, TestFleet* fleet, size_t silent,
    const crypto::PackedAggregate* packed = nullptr) {
  std::vector<std::unique_ptr<TokenClient>> clients;
  for (size_t i = 0; i < fleet->participants.size(); ++i) {
    auto [server_end, client_end] = InProcessTransport::CreatePair();
    TokenClient::Config cfg;
    cfg.token = fleet->tokens[i].get();
    cfg.tuples = fleet->participants[i].tuples;
    cfg.packed = packed;
    if (i < silent) {
      cfg.faults.swallow_first = 1000;
    }
    auto client =
        std::make_unique<TokenClient>(std::move(client_end), std::move(cfg));
    EXPECT_TRUE(client->StartPumped().ok());
    auto idx = server->AcceptSession(
        std::make_unique<PumpedTransport>(std::move(server_end), client.get()));
    EXPECT_TRUE(idx.ok()) << idx.status().ToString();
    clients.push_back(std::move(client));
  }
  return clients;
}

TEST(NetDeadlineTest, OneMillisecondDeadlineReadsBufferedReply) {
  // Every reply is buffered before the SSI waits for it, so even a 1 ms
  // deadline must see it: the wait rounds up instead of down to zero.
  TestFleet fleet = MakeTestFleet(4);
  PackedContext ctx = MakePackedContext(4);
  SsiServer::Config scfg;
  scfg.verifier = fleet.verifier.get();
  scfg.deadline_ms = 1;
  scfg.max_retries = 0;
  SsiServer server(scfg);
  auto clients = ConnectPumped(&server, &fleet, 0, ctx.agg.get());
  ASSERT_EQ(server.num_sessions(), 4u);
  auto output =
      server.RunPackedAggregation(AggFunc::kSum, *ctx.agg, ctx.domain);
  server.Shutdown();
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_EQ(server.last_report().responders, 4u);
  EXPECT_EQ(server.last_report().deadline_hits, 0u);
  EXPECT_EQ(output->groups,
            global::PlainAggregate(fleet.participants, AggFunc::kSum));
}

enum class QuorumRun {
  kSecure,
  kPacked,
  kWhiteNoise,
  kDomainNoise,
  kHistogram,
  kSealed,
};

struct QuorumCase {
  const char* name;
  QuorumRun run;
  size_t sessions;
  double quorum;
  size_t responders;
  bool proceeds;
};

void PrintTo(const QuorumCase& c, std::ostream* os) { *os << c.name; }

class NetQuorumBoundaryTest : public ::testing::TestWithParam<QuorumCase> {};

TEST_P(NetQuorumBoundaryTest, ProceedsAtQuorumRefusesOneBelow) {
  const QuorumCase& c = GetParam();
  const size_t silent = c.sessions - c.responders;
  TestFleet fleet = MakeTestFleet(c.sessions);
  PackedContext ctx;
  if (c.run == QuorumRun::kPacked) {
    ctx = MakePackedContext(c.sessions);
  }
  SsiServer::Config scfg;
  scfg.verifier = fleet.verifier.get();
  scfg.partition_capacity = 16;
  scfg.max_retries = 0;
  scfg.quorum = c.quorum;
  SsiServer server(scfg);
  auto clients = ConnectPumped(&server, &fleet, silent, ctx.agg.get());

  SsiServer::DetRunConfig det;
  for (int i = 0; i < 5; ++i) {
    det.domain.push_back("city-" + std::to_string(i));  // MakeTestFleet's
  }
  det.variant = c.run == QuorumRun::kDomainNoise ? DetVariant::kDomainNoise
                : c.run == QuorumRun::kHistogram ? DetVariant::kHistogram
                                                 : DetVariant::kWhiteNoise;
  Result<global::AggOutput> output = Status::Internal("not run");
  Status status = Status::Ok();
  switch (c.run) {
    case QuorumRun::kSecure:
      output = server.RunSecureAggregation(AggFunc::kSum);
      break;
    case QuorumRun::kPacked:
      output = server.RunPackedAggregation(AggFunc::kSum, *ctx.agg, ctx.domain);
      break;
    case QuorumRun::kSealed:
      status = server.RunSealedCollect().status();
      break;
    default:
      output = server.RunDetAggregation(AggFunc::kSum, det);
      break;
  }
  if (c.run != QuorumRun::kSealed) {
    status = output.status();
  }
  server.Shutdown();

  if (c.proceeds) {
    ASSERT_TRUE(status.ok()) << status.ToString();
  } else {
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(status.message().find("quorum"), std::string::npos)
        << status.ToString();
  }
  EXPECT_EQ(server.last_report().sessions, c.sessions);
  EXPECT_EQ(server.last_report().responders, c.responders);
  EXPECT_EQ(server.last_report().missing_tokens, silent);
  auto tele = server.Telemetry();
  ASSERT_EQ(tele.size(), c.sessions);
  for (size_t i = 0; i < c.sessions; ++i) {
    EXPECT_EQ(tele[i].stragglers, i < silent ? 1u : 0u) << "session " << i;
  }
  if (c.proceeds && c.run != QuorumRun::kSealed) {
    // The aggregate covers exactly the responders.
    std::vector<Participant> answered(fleet.participants.begin() + silent,
                                      fleet.participants.end());
    auto expected = global::PlainAggregate(answered, AggFunc::kSum);
    ASSERT_EQ(output->groups.size(), expected.size());
    for (const auto& [group, value] : expected) {
      EXPECT_NEAR(output->groups[group], value, 1e-9) << group;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryRun, NetQuorumBoundaryTest,
    ::testing::Values(
        QuorumCase{"secure_at", QuorumRun::kSecure, 5, 0.6, 3, true},
        QuorumCase{"secure_below", QuorumRun::kSecure, 5, 0.6, 2, false},
        QuorumCase{"packed_at", QuorumRun::kPacked, 5, 0.6, 3, true},
        QuorumCase{"packed_below", QuorumRun::kPacked, 5, 0.6, 2, false},
        QuorumCase{"white_noise_at", QuorumRun::kWhiteNoise, 5, 0.6, 3, true},
        QuorumCase{"white_noise_below", QuorumRun::kWhiteNoise, 5, 0.6, 2,
                   false},
        QuorumCase{"domain_noise_at", QuorumRun::kDomainNoise, 5, 0.6, 3,
                   true},
        QuorumCase{"domain_noise_below", QuorumRun::kDomainNoise, 5, 0.6, 2,
                   false},
        QuorumCase{"histogram_at", QuorumRun::kHistogram, 5, 0.6, 3, true},
        QuorumCase{"histogram_below", QuorumRun::kHistogram, 5, 0.6, 2,
                   false},
        QuorumCase{"sealed_at", QuorumRun::kSealed, 5, 0.6, 3, true},
        QuorumCase{"sealed_below", QuorumRun::kSealed, 5, 0.6, 2, false},
        // Quorums whose product with the fleet size is an integer only in
        // decimal: 0.56 * 25 evaluates to 14.000000000000002 and
        // 0.55 * 100 to 55.00000000000001, yet 14 and 55 meet them.
        QuorumCase{"decimal_14_of_25", QuorumRun::kSecure, 25, 0.56, 14,
                   true},
        QuorumCase{"decimal_13_of_25", QuorumRun::kSecure, 25, 0.56, 13,
                   false},
        QuorumCase{"decimal_55_of_100", QuorumRun::kSecure, 100, 0.55, 55,
                   true},
        QuorumCase{"decimal_54_of_100", QuorumRun::kSecure, 100, 0.55, 54,
                   false}),
    [](const ::testing::TestParamInfo<QuorumCase>& info) {
      return std::string(info.param.name);
    });

/// Every framed counter and RoundReport field of one wire run.
struct WireRow {
  const char* run;
  uint64_t messages, bytes, bytes_token_to_ssi, bytes_ssi_to_token, rounds,
      token_crypto_ops, ssi_ops, tokens_missing;
  size_t sessions, responders;
  uint64_t deadline_hits, retries, missing_tokens, frame_rejects;
};

void ExpectWireRow(const WireRow& want, const global::Metrics& m,
                   const SsiServer::RoundReport& r) {
  SCOPED_TRACE(std::string(want.run) + " got {" + std::to_string(m.messages) +
               ", " + std::to_string(m.bytes) + ", " +
               std::to_string(m.bytes_token_to_ssi) + ", " +
               std::to_string(m.bytes_ssi_to_token) + ", " +
               std::to_string(m.rounds) + ", " +
               std::to_string(m.token_crypto_ops) + ", " +
               std::to_string(m.ssi_ops) + ", " +
               std::to_string(m.tokens_missing) + ", " +
               std::to_string(r.sessions) + ", " +
               std::to_string(r.responders) + ", " +
               std::to_string(r.deadline_hits) + ", " +
               std::to_string(r.retries) + ", " +
               std::to_string(r.missing_tokens) + ", " +
               std::to_string(r.frame_rejects) + "}");
  EXPECT_EQ(m.messages, want.messages);
  EXPECT_EQ(m.bytes, want.bytes);
  EXPECT_EQ(m.bytes_token_to_ssi, want.bytes_token_to_ssi);
  EXPECT_EQ(m.bytes_ssi_to_token, want.bytes_ssi_to_token);
  EXPECT_EQ(m.rounds, want.rounds);
  EXPECT_EQ(m.token_crypto_ops, want.token_crypto_ops);
  EXPECT_EQ(m.ssi_ops, want.ssi_ops);
  EXPECT_EQ(m.tokens_missing, want.tokens_missing);
  EXPECT_EQ(r.sessions, want.sessions);
  EXPECT_EQ(r.responders, want.responders);
  EXPECT_EQ(r.deadline_hits, want.deadline_hits);
  EXPECT_EQ(r.retries, want.retries);
  EXPECT_EQ(r.missing_tokens, want.missing_tokens);
  EXPECT_EQ(r.frame_rejects, want.frame_rejects);
}

TEST(NetFramedCountersTest, EveryRunPinsItsFramesAndReport) {
  // Five aggregation runs and the sealed collect, back to back on one
  // server over 8 pumped in-process sessions. Partition capacity 16 makes
  // the secure run stream several partition rounds.
  TestFleet fleet = MakeTestFleet(8);
  PackedContext ctx = MakePackedContext(8);
  SsiServer::Config scfg;
  scfg.verifier = fleet.verifier.get();
  scfg.partition_capacity = 16;
  SsiServer server(scfg);
  auto clients = ConnectPumped(&server, &fleet, 0, ctx.agg.get());
  ASSERT_EQ(server.num_sessions(), 8u);

  const WireRow rows[] = {
      {"secure", 32, 13310, 6768, 6542, 4, 212, 7, 0, 8, 8, 0, 0, 0, 0},
      {"white-noise", 48, 13278, 7531, 5747, 2, 265, 83, 0, 8, 8, 0, 0, 0, 0},
      {"domain-noise", 26, 16222, 9290, 6932, 2, 341, 112, 0, 8, 8, 0, 0, 0, 0},
      {"histogram", 22, 9896, 5218, 4678, 2, 144, 72, 0, 8, 8, 0, 0, 0, 0},
      {"packed", 16, 1280, 736, 544, 1, 9, 7, 0, 8, 8, 0, 0, 0, 0},
      {"sealed", 16, 8744, 8600, 144, 1, 152, 72, 0, 8, 8, 0, 0, 0, 0},
  };
  SsiServer::DetRunConfig det;
  for (int i = 0; i < 5; ++i) {
    det.domain.push_back("city-" + std::to_string(i));
  }
  det.num_buckets = 3;
  const auto expected =
      global::PlainAggregate(fleet.participants, AggFunc::kSum);
  for (size_t i = 0; i < 6; ++i) {
    Result<global::AggOutput> out = Status::Internal("not run");
    switch (i) {
      case 0:
        out = server.RunSecureAggregation(AggFunc::kSum);
        break;
      case 1:
      case 2:
      case 3:
        det.variant = static_cast<DetVariant>(i);
        out = server.RunDetAggregation(AggFunc::kSum, det);
        break;
      case 4:
        out = server.RunPackedAggregation(AggFunc::kSum, *ctx.agg,
                                          ctx.domain);
        break;
      default: {
        auto sealed = server.RunSealedCollect();
        ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
        ExpectWireRow(rows[i], sealed->metrics, server.last_report());
        continue;
      }
    }
    ASSERT_TRUE(out.ok()) << rows[i].run << ": " << out.status().ToString();
    ExpectWireRow(rows[i], out->metrics, server.last_report());
    ASSERT_EQ(out->groups.size(), expected.size()) << rows[i].run;
    for (const auto& [group, value] : expected) {
      EXPECT_NEAR(out->groups.at(group), value, 1e-9) << rows[i].run;
    }
  }
  server.Shutdown();
}

TEST(NetSecureAggTest, ZeroPartitionCapacityFailsCleanly) {
  TestFleet fleet = MakeTestFleet(3);
  SsiServer::Config scfg;
  scfg.verifier = fleet.verifier.get();
  scfg.partition_capacity = 0;
  SsiServer server(scfg);
  auto clients = ConnectPumped(&server, &fleet, 0);
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  server.Shutdown();
  EXPECT_EQ(output.status().code(), StatusCode::kInvalidArgument);
}

/// Plays the SSI by hand against one pumped token: handshake, then one
/// kDetCollect request carrying `params` and `domain`. Returns the reply.
Result<Message> DetCollectByHand(const DetParams& params,
                                 const std::vector<std::string>& domain) {
  TestFleet fleet = MakeTestFleet(1);
  auto [ssi_end, client_end] = InProcessTransport::CreatePair();
  TokenClient::Config cfg;
  cfg.token = fleet.tokens[0].get();
  cfg.tuples = fleet.participants[0].tuples;
  TokenClient client(std::move(client_end), std::move(cfg));
  PDS_RETURN_IF_ERROR(client.StartPumped());
  auto exchange = [&](const Bytes& frame) -> Result<Bytes> {
    PDS_RETURN_IF_ERROR(ssi_end->Send(frame));
    PDS_RETURN_IF_ERROR(client.PumpOnce().status());
    return ssi_end->Recv(0);
  };
  ChallengeMsg challenge;
  challenge.nonce = Bytes(16, 7);
  PDS_ASSIGN_OR_RETURN(Bytes hello_frame, exchange(EncodeChallenge(challenge)));
  PDS_RETURN_IF_ERROR(DecodeAs<HelloMsg>(hello_frame).status());
  PDS_RETURN_IF_ERROR(ssi_end->Send(EncodeHelloAck(HelloAckMsg{true})));
  PDS_RETURN_IF_ERROR(client.PumpOnce().status());
  RoundRequestMsg req;
  req.header = {1, RoundKind::kDetCollect, AggFunc::kSum};
  req.batch.push_back(EncodeDetParams(params));
  for (const std::string& g : domain) {
    req.batch.push_back(ByteView(std::string_view(g)).ToBytes());
  }
  PDS_ASSIGN_OR_RETURN(Bytes reply, exchange(EncodeRoundRequest(req)));
  return DecodeMessage(reply);
}

TEST(NetDetParamsTest, TokenRefusesNoiseBeyondOneReplyBatch) {
  std::vector<std::string> domain;
  for (int i = 0; i < 5; ++i) {
    domain.push_back("city-" + std::to_string(i));
  }
  DetParams params;
  params.variant = DetVariant::kDomainNoise;
  params.fakes_per_value = 3;
  auto fine = DetCollectByHand(params, domain);
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  EXPECT_TRUE(std::holds_alternative<TupleBatchMsg>(fine->body));

  // 5 domain values x 2^31 fakes, and a 1e12 white-noise ratio, would
  // each have the token allocate without bound: it answers with the
  // request-fault error instead.
  params.fakes_per_value = 1u << 31;
  DetParams white;
  white.variant = DetVariant::kWhiteNoise;
  white.noise_ratio = 1e12;
  for (const DetParams& p : {params, white}) {
    auto got = DetCollectByHand(p, domain);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const ErrorMsg* err = std::get_if<ErrorMsg>(&got->body);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, 3u);
  }
}

// ---------------------------------------------------------------------------
// Handshake

TEST(NetHandshakeTest, AcceptsFleetMember) {
  TestFleet fleet = MakeTestFleet(1);
  SsiServer::Config scfg;
  scfg.verifier = fleet.verifier.get();
  SsiServer server(scfg);
  auto clients = ConnectClients(&server, &fleet);
  EXPECT_EQ(server.num_sessions(), 1u);
  JoinAll(&server, &clients);
}

TEST(NetHandshakeTest, RejectsTokenOutsideFleet) {
  // Client token provisioned with a different application-domain key: its
  // attestation proof fails and the session is refused on both sides.
  TestFleet fleet = MakeTestFleet(1);
  mcu::SecureToken::Config foreign_cfg;
  foreign_cfg.token_id = 666;
  foreign_cfg.fleet_key = crypto::KeyFromString("some-other-fleet");
  mcu::SecureToken foreign(foreign_cfg);

  auto [server_end, client_end] = InProcessTransport::CreatePair();
  TokenClient::Config ccfg;
  ccfg.token = &foreign;
  TokenClient client(std::move(client_end), std::move(ccfg));
  client.Start();

  SsiServer::Config scfg;
  scfg.verifier = fleet.verifier.get();
  SsiServer server(scfg);
  auto idx = server.AcceptSession(std::move(server_end));
  EXPECT_EQ(idx.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(server.num_sessions(), 0u);
  client.Stop();
  EXPECT_EQ(client.Join().code(), StatusCode::kPermissionDenied);
}

// ---------------------------------------------------------------------------
// Distributed tracing and the live stats surface

#if PDS_OBS_ENABLED
TEST(NetTracingTest, TokenRoundSpansParentUnderSsiRoundTrips) {
  // The acceptance walk for the merged cross-process trace: after a
  // loopback run with tracing on, every token-side round handler span must
  // be a child of one of the SSI's round-trip spans — one timeline per
  // round, stitched across the process boundary by the wire trace context.
  // The trace block and the checksum trailer compose, so a checksummed wire
  // must stitch the same timeline.
  for (bool checksum : {false, true}) {
    SCOPED_TRACE(checksum ? "checksummed wire" : "plain wire");
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.SetEnabled(false);
    tracer.SetSampleEveryN(1);
    tracer.SetCapacity(1 << 14);
    tracer.SetEnabled(true);

    TestFleet fleet = MakeTestFleet(6);
    SsiServer::Config scfg;
    scfg.partition_capacity = 16;  // forces aggregate + finalize rounds
    scfg.verifier = fleet.verifier.get();
    scfg.checksum_frames = checksum;
    SsiServer server(scfg);
    auto clients = ConnectClients(&server, &fleet);
    auto output = server.RunSecureAggregation(AggFunc::kSum);
    JoinAll(&server, &clients);
    tracer.SetEnabled(false);
    ASSERT_TRUE(output.ok()) << output.status().ToString();
    ASSERT_EQ(tracer.dropped(), 0u);

    std::set<uint64_t> round_trip_ids;
    for (const obs::SpanEvent& e : tracer.Events()) {
      if (std::string_view(e.name) == "net.round-trip") {
        round_trip_ids.insert(e.id);
      }
    }
    EXPECT_FALSE(round_trip_ids.empty());
    size_t token_spans = 0;
    std::set<std::string> token_span_names;
    for (const obs::SpanEvent& e : tracer.Events()) {
      std::string_view name(e.name);
      if (name == "net.round.collect" || name == "net.round.aggregate" ||
          name == "net.round.finalize") {
        ++token_spans;
        token_span_names.insert(std::string(name));
        EXPECT_NE(e.parent, 0u) << name;
        EXPECT_TRUE(round_trip_ids.count(e.parent))
            << name << " parent " << e.parent
            << " is not an SSI round-trip span";
      }
    }
    // Every phase of the protocol crossed the boundary: one collect per
    // token, aggregate rounds (partition_capacity forces them at this fleet
    // size), and the finalize.
    EXPECT_GE(token_spans, fleet.tokens.size());
    EXPECT_TRUE(token_span_names.count("net.round.collect"));
    EXPECT_TRUE(token_span_names.count("net.round.aggregate"));
    EXPECT_TRUE(token_span_names.count("net.round.finalize"));

    // And the merged view survives export: both sides' spans land in the one
    // Chrome trace document.
    std::ostringstream trace_out;
    tracer.ExportChromeTrace(trace_out);
    std::string trace = trace_out.str();
    EXPECT_NE(trace.find("net.round-trip"), std::string::npos);
    EXPECT_NE(trace.find("net.round.collect"), std::string::npos);
  }
}
#endif  // PDS_OBS_ENABLED

TEST(NetStatsTest, TelemetryCountsRoundTripsPerSession) {
  TestFleet fleet = MakeTestFleet(4);
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = fleet.verifier.get();
  SsiServer server(scfg);
  auto clients = ConnectClients(&server, &fleet);
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  JoinAll(&server, &clients);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  std::vector<SsiServer::SessionTelemetry> telemetry = server.Telemetry();
  ASSERT_EQ(telemetry.size(), 4u);
  for (const auto& t : telemetry) {
    EXPECT_GT(t.round_trips, 0u) << "token " << t.token_id;
    EXPECT_GT(t.rtt_p50_us, 0.0) << "token " << t.token_id;
    EXPECT_LE(t.rtt_p50_us, t.rtt_p99_us) << "token " << t.token_id;
    EXPECT_LE(t.rtt_p99_us, t.rtt_p999_us) << "token " << t.token_id;
    EXPECT_DOUBLE_EQ(t.buffer_bytes, 0.0);  // nothing in flight at rest
    EXPECT_GT(t.buffer_high_water, 0.0);
  }
  EXPECT_GT(server.rtt_histogram().count(), 0u);
}

TEST(NetStatsTest, StatsRequestReturnsLiveJsonSnapshot) {
  TestFleet fleet = MakeTestFleet(3);
  SsiServer::Config scfg;
  scfg.partition_capacity = 16;
  scfg.verifier = fleet.verifier.get();
  SsiServer server(scfg);
  auto clients = ConnectClients(&server, &fleet);
  auto output = server.RunSecureAggregation(AggFunc::kSum);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  // The stats channel is its own connection — no handshake, one
  // request/reply exchange.
  auto [admin_end, stats_end] = InProcessTransport::CreatePair();
  std::thread serving([&server, transport = stats_end.get()] {
    EXPECT_TRUE(server.ServeStats(transport).ok());
  });
  ASSERT_TRUE(admin_end->Send(EncodeStatsRequest()).ok());
  auto reply_frame = admin_end->Recv(2000);
  ASSERT_TRUE(reply_frame.ok()) << reply_frame.status().ToString();
  auto reply = DecodeAs<StatsReplyMsg>(*reply_frame);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  serving.join();

  // The snapshot carries all four surfaces: per-session telemetry, fleet
  // percentiles, the metrics registry, and the delta-snapshot ring.
  EXPECT_NE(reply->json.find("\"sessions\""), std::string::npos);
  EXPECT_NE(reply->json.find("\"fleet\""), std::string::npos);
  EXPECT_NE(reply->json.find("\"registry\""), std::string::npos);
  EXPECT_NE(reply->json.find("\"ring\""), std::string::npos);
  EXPECT_NE(reply->json.find("\"rtt_p50_us\""), std::string::npos);
  EXPECT_NE(reply->json.find("\"net.round_trip_us\""), std::string::npos);

  JoinAll(&server, &clients);
}

TEST(NetStatsTest, StatsChannelRejectsNonStatsFrames) {
  TestFleet fleet = MakeTestFleet(1);
  SsiServer::Config scfg;
  scfg.verifier = fleet.verifier.get();
  SsiServer server(scfg);

  auto [admin_end, stats_end] = InProcessTransport::CreatePair();
  ASSERT_TRUE(admin_end->Send(EncodeBye()).ok());
  EXPECT_EQ(server.ServeStats(stats_end.get()).code(),
            StatusCode::kFailedPrecondition);
  // The peer gets a protocol error frame rather than silence.
  auto reply = admin_end->Recv(2000);
  ASSERT_TRUE(reply.ok());
  auto decoded = DecodeMessage(*reply);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::holds_alternative<ErrorMsg>(decoded->body));
}

}  // namespace
}  // namespace pds::net
