// Regression tests pinning the experiment *shapes* that EXPERIMENTS.md
// reports — if a change to the structures breaks a paper-level claim, these
// fail even though all functional tests still pass.

#include <gtest/gtest.h>

#include <memory>

#include <chrono>

#include "common/rng.h"
#include "crypto/paillier.h"
#include "embdb/database.h"
#include "flash/flash.h"
#include "global/agg_protocols.h"
#include "mcu/ram_gauge.h"
#include "mcu/secure_token.h"

namespace pds {
namespace {

using embdb::ColumnType;
using embdb::Database;
using embdb::KeyLogIndex;
using embdb::Predicate;
using embdb::Schema;
using embdb::Tuple;
using embdb::Value;

flash::Geometry PaperGeometry() {
  flash::Geometry g;
  g.page_size = 2048;
  g.pages_per_block = 64;
  g.block_count = 2048;
  return g;
}

// E1's headline: on a table of several hundred data pages, an indexed
// selective lookup costs an order of magnitude fewer IOs than the scan
// (tutorial: 17 vs 640).
TEST(ExperimentShapeTest, E1_SummaryScanBeatsTableScanByAnOrderOfMagnitude) {
  flash::FlashChip chip(PaperGeometry());
  mcu::RamGauge gauge(256 * 1024);
  Database db(&chip, &gauge);

  Schema customer("customer", {{"id", ColumnType::kUint64, ""},
                               {"name", ColumnType::kString, ""},
                               {"city", ColumnType::kString, ""}});
  Database::TableOptions topts;
  topts.data_blocks = 512;
  topts.directory_blocks = 32;
  ASSERT_TRUE(db.CreateTable(customer, topts).ok());
  Database::IndexOptions iopts;
  iopts.keys_blocks = 64;
  iopts.bloom_blocks = 16;
  ASSERT_TRUE(db.CreateKeyIndex("customer", "city", iopts).ok());

  // ~640 data pages worth of rows, selective predicate (1/1000 cities).
  Rng rng(1);
  const uint64_t rows = 25000;
  for (uint64_t i = 0; i < rows; ++i) {
    Tuple t = {Value::U64(i),
               Value::Str("customer-name-padding-padding-" +
                          std::to_string(i)),
               Value::Str("city-" + std::to_string(rng.Uniform(1000)))};
    ASSERT_TRUE(db.Insert("customer", t).ok());
  }
  uint32_t table_pages = db.table("customer")->num_data_pages();
  ASSERT_GT(table_pages, 400u);

  // Scan cost.
  chip.ResetStats();
  Predicate p{2, Predicate::Op::kEq, Value::Str("city-7")};
  uint64_t scan_matches = 0;
  ASSERT_TRUE(db.SelectScan("customer", {p},
                            [&](uint64_t, const Tuple&) {
                              ++scan_matches;
                              return Status::Ok();
                            })
                  .ok());
  uint64_t scan_reads = chip.stats().page_reads;

  // Index lookup cost (rowids only, as in the slide).
  KeyLogIndex* index = db.key_index("customer", "city");
  std::vector<uint64_t> rowids;
  KeyLogIndex::LookupStats stats;
  chip.ResetStats();
  ASSERT_TRUE(index->Lookup(Value::Str("city-7"), &rowids, &stats).ok());
  uint64_t index_reads = chip.stats().page_reads;

  EXPECT_EQ(rowids.size(), scan_matches);
  // Order-of-magnitude gap, as in "17 vs 640".
  EXPECT_GE(scan_reads, index_reads * 10);
  // And the slide's cost formula: |Log2| + hit pages (+ false positives).
  EXPECT_EQ(index_reads,
            stats.summary_pages + stats.key_pages);
}

// E4's headline: the reorganized tree answers in O(height) IOs while the
// key log costs a full summary scan, and the gap widens with size.
TEST(ExperimentShapeTest, E4_TreeLookupFlatKeyLogLinear) {
  flash::FlashChip chip(PaperGeometry());
  mcu::RamGauge gauge(64 * 1024);
  flash::PartitionAllocator alloc(&chip);

  auto measure = [&](uint64_t entries, double* keylog_reads,
                     double* tree_reads) {
    auto keys = alloc.Allocate(256);
    auto bloom = alloc.Allocate(64);
    ASSERT_TRUE(keys.ok());
    ASSERT_TRUE(bloom.ok());
    embdb::KeyLogIndex source(*keys, *bloom, &gauge, {});
    ASSERT_TRUE(source.Init().ok());
    Rng rng(3);
    for (uint64_t i = 0; i < entries; ++i) {
      ASSERT_TRUE(source.Insert(Value::U64(rng.Next()), i).ok());
    }
    auto tree = embdb::Reorganizer::Reorganize(&source, &alloc, &gauge, {});
    ASSERT_TRUE(tree.ok());

    std::vector<uint64_t> rowids;
    embdb::KeyLogIndex::LookupStats kstats;
    embdb::TreeIndex::LookupStats tstats;
    uint64_t kl = 0, tr = 0;
    Rng probe(5);
    const int kProbes = 50;
    for (int i = 0; i < kProbes; ++i) {
      uint64_t key = probe.Next();
      chip.ResetStats();
      ASSERT_TRUE(source.Lookup(Value::U64(key), &rowids, &kstats).ok());
      kl += chip.stats().page_reads;
      chip.ResetStats();
      ASSERT_TRUE(tree->Lookup(Value::U64(key), &rowids, &tstats).ok());
      tr += chip.stats().page_reads;
    }
    *keylog_reads = static_cast<double>(kl) / kProbes;
    *tree_reads = static_cast<double>(tr) / kProbes;
  };

  double kl_small, tr_small, kl_big, tr_big;
  measure(10000, &kl_small, &tr_small);
  measure(80000, &kl_big, &tr_big);

  // Key log degrades roughly linearly; the tree stays flat and small.
  EXPECT_GT(kl_big, kl_small * 4);
  EXPECT_LE(tr_big, tr_small + 1.5);
  EXPECT_LE(tr_big, 5.0);
}

// E6's headline: the crypto ladder spans orders of magnitude per rung.
TEST(ExperimentShapeTest, E6_CryptoLadderOrdersOfMagnitude) {
  // The tutorial's "generic crypto is (incredibly) expensive" rung is the
  // naive schoolbook path (EncryptScalar): one 256-bit modexp over a
  // 512-bit modulus versus ~1e3 AES table lookups — verify via timing
  // ratios with generous slack. The kernel-accelerated Encrypt (fixed-base
  // Montgomery cache) deliberately shrinks that gap; assert it stays
  // strictly cheaper than the scalar rung it replaces.
  mcu::SecureToken::Config cfg;
  cfg.fleet_key = crypto::KeyFromString("ladder");
  mcu::SecureToken token(cfg);
  Rng rng(7);
  auto paillier = crypto::Paillier::Generate(256, &rng);
  ASSERT_TRUE(paillier.ok());

  Bytes payload(64, 0x5A);
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(token.EncryptNonDet(ByteView(payload)).ok());
  }
  auto t1 = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(paillier->EncryptScalar(crypto::BigInt(12345), &rng).ok());
  }
  auto t2 = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(paillier->EncryptU64(12345, &rng).ok());
  }
  auto t3 = std::chrono::steady_clock::now();

  double aes_us =
      std::chrono::duration<double, std::micro>(t1 - t0).count() / 200;
  double scalar_us =
      std::chrono::duration<double, std::micro>(t2 - t1).count() / 20;
  double cached_us =
      std::chrono::duration<double, std::micro>(t3 - t2).count() / 20;
  // The paper's point only needs a large, robust gap.
  EXPECT_GT(scalar_us, aes_us * 20)
      << "aes=" << aes_us << "us paillier-scalar=" << scalar_us << "us";
  EXPECT_LT(cached_us, scalar_us)
      << "fixed-base cache should beat the scalar path: cached=" << cached_us
      << "us scalar=" << scalar_us << "us";
}

// E8's counter rows: all five in-process [TNP14] protocols on the fleet
// bench_agg_protocols runs at BM_*/10 (100 tokens x 10 tuples over 10
// groups, fleet key "agg-bench", data Rng(31)). Every counter the E8 table
// is read from is pinned exactly, so a refactor of the rounds that changes
// one message, byte, round or op fails here.
struct E8Row {
  const char* protocol;
  uint64_t messages, bytes, bytes_token_to_ssi, bytes_ssi_to_token, rounds,
      token_crypto_ops, ssi_ops, tuples_observed, distinct_classes;
};

struct E8Fleet {
  std::vector<std::unique_ptr<mcu::SecureToken>> tokens;
  std::vector<global::Participant> participants;
};

E8Fleet BuildE8Fleet() {
  E8Fleet fleet;
  crypto::SymmetricKey key = crypto::KeyFromString("agg-bench");
  Rng rng(31);
  for (size_t i = 0; i < 100; ++i) {
    mcu::SecureToken::Config cfg;
    cfg.token_id = i;
    cfg.fleet_key = key;
    fleet.tokens.push_back(std::make_unique<mcu::SecureToken>(cfg));
    global::Participant p;
    p.token = fleet.tokens.back().get();
    for (size_t t = 0; t < 10; ++t) {
      // Integer values, so the packed-Paillier row runs on the same data.
      p.tuples.push_back({"g" + std::to_string(rng.Uniform(10)),
                          static_cast<double>(rng.Uniform(100))});
    }
    fleet.participants.push_back(std::move(p));
  }
  return fleet;
}

TEST(ExperimentShapeTest, E8_ProtocolFamilyCountersExact) {
  std::vector<std::string> domain;
  for (int g = 0; g < 10; ++g) {
    domain.push_back("g" + std::to_string(g));
  }
  global::DomainNoiseProtocol::Config dn;
  dn.domain = domain;
  dn.fakes_per_value = 1;
  global::PackedPaillierProtocol::Config pp;
  pp.domain = domain;
  pp.max_slot_value = 1000;  // 10 tuples of at most 99 per token

  global::SecureAggProtocol secure({/*partition_capacity=*/256});
  global::WhiteNoiseProtocol white({/*noise_ratio=*/0.2, /*noise_seed=*/5});
  global::DomainNoiseProtocol domain_noise(dn);
  global::HistogramProtocol histogram({/*num_buckets=*/4});
  global::PackedPaillierProtocol packed(pp);

  const E8Row rows[] = {
      {"secure-agg", 2080, 106080, 53040, 53040, 3, 2080, 4, 1040, 1040},
      {"white-noise", 2200, 134668, 85668, 49000, 2, 3810, 1200, 1200, 210},
      {"domain-noise", 4000, 232000, 134000, 98000, 2, 6010, 2000, 2000, 10},
      {"histogram", 2000, 106000, 55000, 51000, 2, 2000, 1000, 1000, 4},
      {"packed-paillier", 101, 12926, 12798, 128, 1, 101, 99, 100, 100},
  };
  global::AggregationProtocol* protocols[] = {&secure, &white, &domain_noise,
                                              &histogram, &packed};
  for (size_t i = 0; i < 5; ++i) {
    E8Fleet fleet = BuildE8Fleet();
    auto out = protocols[i]->Execute(fleet.participants, global::AggFunc::kSum);
    ASSERT_TRUE(out.ok()) << rows[i].protocol << ": "
                          << out.status().ToString();
    const global::Metrics& m = out->metrics;
    const E8Row got{rows[i].protocol,
                    m.messages,
                    m.bytes,
                    m.bytes_token_to_ssi,
                    m.bytes_ssi_to_token,
                    m.rounds,
                    m.token_crypto_ops,
                    m.ssi_ops,
                    out->leakage.tuples_observed,
                    out->leakage.distinct_classes};
    SCOPED_TRACE(std::string(rows[i].protocol) + " got {" +
                 std::to_string(got.messages) + ", " +
                 std::to_string(got.bytes) + ", " +
                 std::to_string(got.bytes_token_to_ssi) + ", " +
                 std::to_string(got.bytes_ssi_to_token) + ", " +
                 std::to_string(got.rounds) + ", " +
                 std::to_string(got.token_crypto_ops) + ", " +
                 std::to_string(got.ssi_ops) + ", " +
                 std::to_string(got.tuples_observed) + ", " +
                 std::to_string(got.distinct_classes) + "}");
    EXPECT_EQ(got.messages, rows[i].messages);
    EXPECT_EQ(got.bytes, rows[i].bytes);
    EXPECT_EQ(got.bytes_token_to_ssi, rows[i].bytes_token_to_ssi);
    EXPECT_EQ(got.bytes_ssi_to_token, rows[i].bytes_ssi_to_token);
    EXPECT_EQ(got.rounds, rows[i].rounds);
    EXPECT_EQ(got.token_crypto_ops, rows[i].token_crypto_ops);
    EXPECT_EQ(got.ssi_ops, rows[i].ssi_ops);
    EXPECT_EQ(got.tuples_observed, rows[i].tuples_observed);
    EXPECT_EQ(got.distinct_classes, rows[i].distinct_classes);
    EXPECT_EQ(m.tokens_missing, 0u);
  }
}

}  // namespace
}  // namespace pds
