// Property tests for the [TNP14] aggregation protocol family: for every
// fleet shape (tokens x tuples x groups) and every protocol, the result
// must equal the plaintext aggregate for SUM, COUNT and AVG — and each
// protocol's leakage invariant must hold. Packed Paillier sums counters, so
// its fleets carry integer values; every other protocol gets quarters.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "global/agg_protocols.h"

namespace pds::global {
namespace {

enum class ProtocolKind {
  kSecureAgg,
  kWhiteNoise,
  kDomainNoise,
  kHistogram,
  kPackedPaillier,
};

// (num_tokens, tuples_per_token, num_groups, protocol)
using ProtoParam = std::tuple<int, int, int, ProtocolKind>;

class ProtocolProperty : public ::testing::TestWithParam<ProtoParam> {
 protected:
  void BuildFleet(int num_tokens, int tuples, int groups, ProtocolKind kind) {
    crypto::SymmetricKey key = crypto::KeyFromString("prop-fleet");
    Rng rng(num_tokens * 1000 + tuples * 10 + groups);
    for (int i = 0; i < num_tokens; ++i) {
      mcu::SecureToken::Config cfg;
      cfg.token_id = static_cast<uint64_t>(i);
      cfg.fleet_key = key;
      tokens_.push_back(std::make_unique<mcu::SecureToken>(cfg));
      Participant p;
      p.token = tokens_.back().get();
      for (int t = 0; t < tuples; ++t) {
        std::string group = "g" + std::to_string(rng.Uniform(groups));
        const uint64_t v = rng.Uniform(1000);
        p.tuples.push_back({std::move(group),
                            kind == ProtocolKind::kPackedPaillier
                                ? static_cast<double>(v)
                                : static_cast<double>(v) / 4.0});
      }
      participants_.push_back(std::move(p));
    }
  }

  std::unique_ptr<AggregationProtocol> MakeProtocol(ProtocolKind kind,
                                                    int groups) {
    std::vector<std::string> domain;
    for (int g = 0; g < groups; ++g) {
      domain.push_back("g" + std::to_string(g));
    }
    switch (kind) {
      case ProtocolKind::kSecureAgg:
        return std::make_unique<SecureAggProtocol>(
            SecureAggProtocol::Config{/*partition_capacity=*/
                                      static_cast<size_t>(groups * 4 + 16)});
      case ProtocolKind::kWhiteNoise:
        return std::make_unique<WhiteNoiseProtocol>(
            WhiteNoiseProtocol::Config{0.5, 11});
      case ProtocolKind::kDomainNoise: {
        DomainNoiseProtocol::Config cfg;
        cfg.domain = std::move(domain);
        cfg.fakes_per_value = 2;
        return std::make_unique<DomainNoiseProtocol>(std::move(cfg));
      }
      case ProtocolKind::kHistogram:
        return std::make_unique<HistogramProtocol>(
            HistogramProtocol::Config{5});
      case ProtocolKind::kPackedPaillier: {
        PackedPaillierProtocol::Config cfg;
        cfg.domain = std::move(domain);
        cfg.max_slot_value = 8 * 999;  // 8 tuples of at most 999 per token
        return std::make_unique<PackedPaillierProtocol>(std::move(cfg));
      }
    }
    return nullptr;
  }

  std::vector<std::unique_ptr<mcu::SecureToken>> tokens_;
  std::vector<Participant> participants_;
};

TEST_P(ProtocolProperty, MatchesPlaintextForAllAggregates) {
  auto [num_tokens, tuples, groups, kind] = GetParam();
  BuildFleet(num_tokens, tuples, groups, kind);
  auto protocol = MakeProtocol(kind, groups);

  for (AggFunc func : {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg}) {
    auto expected = PlainAggregate(participants_, func);
    auto output = protocol->Execute(participants_, func);
    ASSERT_TRUE(output.ok()) << output.status().ToString();
    ASSERT_EQ(output->groups.size(), expected.size());
    for (auto& [group, value] : expected) {
      ASSERT_TRUE(output->groups.count(group)) << group;
      EXPECT_NEAR(output->groups[group], value, 1e-6) << group;
    }
  }
}

TEST_P(ProtocolProperty, LeakageInvariants) {
  auto [num_tokens, tuples, groups, kind] = GetParam();
  BuildFleet(num_tokens, tuples, groups, kind);
  auto protocol = MakeProtocol(kind, groups);
  auto output = protocol->Execute(participants_, AggFunc::kSum);
  ASSERT_TRUE(output.ok());
  const LeakageReport& leak = output->leakage;

  // Universal: the SSI never sees plaintext group values.
  EXPECT_FALSE(leak.plaintext_groups_visible);

  uint64_t real_tuples = 0;
  std::set<std::string> real_groups;
  for (auto& p : participants_) {
    real_tuples += p.tuples.size();
    for (auto& t : p.tuples) {
      real_groups.insert(t.group);
    }
  }

  switch (kind) {
    case ProtocolKind::kSecureAgg:
      // Non-deterministic encryption: every observed tuple is distinct.
      EXPECT_EQ(leak.distinct_classes, leak.tuples_observed);
      break;
    case ProtocolKind::kWhiteNoise:
      // Real groups + fake singletons: at least every present real group
      // forms a class.
      EXPECT_GE(leak.distinct_classes, real_groups.size());
      EXPECT_GE(leak.tuples_observed, real_tuples);
      break;
    case ProtocolKind::kDomainNoise:
      // Exactly one class per domain value (every value got fakes).
      EXPECT_EQ(leak.distinct_classes, static_cast<uint64_t>(groups));
      EXPECT_GE(leak.tuples_observed, real_tuples);
      break;
    case ProtocolKind::kHistogram:
      // At most the configured bucket count.
      EXPECT_LE(leak.distinct_classes, 5u);
      EXPECT_EQ(leak.tuples_observed, real_tuples);
      break;
    case ProtocolKind::kPackedPaillier:
      // One distinct ciphertext per token: the SSI learns the fleet size.
      EXPECT_EQ(leak.tuples_observed, static_cast<uint64_t>(num_tokens));
      EXPECT_EQ(leak.distinct_classes, leak.tuples_observed);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FleetShapes, ProtocolProperty,
    ::testing::Combine(
        ::testing::Values(1, 5, 25),      // tokens
        ::testing::Values(1, 8),          // tuples per token
        ::testing::Values(1, 4, 12),      // groups
        ::testing::Values(ProtocolKind::kSecureAgg,
                          ProtocolKind::kWhiteNoise,
                          ProtocolKind::kDomainNoise,
                          ProtocolKind::kHistogram,
                          ProtocolKind::kPackedPaillier)));

}  // namespace
}  // namespace pds::global
