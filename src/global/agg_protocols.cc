#include "global/agg_protocols.h"

#include <functional>

#include "global/agg_rounds.h"
#include "global/agg_steps.h"
#include "obs/obs.h"

namespace pds::global {

namespace {

/// What a token sends the SSI, charged one message per ciphertext, keyed
/// tuple or packed ciphertext, sized as its bytes.
void ChargeSent(const std::vector<Bytes>& cts, Metrics* m) {
  for (const Bytes& ct : cts) {
    m->AddTokenToSsi(ct.size());
  }
}
void ChargeSent(const std::vector<KeyedTuple>& kts, Metrics* m) {
  for (const KeyedTuple& kt : kts) {
    m->AddTokenToSsi(kt.key.size() + kt.payload_ct.size());
  }
}
void ChargeSent(const crypto::BigInt& ct, Metrics* m) {
  m->AddTokenToSsi(ct.ToBytes().size());
}

/// The in-process channel: every step runs straight inside
/// participants[r].token, with no framing. Metrics count what E8 counts:
/// one message per ciphertext (or keyed tuple) handed between token and
/// SSI, sized as its bytes. Collect requests, a class request's key and a
/// noise class's payloads travel free; the packed aggregate's hand-off to
/// the querier is one message.
class DirectChannel final : public RoundChannel {
 public:
  DirectChannel(std::vector<Participant>& participants, FleetExecutor* exec)
      : participants_(participants), exec_(exec) {}

  /// The collect round: `step(i, &token_ops)` runs inside token i and
  /// returns what it sends the SSI; costs merge in participant order.
  template <typename T, typename Step>
  Result<std::vector<T>> Collect(const char* span_name, Step step,
                                 Metrics* metrics) {
    obs::Span span(span_name, "protocol");
    const size_t np = participants_.size();
    std::vector<T> sent(np);
    std::vector<Metrics> costs(np);
    PDS_RETURN_IF_ERROR(FleetExecutor::Run(exec_, np, [&](size_t i) -> Status {
      PDS_ASSIGN_OR_RETURN(sent[i], step(i, &costs[i].token_crypto_ops));
      ChargeSent(sent[i], &costs[i]);
      return Status::Ok();
    }));
    for (const Metrics& cost : costs) {
      metrics->Merge(cost);
    }
    ++metrics->rounds;
    return sent;
  }

  size_t size() const override { return participants_.size(); }
  FleetExecutor* executor() const override { return exec_; }

  Result<std::vector<std::vector<Bytes>>> AggregatePartitions(
      size_t r, std::span<const Partition> parts, RoundCost* cost) override {
    Metrics& m = cost->metrics;
    std::vector<std::vector<Bytes>> out;
    out.reserve(parts.size());
    for (const Partition& part : parts) {
      ChargeIn(part.items, &m);
      PDS_ASSIGN_OR_RETURN(
          std::vector<Bytes> cts,
          AggregatePartition(token(r), part.items, &m.token_crypto_ops));
      ChargeSent(cts, &m);
      out.push_back(std::move(cts));
    }
    return out;
  }

  Result<GroupStates> AggregateUnit(size_t r, const KeyClass& unit, bool fold,
                                    RoundCost* cost) override {
    uint64_t* ops = &cost->metrics.token_crypto_ops;
    GroupStates partial;
    if (fold) {
      PDS_RETURN_IF_ERROR(DecryptFold(token(r), unit.payloads, &partial, ops));
    } else {
      PDS_ASSIGN_OR_RETURN(
          ClassAggregate ca,
          AggregateClass(token(r), ByteView(unit.key), unit.payloads, ops));
      if (ca.noise) {
        return partial;  // dropped unopened: its payloads never travel
      }
      partial[ca.group] = ca.state;
    }
    ChargeIn(unit.payloads, &cost->metrics);
    return partial;
  }

  void HandOff(const crypto::BigInt& aggregate, Metrics* metrics) override {
    metrics->AddSsiToToken(aggregate.ToBytes().size());
  }

 private:
  static void ChargeIn(std::span<const Bytes> cts, Metrics* m) {
    for (const Bytes& ct : cts) {
      m->AddSsiToToken(ct.size());
    }
  }
  mcu::SecureToken* token(size_t r) const { return participants_[r].token; }

  std::vector<Participant>& participants_;
  FleetExecutor* exec_;
};

/// One run of a keyed protocol (white noise, domain noise, histogram):
/// every token sends keyed tuples through its `encrypt` step, then the
/// class rounds aggregate each class inside one token.
Result<AggOutput> RunKeyedProtocol(
    const char* protocol_name, std::vector<Participant>& participants,
    AggFunc func, FleetExecutor* exec, bool histogram,
    const std::function<Result<std::vector<KeyedTuple>>(size_t, uint64_t*)>&
        encrypt) {
  Metrics metrics;
  HbcObserver observer;
  obs::Span protocol_span(protocol_name, "protocol");
  protocol_span.AddArg("participants",
                       static_cast<double>(participants.size()));
  DirectChannel channel(participants, exec);
  PDS_ASSIGN_OR_RETURN(std::vector<std::vector<KeyedTuple>> sent,
                       channel.Collect<std::vector<KeyedTuple>>(
                           "collect-encrypt", encrypt, &metrics));
  PDS_ASSIGN_OR_RETURN(GroupStates state,
                       RunClassRounds(&channel, std::move(sent), histogram,
                                      &observer, &metrics));
  return FinishRun(protocol_name, state, func, metrics, observer);
}

}  // namespace

Result<AggOutput> SecureAggProtocol::Execute(
    std::vector<Participant>& participants, AggFunc func) {
  if (participants.empty()) {
    return Status::InvalidArgument("no participants");
  }
  Metrics metrics;
  HbcObserver observer;
  obs::Span protocol_span("secure-agg", "protocol");
  protocol_span.AddArg("participants",
                       static_cast<double>(participants.size()));
  DirectChannel channel(participants, config_.executor);
  PDS_ASSIGN_OR_RETURN(
      std::vector<std::vector<Bytes>> sent,
      channel.Collect<std::vector<Bytes>>(
          "collect-encrypt", [&](size_t i, uint64_t* ops) {
            return EncryptTuples(participants[i].token,
                                 participants[i].tuples, ops);
          },
          &metrics));
  PDS_ASSIGN_OR_RETURN(
      GroupStates state,
      RunPartitionRounds(&channel, std::move(sent),
                         config_.partition_capacity, &observer, &metrics));
  return FinishRun("secure-agg", state, func, metrics, observer);
}

Result<AggOutput> WhiteNoiseProtocol::Execute(
    std::vector<Participant>& participants, AggFunc func) {
  if (participants.empty()) {
    return Status::InvalidArgument("no participants");
  }
  // Fake labels come from one stream shared by the whole fleet, drawn in a
  // serial pre-pass in participant order.
  Rng noise_rng(config_.noise_seed);
  std::vector<std::vector<SourceTuple>> noise(participants.size());
  for (size_t pi = 0; pi < participants.size(); ++pi) {
    size_t n = static_cast<size_t>(
        static_cast<double>(participants[pi].tuples.size()) *
        config_.noise_ratio);
    for (size_t i = 0; i < n; ++i) {
      noise[pi].push_back(
          {std::string(kFakeGroupPrefix) + std::to_string(noise_rng.Next()),
           0.0});
    }
  }
  return RunKeyedProtocol(
      "white-noise", participants, func, config_.executor,
      /*histogram=*/false, [&](size_t pi, uint64_t* ops) {
        return DetEncrypt(participants[pi].token, participants[pi].tuples,
                          noise[pi], ops);
      });
}

Result<AggOutput> DomainNoiseProtocol::Execute(
    std::vector<Participant>& participants, AggFunc func) {
  if (participants.empty()) {
    return Status::InvalidArgument("no participants");
  }
  if (config_.domain.empty()) {
    return Status::InvalidArgument("domain noise requires the value domain");
  }
  std::vector<std::vector<SourceTuple>> noise(participants.size());
  for (size_t pi = 0; pi < participants.size(); ++pi) {
    PDS_ASSIGN_OR_RETURN(noise[pi],
                         DomainNoise(participants[pi].tuples, config_.domain,
                                     config_.fakes_per_value));
  }
  return RunKeyedProtocol(
      "domain-noise", participants, func, config_.executor,
      /*histogram=*/false, [&](size_t pi, uint64_t* ops) {
        return DetEncrypt(participants[pi].token, participants[pi].tuples,
                          noise[pi], ops);
      });
}

Result<AggOutput> HistogramProtocol::Execute(
    std::vector<Participant>& participants, AggFunc func) {
  if (participants.empty()) {
    return Status::InvalidArgument("no participants");
  }
  return RunKeyedProtocol(
      "histogram", participants, func, config_.executor, /*histogram=*/true,
      [&](size_t pi, uint64_t* ops) {
        return HistogramEncrypt(participants[pi].token,
                                participants[pi].tuples, config_.num_buckets,
                                ops);
      });
}

Result<AggOutput> PackedPaillierProtocol::Execute(
    std::vector<Participant>& participants, AggFunc func) {
  if (participants.empty()) {
    return Status::InvalidArgument("no participants");
  }
  if (config_.domain.empty()) {
    return Status::InvalidArgument("packed protocol requires the value domain");
  }
  const size_t np = participants.size();
  const size_t k = config_.domain.size();
  Metrics metrics;
  HbcObserver observer;
  obs::Span protocol_span("packed-paillier", "protocol");
  protocol_span.AddArg("participants", static_cast<double>(np));
  protocol_span.AddArg("domain", static_cast<double>(k));

  // The querier owns the keypair; tokens only hold the public packing
  // context. Two slots per domain value: 2i = sum, 2i + 1 = count.
  Rng key_rng(config_.key_seed);
  PDS_ASSIGN_OR_RETURN(
      crypto::Paillier paillier,
      crypto::Paillier::Generate(config_.paillier_bits, &key_rng));
  PDS_ASSIGN_OR_RETURN(crypto::PackedAggregate agg,
                       crypto::PackedAggregate::Create(
                           paillier, np, config_.max_slot_value, 2 * k));

  // Serial pre-pass: fold each participant's tuples into per-slot counters
  // (packing rejects a counter above max_slot_value).
  std::vector<std::vector<uint64_t>> counters(np);
  for (size_t pi = 0; pi < np; ++pi) {
    PDS_ASSIGN_OR_RETURN(counters[pi],
                         SlotCounters(participants[pi].tuples, config_.domain));
  }

  // The only round: every token packs and encrypts ONE ciphertext.
  DirectChannel channel(participants, config_.executor);
  PDS_ASSIGN_OR_RETURN(
      std::vector<crypto::BigInt> cts,
      channel.Collect<crypto::BigInt>(
          "packed-encrypt", [&](size_t i, uint64_t* ops) {
            ++*ops;  // one packed encryption, whatever the domain size
            return participants[i].token->EncryptPacked(agg, counters[i]);
          },
          &metrics));
  PDS_ASSIGN_OR_RETURN(GroupStates state,
                       RunPackedFold(&channel, agg, cts, config_.domain,
                                     &observer, &metrics));
  return FinishRun("packed-paillier", state, func, metrics, observer);
}

}  // namespace pds::global
