#include "global/agg_protocols.h"

#include <functional>

#include "global/agg_steps.h"
#include "obs/obs.h"

namespace pds::global {

// The token work of every round is a step in agg_steps.h, shared with the
// wire token. What this file adds is the in-process transport: per-unit
// Metrics for each ciphertext handed between token and SSI, merged in index
// order.

Result<AggOutput> SecureAggProtocol::Execute(
    std::vector<Participant>& participants, AggFunc func) {
  if (participants.empty()) {
    return Status::InvalidArgument("no participants");
  }
  AggOutput out;
  HbcObserver observer;
  const size_t np = participants.size();
  obs::Span protocol_span("secure-agg", "protocol");
  protocol_span.AddArg("participants", static_cast<double>(np));

  // Phase 1: every token non-deterministically encrypts its tuples.
  // Tokens are independent, so participants fan out across the executor;
  // gathering by participant index keeps `items` byte-identical to the
  // serial loop.
  std::vector<std::vector<Bytes>> enc(np);
  std::vector<Metrics> enc_cost(np);
  {
    obs::Span phase_span("collect-encrypt", "protocol");
    PDS_RETURN_IF_ERROR(FleetExecutor::Run(
        config_.executor, np, [&](size_t i) -> Status {
          PDS_ASSIGN_OR_RETURN(
              enc[i], EncryptTuples(participants[i].token,
                                    participants[i].tuples,
                                    &enc_cost[i].token_crypto_ops));
          for (const Bytes& ct : enc[i]) {
            enc_cost[i].AddTokenToSsi(ct.size());
          }
          return Status::Ok();
        }));
  }
  std::vector<Bytes> items;
  for (size_t i = 0; i < np; ++i) {
    out.metrics.Merge(enc_cost[i]);
    for (Bytes& ct : enc[i]) {
      observer.ObserveTuple(ByteView(ct));
      items.push_back(std::move(ct));
    }
  }
  ++out.metrics.rounds;

  // Phase 2: iterative partition-and-aggregate until one partition is left.
  // Partitions keep their serial round-robin token assignment; partitions
  // sharing a token run serially inside that token's work unit (token RNG
  // order), and outputs are gathered in partition order.
  size_t worker = 0;
  while (items.size() > config_.partition_capacity) {
    obs::Span phase_span("aggregate-round", "protocol");
    phase_span.AddArg("items", static_cast<double>(items.size()));
    size_t before = items.size();
    const size_t cap = config_.partition_capacity;
    const size_t num_parts = (items.size() + cap - 1) / cap;
    std::vector<std::vector<size_t>> parts_by_token =
        RoundRobin(num_parts, np, worker);
    worker += num_parts;

    struct PartOut {
      std::vector<Bytes> cts;
      Metrics cost;
    };
    std::vector<PartOut> parts(num_parts);
    PDS_RETURN_IF_ERROR(FleetExecutor::Run(
        config_.executor, np, [&](size_t t) -> Status {
          for (size_t pi : parts_by_token[t]) {
            PartOut& po = parts[pi];
            std::span<const Bytes> part = std::span<const Bytes>(items).subspan(
                pi * cap, std::min(cap, items.size() - pi * cap));
            for (const Bytes& ct : part) {
              po.cost.AddSsiToToken(ct.size());
            }
            PDS_ASSIGN_OR_RETURN(
                po.cts, AggregatePartition(participants[t].token, part,
                                           &po.cost.token_crypto_ops));
            for (const Bytes& ct : po.cts) {
              po.cost.AddTokenToSsi(ct.size());
            }
          }
          return Status::Ok();
        }));

    std::vector<Bytes> next;
    for (size_t pi = 0; pi < num_parts; ++pi) {
      out.metrics.Merge(parts[pi].cost);
      for (Bytes& ct : parts[pi].cts) {
        observer.ObserveTuple(ByteView(ct));
        next.push_back(std::move(ct));
      }
      ++out.metrics.ssi_ops;  // partition bookkeeping
    }
    ++out.metrics.rounds;
    if (next.size() >= before) {
      return Status::InvalidArgument(
          "partition capacity too small for the number of distinct groups");
    }
    items = std::move(next);
  }

  // Phase 3: final aggregation inside one token.
  obs::Span final_span("final-decrypt", "protocol");
  final_span.AddArg("items", static_cast<double>(items.size()));
  for (const Bytes& ct : items) {
    out.metrics.AddSsiToToken(ct.size());
  }
  GroupStates final_state;
  PDS_RETURN_IF_ERROR(DecryptFold(participants[0].token, items, &final_state,
                                  &out.metrics.token_crypto_ops));
  ++out.metrics.rounds;

  out.groups = Finalize(final_state, func);
  out.leakage = observer.Report();
  RecordProtocolRun("secure-agg", out.metrics, out.leakage);
  return out;
}

namespace {

/// Shared one-round evaluation of the keyed protocols (white noise, domain
/// noise, histogram): every token sends keyed tuples through its `collect`
/// step, the SSI groups them by key, and each group is aggregated inside
/// one token. Noise-protocol keys are deterministic group ciphertexts,
/// aggregated by AggregateClass; histogram keys are plaintext bucket ids,
/// and a bucket is decrypt-folded by its true groups.
///
/// Token-side work fans out over the executor with the same token
/// assignment as the serial loops.
Result<AggOutput> RunKeyedProtocol(
    const char* protocol_name, std::vector<Participant>& participants,
    AggFunc func, FleetExecutor* exec, bool histogram,
    const std::function<Result<std::vector<KeyedTuple>>(size_t, uint64_t*)>&
        collect) {
  AggOutput out;
  HbcObserver observer;
  const size_t np = participants.size();
  obs::Span protocol_span(protocol_name, "protocol");
  protocol_span.AddArg("participants", static_cast<double>(np));

  // Parallel per-participant encryption (each token's RNG is its own).
  std::vector<std::vector<KeyedTuple>> sent(np);
  std::vector<Metrics> sent_cost(np);
  {
    obs::Span phase_span("collect-encrypt", "protocol");
    PDS_RETURN_IF_ERROR(
        FleetExecutor::Run(exec, np, [&](size_t pi) -> Status {
          PDS_ASSIGN_OR_RETURN(sent[pi],
                               collect(pi, &sent_cost[pi].token_crypto_ops));
          for (const KeyedTuple& kt : sent[pi]) {
            sent_cost[pi].AddTokenToSsi(kt.key.size() + kt.payload_ct.size());
          }
          return Status::Ok();
        }));
  }

  for (size_t pi = 0; pi < np; ++pi) {
    out.metrics.Merge(sent_cost[pi]);
  }
  obs::Span mix_span("ssi-group-by-class", "protocol");
  PDS_ASSIGN_OR_RETURN(
      std::vector<KeyClass> classes,
      GroupByKey(&sent, histogram, &observer, &out.metrics.ssi_ops));
  ++out.metrics.rounds;
  mix_span.AddArg("classes", static_cast<double>(classes.size()));

  // Each class is handed to a token for decryption + aggregation; classes
  // sharing a token run inside one work unit. Decryption draws no token
  // randomness, but op counters still demand one thread per token.
  std::vector<std::vector<size_t>> classes_by_token =
      RoundRobin(classes.size(), np, 0);
  struct ClassOut {
    GroupStates partial;
    Metrics cost;
  };
  std::vector<ClassOut> couts(classes.size());
  obs::Span agg_span("class-aggregate", "protocol");
  PDS_RETURN_IF_ERROR(
      FleetExecutor::Run(exec, np, [&](size_t t) -> Status {
        mcu::SecureToken* token = participants[t].token;
        for (size_t ci : classes_by_token[t]) {
          const KeyClass& c = classes[ci];
          ClassOut& co = couts[ci];
          if (histogram) {
            PDS_RETURN_IF_ERROR(DecryptFold(token, c.payloads, &co.partial,
                                            &co.cost.token_crypto_ops));
          } else {
            PDS_ASSIGN_OR_RETURN(ClassAggregate ca,
                                 AggregateClass(token, ByteView(c.key),
                                                c.payloads,
                                                &co.cost.token_crypto_ops));
            if (ca.noise) {
              continue;  // dropped unopened: its payloads never travel
            }
            co.partial[ca.group] = ca.state;
          }
          for (const Bytes& ct : c.payloads) {
            co.cost.AddSsiToToken(ct.size());
          }
        }
        return Status::Ok();
      }));
  GroupStates state;
  for (ClassOut& co : couts) {
    out.metrics.Merge(co.cost);
    for (const auto& [group, gs] : co.partial) {
      state[group].sum += gs.sum;
      state[group].count += gs.count;
    }
  }
  ++out.metrics.rounds;

  out.groups = Finalize(state, func);
  out.leakage = observer.Report();
  RecordProtocolRun(protocol_name, out.metrics, out.leakage);
  return out;
}

}  // namespace

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
  AggOutput out;
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
  PDS_RETURN_IF_ERROR(agg.CheckAddBudget(np));

  // Serial pre-pass: fold each participant's tuples into per-slot counters.
  std::vector<std::vector<uint64_t>> counters(np);
  for (size_t pi = 0; pi < np; ++pi) {
    PDS_ASSIGN_OR_RETURN(counters[pi],
                         SlotCounters(participants[pi].tuples, config_.domain));
    for (uint64_t c : counters[pi]) {
      if (c > config_.max_slot_value) {
        return Status::InvalidArgument(
            "participant contribution exceeds max_slot_value");
      }
    }
  }

  // Round 1 (the only round): every token packs and encrypts ONE
  // ciphertext. Tokens are independent, so participants fan out across the
  // executor; gathering by index keeps ciphertext order deterministic.
  std::vector<crypto::BigInt> cts(np);
  std::vector<Metrics> costs(np);
  {
    obs::Span phase_span("packed-encrypt", "protocol");
    PDS_RETURN_IF_ERROR(
        FleetExecutor::Run(config_.executor, np, [&](size_t pi) -> Status {
          PDS_ASSIGN_OR_RETURN(
              cts[pi], participants[pi].token->EncryptPacked(agg, counters[pi]));
          ++costs[pi].token_crypto_ops;
          costs[pi].AddTokenToSsi(cts[pi].ToBytes().size());
          return Status::Ok();
        }));
  }
  for (size_t pi = 0; pi < np; ++pi) {
    out.metrics.Merge(costs[pi]);
    observer.ObserveTuple(ByteView(cts[pi].ToBytes()));
  }

  // SSI: blind homomorphic fold (cheap modular multiplications).
  obs::Span fold_span("ssi-fold", "protocol");
  crypto::BigInt acc = cts[0];
  for (size_t pi = 1; pi < np; ++pi) {
    acc = agg.Add(acc, cts[pi]);
    ++out.metrics.ssi_ops;
  }

  // Querier: one decrypt-unpack for the whole fleet.
  out.metrics.AddSsiToToken(acc.ToBytes().size());
  PDS_ASSIGN_OR_RETURN(std::vector<uint64_t> totals, agg.DecryptUnpack(acc));
  ++out.metrics.token_crypto_ops;
  ++out.metrics.rounds;

  GroupStates state;
  for (size_t i = 0; i < k; ++i) {
    GroupState& gs = state[config_.domain[i]];
    gs.sum = static_cast<double>(totals[2 * i]);
    gs.count = totals[2 * i + 1];
  }
  out.groups = Finalize(state, func);
  out.leakage = observer.Report();
  RecordProtocolRun("packed-paillier", out.metrics, out.leakage);
  return out;
}

}  // namespace pds::global
