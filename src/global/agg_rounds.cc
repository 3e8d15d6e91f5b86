#include "global/agg_rounds.h"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/obs.h"

namespace pds::global {

namespace {

/// Deals `num_units` round-robin over `num_tokens` from `first`: unit u
/// goes to token (first + u) % num_tokens. A token then runs its units in
/// increasing order, so its RNG and op counters advance as in a serial
/// round-robin loop.
std::vector<std::vector<size_t>> RoundRobin(size_t num_units,
                                            size_t num_tokens, size_t first) {
  std::vector<std::vector<size_t>> by_token(num_tokens);
  for (auto& units : by_token) {
    units.reserve(num_units / num_tokens + 1);
  }
  for (size_t u = 0; u < num_units; ++u) {
    by_token[(first + u) % num_tokens].push_back(u);
  }
  return by_token;
}

/// Groups every responder's keyed tuples, in responder order, into classes
/// in key order: by ciphertext bytes, or for a histogram by the 4-byte key
/// read as a bucket number. The observer sees every key; every tuple costs
/// one SSI op.
Result<std::vector<KeyClass>> GroupByKey(
    std::vector<std::vector<KeyedTuple>>* sent, bool histogram,
    HbcObserver* observer, uint64_t* ssi_ops) {
  // Ordered by (bucket number, key bytes): one of the two is constant.
  std::map<std::pair<uint32_t, std::string>, KeyClass> classes;
  for (std::vector<KeyedTuple>& tuples : *sent) {
    for (KeyedTuple& kt : tuples) {
      observer->ObserveTuple(ByteView(kt.key));
      ++*ssi_ops;
      if (histogram && kt.key.size() != 4) {
        return Status::Corruption("histogram bucket key must be 4 bytes");
      }
      KeyClass& c = classes[histogram ? std::pair(GetU32(kt.key.data()),
                                                  std::string())
                                      : std::pair(0u, ByteView(kt.key)
                                                          .ToString())];
      if (c.payloads.empty()) {
        c.key = std::move(kt.key);
      }
      c.payloads.push_back(std::move(kt.payload_ct));
    }
  }
  std::vector<KeyClass> out;
  out.reserve(classes.size());
  for (auto& [order, c] : classes) {
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace

Result<GroupStates> RunPartitionRounds(
    RoundChannel* channel, std::vector<std::vector<Bytes>> collected,
    size_t capacity, HbcObserver* observer, Metrics* metrics) {
  if (capacity == 0) {
    return Status::InvalidArgument("partition capacity must be at least 1");
  }
  std::vector<Bytes> items;
  for (std::vector<Bytes>& batch : collected) {
    for (Bytes& ct : batch) {
      observer->ObserveTuple(ByteView(ct));
      items.push_back(std::move(ct));
    }
  }

  // Responder r runs its partitions in increasing order inside one work
  // unit (its token's RNG order); outputs are gathered in partition order.
  const size_t nr = channel->size();
  size_t first = 0;
  while (items.size() > capacity) {
    obs::Span round_span("aggregate-round", "protocol");
    round_span.AddArg("items", static_cast<double>(items.size()));
    const size_t num_parts = (items.size() + capacity - 1) / capacity;
    const std::vector<std::vector<size_t>> parts_by_responder =
        RoundRobin(num_parts, nr, first);
    first += num_parts;

    std::vector<std::vector<Bytes>> outs(num_parts);
    std::vector<RoundCost> costs(nr);
    PDS_RETURN_IF_ERROR(FleetExecutor::Run(
        channel->executor(), nr, [&](size_t r) -> Status {
          const std::vector<size_t>& mine = parts_by_responder[r];
          if (mine.empty()) {
            return Status::Ok();
          }
          std::vector<Partition> parts;
          parts.reserve(mine.size());
          for (size_t pi : mine) {
            parts.push_back(
                {pi, std::span<const Bytes>(items).subspan(
                         pi * capacity,
                         std::min(capacity, items.size() - pi * capacity))});
          }
          PDS_ASSIGN_OR_RETURN(std::vector<std::vector<Bytes>> got,
                               channel->AggregatePartitions(r, parts,
                                                            &costs[r]));
          for (size_t k = 0; k < mine.size() && k < got.size(); ++k) {
            outs[mine[k]] = std::move(got[k]);
          }
          return Status::Ok();
        }));

    for (const RoundCost& cost : costs) {
      channel->Charge(cost, metrics);
    }
    std::vector<Bytes> next;
    next.reserve(items.size());
    for (std::vector<Bytes>& out : outs) {
      for (Bytes& ct : out) {
        observer->ObserveTuple(ByteView(ct));
        next.push_back(std::move(ct));
      }
    }
    metrics->ssi_ops += num_parts;  // partition bookkeeping
    ++metrics->rounds;
    if (next.size() >= items.size()) {
      return Status::InvalidArgument(
          "partition capacity too small for the number of distinct groups");
    }
    items = std::move(next);
  }

  obs::Span final_span("final-decrypt", "protocol");
  final_span.AddArg("items", static_cast<double>(items.size()));
  RoundCost cost;
  PDS_ASSIGN_OR_RETURN(GroupStates state,
                       channel->AggregateUnit(0, {{}, std::move(items)},
                                              /*fold=*/true, &cost));
  channel->Charge(cost, metrics);
  ++metrics->rounds;
  return state;
}

Result<GroupStates> RunClassRounds(
    RoundChannel* channel, std::vector<std::vector<KeyedTuple>> collected,
    bool histogram, HbcObserver* observer, Metrics* metrics) {
  std::vector<KeyClass> classes;
  {
    obs::Span group_span("ssi-group-by-class", "protocol");
    PDS_ASSIGN_OR_RETURN(classes, GroupByKey(&collected, histogram, observer,
                                             &metrics->ssi_ops));
    group_span.AddArg("classes", static_cast<double>(classes.size()));
  }

  obs::Span class_span("class-aggregate", "protocol");
  class_span.AddArg("classes", static_cast<double>(classes.size()));
  const size_t nr = channel->size();
  const size_t num_units = classes.size();
  std::vector<GroupStates> results(num_units);
  std::vector<uint8_t> done(num_units, 0);
  std::vector<uint8_t> gone(nr, 0);  // responders dropped mid-phase
  std::vector<RoundCost> costs(num_units);
  auto run_unit = [&](size_t r, size_t u) -> Status {
    PDS_ASSIGN_OR_RETURN(results[u], channel->AggregateUnit(
                                         r, classes[u], histogram, &costs[u]));
    done[u] = 1;
    return Status::Ok();
  };

  // Classes sharing a responder run in class order inside one work unit:
  // decryption draws no token randomness, but op counters still demand one
  // thread per token.
  const std::vector<std::vector<size_t>> by_responder =
      RoundRobin(num_units, nr, 0);
  PDS_RETURN_IF_ERROR(FleetExecutor::Run(
      channel->executor(), nr, [&](size_t r) -> Status {
        for (size_t u : by_responder[r]) {
          Status st = run_unit(r, u);
          if (!st.ok()) {
            // A vanished responder's remaining classes wait for failover.
            gone[r] = channel->Drop(r, st);
            return gone[r] ? Status::Ok() : st;
          }
        }
        return Status::Ok();
      }));
  // Failover (serial): each unfinished class goes to the first responder
  // still there.
  for (size_t u = 0; u < num_units; ++u) {
    for (size_t r = 0; r < nr && done[u] == 0; ++r) {
      if (gone[r] != 0) {
        continue;
      }
      Status st = run_unit(r, u);
      if (!st.ok() && (gone[r] = channel->Drop(r, st)) == 0) {
        return st;
      }
    }
    if (done[u] == 0) {
      return Status::FailedPrecondition(
          "every responding token vanished before class " +
          std::to_string(u) + " could be aggregated");
    }
  }

  GroupStates state;
  for (size_t u = 0; u < num_units; ++u) {
    channel->Charge(costs[u], metrics);
    for (const auto& [group, gs] : results[u]) {
      state[group].sum += gs.sum;
      state[group].count += gs.count;
    }
  }
  ++metrics->rounds;
  return state;
}

Result<GroupStates> RunPackedFold(RoundChannel* channel,
                                  const crypto::PackedAggregate& agg,
                                  const std::vector<crypto::BigInt>& cts,
                                  const std::vector<std::string>& domain,
                                  HbcObserver* observer, Metrics* metrics) {
  PDS_RETURN_IF_ERROR(agg.CheckAddBudget(cts.size()));
  obs::Span fold_span("ssi-fold", "protocol");
  crypto::BigInt acc = cts[0];
  observer->ObserveTuple(ByteView(acc.ToBytes()));
  for (size_t i = 1; i < cts.size(); ++i) {
    observer->ObserveTuple(ByteView(cts[i].ToBytes()));
    acc = agg.Add(acc, cts[i]);
    ++metrics->ssi_ops;
  }
  channel->HandOff(acc, metrics);

  // pdslint: declassify(the querier role decrypts only the aggregate sum
  // and count per slot -- the protocol's intended output, never a per-token
  // value; [TNP14] section 4's HbC guarantee is exactly this boundary)
  PDS_ASSIGN_OR_RETURN(std::vector<uint64_t> totals, agg.DecryptUnpack(acc));
  ++metrics->token_crypto_ops;
  GroupStates state;
  for (size_t i = 0; i < domain.size(); ++i) {
    GroupState& gs = state[domain[i]];
    gs.sum = static_cast<double>(totals[2 * i]);
    gs.count = totals[2 * i + 1];
  }
  return state;
}

AggOutput FinishRun(const char* protocol, const GroupStates& state,
                    AggFunc func, const Metrics& metrics,
                    const HbcObserver& observer) {
  AggOutput out;
  out.groups = Finalize(state, func);
  out.metrics = metrics;
  out.leakage = observer.Report();
  RecordProtocolRun(protocol, out.metrics, out.leakage);
  return out;
}

}  // namespace pds::global
