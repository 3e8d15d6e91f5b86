#ifndef PDS_GLOBAL_AGG_ROUNDS_H_
#define PDS_GLOBAL_AGG_ROUNDS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/paillier.h"
#include "global/agg_protocols.h"
#include "global/agg_steps.h"
#include "global/common.h"
#include "global/fleet_executor.h"
#include "global/observer.h"

/// The SSI side of the [TNP14] rounds, written once. After a run's collect
/// round, the in-process protocols (agg_protocols.cc) and the wire server
/// (net/ssi_server.cc) both hand what they collected to one of these
/// drivers: the partition rounds of secure aggregation with their final
/// decrypt-fold, the class (bucket) units of the det family with failover
/// to the next live responder, or the blind fold of packed Paillier.
///
/// A driver never touches a token: it asks a RoundChannel to run a step of
/// global/agg_steps.h on responder r (the r-th token that answered the
/// collect round) and to charge its cost. The in-process channel calls the
/// step on the token and counts ciphertext bytes; the wire server's sends
/// a framed request and counts frames. Unit costs are kept apart and
/// merged in unit order, so counters match a serial run at any executor
/// width and no counter is written from two executor workers.
namespace pds::global {

/// One equality class the SSI formed over keyed tuples.
struct KeyClass {
  Bytes key;                    // the key every tuple of the class carried
  std::vector<Bytes> payloads;  // their payload ciphertexts, arrival order
};

/// What one work unit cost: its Metrics and, on a wire, the link events
/// behind them (a direct channel leaves those at zero).
struct RoundCost {
  Metrics metrics;
  uint64_t deadline_hits = 0;
  uint64_t retries = 0;
  uint64_t frame_rejects = 0;
};

/// One partition of a secure-aggregation round.
struct Partition {
  size_t index = 0;              // its place in the round's partition order
  std::span<const Bytes> items;  // the ciphertexts it holds
};

/// Carries the SSI's requests to the responders of one run.
class RoundChannel {
 public:
  virtual ~RoundChannel() = default;

  /// Responders, numbered 0..size()-1 in collect order.
  [[nodiscard]] virtual size_t size() const = 0;
  /// Fans per-responder work out; null runs it serially.
  [[nodiscard]] virtual FleetExecutor* executor() const = 0;

  /// Adds one unit's cost to the run.
  virtual void Charge(const RoundCost& cost, Metrics* metrics) {
    metrics->Merge(cost.metrics);
  }

  /// Runs AggregatePartition on responder `r` for each of `parts`, in
  /// order; returns one output batch per partition.
  [[nodiscard]] virtual Result<std::vector<std::vector<Bytes>>>
  AggregatePartitions(size_t r, std::span<const Partition> parts,
                      RoundCost* cost) = 0;

  /// Aggregates one unit on responder `r`. With `fold`, its payloads are
  /// decrypt-folded by their true groups (a histogram bucket, or the final
  /// round of secure aggregation); otherwise it is a det class, which goes
  /// through AggregateClass and yields nothing when it is white noise.
  [[nodiscard]] virtual Result<GroupStates> AggregateUnit(
      size_t r, const KeyClass& unit, bool fold, RoundCost* cost) = 0;

  /// A class unit on responder `r` failed with `s`. True means `r` has
  /// vanished and is dropped, and its units move to the next live
  /// responder; false fails the run with `s`.
  [[nodiscard]] virtual bool Drop(size_t /*r*/, const Status& /*s*/) {
    return false;
  }

  /// Hands the folded packed aggregate to the querier.
  virtual void HandOff(const crypto::BigInt& /*aggregate*/,
                       Metrics* /*metrics*/) {}
};

/// Secure aggregation after its collect round; `collected` holds each
/// responder's ciphertexts. While more than `capacity` remain, they are cut
/// into partitions of `capacity`, dealt round-robin over the responders
/// (each round continues where the last stopped), and every partition is
/// replaced by its per-group re-encryption. Responder 0 then decrypt-folds
/// the rest. Fails on capacity 0 before the first partition round, and when
/// a round does not shrink the set (capacity below the distinct groups).
[[nodiscard]] Result<GroupStates> RunPartitionRounds(
    RoundChannel* channel, std::vector<std::vector<Bytes>> collected,
    size_t capacity, HbcObserver* observer, Metrics* metrics);

/// The det family after its collect round: groups the responders' keyed
/// tuples into classes, then aggregates class u on responder u % size().
/// A responder that vanishes mid-phase is dropped, and each of its
/// unfinished classes goes, in class order, to the first live responder.
[[nodiscard]] Result<GroupStates> RunClassRounds(
    RoundChannel* channel, std::vector<std::vector<KeyedTuple>> collected,
    bool histogram, HbcObserver* observer, Metrics* metrics);

/// Packed Paillier after its collect round: folds the responders'
/// ciphertexts (at least one) blindly, hands the aggregate to the querier,
/// and decrypt-unpacks it into (sum, count) per value of `domain`, whose
/// i-th value owns slots 2i and 2i + 1 of `agg`'s layout.
[[nodiscard]] Result<GroupStates> RunPackedFold(
    RoundChannel* channel, const crypto::PackedAggregate& agg,
    const std::vector<crypto::BigInt>& cts,
    const std::vector<std::string>& domain, HbcObserver* observer,
    Metrics* metrics);

/// Ends a run: applies `func` to `state` and records the run, its cost and
/// the SSI's view, under `protocol` (a static literal).
[[nodiscard]] AggOutput FinishRun(const char* protocol,
                                  const GroupStates& state, AggFunc func,
                                  const Metrics& metrics,
                                  const HbcObserver& observer);

}  // namespace pds::global

#endif  // PDS_GLOBAL_AGG_ROUNDS_H_
