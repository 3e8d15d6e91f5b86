#ifndef PDS_GLOBAL_AGG_STEPS_H_
#define PDS_GLOBAL_AGG_STEPS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "global/common.h"
#include "mcu/secure_token.h"

/// The token side of the [TNP14] protocols, one function per step.
/// The in-process protocols (agg_protocols.cc) and the wire token
/// (net/token_client.cc) both run their token work through these, so a
/// round's token work is written once. The SSI side is written once too:
/// the round drivers in global/agg_rounds.h call these steps through a
/// channel, directly on the token in-process, or as a framed request the
/// wire token answers with the same step.
///
/// Every step runs inside one token and adds the cryptographic operations
/// it spends to `*token_ops`.
namespace pds::global {

/// Collect step of the secure and sealed rounds: one non-deterministic
/// ciphertext per tuple, carrying (group, value, count 1).
[[nodiscard]] Result<std::vector<Bytes>> EncryptTuples(
    mcu::SecureToken* token, const std::vector<SourceTuple>& tuples,
    uint64_t* token_ops);

/// Decrypts every ciphertext and folds its payload into `into` by payload
/// group, skipping noise payloads. One op per ciphertext.
[[nodiscard]] Status DecryptFold(mcu::SecureToken* token,
                                 std::span<const Bytes> cts,
                                 GroupStates* into, uint64_t* token_ops);

/// Secure-aggregation partition step: decrypt-fold the partition, then
/// re-encrypt one ciphertext per group in group order.
[[nodiscard]] Result<std::vector<Bytes>> AggregatePartition(
    mcu::SecureToken* token, std::span<const Bytes> cts, uint64_t* token_ops);

/// Packed-Paillier pre-pass: folds `tuples` into two counters per value
/// of the public `domain` (2i = sum, 2i + 1 = count of domain[i]). Values
/// must be non-negative integers. Spends no token op; the caller encrypts
/// the counters with SecureToken::EncryptPacked.
[[nodiscard]] Result<std::vector<uint64_t>> SlotCounters(
    const std::vector<SourceTuple>& tuples,
    const std::vector<std::string>& domain);

/// One tuple of a det/histogram round as the SSI sees it: the key it groups
/// by (deterministic group ciphertext, or a 4-byte little-endian bucket id)
/// and the non-deterministic payload ciphertext.
struct KeyedTuple {
  Bytes key;
  Bytes payload_ct;
};

/// Domain-noise send list: checks every real group belongs to the domain,
/// then returns `fakes_per_value` zero-valued tuples per domain value, in
/// domain order.
[[nodiscard]] Result<std::vector<SourceTuple>> DomainNoise(
    const std::vector<SourceTuple>& real,
    const std::vector<std::string>& domain, uint32_t fakes_per_value);

/// Collect step of the noise protocols: each real tuple, then each noise
/// tuple, becomes (det(group), nondet(payload)); noise payloads carry the
/// fake flag and count 0. Two ops per tuple.
[[nodiscard]] Result<std::vector<KeyedTuple>> DetEncrypt(
    mcu::SecureToken* token, const std::vector<SourceTuple>& real,
    const std::vector<SourceTuple>& noise, uint64_t* token_ops);

/// Collect step of the histogram protocol: the key is the plaintext bucket
/// Fnv1a64(group) % num_buckets, the payload keeps the true group. One op
/// per tuple.
[[nodiscard]] Result<std::vector<KeyedTuple>> HistogramEncrypt(
    mcu::SecureToken* token, const std::vector<SourceTuple>& tuples,
    uint32_t num_buckets, uint64_t* token_ops);

/// One aggregated equality class of a noise protocol.
struct ClassAggregate {
  std::string group;
  GroupState state;
  bool noise = false;  // a white-noise class, dropped inside the token
};

/// Class step of the noise protocols: decrypts the class key, then folds
/// the class's payloads. A white-noise class is discarded unopened and
/// charged one decrypt-and-drop op per payload.
[[nodiscard]] Result<ClassAggregate> AggregateClass(
    mcu::SecureToken* token, ByteView key, std::span<const Bytes> payloads,
    uint64_t* token_ops);

}  // namespace pds::global

#endif  // PDS_GLOBAL_AGG_STEPS_H_
