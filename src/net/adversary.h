#ifndef PDS_NET_ADVERSARY_H_
#define PDS_NET_ADVERSARY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "global/integrity.h"
#include "net/transport.h"

/// Weakly-malicious SSI actions on the real wire. This extends the sealed-
/// pool vocabulary of global::ApplySealedTampering to the wire runtime: an
/// AdversaryPlan makes the SSI misbehave in exactly one configured way per
/// run, and the scenario harness asserts the querier-side
/// global::IntegrityVerdict (or result comparison) catches it.
///
/// The SsiServer itself stays honest. The adversary acts around it: on what
/// a run returns (tampered sealed pools, forged aggregates) and through a
/// ProbeTransport wrapping one session's link (hostile frames).
///
/// Nothing in here touches plaintext or keys: the adversary manipulates
/// ciphertext blobs, MAC'd manifests and frames — precisely the power a
/// compromised SSI has in the paper's threat model.
namespace pds::net {

enum class AdversaryAction : uint8_t {
  kNone = 0,
  // 1-4 are the global::SealedTampering actions, value for value.
  kSubstituteCiphertext = 1,  // alter one sealed payload ciphertext
  kReplayCiphertext = 2,      // duplicate one sealed tuple
  kOmitCiphertext = 3,        // drop one sealed tuple
  kForgeManifest = 4,         // bump a manifest's tuple count (re-MAC-less)
  kForgeAggregate = 5,        // perturb the final aggregate before returning
  kReplayStaleRound = 6,      // re-send an already-answered round id
  kOversizedFrame = 7,        // frame declaring payload_len > kMaxFramePayload
  kMalformedFrame = 8,        // valid header, garbage payload
};

const char* AdversaryActionName(AdversaryAction action);

struct AdversaryPlan {
  AdversaryAction action = AdversaryAction::kNone;
  uint64_t seed = 99;
};

/// Applies a sealed-batch tampering action (substitute/replay/omit/forge-
/// manifest) in place through global::ApplySealedTampering, its victim drawn
/// from Rng(plan.seed). Returns a human-readable description of what was
/// done ("" when the action does not apply to sealed batches or the batch
/// is empty).
std::string ApplySealedTampering(const AdversaryPlan& plan,
                                 std::vector<global::SealedTuple>* tuples,
                                 std::vector<global::Manifest>* manifests);

/// Applies kForgeAggregate to an aggregate the SSI is about to return: the
/// first group's value is shifted by one. Without a sealed round to audit
/// against, the querier catches this by re-running the aggregate and
/// comparing (CompareAggregates). Any other action leaves `groups` as is.
void ApplyAggregateForgery(const AdversaryPlan& plan,
                           std::map<std::string, double>* groups);

/// The adversary's hold on one session: wraps the SSI side of its link, in
/// the style of FaultInjectingTransport, and forwards every frame unchanged
/// while noting the latest round the SSI requested. After the run, Probe()
/// sends one hostile frame down the same link.
class ProbeTransport : public Transport {
 public:
  /// `deadline_ms` bounds the wait for the token's answer to a probe.
  ProbeTransport(std::unique_ptr<Transport> inner, uint32_t deadline_ms);

  [[nodiscard]] Status Send(ByteView frame) override;
  [[nodiscard]] Result<Bytes> Recv(uint32_t deadline_ms) override;
  void Close() override;
  [[nodiscard]] bool closed() const override;

  /// Sends the hostile frame of a session-protocol action (kReplayStaleRound,
  /// kOversizedFrame or kMalformedFrame) and reports the token-side defence
  /// it observed: an error reply, or the clean death of the session. A
  /// Status return means the probe could not run, or the token did not
  /// defend itself.
  [[nodiscard]] Result<std::string> Probe(AdversaryAction action);

 private:
  std::unique_ptr<Transport> inner_;
  uint32_t deadline_ms_;
  uint32_t last_round_id_ = 0;  // highest round id the SSI requested
  bool checksummed_ = false;    // the SSI's requests carry checksums
};

/// Compares the SSI's claimed aggregate against the querier's audited one.
/// Any divergence — extra group, missing group, differing value — is a
/// detected forgery.
global::IntegrityVerdict CompareAggregates(
    const std::map<std::string, double>& claimed,
    const std::map<std::string, double>& audited);

}  // namespace pds::net

#endif  // PDS_NET_ADVERSARY_H_
