#include "net/adversary.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "net/codec.h"
#include "net/ssi_server.h"

namespace pds::net {

const char* AdversaryActionName(AdversaryAction action) {
  switch (action) {
    case AdversaryAction::kNone:
      return "none";
    case AdversaryAction::kSubstituteCiphertext:
      return "substitute-ciphertext";
    case AdversaryAction::kReplayCiphertext:
      return "replay-ciphertext";
    case AdversaryAction::kOmitCiphertext:
      return "omit-ciphertext";
    case AdversaryAction::kForgeManifest:
      return "forge-manifest";
    case AdversaryAction::kForgeAggregate:
      return "forge-aggregate";
    case AdversaryAction::kReplayStaleRound:
      return "replay-stale-round";
    case AdversaryAction::kOversizedFrame:
      return "oversized-frame";
    case AdversaryAction::kMalformedFrame:
      return "malformed-frame";
  }
  return "unknown";
}

std::string ApplySealedTampering(const AdversaryPlan& plan,
                                 std::vector<global::SealedTuple>* tuples,
                                 std::vector<global::Manifest>* manifests) {
  if (plan.action < AdversaryAction::kSubstituteCiphertext ||
      plan.action > AdversaryAction::kForgeManifest) {
    return "";
  }
  Rng rng(plan.seed);
  return global::ApplySealedTampering(
      static_cast<global::SealedTampering>(plan.action), &rng, tuples,
      manifests);
}

void ApplyAggregateForgery(const AdversaryPlan& plan,
                           std::map<std::string, double>* groups) {
  if (plan.action == AdversaryAction::kForgeAggregate && !groups->empty()) {
    groups->begin()->second += 1.0;
  }
}

ProbeTransport::ProbeTransport(std::unique_ptr<Transport> inner,
                               uint32_t deadline_ms)
    : inner_(std::move(inner)), deadline_ms_(deadline_ms) {}

Status ProbeTransport::Send(ByteView frame) {
  auto m = DecodeMessage(frame);
  if (m.ok()) {
    if (const auto* req = std::get_if<RoundRequestMsg>(&m.value().body)) {
      last_round_id_ = std::max(last_round_id_, req->header.round_id);
      checksummed_ = m.value().checksummed;
    }
  }
  Status s = inner_->Send(frame);
  if (s.ok()) CountSent(frame.size());
  return s;
}

Result<Bytes> ProbeTransport::Recv(uint32_t deadline_ms) {
  Result<Bytes> r = inner_->Recv(deadline_ms);
  if (r.ok()) CountReceived(r.value().size());
  return r;
}

void ProbeTransport::Close() { inner_->Close(); }

bool ProbeTransport::closed() const { return inner_->closed(); }

Result<std::string> ProbeTransport::Probe(AdversaryAction action) {
  Bytes frame;
  uint8_t want = 3;      // ErrorMsg code of the rejection a token must send
  std::string defended;  // what the probe reports when it gets that
  if (action == AdversaryAction::kReplayStaleRound) {
    if (last_round_id_ < 1) {
      return Status::FailedPrecondition(
          "session has no completed round to replay");
    }
    RoundRequestMsg req;
    req.header.round_id = last_round_id_ - 1;
    req.header.kind = RoundKind::kCollect;
    req.header.func = global::AggFunc::kSum;
    frame = EncodeRoundRequest(req);
    frame = ExtendFrame(std::move(frame), std::nullopt, checksummed_);
    want = 4;
    defended = "stale round " + std::to_string(req.header.round_id) +
               " rejected: ";
  } else {
    // A round-request header over a payload that is either impossibly
    // large (only the header is sent) or garbage. Depending on the
    // transport the token either sees the oversized header and rejects it,
    // or its socket layer refuses the header before allocation and the
    // session dies cleanly; both are the defence working. Garbage must
    // fail structured decode without killing the token's serve loop.
    const bool oversized = action == AdversaryAction::kOversizedFrame;
    constexpr size_t kGarbage = 16;
    frame.assign(kFrameHeaderSize + (oversized ? 0 : kGarbage), 0xFF);
    frame[0] = static_cast<uint8_t>(kMagic & 0xff);
    frame[1] = static_cast<uint8_t>(kMagic >> 8);
    frame[2] = kWireVersion;
    frame[3] = static_cast<uint8_t>(MsgType::kRoundRequest);
    EncodeU32(frame.data() + 4,
              oversized ? static_cast<uint32_t>(kMaxFramePayload) + 1
                        : static_cast<uint32_t>(kGarbage));
    defended = oversized ? "oversized frame rejected before allocation: "
                         : "malformed frame rejected: ";
  }
  PDS_RETURN_IF_ERROR(inner_->Send(frame));
  auto reply = inner_->Recv(deadline_ms_);
  if (!reply.ok()) {
    if (action == AdversaryAction::kOversizedFrame &&
        SsiServer::IsStragglerFailure(reply.status())) {
      return std::string(
          "token refused the oversized frame; session closed cleanly");
    }
    return reply.status();
  }
  PDS_ASSIGN_OR_RETURN(Message m, DecodeMessage(reply.value()));
  const ErrorMsg* err = std::get_if<ErrorMsg>(&m.body);
  if (err == nullptr || err->code != want) {
    return Status::IntegrityViolation(
        std::string("token did not reject the ") +
        AdversaryActionName(action) + " probe");
  }
  return defended + err->message;
}

global::IntegrityVerdict CompareAggregates(
    const std::map<std::string, double>& claimed,
    const std::map<std::string, double>& audited) {
  global::IntegrityVerdict verdict;
  for (const auto& [group, value] : audited) {
    auto it = claimed.find(group);
    if (it == claimed.end()) {
      verdict.ok = false;
      verdict.problem = "claimed aggregate is missing group \"" + group + "\"";
      return verdict;
    }
    // Bit-exact comparison: honest wire and in-process runs sum in the same
    // order, so even the doubles must match.
    if (it->second != value) {
      verdict.ok = false;
      verdict.problem = "claimed aggregate for group \"" + group +
                        "\" diverges from the audited value";
      return verdict;
    }
  }
  for (const auto& [group, value] : claimed) {
    (void)value;
    if (audited.count(group) == 0) {
      verdict.ok = false;
      verdict.problem =
          "claimed aggregate has unexpected group \"" + group + "\"";
      return verdict;
    }
  }
  return verdict;
}

}  // namespace pds::net
