#include "global/integrity.h"

#include <cstring>
#include <map>
#include <set>

#include "global/agg_steps.h"

namespace pds::global {

namespace {

Bytes TupleMacInput(uint64_t participant, uint64_t sequence,
                    const Bytes& payload_ct) {
  Bytes msg;
  PutU64(&msg, participant);
  PutU64(&msg, sequence);
  PutLengthPrefixed(&msg, ByteView(payload_ct));
  return msg;
}

}  // namespace

Bytes EncodeSealedTuple(const SealedTuple& t) {
  Bytes out;
  out.reserve(8 + 8 + 4 + t.payload_ct.size() + t.mac.size());
  PutU64(&out, t.participant);
  PutU64(&out, t.sequence);
  PutLengthPrefixed(&out, ByteView(t.payload_ct));
  out.insert(out.end(), t.mac.begin(), t.mac.end());
  return out;
}

Result<SealedTuple> DecodeSealedTuple(ByteView in) {
  constexpr size_t kFixed = 8 + 8 + 4 + crypto::Sha256::kDigestSize;
  if (in.size() < kFixed) {
    return Status::Corruption("sealed tuple truncated");
  }
  SealedTuple t;
  t.participant = GetU64(in.data());
  t.sequence = GetU64(in.data() + 8);
  uint32_t len = GetU32(in.data() + 16);
  if (len > kMaxSealedPayloadBytes) {
    return Status::Corruption("sealed payload length " + std::to_string(len) +
                              " exceeds kMaxSealedPayloadBytes");
  }
  if (in.size() != kFixed + len) {
    return Status::Corruption("sealed tuple length mismatch");
  }
  t.payload_ct.assign(in.data() + 20, in.data() + 20 + len);
  std::memcpy(t.mac.data(), in.data() + 20 + len, t.mac.size());
  return t;
}

Bytes EncodeManifest(const Manifest& m) {
  Bytes out;
  out.reserve(8 + 8 + m.mac.size());
  PutU64(&out, m.participant);
  PutU64(&out, m.tuple_count);
  out.insert(out.end(), m.mac.begin(), m.mac.end());
  return out;
}

Result<Manifest> DecodeManifest(ByteView in) {
  if (in.size() != 8 + 8 + crypto::Sha256::kDigestSize) {
    return Status::Corruption("manifest blob has wrong size");
  }
  Manifest m;
  m.participant = GetU64(in.data());
  m.tuple_count = GetU64(in.data() + 8);
  std::memcpy(m.mac.data(), in.data() + 16, m.mac.size());
  return m;
}

Result<std::vector<SealedTuple>> SealTuples(
    mcu::SecureToken* token, uint64_t participant,
    const std::vector<Bytes>& payload_cts) {
  std::vector<SealedTuple> out;
  out.reserve(payload_cts.size());
  for (uint64_t seq = 0; seq < payload_cts.size(); ++seq) {
    SealedTuple t;
    t.participant = participant;
    t.sequence = seq;
    t.payload_ct = payload_cts[seq];
    Bytes msg = TupleMacInput(participant, seq, t.payload_ct);
    PDS_ASSIGN_OR_RETURN(t.mac, token->Mac(ByteView(msg)));
    out.push_back(std::move(t));
  }
  return out;
}

Result<Manifest> MakeManifest(mcu::SecureToken* token, uint64_t participant,
                              uint64_t tuple_count) {
  Manifest m;
  m.participant = participant;
  m.tuple_count = tuple_count;
  Bytes msg;
  msg.push_back(0x4D);  // 'M' domain separator
  PutU64(&msg, participant);
  PutU64(&msg, tuple_count);
  PDS_ASSIGN_OR_RETURN(m.mac, token->Mac(ByteView(msg)));
  return m;
}

Result<IntegrityVerdict> VerifyBatch(
    mcu::SecureToken* token, const std::vector<SealedTuple>& tuples,
    const std::vector<Manifest>& manifests) {
  IntegrityVerdict verdict;

  // 1. Manifest authenticity + expected counts.
  std::map<uint64_t, uint64_t> expected;
  for (const Manifest& m : manifests) {
    Bytes msg;
    msg.push_back(0x4D);
    PutU64(&msg, m.participant);
    PutU64(&msg, m.tuple_count);
    PDS_ASSIGN_OR_RETURN(crypto::Sha256::Digest mac,
                         token->Mac(ByteView(msg)));
    if (!crypto::DigestEqual(mac, m.mac)) {
      verdict.ok = false;
      verdict.problem = "forged manifest for participant " +
                        std::to_string(m.participant);
      return verdict;
    }
    expected[m.participant] = m.tuple_count;
  }

  // 2. Per-tuple MACs (alteration) + duplicate sequence numbers.
  std::map<uint64_t, std::set<uint64_t>> seen;
  for (const SealedTuple& t : tuples) {
    Bytes msg = TupleMacInput(t.participant, t.sequence, t.payload_ct);
    PDS_ASSIGN_OR_RETURN(crypto::Sha256::Digest mac,
                         token->Mac(ByteView(msg)));
    if (!crypto::DigestEqual(mac, t.mac)) {
      verdict.ok = false;
      verdict.problem = "altered tuple (participant " +
                        std::to_string(t.participant) + ", seq " +
                        std::to_string(t.sequence) + ")";
      return verdict;
    }
    if (!seen[t.participant].insert(t.sequence).second) {
      verdict.ok = false;
      verdict.problem = "duplicated tuple (participant " +
                        std::to_string(t.participant) + ", seq " +
                        std::to_string(t.sequence) + ")";
      return verdict;
    }
    if (expected.count(t.participant) == 0) {
      verdict.ok = false;
      verdict.problem = "tuple from unknown participant " +
                        std::to_string(t.participant);
      return verdict;
    }
  }

  // 3. Completeness (dropping).
  for (const auto& [participant, count] : expected) {
    uint64_t got = seen.count(participant) ? seen[participant].size() : 0;
    if (got != count) {
      verdict.ok = false;
      verdict.problem = "participant " + std::to_string(participant) +
                        " contributed " + std::to_string(count) +
                        " tuples but " + std::to_string(got) + " arrived";
      return verdict;
    }
  }
  return verdict;
}

Result<SealedAudit> AuditSealedBatch(mcu::SecureToken* querier,
                                     const std::vector<SealedTuple>& tuples,
                                     const std::vector<Manifest>& manifests,
                                     AggFunc func) {
  SealedAudit out;
  PDS_ASSIGN_OR_RETURN(out.verdict, VerifyBatch(querier, tuples, manifests));
  out.token_ops = manifests.size() + tuples.size();  // MACs spent verifying
  if (!out.verdict.ok) {
    return out;
  }
  GroupStates state;
  for (const SealedTuple& t : tuples) {
    PDS_RETURN_IF_ERROR(
        DecryptFold(querier, {&t.payload_ct, 1}, &state, &out.token_ops));
  }
  out.groups = Finalize(state, func);
  return out;
}

std::string ApplySealedTampering(SealedTampering action, Rng* rng,
                                 std::vector<SealedTuple>* tuples,
                                 std::vector<Manifest>* manifests) {
  switch (action) {
    case SealedTampering::kSubstitute: {
      if (tuples->empty()) return "";
      SealedTuple& t = (*tuples)[rng->Uniform(tuples->size())];
      if (t.payload_ct.empty()) return "";
      size_t byte = static_cast<size_t>(rng->Uniform(t.payload_ct.size()));
      t.payload_ct[byte] ^= 0x01;
      return "substituted ciphertext byte of (participant " +
             std::to_string(t.participant) + ", seq " +
             std::to_string(t.sequence) + ")";
    }
    case SealedTampering::kReplay: {
      if (tuples->empty()) return "";
      SealedTuple copy = (*tuples)[rng->Uniform(tuples->size())];
      std::string what = "replayed (participant " +
                         std::to_string(copy.participant) + ", seq " +
                         std::to_string(copy.sequence) + ")";
      tuples->push_back(std::move(copy));
      return what;
    }
    case SealedTampering::kOmit: {
      if (tuples->empty()) return "";
      size_t victim = static_cast<size_t>(rng->Uniform(tuples->size()));
      std::string what = "omitted (participant " +
                         std::to_string((*tuples)[victim].participant) +
                         ", seq " +
                         std::to_string((*tuples)[victim].sequence) + ")";
      tuples->erase(tuples->begin() + static_cast<ptrdiff_t>(victim));
      return what;
    }
    case SealedTampering::kForgeManifest: {
      if (manifests->empty()) return "";
      Manifest& m = (*manifests)[rng->Uniform(manifests->size())];
      // The SSI holds no MAC key, so the best it can do is lie about the
      // count and keep the stale MAC — exactly what VerifyBatch catches.
      m.tuple_count += 1;
      return "forged manifest count for participant " +
             std::to_string(m.participant);
    }
  }
  return "";
}

}  // namespace pds::global
