#include "global/agg_steps.h"

#include <map>
#include <set>
#include <utility>

#include "common/hash.h"

namespace pds::global {

Result<std::vector<Bytes>> EncryptTuples(mcu::SecureToken* token,
                                         const std::vector<SourceTuple>& tuples,
                                         uint64_t* token_ops) {
  std::vector<Bytes> cts;
  cts.reserve(tuples.size());
  for (const SourceTuple& t : tuples) {
    Bytes payload = EncodeAggPayload(false, t.value, 1, t.group);
    PDS_ASSIGN_OR_RETURN(Bytes ct, token->EncryptNonDet(ByteView(payload)));
    ++*token_ops;
    cts.push_back(std::move(ct));
  }
  return cts;
}

// Decrypted per-tuple plaintext folds into `into`: it only ever leaves the
// token re-encrypted or as a finished aggregate.
// pdslint: secret(into)
Status DecryptFold(mcu::SecureToken* token, std::span<const Bytes> cts,
                   GroupStates* into, uint64_t* token_ops) {
  for (const Bytes& ct : cts) {
    PDS_ASSIGN_OR_RETURN(Bytes payload, token->DecryptNonDet(ByteView(ct)));
    ++*token_ops;
    PDS_ASSIGN_OR_RETURN(AggPayload p, DecodeAggPayload(ByteView(payload)));
    if (p.fake) {
      continue;
    }
    GroupState& s = (*into)[p.group];
    s.sum += p.sum;
    s.count += p.count;
  }
  return Status::Ok();
}

Result<std::vector<Bytes>> AggregatePartition(mcu::SecureToken* token,
                                              std::span<const Bytes> cts,
                                              uint64_t* token_ops) {
  GroupStates partial;  // pdslint: secret
  PDS_RETURN_IF_ERROR(DecryptFold(token, cts, &partial, token_ops));
  std::vector<Bytes> out;
  out.reserve(partial.size());
  for (const auto& [group, state] : partial) {
    Bytes payload = EncodeAggPayload(false, state.sum, state.count, group);
    PDS_ASSIGN_OR_RETURN(Bytes ct, token->EncryptNonDet(ByteView(payload)));
    ++*token_ops;
    out.push_back(std::move(ct));
  }
  return out;
}

Result<std::vector<uint64_t>> SlotCounters(
    const std::vector<SourceTuple>& tuples,
    const std::vector<std::string>& domain) {
  std::map<std::string, size_t> slot_of;
  for (size_t i = 0; i < domain.size(); ++i) {
    slot_of[domain[i]] = i;
  }
  std::vector<uint64_t> counters(2 * domain.size(), 0);
  for (const SourceTuple& t : tuples) {
    auto it = slot_of.find(t.group);
    if (it == slot_of.end()) {
      return Status::InvalidArgument("group '" + t.group +
                                     "' outside the announced domain");
    }
    if (t.value < 0 ||
        t.value != static_cast<double>(static_cast<uint64_t>(t.value))) {
      return Status::InvalidArgument(
          "packed protocol requires non-negative integer values");
    }
    counters[2 * it->second] += static_cast<uint64_t>(t.value);
    counters[2 * it->second + 1] += 1;
  }
  return counters;
}

Result<std::vector<SourceTuple>> DomainNoise(
    const std::vector<SourceTuple>& real,
    const std::vector<std::string>& domain, uint32_t fakes_per_value) {
  const std::set<std::string> domain_set(domain.begin(), domain.end());
  for (const SourceTuple& t : real) {
    if (domain_set.count(t.group) == 0) {
      return Status::InvalidArgument("group '" + t.group +
                                     "' outside the announced domain");
    }
  }
  // Cover the complementary domain: every domain value receives fake
  // tuples from every participant, flattening the histogram.
  std::vector<SourceTuple> noise;
  noise.reserve(domain.size() * fakes_per_value);
  for (const std::string& v : domain) {
    for (uint32_t i = 0; i < fakes_per_value; ++i) {
      noise.push_back({v, 0.0});
    }
  }
  return noise;
}

Result<std::vector<KeyedTuple>> DetEncrypt(
    mcu::SecureToken* token, const std::vector<SourceTuple>& real,
    const std::vector<SourceTuple>& noise, uint64_t* token_ops) {
  std::vector<KeyedTuple> out;
  out.reserve(real.size() + noise.size());
  for (size_t i = 0; i < real.size() + noise.size(); ++i) {
    const bool fake = i >= real.size();
    const SourceTuple& t = fake ? noise[i - real.size()] : real[i];
    KeyedTuple kt;
    PDS_ASSIGN_OR_RETURN(
        kt.key, token->EncryptDet(ByteView(std::string_view(t.group))));
    Bytes payload = EncodeAggPayload(fake, t.value, fake ? 0 : 1, "");
    PDS_ASSIGN_OR_RETURN(kt.payload_ct,
                         token->EncryptNonDet(ByteView(payload)));
    *token_ops += 2;
    out.push_back(std::move(kt));
  }
  return out;
}

Result<std::vector<KeyedTuple>> HistogramEncrypt(
    mcu::SecureToken* token, const std::vector<SourceTuple>& tuples,
    uint32_t num_buckets, uint64_t* token_ops) {
  if (num_buckets == 0) {
    return Status::InvalidArgument("need >= 1 bucket");
  }
  std::vector<KeyedTuple> out;
  out.reserve(tuples.size());
  for (const SourceTuple& t : tuples) {
    // The bucket id travels in plaintext (that IS the histogram leakage);
    // the payload keeps the true group inside the ciphertext.
    KeyedTuple kt;
    kt.key.resize(4);
    EncodeU32(kt.key.data(),
              static_cast<uint32_t>(Fnv1a64(std::string_view(t.group)) %
                                    num_buckets));
    Bytes payload = EncodeAggPayload(false, t.value, 1, t.group);
    PDS_ASSIGN_OR_RETURN(kt.payload_ct,
                         token->EncryptNonDet(ByteView(payload)));
    ++*token_ops;
    out.push_back(std::move(kt));
  }
  return out;
}

Result<ClassAggregate> AggregateClass(mcu::SecureToken* token, ByteView key,
                                      std::span<const Bytes> payloads,
                                      uint64_t* token_ops) {
  ClassAggregate out;
  PDS_ASSIGN_OR_RETURN(Bytes group_plain, token->DecryptDet(key));
  ++*token_ops;
  out.group = ByteView(group_plain).ToString();
  if (out.group.rfind(kFakeGroupPrefix, 0) == 0) {
    // Whole class is white noise; discard inside the token.
    out.noise = true;
    *token_ops += payloads.size();  // decrypt-and-drop
    return out;
  }
  // Noise payloads carry no group, so the fold has at most one entry.
  GroupStates folded;  // pdslint: secret
  PDS_RETURN_IF_ERROR(DecryptFold(token, payloads, &folded, token_ops));
  for (const auto& [group, state] : folded) {
    out.state.sum += state.sum;
    out.state.count += state.count;
  }
  return out;
}

}  // namespace pds::global
