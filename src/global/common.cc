#include "global/common.h"

#include <cmath>
#include <cstring>

#include "obs/obs.h"

namespace pds::global {

Bytes EncodeAggPayload(bool fake, double sum, uint64_t count,
                       const std::string& group) {
  Bytes out;
  out.reserve(17 + group.size());
  out.push_back(fake ? 1 : 0);
  uint64_t bits;
  std::memcpy(&bits, &sum, 8);
  PutU64(&out, bits);
  PutU64(&out, count);
  out.insert(out.end(), group.begin(), group.end());
  return out;
}

Result<AggPayload> DecodeAggPayload(ByteView in) {
  if (in.size() < 17) {
    return Status::Corruption("agg payload too short");
  }
  AggPayload p;
  p.fake = in[0] != 0;
  uint64_t bits = GetU64(in.data() + 1);
  std::memcpy(&p.sum, &bits, 8);
  p.count = GetU64(in.data() + 9);
  p.group = in.subview(17, in.size() - 17).ToString();
  return p;
}

double LeakageReport::MaxClassFraction() const {
  if (tuples_observed == 0 || class_sizes.empty()) {
    return 0.0;
  }
  uint64_t max = 0;
  for (uint64_t s : class_sizes) {
    max = std::max(max, s);
  }
  return static_cast<double>(max) / static_cast<double>(tuples_observed);
}

double LeakageReport::ClassEntropyBits() const {
  if (tuples_observed == 0) {
    return 0.0;
  }
  double h = 0.0;
  for (uint64_t s : class_sizes) {
    if (s == 0) {
      continue;
    }
    double p = static_cast<double>(s) / static_cast<double>(tuples_observed);
    h -= p * std::log2(p);
  }
  return h;
}

void Metrics::Merge(const Metrics& other) {
  messages += other.messages;
  bytes += other.bytes;
  rounds += other.rounds;
  token_crypto_ops += other.token_crypto_ops;
  ssi_ops += other.ssi_ops;
  bytes_token_to_ssi += other.bytes_token_to_ssi;
  bytes_ssi_to_token += other.bytes_ssi_to_token;
  tokens_missing += other.tokens_missing;
}

std::map<std::string, double> Finalize(const GroupStates& states,
                                       AggFunc func) {
  std::map<std::string, double> out;
  for (const auto& [group, s] : states) {
    if (s.count == 0) {
      continue;  // only fake contributions
    }
    switch (func) {
      case AggFunc::kSum:
        out[group] = s.sum;
        break;
      case AggFunc::kCount:
        out[group] = static_cast<double>(s.count);
        break;
      case AggFunc::kAvg:
        out[group] = s.sum / static_cast<double>(s.count);
        break;
    }
  }
  return out;
}

std::map<std::string, double> PlainAggregate(
    const std::vector<Participant>& participants, AggFunc func) {
  GroupStates states;
  for (const Participant& p : participants) {
    for (const SourceTuple& t : p.tuples) {
      GroupState& s = states[t.group];
      s.sum += t.value;
      ++s.count;
    }
  }
  return Finalize(states, func);
}

void RecordProtocolRun(const char* name, const Metrics& metrics,
                       const LeakageReport& leakage) {
  // Fleet-wide accumulators; resolved once, then plain atomic adds.
  struct ProtocolObs {
    obs::Counter* runs;
    obs::Counter* rounds;
    obs::Counter* token_to_ssi_bytes;
    obs::Counter* ssi_to_token_bytes;
    obs::Counter* messages;
    obs::Counter* token_crypto_ops;
    obs::Counter* ssi_ops;
  };
  static const ProtocolObs hooks = [] {
    obs::Registry& reg = obs::Registry::Global();
    return ProtocolObs{
        reg.GetCounter("protocol.runs", "ops"),
        reg.GetCounter("protocol.rounds", "ops"),
        reg.GetCounter("wire.token_to_ssi_bytes", "bytes"),
        reg.GetCounter("wire.ssi_to_token_bytes", "bytes"),
        reg.GetCounter("wire.messages", "ops"),
        reg.GetCounter("protocol.token_crypto_ops", "ops"),
        reg.GetCounter("protocol.ssi_ops", "ops")};
  }();
  hooks.runs->Add(1);
  hooks.rounds->Add(metrics.rounds);
  hooks.token_to_ssi_bytes->Add(metrics.bytes_token_to_ssi);
  hooks.ssi_to_token_bytes->Add(metrics.bytes_ssi_to_token);
  hooks.messages->Add(metrics.messages);
  hooks.token_crypto_ops->Add(metrics.token_crypto_ops);
  hooks.ssi_ops->Add(metrics.ssi_ops);
  // Per-run leakage and wire totals ride the trace (not the metrics
  // registry): they are properties of one run, not accumulating quantities.
  obs::Tracer::Global().Instant(name, "leakage", "distinct_classes",
                                static_cast<double>(leakage.distinct_classes),
                                "max_class_fraction",
                                leakage.MaxClassFraction());
  obs::Tracer::Global().Instant(
      name, "wire", "token_to_ssi_bytes",
      static_cast<double>(metrics.bytes_token_to_ssi), "ssi_to_token_bytes",
      static_cast<double>(metrics.bytes_ssi_to_token));
}

}  // namespace pds::global
