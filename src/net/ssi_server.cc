#include "net/ssi_server.h"

#include <algorithm>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <span>
#include <sstream>
#include <thread>
#include <utility>

#include "common/clock.h"
#include "common/rng.h"
#include "global/agg_steps.h"
#include "global/observer.h"
#include "obs/obs.h"

namespace pds::net {

namespace {

using global::AggFunc;
using global::AggOutput;
using global::Metrics;

/// Fleet-wide wire counters; resolved once, then plain atomic adds
/// (registry lookups must stay out of protocol loops).
struct NetObs {
  obs::Counter* frames_sent;
  obs::Counter* frames_received;
  obs::Counter* deadline_hits;
  obs::Counter* retries;
  obs::Counter* quorum_shortfalls;
  obs::Counter* missing_tokens;
  obs::Counter* frame_rejects;
  obs::Histogram* round_trip_us;
};

const NetObs& NetHooks() {
  static const NetObs hooks = [] {
    obs::Registry& reg = obs::Registry::Global();
    return NetObs{reg.GetCounter("net.frames_sent", "ops"),
                  reg.GetCounter("net.frames_received", "ops"),
                  reg.GetCounter("net.deadline_hits", "ops"),
                  reg.GetCounter("net.retries", "ops"),
                  reg.GetCounter("net.quorum_shortfalls", "ops"),
                  reg.GetCounter("net.missing_tokens", "ops"),
                  reg.GetCounter("net.frame_rejects", "ops"),
                  reg.GetHistogram("net.round_trip_us", "us")};
  }();
  return hooks;
}

/// Holds "a protocol run is in flight" (readmission refused) until reset.
struct ClearFlag {
  void operator()(std::atomic<bool>* flag) const { flag->store(false); }
};
using RunGuard = std::unique_ptr<std::atomic<bool>, ClearFlag>;

/// The round id a reply message answers, or nullptr for non-reply types.
const uint32_t* ReplyRoundId(const Message& m) {
  if (const TupleBatchMsg* tb = std::get_if<TupleBatchMsg>(&m.body)) {
    return &tb->round_id;
  }
  if (const AggResultMsg* ar = std::get_if<AggResultMsg>(&m.body)) {
    return &ar->round_id;
  }
  return nullptr;
}

}  // namespace

/// A protocol run in flight: the sessions live when it began, and the
/// readmission refusal that lasts as long as the run.
struct SsiServer::ActiveRun {
  std::vector<size_t> live;
  RunGuard guard;
};

SsiServer::SsiServer(const Config& config)
    : config_(config),
      clock_(config.clock != nullptr ? config.clock : WallClock()),
      trace_rng_(config.nonce_seed ^ 0x7472616365ULL) {}

Bytes SsiServer::Outgoing(Bytes frame,
                          const std::optional<TraceContext>& trace) const {
  return ExtendFrame(std::move(frame), trace, config_.checksum_frames);
}

bool SsiServer::IsStragglerFailure(const Status& s) {
  // A token that timed out, whose transport died, or whose byte stream
  // desynchronized (a truncating/bit-flipping link breaks socket framing)
  // is gone for the run; quorum decides whether the protocol proceeds.
  return s.code() == StatusCode::kDeadlineExceeded ||
         s.code() == StatusCode::kIoError ||
         s.code() == StatusCode::kCorruption;
}

Result<size_t> SsiServer::Handshake(std::unique_ptr<Transport> transport,
                                    bool readmit) {
  if (config_.verifier == nullptr) {
    return Status::FailedPrecondition("SsiServer has no verifier token");
  }
  obs::Span span(readmit ? "net.readmit-session" : "net.accept-session",
                 "net");
  // Deterministic nonce stream (tests); entropy is not the point here — the
  // challenge only needs to be fresh per handshake, which the monotonic
  // counter guarantees across readmissions too.
  Rng nonce_rng(config_.nonce_seed + nonce_counter_++);
  ChallengeMsg challenge;
  challenge.nonce.resize(16);
  nonce_rng.FillBytes(challenge.nonce.data(), challenge.nonce.size());

  Bytes frame = Outgoing(EncodeChallenge(challenge));
  PDS_RETURN_IF_ERROR(transport->Send(frame));
  PDS_ASSIGN_OR_RETURN(Bytes reply,
                       transport->Recv(config_.deadline_ms));
  PDS_ASSIGN_OR_RETURN(HelloMsg hello, DecodeAs<HelloMsg>(reply));

  PDS_ASSIGN_OR_RETURN(
      bool ok_proof,
      config_.verifier->VerifyAttestation(ByteView(challenge.nonce),
                                          hello.proof));
  HelloAckMsg ack{ok_proof};
  PDS_RETURN_IF_ERROR(transport->Send(Outgoing(EncodeHelloAck(ack))));
  if (!ok_proof) {
    transport->Close();
    return Status::PermissionDenied(
        "token failed fleet attestation; session refused");
  }

  if (readmit) {
    for (size_t i = 0; i < sessions_.size(); ++i) {
      Session* s = sessions_[i].get();
      if (s->token_id != hello.token_id) {
        continue;
      }
      // The returning token picks up its old round sequence: the next
      // request it sees continues where the session left off, so stale
      // replies from before the churn stay detectable.
      s->transport->Close();
      s->transport = std::move(transport);
      s->alive = true;
      return i;
    }
  }
  auto session = std::make_unique<Session>();
  session->transport = std::move(transport);
  session->token_id = hello.token_id;
  session->alive = true;
  if (!config_.lean_sessions) {
    session->stats = std::make_unique<SessionStats>();
  }
  sessions_.push_back(std::move(session));
  return sessions_.size() - 1;
}

Result<size_t> SsiServer::AcceptSession(std::unique_ptr<Transport> transport) {
  return Handshake(std::move(transport), /*readmit=*/false);
}

Result<size_t> SsiServer::ReadmitSession(
    std::unique_ptr<Transport> transport) {
  if (run_active_) {
    return Status::FailedPrecondition(
        "cannot readmit a token while a protocol run is in flight; the "
        "abandoned round degrades to quorum instead");
  }
  return Handshake(std::move(transport), /*readmit=*/true);
}

Result<Message> SsiServer::RoundTrip(Session* s, Bytes frame,
                                     uint32_t round_id,
                                     global::RoundCost* cost) {
  const NetObs& hooks = NetHooks();
  // One span per logical round trip (retries included). When recorded, its
  // id rides the wire as the trace-context parent so the token's handler
  // span hangs under it in the merged cross-process trace.
  obs::Span rt_span("net.round-trip", "net");
  std::optional<TraceContext> trace;
  if (rt_span.id() != 0) {
    trace = TraceContext{run_trace_id_, rt_span.id(), /*sampled=*/true};
  }
  const Bytes wire_frame = Outgoing(std::move(frame), trace);
  // Admission-control gauge: bytes of this session's in-flight request,
  // released however the round trip ends.
  SessionStats* stats = s->stats.get();
  struct InFlight {
    SessionStats* stats;
    ~InFlight() {
      if (stats != nullptr) stats->buffer_bytes.Set(0);
    }
  } in_flight{stats};
  if (stats != nullptr) {
    stats->buffer_bytes.Set(static_cast<double>(wire_frame.size()));
  }
  for (uint32_t attempt = 0; attempt <= config_.max_retries; ++attempt) {
    if (attempt > 0) {
      ++cost->retries;
      hooks.retries->Add(1);
      if (stats != nullptr) {
        stats->retries.Add(1);
      }
      clock_->SleepMs(config_.backoff_ms * attempt);
    }
    uint64_t attempt_start_ns = clock_->NowNs();
    PDS_RETURN_IF_ERROR(s->transport->Send(wire_frame));
    cost->metrics.AddSsiToToken(wire_frame.size());
    hooks.frames_sent->Add(1);

    const uint64_t deadline_ns =
        clock_->NowNs() +
        static_cast<uint64_t>(config_.deadline_ms) * 1000000ull;
    while (true) {
      uint64_t now_ns = clock_->NowNs();
      if (now_ns >= deadline_ns) {
        break;
      }
      // Round the wait up, as the socket transport does: a sub-millisecond
      // remainder must still reach Recv, or a 1 ms deadline never reads
      // even a reply that is already buffered.
      auto recv = s->transport->Recv(static_cast<uint32_t>(
          (deadline_ns - now_ns + 999999ull) / 1000000ull));
      if (!recv.ok()) {
        if (recv.status().code() == StatusCode::kDeadlineExceeded) {
          break;
        }
        return recv.status();
      }
      Bytes reply = std::move(recv).value();
      cost->metrics.AddTokenToSsi(reply.size());
      hooks.frames_received->Add(1);
      auto decoded = DecodeMessage(reply);
      if (!decoded.ok()) {
        // A frame the link corrupted in-payload (the stream itself is still
        // framed, or Recv would have failed): discard it and keep waiting —
        // the retry budget, not one flipped bit, decides this session's
        // fate.
        ++cost->frame_rejects;
        hooks.frame_rejects->Add(1);
        continue;
      }
      Message m = std::move(decoded).value();
      if (const ErrorMsg* err = std::get_if<ErrorMsg>(&m.body)) {
        if (err->code == 3) {
          // The token rejected a frame it could not decode (our request was
          // mangled in flight). Transient: let the deadline drive a retry.
          ++cost->frame_rejects;
          hooks.frame_rejects->Add(1);
          continue;
        }
        return Status::FailedPrecondition("peer error: " + err->message);
      }
      const uint32_t* got = ReplyRoundId(m);
      if (got == nullptr) {
        return Status::FailedPrecondition("unexpected reply message type");
      }
      if (*got < round_id) {
        continue;  // stale answer to an earlier attempt/round; discard
      }
      if (*got > round_id) {
        return Status::Corruption("reply from a future round");
      }
      double rtt_us =
          static_cast<double>(clock_->NowNs() - attempt_start_ns) / 1000.0;
      if (stats != nullptr) {
        stats->rtt_us.Record(rtt_us);
        stats->round_trips.Add(1);
      }
      rtt_us_.Record(rtt_us);
      hooks.round_trip_us->Record(rtt_us);
      return m;
    }
    ++cost->deadline_hits;
    hooks.deadline_hits->Add(1);
    if (stats != nullptr) {
      stats->deadline_hits.Add(1);
    }
  }
  return Status::DeadlineExceeded("token did not answer round " +
                                  std::to_string(round_id) + " after " +
                                  std::to_string(config_.max_retries + 1) +
                                  " attempts");
}

Result<SsiServer::ActiveRun> SsiServer::BeginRun() {
  std::vector<size_t> live;
  live.reserve(sessions_.size());
  for (size_t i = 0; i < sessions_.size(); ++i) {
    if (sessions_[i]->alive) {
      live.push_back(i);
    }
  }
  if (live.empty()) {
    return Status::InvalidArgument("no live sessions");
  }
  report_ = RoundReport{};
  report_.sessions = live.size();
  run_trace_id_ = trace_rng_.Next();
  run_active_.store(true);
  return ActiveRun{std::move(live), RunGuard(&run_active_)};
}

void SsiServer::DropStraggler(Session* s) {
  s->alive = false;
  if (s->stats != nullptr) s->stats->stragglers.Add(1);
}

template <typename Reply>
Result<Reply> SsiServer::Exchange(Session* s, RoundKind kind, AggFunc func,
                                  std::vector<Bytes> batch,
                                  global::RoundCost* cost) {
  RoundRequestMsg req;
  req.header.round_id = s->next_round_id++;
  req.header.kind = kind;
  req.header.func = func;
  req.batch = std::move(batch);
  PDS_ASSIGN_OR_RETURN(
      Message reply,
      RoundTrip(s, EncodeRoundRequest(req), req.header.round_id, cost));
  Reply* body = std::get_if<Reply>(&reply.body);
  if (body == nullptr) {
    return Status::FailedPrecondition(
        "round " + std::to_string(req.header.round_id) +
        " was answered with the wrong message type");
  }
  cost->metrics.token_crypto_ops += body->token_ops;
  return std::move(*body);
}

Result<std::vector<SsiServer::Answer>> SsiServer::Collect(
    const char* span_name, const std::vector<size_t>& live, RoundKind kind,
    AggFunc func, const std::vector<Bytes>& batch, Metrics* metrics) {
  obs::Span phase_span(span_name, "net");
  const size_t nl = live.size();
  std::vector<global::RoundCost> costs(nl);
  std::vector<std::optional<TupleBatchMsg>> replies(nl);
  PDS_RETURN_IF_ERROR(global::FleetExecutor::Run(
      config_.executor, nl, [&](size_t li) -> Status {
        Session* s = sessions_[live[li]].get();
        auto reply = Exchange<TupleBatchMsg>(s, kind, func, batch, &costs[li]);
        if (reply.ok()) {
          replies[li] = std::move(reply).value();
        } else if (IsStragglerFailure(reply.status())) {
          DropStraggler(s);  // gone for the whole run
        } else {
          return reply.status();
        }
        return Status::Ok();
      }));
  std::vector<Answer> answers;
  answers.reserve(nl);
  for (size_t li = 0; li < nl; ++li) {
    Charge(costs[li], metrics);
    if (replies[li].has_value()) {
      answers.push_back({live[li], std::move(*replies[li])});
    }
  }
  ++metrics->rounds;
  PDS_RETURN_IF_ERROR(RequireQuorum(answers.size(), nl, metrics));
  return answers;
}

void SsiServer::Charge(const global::RoundCost& cost, Metrics* metrics) {
  metrics->Merge(cost.metrics);
  report_.deadline_hits += cost.deadline_hits;
  report_.retries += cost.retries;
  report_.frame_rejects += cost.frame_rejects;
}

Status SsiServer::RequireQuorum(size_t responders, size_t sessions,
                                Metrics* metrics) {
  report_.responders = responders;
  report_.missing_tokens = sessions - responders;
  metrics->tokens_missing = report_.missing_tokens;
  const NetObs& hooks = NetHooks();
  if (report_.missing_tokens > 0) {
    hooks.missing_tokens->Add(report_.missing_tokens);
  }
  // quorum * sessions carries the binary rounding of `quorum` (0.56 * 25
  // evaluates to 14.000000000000002). Forgiving a few ulps of it keeps a
  // quorum the responders meet exactly from being rounded up past them;
  // only a quorum written with 15 or more significant digits can exceed
  // responders / sessions by less than that.
  const double exact = config_.quorum * static_cast<double>(sessions);
  const size_t need = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(exact * (1.0 - 4 * DBL_EPSILON))));
  if (responders >= need) {
    return Status::Ok();
  }
  hooks.quorum_shortfalls->Add(1);
  return Status::FailedPrecondition(
      "quorum not reached: " + std::to_string(responders) + "/" +
      std::to_string(sessions) + " tokens answered, need " +
      std::to_string(need));
}

/// The round drivers' channel over the wire: responder r is the session
/// that answered the collect round r-th, each token step is one framed
/// request to it, and each unit is charged the frames it sent and received.
class SsiServer::Channel final : public global::RoundChannel {
 public:
  Channel(SsiServer* server, const std::vector<Answer>& answers, AggFunc func)
      : server_(server), answers_(answers), func_(func) {}

  size_t size() const override { return answers_.size(); }
  global::FleetExecutor* executor() const override {
    return server_->config_.executor;
  }
  void Charge(const global::RoundCost& cost, Metrics* metrics) override {
    server_->Charge(cost, metrics);
  }

  Result<std::vector<std::vector<Bytes>>> AggregatePartitions(
      size_t r, std::span<const global::Partition> parts,
      global::RoundCost* cost) override {
    Session* s = session(r);
    std::vector<std::vector<Bytes>> out;
    out.reserve(parts.size());
    for (const global::Partition& p : parts) {
      PDS_ASSIGN_OR_RETURN(
          TupleBatchMsg batch,
          server_->Exchange<TupleBatchMsg>(s, RoundKind::kAggregate, func_,
                                           {p.items.begin(), p.items.end()},
                                           cost));
      out.push_back(std::move(batch.batch));
    }
    return out;
  }

  Result<global::GroupStates> AggregateUnit(size_t r,
                                            const global::KeyClass& unit,
                                            bool fold,
                                            global::RoundCost* cost) override {
    // [payloads...] for a kFinalize fold, [key, payloads...] for a class.
    std::vector<Bytes> batch;
    batch.reserve(unit.payloads.size() + 1);
    if (!fold) {
      batch.push_back(unit.key);
    }
    batch.insert(batch.end(), unit.payloads.begin(), unit.payloads.end());
    PDS_ASSIGN_OR_RETURN(
        AggResultMsg result,
        server_->Exchange<AggResultMsg>(
            session(r),
            fold ? RoundKind::kFinalize : RoundKind::kClassAggregate, func_,
            std::move(batch), cost));
    global::GroupStates states;
    for (const AggResultEntry& e : result.entries) {
      states[e.group].sum += e.sum;
      states[e.group].count += e.count;
    }
    return states;
  }

  bool Drop(size_t r, const Status& s) override {
    if (!IsStragglerFailure(s)) {
      return false;
    }
    DropStraggler(session(r));
    return true;
  }

 private:
  Session* session(size_t r) const {
    return server_->sessions_[answers_[r].session].get();
  }

  SsiServer* server_;
  const std::vector<Answer>& answers_;
  AggFunc func_;
};

Result<AggOutput> SsiServer::RunSecureAggregation(AggFunc func) {
  PDS_ASSIGN_OR_RETURN(ActiveRun run, BeginRun());
  Metrics metrics;
  global::HbcObserver observer;
  obs::Span protocol_span("net.secure-agg", "net");
  protocol_span.AddArg("sessions", static_cast<double>(run.live.size()));

  // Collect: every live token encrypts and sends its authorized tuples;
  // stragglers are tolerated down to the quorum. A token that vanishes
  // after that takes its partition's data with it, so the partition rounds
  // have no quorum: retry, then fail the run.
  PDS_ASSIGN_OR_RETURN(std::vector<Answer> answers,
                       Collect("net.collect", run.live, RoundKind::kCollect,
                               func, {}, &metrics));
  std::vector<std::vector<Bytes>> sent;
  sent.reserve(answers.size());
  for (Answer& a : answers) {
    sent.push_back(std::move(a.reply.batch));
  }
  Channel channel(this, answers, func);
  PDS_ASSIGN_OR_RETURN(
      global::GroupStates state,
      global::RunPartitionRounds(&channel, std::move(sent),
                                 config_.partition_capacity, &observer,
                                 &metrics));
  AggOutput out =
      global::FinishRun("net-secure-agg", state, func, metrics, observer);
  stats_ring_.Capture(obs::Registry::Global());
  return out;
}

Result<AggOutput> SsiServer::RunPackedAggregation(
    AggFunc func, const crypto::PackedAggregate& agg,
    const std::vector<std::string>& domain) {
  if (domain.empty()) {
    return Status::InvalidArgument("packed round requires the value domain");
  }
  if (domain.size() > kMaxPackedSlots) {
    return Status::InvalidArgument("packed domain exceeds kMaxPackedSlots");
  }
  if (agg.layout().num_slots != 2 * domain.size()) {
    return Status::InvalidArgument(
        "packed layout does not match the domain (need 2 slots per value)");
  }
  PDS_ASSIGN_OR_RETURN(ActiveRun run, BeginRun());
  Metrics metrics;
  global::HbcObserver observer;
  obs::Span protocol_span("net.packed-paillier", "net");
  protocol_span.AddArg("sessions", static_cast<double>(run.live.size()));
  protocol_span.AddArg("domain", static_cast<double>(domain.size()));

  // The single round: every token packs its counters into one ciphertext.
  // The request batch carries the domain labels in slot order.
  std::vector<Bytes> labels;
  labels.reserve(domain.size());
  for (const std::string& g : domain) {
    labels.push_back(ByteView(std::string_view(g)).ToBytes());
  }
  PDS_ASSIGN_OR_RETURN(
      std::vector<Answer> answers,
      Collect("net.packed-collect", run.live, RoundKind::kPackedCollect, func,
              labels, &metrics));
  std::vector<crypto::BigInt> cts;
  cts.reserve(answers.size());
  for (const Answer& a : answers) {
    const std::vector<Bytes>& batch = a.reply.batch;
    if (batch.size() != 1) {
      return Status::FailedPrecondition(
          "packed round expected exactly one ciphertext");
    }
    if (batch[0].size() > kMaxPackedCiphertextBytes) {
      return Status::Corruption(
          "packed ciphertext exceeds kMaxPackedCiphertextBytes");
    }
    cts.push_back(crypto::BigInt::FromBytes(ByteView(batch[0])));
  }
  Channel channel(this, answers, func);
  PDS_ASSIGN_OR_RETURN(global::GroupStates state,
                       global::RunPackedFold(&channel, agg, cts, domain,
                                             &observer, &metrics));
  AggOutput out =
      global::FinishRun("net-packed-paillier", state, func, metrics, observer);
  stats_ring_.Capture(obs::Registry::Global());
  return out;
}

Result<AggOutput> SsiServer::RunDetAggregation(AggFunc func,
                                               const DetRunConfig& det) {
  if (det.variant == DetVariant::kDomainNoise && det.domain.empty()) {
    return Status::InvalidArgument("domain-noise run requires the domain");
  }
  if (det.variant == DetVariant::kHistogram && det.num_buckets == 0) {
    return Status::InvalidArgument("histogram run requires num_buckets >= 1");
  }
  PDS_ASSIGN_OR_RETURN(ActiveRun run, BeginRun());
  Metrics metrics;
  global::HbcObserver observer;
  obs::Span protocol_span("net.det-agg", "net");
  protocol_span.AddArg("sessions", static_cast<double>(run.live.size()));
  protocol_span.AddArg("variant", static_cast<double>(det.variant));

  // Batch entry 0 carries the public round parameters; domain-noise rounds
  // append the domain labels.
  std::vector<Bytes> request{EncodeDetParams(det)};
  if (det.variant == DetVariant::kDomainNoise) {
    for (const std::string& g : det.domain) {
      request.push_back(ByteView(std::string_view(g)).ToBytes());
    }
  }
  PDS_ASSIGN_OR_RETURN(
      std::vector<Answer> answers,
      Collect("net.det-collect", run.live, RoundKind::kDetCollect, func,
              request, &metrics));
  std::vector<std::vector<global::KeyedTuple>> sent(answers.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    std::vector<Bytes>& batch = answers[i].reply.batch;
    if (batch.size() % 2 != 0) {
      return Status::Corruption(
          "det collect batch must hold (key, payload) pairs");
    }
    sent[i].reserve(batch.size() / 2);
    for (size_t k = 0; k < batch.size(); k += 2) {
      sent[i].push_back({std::move(batch[k]), std::move(batch[k + 1])});
    }
  }
  Channel channel(this, answers, func);
  const bool histogram = det.variant == DetVariant::kHistogram;
  PDS_ASSIGN_OR_RETURN(global::GroupStates state,
                       global::RunClassRounds(&channel, std::move(sent),
                                              histogram, &observer, &metrics));
  const char* name = histogram ? "net-histogram"
                     : det.variant == DetVariant::kDomainNoise
                         ? "net-domain-noise"
                         : "net-white-noise";
  AggOutput out = global::FinishRun(name, state, func, metrics, observer);
  stats_ring_.Capture(obs::Registry::Global());
  return out;
}

Result<SsiServer::SealedCollect> SsiServer::RunSealedCollect() {
  PDS_ASSIGN_OR_RETURN(ActiveRun run, BeginRun());
  SealedCollect out;
  global::HbcObserver observer;
  obs::Span protocol_span("net.sealed-collect", "net");
  protocol_span.AddArg("sessions", static_cast<double>(run.live.size()));

  PDS_ASSIGN_OR_RETURN(
      std::vector<Answer> answers,
      Collect("net.collect", run.live, RoundKind::kSealedCollect,
              AggFunc::kSum, {}, &out.metrics));
  out.manifests.reserve(answers.size());
  for (const Answer& a : answers) {
    const std::vector<Bytes>& batch = a.reply.batch;
    if (batch.empty()) {
      return Status::FailedPrecondition(
          "sealed collect expected [manifest, sealed tuples...]");
    }
    PDS_ASSIGN_OR_RETURN(global::Manifest manifest,
                         global::DecodeManifest(ByteView(batch[0])));
    out.manifests.push_back(manifest);
    for (size_t i = 1; i < batch.size(); ++i) {
      PDS_ASSIGN_OR_RETURN(global::SealedTuple t,
                           global::DecodeSealedTuple(ByteView(batch[i])));
      observer.ObserveTuple(ByteView(t.payload_ct));
      ++out.metrics.ssi_ops;
      out.tuples.push_back(std::move(t));
    }
  }

  out.leakage = observer.Report();
  global::RecordProtocolRun("net-sealed-collect", out.metrics, out.leakage);
  stats_ring_.Capture(obs::Registry::Global());
  return out;
}

std::vector<SsiServer::SessionTelemetry> SsiServer::Telemetry() const {
  std::vector<SessionTelemetry> out;
  out.reserve(sessions_.size());
  for (const auto& s : sessions_) {
    SessionTelemetry t;
    t.token_id = s->token_id;
    t.alive = s->alive;
    if (s->stats != nullptr) {
      t.round_trips = s->stats->round_trips.Value();
      t.retries = s->stats->retries.Value();
      t.deadline_hits = s->stats->deadline_hits.Value();
      t.stragglers = s->stats->stragglers.Value();
      t.rtt_p50_us = s->stats->rtt_us.Percentile(50.0);
      t.rtt_p90_us = s->stats->rtt_us.Percentile(90.0);
      t.rtt_p99_us = s->stats->rtt_us.Percentile(99.0);
      t.rtt_p999_us = s->stats->rtt_us.Percentile(99.9);
      t.buffer_bytes = s->stats->buffer_bytes.Value();
      t.buffer_high_water = s->stats->buffer_bytes.max();
    }
    out.push_back(t);
  }
  return out;
}

namespace {

void JsonF64(std::ostream& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", std::isfinite(v) ? v : 0.0);
  out << buf;
}

}  // namespace

std::string SsiServer::StatsJson() const {
  std::ostringstream out;
  out << "{\n\"sessions\": [";
  bool first = true;
  for (const SessionTelemetry& t : Telemetry()) {
    if (!first) out << ',';
    first = false;
    out << "\n  {\"token_id\": " << t.token_id
        << ", \"alive\": " << (t.alive ? "true" : "false")
        << ", \"round_trips\": " << t.round_trips
        << ", \"retries\": " << t.retries
        << ", \"deadline_hits\": " << t.deadline_hits
        << ", \"stragglers\": " << t.stragglers << ", \"rtt_p50_us\": ";
    JsonF64(out, t.rtt_p50_us);
    out << ", \"rtt_p90_us\": ";
    JsonF64(out, t.rtt_p90_us);
    out << ", \"rtt_p99_us\": ";
    JsonF64(out, t.rtt_p99_us);
    out << ", \"rtt_p999_us\": ";
    JsonF64(out, t.rtt_p999_us);
    out << ", \"buffer_bytes\": ";
    JsonF64(out, t.buffer_bytes);
    out << ", \"buffer_high_water\": ";
    JsonF64(out, t.buffer_high_water);
    out << '}';
  }
  out << "\n],\n\"fleet\": {\"round_trips\": " << rtt_us_.count()
      << ", \"rtt_p50_us\": ";
  JsonF64(out, rtt_us_.Percentile(50.0));
  out << ", \"rtt_p90_us\": ";
  JsonF64(out, rtt_us_.Percentile(90.0));
  out << ", \"rtt_p99_us\": ";
  JsonF64(out, rtt_us_.Percentile(99.0));
  out << ", \"rtt_p999_us\": ";
  JsonF64(out, rtt_us_.Percentile(99.9));
  out << "},\n\"registry\": " << obs::Registry::Global().MetricsJson();
  out << ",\n\"ring\": " << stats_ring_.Json();
  out << "}\n";
  return out.str();
}

Status SsiServer::ServeStats(Transport* transport) {
  PDS_ASSIGN_OR_RETURN(Bytes frame, transport->Recv(config_.deadline_ms));
  PDS_ASSIGN_OR_RETURN(Message m, DecodeMessage(frame));
  if (!std::holds_alternative<StatsRequestMsg>(m.body)) {
    (void)transport->Send(
        EncodeError(ErrorMsg{1, "stats channel accepts only kStatsRequest"}));
    return Status::FailedPrecondition(
        "stats channel received a non-stats message");
  }
  std::string json = StatsJson();
  if (json.size() > kMaxStatsJsonBytes) {
    // The reply must stay decodable by a bounds-checking peer; a registry
    // large enough to overflow the bound is a deployment error worth
    // surfacing over silently truncated JSON.
    json = "{\"error\": \"stats snapshot exceeds kMaxStatsJsonBytes\"}";
  }
  return transport->Send(EncodeStatsReply(StatsReplyMsg{std::move(json)}));
}

void SsiServer::Shutdown() {
  for (auto& s : sessions_) {
    if (s->alive && !s->transport->closed()) {
      // Best-effort farewell; the transport may already be gone.
      (void)s->transport->Send(Outgoing(EncodeBye()));
    }
    s->transport->Close();
    s->alive = false;
  }
}

}  // namespace pds::net
