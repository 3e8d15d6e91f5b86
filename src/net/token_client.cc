#include "net/token_client.h"

#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "global/agg_steps.h"
#include "global/integrity.h"
#include "obs/obs.h"

namespace pds::net {

namespace {

/// Bound on malformed frames tolerated per session before the client gives
/// up on the stream — a hostile or broken SSI must not spin us forever.
constexpr uint32_t kMaxMalformedFrames = 8;

/// A handler failure that indicts the REQUEST, not the session: answered
/// with ErrorMsg{3} so the serve loop survives a malformed round.
bool IsRequestFault(const Status& s) {
  return s.code() == StatusCode::kInvalidArgument ||
         s.code() == StatusCode::kCorruption ||
         s.code() == StatusCode::kOutOfRange;
}

/// The public domain labels a round request carries from batch entry
/// `first` on.
std::vector<std::string> DomainLabels(const RoundRequestMsg& req,
                                      size_t first) {
  std::vector<std::string> domain;
  domain.reserve(req.batch.size() - first);
  for (size_t i = first; i < req.batch.size(); ++i) {
    domain.push_back(ByteView(req.batch[i]).ToString());
  }
  return domain;
}

}  // namespace

TokenClient::TokenClient(std::unique_ptr<Transport> transport, Config config)
    : transport_(std::move(transport)),
      config_(std::move(config)),
      clock_(config_.clock != nullptr ? config_.clock : WallClock()),
      rng_(config_.faults.seed),
      swallow_budget_(config_.faults.swallow_first) {}

TokenClient::~TokenClient() {
  Stop();
  if (thread_.joinable()) {
    thread_.join();
  }
}

mcu::SecureToken* TokenClient::token() const {
  if (config_.pds_node != nullptr) {
    return &config_.pds_node->token();
  }
  return config_.token;
}

Status TokenClient::PrepareTuples() {
  mcu::SecureToken* tok = token();
  if (tok == nullptr) {
    return Status::InvalidArgument("TokenClient needs a token or a PdsNode");
  }
  if (config_.pds_node != nullptr) {
    // Policy-checked export: only tuples the owner authorized for sharing
    // ever reach the runtime, and they stay inside the token until
    // encrypted.
    std::vector<std::pair<std::string, double>> exported;
    PDS_RETURN_IF_ERROR(config_.pds_node->ExportAs(
        config_.subject, config_.table, config_.group_column,
        config_.value_column, &exported));
    tuples_.clear();
    tuples_.reserve(exported.size());
    for (auto& [group, value] : exported) {
      tuples_.push_back({std::move(group), value});
    }
  } else {
    tuples_ = config_.tuples;
  }
  return Status::Ok();
}

Status TokenClient::Connect() {
  PDS_RETURN_IF_ERROR(PrepareTuples());
  return Handshake();
}

Status TokenClient::OnChallengeFrame(const Bytes& frame) {
  mcu::SecureToken* tok = token();
  PDS_ASSIGN_OR_RETURN(Message cm, DecodeMessage(frame));
  if (cm.checksummed) {
    peer_checksummed_ = true;
  }
  const ChallengeMsg* challenge = std::get_if<ChallengeMsg>(&cm.body);
  if (challenge == nullptr) {
    return Status::FailedPrecondition("handshake expected a challenge");
  }
  HelloMsg hello;
  hello.token_id = tok->id();
  PDS_ASSIGN_OR_RETURN(hello.proof, tok->Attest(ByteView(challenge->nonce)));
  return SendFrame(EncodeHello(hello));
}

Status TokenClient::OnAckFrame(const Bytes& frame) {
  PDS_ASSIGN_OR_RETURN(HelloAckMsg ack, DecodeAs<HelloAckMsg>(frame));
  if (!ack.accepted) {
    return Status::PermissionDenied("SSI refused the session");
  }
  return Status::Ok();
}

Status TokenClient::Handshake() {
  obs::Span span("net.token-connect", "net");
  PDS_ASSIGN_OR_RETURN(Bytes frame, transport_->Recv(config_.deadline_ms));
  PDS_RETURN_IF_ERROR(OnChallengeFrame(frame));
  PDS_ASSIGN_OR_RETURN(Bytes ack_frame, transport_->Recv(config_.deadline_ms));
  return OnAckFrame(ack_frame);
}

Status TokenClient::SendFrame(Bytes frame) {
  return transport_->Send(
      ExtendFrame(std::move(frame), std::nullopt, peer_checksummed_));
}

// pdslint: secret(reply)
Status TokenClient::SendAggResult(const AggResultMsg& reply) {
  // Finalize/class rounds return the decrypted per-group aggregate to the
  // querier by design -- the [TNP14] protocols' output step; only sums and
  // counts leave the token, never the tuples they were folded from.
  return SendFrame(EncodeAggResult(reply));  // pdslint: declassify([TNP14] aggregate output step)
}

Status TokenClient::MaybeChurn() {
  const FaultPlan& fp = config_.faults;
  if (fp.disconnect_after_replies == 0 ||
      replies_since_connect_ < fp.disconnect_after_replies ||
      reconnects_done_ >= config_.max_reconnects) {
    return Status::Ok();
  }
  ++reconnects_done_;
  transport_->Close();
  log_.Add({frame_index_, FaultKind::kChurn, "token",
            "disconnected after " + std::to_string(replies_since_connect_) +
                " replies; reconnect attempt " +
                std::to_string(reconnects_done_)});
  if (config_.reconnect == nullptr) {
    // Nobody to dial: stay gone and let the SSI degrade to quorum.
    return Status::Ok();
  }
  uint32_t backoff =
      config_.reconnect_backoff_ms * reconnects_done_ +
      static_cast<uint32_t>(rng_.Uniform(config_.reconnect_backoff_ms + 1));
  clock_->SleepMs(backoff);
  PDS_ASSIGN_OR_RETURN(std::unique_ptr<Transport> fresh, config_.reconnect());
  transport_ = std::move(fresh);
  replies_since_connect_ = 0;
  peer_checksummed_ = false;
  // Fresh challenge, fresh proof: membership is re-verified, a recorded
  // proof from the first handshake would be rejected.
  return Handshake();
}

Status TokenClient::HandleCollect(const RoundRequestMsg& req) {
  TupleBatchMsg reply;
  reply.round_id = req.header.round_id;
  PDS_ASSIGN_OR_RETURN(reply.batch, global::EncryptTuples(token(), tuples_,
                                                          &reply.token_ops));
  return SendFrame(EncodeTupleBatch(reply));
}

Status TokenClient::HandlePackedCollect(const RoundRequestMsg& req) {
  PDS_ASSIGN_OR_RETURN(std::vector<uint64_t> counters,
                       global::SlotCounters(tuples_, DomainLabels(req, 0)));
  PDS_ASSIGN_OR_RETURN(crypto::BigInt ct,
                       token()->EncryptPacked(*config_.packed, counters));
  TupleBatchMsg reply;
  reply.round_id = req.header.round_id;
  reply.token_ops = 1;  // one packed encryption, whatever the domain size
  reply.batch.push_back(ct.ToBytes());
  return SendFrame(EncodeTupleBatch(reply));
}

Status TokenClient::HandleAggregate(const RoundRequestMsg& req) {
  TupleBatchMsg reply;
  reply.round_id = req.header.round_id;
  PDS_ASSIGN_OR_RETURN(reply.batch, global::AggregatePartition(
                                        token(), req.batch, &reply.token_ops));
  return SendFrame(EncodeTupleBatch(reply));
}

Status TokenClient::HandleFinalize(const RoundRequestMsg& req) {
  AggResultMsg reply;
  reply.round_id = req.header.round_id;
  global::GroupStates final_state;
  PDS_RETURN_IF_ERROR(global::DecryptFold(token(), req.batch, &final_state,
                                          &reply.token_ops));
  reply.entries.reserve(final_state.size());
  for (const auto& [group, state] : final_state) {
    reply.entries.push_back({group, state.sum, state.count});
  }
  return SendAggResult(reply);
}

Status TokenClient::HandleDetCollect(const RoundRequestMsg& req) {
  mcu::SecureToken* tok = token();
  if (req.batch.empty()) {
    return Status::InvalidArgument("det collect carries no parameter blob");
  }
  PDS_ASSIGN_OR_RETURN(DetParams params,
                       DecodeDetParams(ByteView(req.batch[0])));
  // The parameters are untrusted: before drawing any noise, refuse a round
  // whose real plus fake tuples would not fit one reply batch.
  const double real = static_cast<double>(tuples_.size());
  double fakes = 0;
  if (params.variant == DetVariant::kWhiteNoise) {
    fakes = std::floor(real * params.noise_ratio);
  } else if (params.variant == DetVariant::kDomainNoise) {
    fakes = static_cast<double>(req.batch.size() - 1) *
            static_cast<double>(params.fakes_per_value);
  }
  if (real + fakes > static_cast<double>(kMaxBatchTuples / 2)) {
    return Status::InvalidArgument(
        "det collect would exceed one reply batch");
  }
  TupleBatchMsg reply;
  reply.round_id = req.header.round_id;
  std::vector<global::KeyedTuple> sent;
  if (params.variant == DetVariant::kHistogram) {
    PDS_ASSIGN_OR_RETURN(sent,
                         global::HistogramEncrypt(tok, tuples_,
                                                  params.num_buckets,
                                                  &reply.token_ops));
  } else {
    // White/domain noise: real tuples first, then this token's fakes.
    std::vector<global::SourceTuple> noise;
    if (params.variant == DetVariant::kWhiteNoise) {
      // The in-process protocol draws fake labels from one shared stream;
      // on the wire each token seeds its own from (noise_seed, token id)
      // and prefixes the id, so labels stay distinct across the fleet
      // without any cross-token coordination.
      Rng noise_rng(params.noise_seed + tok->id());
      for (size_t i = 0; i < static_cast<size_t>(fakes); ++i) {
        noise.push_back({std::string(global::kFakeGroupPrefix) +
                             std::to_string(tok->id()) + "-" +
                             std::to_string(noise_rng.Next()),
                         0.0});
      }
    } else {  // kDomainNoise: batch entries 1.. are the domain labels
      if (req.batch.size() < 2) {
        return Status::InvalidArgument("domain noise carries no domain");
      }
      PDS_ASSIGN_OR_RETURN(noise,
                           global::DomainNoise(tuples_, DomainLabels(req, 1),
                                               params.fakes_per_value));
    }
    PDS_ASSIGN_OR_RETURN(
        sent, global::DetEncrypt(tok, tuples_, noise, &reply.token_ops));
  }
  reply.batch.reserve(2 * sent.size());
  for (global::KeyedTuple& kt : sent) {
    reply.batch.push_back(std::move(kt.key));
    reply.batch.push_back(std::move(kt.payload_ct));
  }
  return SendFrame(EncodeTupleBatch(reply));
}

Status TokenClient::HandleClassAggregate(const RoundRequestMsg& req) {
  if (req.batch.empty()) {
    return Status::InvalidArgument("class aggregate carries no class key");
  }
  AggResultMsg reply;
  reply.round_id = req.header.round_id;
  PDS_ASSIGN_OR_RETURN(
      global::ClassAggregate ca,
      global::AggregateClass(token(), ByteView(req.batch[0]),
                             std::span<const Bytes>(req.batch).subspan(1),
                             &reply.token_ops));
  if (!ca.noise) {
    reply.entries.push_back({ca.group, ca.state.sum, ca.state.count});
  }
  return SendAggResult(reply);
}

Status TokenClient::HandleSealedCollect(const RoundRequestMsg& req) {
  mcu::SecureToken* tok = token();
  TupleBatchMsg reply;
  reply.round_id = req.header.round_id;
  PDS_ASSIGN_OR_RETURN(std::vector<Bytes> cts,
                       global::EncryptTuples(tok, tuples_, &reply.token_ops));
  PDS_ASSIGN_OR_RETURN(std::vector<global::SealedTuple> sealed,
                       global::SealTuples(tok, tok->id(), cts));
  reply.token_ops += sealed.size();  // one MAC per sealed tuple
  PDS_ASSIGN_OR_RETURN(
      global::Manifest manifest,
      global::MakeManifest(tok, tok->id(), sealed.size()));
  ++reply.token_ops;  // manifest MAC
  reply.batch.reserve(1 + sealed.size());
  reply.batch.push_back(global::EncodeManifest(manifest));
  for (const global::SealedTuple& t : sealed) {
    reply.batch.push_back(global::EncodeSealedTuple(t));
  }
  return SendFrame(EncodeTupleBatch(reply));
}

Status TokenClient::ServeFrame(const Bytes& frame, bool* done) {
  *done = false;
  ++frame_index_;
  auto decoded = DecodeMessage(frame);
  if (!decoded.ok()) {
    // A garbled frame indicts the frame, not the session — answer with a
    // transient error so the SSI can retry, but give up on a stream that
    // keeps producing garbage.
    if (++malformed_seen_ > kMaxMalformedFrames) {
      return Status::Corruption("too many malformed frames from the SSI");
    }
    ErrorMsg err{3, "malformed frame"};
    return SendFrame(EncodeError(err));
  }
  Message m = std::move(decoded.value());
  if (m.checksummed) {
    peer_checksummed_ = true;  // mirror the trailer from now on
  }
  if (std::get_if<ByeMsg>(&m.body) != nullptr) {
    *done = true;
    return Status::Ok();
  }
  const RoundRequestMsg* req = std::get_if<RoundRequestMsg>(&m.body);
  if (req == nullptr) {
    ErrorMsg err{1, "unexpected message type"};
    return SendFrame(EncodeError(err));
  }
  if (req->header.round_id < highest_round_) {
    // Replay of an already-answered round (an equal id is the SSI's
    // legitimate retry of a request we never answered).
    ErrorMsg err{4, "stale round replay rejected"};
    return SendFrame(EncodeError(err));
  }
  highest_round_ = req->header.round_id;
  if (swallow_budget_ > 0) {
    --swallow_budget_;  // fault plan: swallow the request silently
    log_.Add({frame_index_, FaultKind::kSwallowRequest, "token",
              "round " + std::to_string(req->header.round_id) +
                  " swallowed"});
    return Status::Ok();
  }
  // Parent this round's handler span under the SSI's round-trip span
  // when the frame carried trace context; the merged Chrome trace then
  // shows one cross-process timeline per round.
  obs::RemoteParent remote;
  if (m.trace.has_value()) {
    remote.span_id = m.trace->parent_span_id;
    remote.sampled = m.trace->sampled;
  }
  Status handled = Status::Ok();
  switch (req->header.kind) {
    case RoundKind::kCollect: {
      obs::Span span("net.round.collect", "net", remote);
      handled = HandleCollect(*req);
      break;
    }
    case RoundKind::kAggregate: {
      obs::Span span("net.round.aggregate", "net", remote);
      handled = HandleAggregate(*req);
      break;
    }
    case RoundKind::kFinalize: {
      obs::Span span("net.round.finalize", "net", remote);
      handled = HandleFinalize(*req);
      break;
    }
    case RoundKind::kPackedCollect: {
      if (config_.packed == nullptr) {
        ErrorMsg err{2, "token has no packed-Paillier context"};
        return SendFrame(EncodeError(err));
      }
      obs::Span span("net.round.packed-collect", "net", remote);
      handled = HandlePackedCollect(*req);
      break;
    }
    case RoundKind::kSealedCollect: {
      obs::Span span("net.round.sealed-collect", "net", remote);
      handled = HandleSealedCollect(*req);
      break;
    }
    case RoundKind::kDetCollect: {
      obs::Span span("net.round.det-collect", "net", remote);
      handled = HandleDetCollect(*req);
      break;
    }
    case RoundKind::kClassAggregate: {
      obs::Span span("net.round.class-aggregate", "net", remote);
      handled = HandleClassAggregate(*req);
      break;
    }
  }
  if (!handled.ok()) {
    if (!IsRequestFault(handled)) {
      return handled;
    }
    if (++malformed_seen_ > kMaxMalformedFrames) {
      return Status::Corruption("too many malformed rounds from the SSI");
    }
    ErrorMsg err{3, "malformed round request"};
    return SendFrame(EncodeError(err));
  }
  ++replies_since_connect_;
  return MaybeChurn();
}

Status TokenClient::ServeLoop() {
  while (!stop_.load()) {
    auto frame = transport_->Recv(config_.poll_ms);
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kDeadlineExceeded) {
        continue;  // nothing pending; poll again unless stopped
      }
      // Peer closed (or the link died): a closed transport after rounds is
      // the socket-level equivalent of Bye.
      return Status::Ok();
    }
    bool done = false;
    PDS_RETURN_IF_ERROR(ServeFrame(frame.value(), &done));
    if (done) {
      return Status::Ok();
    }
  }
  return Status::Ok();
}

Status TokenClient::StartPumped() {
  if (config_.reconnect != nullptr) {
    return Status::InvalidArgument(
        "pumped mode cannot re-dial from inside the event loop; use a null "
        "reconnect factory (churned tokens stay gone)");
  }
  if (pump_state_ != PumpState::kIdle) {
    return Status::FailedPrecondition("StartPumped called twice");
  }
  PDS_RETURN_IF_ERROR(PrepareTuples());
  pump_state_ = PumpState::kAwaitChallenge;
  return Status::Ok();
}

Result<bool> TokenClient::PumpOnce() {
  if (pump_state_ == PumpState::kIdle) {
    return Status::FailedPrecondition("PumpOnce before StartPumped");
  }
  if (pump_state_ == PumpState::kDone) {
    return false;
  }
  auto frame = transport_->Recv(0);
  if (!frame.ok()) {
    if (frame.status().code() == StatusCode::kDeadlineExceeded) {
      return true;  // nothing pending right now
    }
    // Transport closed: the socket-level equivalent of Bye (same clean
    // outcome the blocking ServeLoop reports).
    pump_state_ = PumpState::kDone;
    loop_status_ = Status::Ok();
    return false;
  }
  Status st = Status::Ok();
  bool done = false;
  switch (pump_state_) {
    case PumpState::kAwaitChallenge:
      st = OnChallengeFrame(frame.value());
      if (st.ok()) {
        pump_state_ = PumpState::kAwaitAck;
      }
      break;
    case PumpState::kAwaitAck:
      st = OnAckFrame(frame.value());
      if (st.ok()) {
        pump_state_ = PumpState::kServing;
      }
      break;
    case PumpState::kServing:
      st = ServeFrame(frame.value(), &done);
      break;
    default:
      st = Status::FailedPrecondition("pump state machine out of sequence");
      break;
  }
  if (!st.ok()) {
    pump_state_ = PumpState::kDone;
    loop_status_ = st;
    return st;
  }
  if (done) {
    pump_state_ = PumpState::kDone;
    loop_status_ = Status::Ok();
    return false;
  }
  return true;
}

void TokenClient::Start() {
  thread_ = std::thread([this] {
    Status st = Connect();
    if (st.ok()) {
      st = ServeLoop();
    }
    loop_status_ = std::move(st);
  });
}

void TokenClient::Stop() { stop_.store(true); }

Status TokenClient::Join() {
  if (thread_.joinable()) {
    thread_.join();
  }
  return loop_status_;
}

}  // namespace pds::net
