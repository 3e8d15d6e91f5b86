#ifndef PDS_NET_TOKEN_CLIENT_H_
#define PDS_NET_TOKEN_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ac/policy.h"
#include "common/clock.h"
#include "common/rng.h"
#include "global/common.h"
#include "net/codec.h"
#include "net/fault_injection.h"
#include "net/transport.h"
#include "pds/pds_node.h"

/// The token side of the real wire: wraps a SecureToken (or a full PdsNode)
/// in a runtime that connects to the SSI, proves fleet membership, and
/// answers protocol rounds until told to stop.
///
/// All plaintext handling happens here — "inside" the token, exactly as in
/// the in-process protocols; only ciphertext and final (authorized)
/// aggregates cross the transport.
namespace pds::net {

class TokenClient {
 public:
  struct Config {
    /// Either a bare token with pre-exported tuples...
    mcu::SecureToken* token = nullptr;
    std::vector<global::SourceTuple> tuples;
    /// ...or a full PdsNode whose tuples are policy-exported on Connect().
    node::PdsNode* pds_node = nullptr;
    ac::Subject subject;
    std::string table;
    std::string group_column;
    std::string value_column;
    /// Handshake receive deadline.
    uint32_t deadline_ms = 2000;
    /// Poll granularity of the serve loop (Stop() latency bound).
    uint32_t poll_ms = 50;
    /// Seed-driven token-level fault plan. `swallow_first` and
    /// `disconnect_after_replies` are consumed here; the link-level rates
    /// belong on a FaultInjectingTransport wrapping the transport instead.
    /// Every realized fault lands in injection_log() — print it on test
    /// failure and the scenario reproduces from the seed alone.
    FaultPlan faults;
    /// Reconnect factory for churn: returns a fresh transport whose peer
    /// end the harness has handed to SsiServer::ReadmitSession. Null means
    /// a churned client simply stays gone (the SSI degrades to quorum).
    std::function<Result<std::unique_ptr<Transport>>()> reconnect;
    /// Reconnect attempt k sleeps backoff*k plus a seeded jitter in
    /// [0, backoff] before dialing — a thundering herd of churned tokens
    /// must not re-arrive in lockstep.
    uint32_t reconnect_backoff_ms = 5;
    /// Bound on reconnect attempts across the client's lifetime.
    uint32_t max_reconnects = 2;
    /// Packed-Paillier context (the querier's public packing parameters,
    /// distributed out of band before the round). Required to answer
    /// kPackedCollect rounds; null tokens refuse them with an ErrorMsg.
    const crypto::PackedAggregate* packed = nullptr;
    /// Clock behind the reconnect backoff sleep. Null means the process
    /// wall clock; the simulation tier injects a sim::SimClock here.
    Clock* clock = nullptr;
  };

  TokenClient(std::unique_ptr<Transport> transport, Config config);
  ~TokenClient();

  TokenClient(const TokenClient&) = delete;
  TokenClient& operator=(const TokenClient&) = delete;

  /// Runs the challenge/hello/ack handshake (and, with a PdsNode, the
  /// policy-checked export of the authorized tuples).
  [[nodiscard]] Status Connect();

  /// Answers rounds until Bye, transport close, or Stop(). Returns Ok on a
  /// clean shutdown. A transport that closes mid-session triggers the
  /// reconnect/backoff loop when the fault plan churned us and a reconnect
  /// factory is configured; otherwise close is a clean goodbye.
  [[nodiscard]] Status ServeLoop();

  /// Connect() + ServeLoop() on a background thread.
  void Start();
  void Stop();
  /// Joins the background thread and returns its final status.
  [[nodiscard]] Status Join();

  /// Single-frame ("pumped") mode for the discrete-event simulator: no
  /// thread, no blocking Recv — the event loop delivers frames one at a
  /// time. StartPumped() runs Connect()'s tuple export and arms the
  /// handshake state machine (the challenge has not necessarily arrived
  /// yet); each PumpOnce() polls the transport once (Recv with a zero
  /// deadline) and advances exactly one frame through the same
  /// handshake/serve logic the blocking path uses. Requires a null
  /// reconnect factory — a churned pumped client stays gone by design
  /// (re-dialing from inside the event loop would recurse into it).
  [[nodiscard]] Status StartPumped();

  /// One pump step. Returns true while the session is live (including
  /// "nothing pending right now"), false once it ended cleanly (Bye, or
  /// transport closed after rounds), or the fatal error that killed it.
  [[nodiscard]] Result<bool> PumpOnce();

  /// True once PumpOnce() has seen the handshake through.
  [[nodiscard]] bool pump_serving() const {
    return pump_state_ == PumpState::kServing;
  }
  [[nodiscard]] bool pump_done() const {
    return pump_state_ == PumpState::kDone;
  }

  [[nodiscard]] const Transport& transport() const { return *transport_; }

  /// Token-level realized faults (swallows, churns) for scenario repro.
  [[nodiscard]] const InjectionLog& injection_log() const { return log_; }

 private:
  /// Where the pumped session stands; blocking mode never leaves kIdle.
  enum class PumpState { kIdle, kAwaitChallenge, kAwaitAck, kServing, kDone };

  [[nodiscard]] mcu::SecureToken* token() const;
  /// The tuple-export half of Connect(): policy-checked ExportAs from a
  /// PdsNode, or the pre-exported Config::tuples.
  [[nodiscard]] Status PrepareTuples();
  /// The handshake half of Connect(), reused on reconnect: a returning
  /// token must re-prove fleet membership against a FRESH challenge.
  [[nodiscard]] Status Handshake();
  /// One inbound handshake frame each — the shared bodies of the blocking
  /// Handshake() and the pumped state machine. Byte-for-byte the same
  /// decoding, attestation, and replies on both paths.
  [[nodiscard]] Status OnChallengeFrame(const Bytes& frame);
  [[nodiscard]] Status OnAckFrame(const Bytes& frame);
  /// One serve-loop iteration over an already-received frame: decode,
  /// replay/fault handling, dispatch to the round handler, reply. Sets
  /// *done when the session ended cleanly (Bye).
  [[nodiscard]] Status ServeFrame(const Bytes& frame, bool* done);
  /// All frames leave through here: mirrors the SSI's checksum trailer once
  /// one has been seen on the inbound side.
  [[nodiscard]] Status SendFrame(Bytes frame);
  /// Single egress point for decrypted per-group aggregates.
  [[nodiscard]] Status SendAggResult(const AggResultMsg& reply);
  /// Fault-plan churn: after enough replies, close the transport, back off
  /// with seeded jitter, and re-handshake over a fresh connection.
  [[nodiscard]] Status MaybeChurn();
  [[nodiscard]] Status HandleCollect(const RoundRequestMsg& req);
  [[nodiscard]] Status HandleAggregate(const RoundRequestMsg& req);
  [[nodiscard]] Status HandleFinalize(const RoundRequestMsg& req);
  [[nodiscard]] Status HandlePackedCollect(const RoundRequestMsg& req);
  [[nodiscard]] Status HandleDetCollect(const RoundRequestMsg& req);
  [[nodiscard]] Status HandleClassAggregate(const RoundRequestMsg& req);
  [[nodiscard]] Status HandleSealedCollect(const RoundRequestMsg& req);

  std::unique_ptr<Transport> transport_;
  Config config_;
  Clock* clock_;  // never null: Config::clock or the wall clock
  PumpState pump_state_ = PumpState::kIdle;
  std::vector<global::SourceTuple> tuples_;
  InjectionLog log_;
  Rng rng_;  // jitter + fault draws, seeded from the fault plan
  uint32_t swallow_budget_ = 0;
  uint64_t frame_index_ = 0;          // frames received this session
  uint64_t replies_since_connect_ = 0;
  uint32_t reconnects_done_ = 0;
  /// Highest round id answered so far: a request below it is a replay of an
  /// already-answered round and gets refused (an equal id is the SSI's
  /// legitimate retry of an unanswered request).
  uint32_t highest_round_ = 0;
  /// Set once an inbound frame carried a checksum trailer; all frames we
  /// send afterwards mirror it.
  bool peer_checksummed_ = false;
  uint32_t malformed_seen_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  Status loop_status_;
};

}  // namespace pds::net

#endif  // PDS_NET_TOKEN_CLIENT_H_
