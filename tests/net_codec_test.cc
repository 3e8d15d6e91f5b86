// pds::net codec: round-trips for every message type, and the totality
// guarantee — truncated, mutated, oversized or trailing-garbage frames
// return Status errors without crashes or partial state (exercised under
// ASan by the sanitizer CI job).

#include <gtest/gtest.h>

#include <limits>

#include "net/codec.h"

namespace pds::net {
namespace {

Bytes SomeCiphertext(uint8_t tag, size_t n) {
  Bytes ct(n);
  for (size_t i = 0; i < n; ++i) {
    ct[i] = static_cast<uint8_t>(tag + i);
  }
  return ct;
}

std::vector<Message> AllMessageTypes() {
  std::vector<Message> msgs;
  msgs.push_back({ChallengeMsg{SomeCiphertext(1, 16)}});
  HelloMsg hello;
  hello.token_id = 42;
  for (size_t i = 0; i < hello.proof.size(); ++i) {
    hello.proof[i] = static_cast<uint8_t>(i * 3);
  }
  msgs.push_back({hello});
  msgs.push_back({HelloAckMsg{true}});
  RoundRequestMsg req;
  req.header = {7, RoundKind::kAggregate, global::AggFunc::kAvg};
  req.batch = {SomeCiphertext(2, 40), SomeCiphertext(3, 64)};
  msgs.push_back({req});
  TupleBatchMsg tb;
  tb.round_id = 7;
  tb.token_ops = 12;
  tb.batch = {SomeCiphertext(4, 33)};
  msgs.push_back({tb});
  AggResultMsg ar;
  ar.round_id = 8;
  ar.token_ops = 5;
  ar.entries = {{"lyon", 123.5, 4}, {"paris", -2.25, 9}};
  msgs.push_back({ar});
  msgs.push_back({ErrorMsg{3, "boom"}});
  msgs.push_back({ByeMsg{}});
  msgs.push_back({StatsRequestMsg{}});
  msgs.push_back({StatsReplyMsg{"{\"sessions\": []}"}});
  return msgs;
}

TEST(NetCodecTest, RoundTripEveryMessageType) {
  for (const Message& m : AllMessageTypes()) {
    Bytes frame = EncodeMessage(m);
    ASSERT_GE(frame.size(), kFrameHeaderSize);
    auto header = DecodeFrameHeader(frame);
    ASSERT_TRUE(header.ok()) << header.status().ToString();
    EXPECT_EQ(header->type, m.type());
    EXPECT_EQ(header->payload_len, frame.size() - kFrameHeaderSize);
    auto decoded = DecodeMessage(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(*decoded == m) << "type "
                               << static_cast<int>(m.type());
  }
}

TEST(NetCodecTest, PackedCollectRoundKindRoundTrips) {
  RoundRequestMsg req;
  req.header = {11, RoundKind::kPackedCollect, global::AggFunc::kSum};
  // The batch carries the public domain labels in slot order.
  req.batch = {SomeCiphertext(5, 6), SomeCiphertext(6, 6)};
  Bytes frame = EncodeRoundRequest(req);
  auto decoded = DecodeAs<RoundRequestMsg>(ByteView(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == req);

  // The kind byte sits after the header and the u32 round id; values past
  // kClassAggregate are still corruption.
  frame[kFrameHeaderSize + 4] = 8;
  EXPECT_FALSE(DecodeMessage(ByteView(frame)).ok());
}

TEST(NetCodecTest, PackedDomainRejectsOversizedSlotCount) {
  // The packed round's label list is sized by a wire-declared count; the
  // decoder must reject counts past kMaxPackedSlots before sizing anything.
  RoundRequestMsg req;
  req.header = {12, RoundKind::kPackedCollect, global::AggFunc::kSum};
  for (size_t i = 0; i <= kMaxPackedSlots; ++i) {
    req.batch.push_back(SomeCiphertext(static_cast<uint8_t>(i), 4));
  }
  Bytes frame = EncodeRoundRequest(req);
  EXPECT_EQ(DecodeMessage(frame).status().code(), StatusCode::kCorruption);

  // The same count is fine on the ordinary aggregate path, which is bounded
  // by kMaxBatchTuples rather than the packed slot layout.
  req.header.kind = RoundKind::kAggregate;
  Bytes ok_frame = EncodeRoundRequest(req);
  auto decoded = DecodeMessage(ok_frame);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
}

TEST(NetCodecTest, HeaderRejectsBadMagic) {
  Bytes frame = EncodeBye();
  frame[0] ^= 0xFF;
  EXPECT_EQ(DecodeMessage(frame).status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, HeaderRejectsWrongVersion) {
  Bytes frame = EncodeBye();
  frame[2] = kWireVersion + 1;
  EXPECT_EQ(DecodeMessage(frame).status().code(), StatusCode::kCorruption);
  // The version nibble is checked under the extension flags too.
  frame[2] = (kWireVersion + 1) | kFrameFlagTrace;
  EXPECT_EQ(DecodeFrameHeader(frame).status().code(),
            StatusCode::kCorruption);
}

TEST(NetCodecTest, HeaderRejectsUndefinedFlagBits) {
  // Only the trace and checksum flags are defined; the other two high bits
  // of byte 2 are corruption, alone or next to a defined flag.
  for (uint8_t bad : {uint8_t{0x10}, uint8_t{0x20},
                      static_cast<uint8_t>(0x10 | kFrameFlagTrace),
                      static_cast<uint8_t>(0x20 | kFrameFlagChecksum)}) {
    Bytes frame = ExtendFrame(EncodeBye(), TraceContext{1, 2, true}, true);
    frame[2] = kWireVersion | bad;
    EXPECT_EQ(DecodeFrameHeader(frame).status().code(),
              StatusCode::kCorruption)
        << static_cast<int>(bad);
  }
}

TEST(NetCodecTest, HeaderRejectsRetiredPartitionMapType) {
  // Code 5 belonged to the partition-map announcement; it is unassigned
  // now and must decode as an unknown type, not as its neighbour.
  Bytes frame = EncodeBye();
  frame[3] = 5;
  EXPECT_EQ(DecodeFrameHeader(frame).status().code(),
            StatusCode::kCorruption);
}

TEST(NetCodecTest, UntracedFramesStillDecodeWithoutTraceContext) {
  // A frame without extensions carries no flag bits and decodes with no
  // trace context attached.
  for (const Message& m : AllMessageTypes()) {
    Bytes frame = EncodeMessage(m);
    EXPECT_EQ(frame[2], kWireVersion);
    auto decoded = DecodeMessage(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_FALSE(decoded->trace.has_value());
  }
}

TEST(NetCodecTest, TraceContextRoundTripsOnEveryMessageType) {
  const TraceContext ctx{0x1122334455667788ULL, 0xAABBCCDDEEFF0011ULL, true};
  for (const Message& m : AllMessageTypes()) {
    Bytes traced = ExtendFrame(EncodeMessage(m), ctx, false);
    auto header = DecodeFrameHeader(traced);
    ASSERT_TRUE(header.ok()) << header.status().ToString();
    EXPECT_TRUE(header->traced);
    EXPECT_FALSE(header->checksummed);
    auto decoded = DecodeMessage(traced);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_TRUE(decoded->trace.has_value());
    EXPECT_EQ(*decoded->trace, ctx);
    EXPECT_TRUE(decoded->body == m.body)
        << "type " << static_cast<int>(m.type());
  }
}

TEST(NetCodecTest, TracedHeaderRejectsTruncatedTraceBlock) {
  // A traced frame whose declared payload cannot even hold the trace block
  // is rejected from the header alone, before any allocation.
  Bytes frame = EncodeBye();  // payload_len = 0
  frame[2] = kWireVersion | kFrameFlagTrace;
  EXPECT_EQ(DecodeFrameHeader(frame).status().code(),
            StatusCode::kCorruption);

  // One byte short of a full trace block: still a header-level reject.
  Bytes traced = ExtendFrame(EncodeBye(), TraceContext{1, 2, true}, false);
  traced.pop_back();
  EncodeU32(traced.data() + 4,
            static_cast<uint32_t>(traced.size() - kFrameHeaderSize));
  EXPECT_EQ(DecodeFrameHeader(traced).status().code(),
            StatusCode::kCorruption);
}

TEST(NetCodecTest, TraceContextRejectsUndefinedFlagBits) {
  Bytes traced = ExtendFrame(EncodeBye(), TraceContext{1, 2, false}, false);
  // The flags byte is the last byte of the 17-byte trace block.
  traced[kFrameHeaderSize + kTraceContextSize - 1] = 0x02;
  EXPECT_EQ(DecodeMessage(traced).status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, TraceContextTruncationSweepNeverSucceeds) {
  Bytes traced = ExtendFrame(
      EncodeStatsReply(StatsReplyMsg{"{\"fleet\": {}}"}),
      TraceContext{3, 4, true}, false);
  for (size_t len = 0; len < traced.size(); ++len) {
    EXPECT_FALSE(DecodeMessage(ByteView(traced.data(), len)).ok())
        << "prefix " << len;
  }
}

TEST(NetCodecTest, ChecksumTrailerMismatchIsCorruption) {
  TupleBatchMsg tb;
  tb.round_id = 3;
  tb.batch = {SomeCiphertext(9, 24)};
  const Bytes frame = ExtendFrame(EncodeTupleBatch(tb), std::nullopt, true);
  auto decoded = DecodeMessage(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->checksummed);
  EXPECT_FALSE(decoded->trace.has_value());
  // A flipped bit anywhere -- header, body or the trailer itself -- fails
  // the trailer check (or the header checks before it).
  for (size_t i : {size_t{4}, kFrameHeaderSize + 5, frame.size() - 1}) {
    Bytes bad = frame;
    bad[i] ^= 0x01;
    EXPECT_EQ(DecodeMessage(bad).status().code(), StatusCode::kCorruption)
        << "byte " << i;
  }
  Bytes bad = frame;
  bad[kFrameHeaderSize + 5] ^= 0x01;
  EXPECT_NE(DecodeMessage(bad).status().message().find("checksum"),
            std::string::npos);
}

TEST(NetCodecTest, ChecksumHeaderRejectsPayloadShorterThanTrailer) {
  // Rejected from the 8 header bytes alone, before any allocation: a
  // checksum flag over fewer than 8 payload bytes, and both flags over
  // fewer than trace block + trailer.
  Bytes frame = EncodeBye();
  frame[2] = kWireVersion | kFrameFlagChecksum;
  for (uint32_t len = 0; len < kFrameChecksumSize; ++len) {
    EncodeU32(frame.data() + 4, len);
    EXPECT_EQ(DecodeFrameHeader(frame).status().code(),
              StatusCode::kCorruption)
        << len;
  }
  frame[2] |= kFrameFlagTrace;
  EncodeU32(frame.data() + 4,
            static_cast<uint32_t>(kTraceContextSize + kFrameChecksumSize - 1));
  EXPECT_EQ(DecodeFrameHeader(frame).status().code(), StatusCode::kCorruption);
  EncodeU32(frame.data() + 4,
            static_cast<uint32_t>(kTraceContextSize + kFrameChecksumSize));
  EXPECT_TRUE(DecodeFrameHeader(frame).ok());
}

TEST(NetCodecTest, TracedChecksummedTruncationSweepNeverSucceeds) {
  Bytes frame = ExtendFrame(
      EncodeStatsReply(StatsReplyMsg{"{\"fleet\": {}}"}),
      TraceContext{5, 6, true}, true);
  ASSERT_TRUE(DecodeMessage(frame).ok());
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(DecodeMessage(ByteView(frame.data(), len)).ok())
        << "prefix " << len;
  }
}

TEST(NetCodecTest, EncodeInvertsDecodeForEveryTypeAndExtension) {
  // Plain, traced, checksummed and both: each extension adds exactly its
  // fixed size, decode recovers it, and re-encoding the decoded message
  // gives back the same bytes.
  const TraceContext ctx{0x0102030405060708ULL, 0x1112131415161718ULL, true};
  for (const Message& plain : AllMessageTypes()) {
    const size_t plain_size = EncodeMessage(plain).size();
    for (int ext = 0; ext < 4; ++ext) {
      Message m = plain;
      if ((ext & 1) != 0) m.trace = ctx;
      m.checksummed = (ext & 2) != 0;
      const Bytes frame = EncodeMessage(m);
      EXPECT_EQ(frame.size(),
                plain_size + (m.trace ? kTraceContextSize : 0) +
                    (m.checksummed ? kFrameChecksumSize : 0));
      auto decoded = DecodeMessage(frame);
      ASSERT_TRUE(decoded.ok())
          << "type " << static_cast<int>(m.type()) << " ext " << ext << ": "
          << decoded.status().ToString();
      EXPECT_TRUE(*decoded == m)
          << "type " << static_cast<int>(m.type()) << " ext " << ext;
      EXPECT_EQ(EncodeMessage(*decoded), frame)
          << "type " << static_cast<int>(m.type()) << " ext " << ext;
    }
  }
}

TEST(NetCodecTest, StatsReplyRejectsOversizedDeclaredJson) {
  // A lying JSON length past kMaxStatsJsonBytes must be rejected before the
  // decoder sizes the string.
  Bytes frame;
  PutU16(&frame, kMagic);
  frame.push_back(kWireVersion);
  frame.push_back(static_cast<uint8_t>(MsgType::kStatsReply));
  PutU32(&frame, 4);  // payload: just the string length
  PutU32(&frame, static_cast<uint32_t>(kMaxStatsJsonBytes + 1));
  auto decoded = DecodeMessage(frame);
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, HeaderRejectsUnknownType) {
  Bytes frame = EncodeBye();
  frame[3] = 200;
  EXPECT_EQ(DecodeMessage(frame).status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, HeaderRejectsOversizedDeclaredLength) {
  // A lying length field must be rejected from the 8 header bytes alone,
  // before any payload allocation.
  Bytes frame = EncodeBye();
  EncodeU32(frame.data() + 4, static_cast<uint32_t>(kMaxFramePayload + 1));
  EXPECT_EQ(DecodeFrameHeader(frame).status().code(),
            StatusCode::kCorruption);
}

TEST(NetCodecTest, RejectsLengthMismatch) {
  TupleBatchMsg tb;
  tb.round_id = 1;
  tb.batch = {SomeCiphertext(1, 10)};
  Bytes frame = EncodeTupleBatch(tb);
  frame.push_back(0);  // trailing junk beyond the declared payload
  EXPECT_EQ(DecodeMessage(frame).status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, RejectsTrailingBytesInsidePayload) {
  // Junk *inside* the declared payload (decoder finishes early).
  Bytes frame = EncodeHelloAck(HelloAckMsg{true});
  frame.push_back(0xAB);
  EncodeU32(frame.data() + 4,
            static_cast<uint32_t>(frame.size() - kFrameHeaderSize));
  EXPECT_EQ(DecodeMessage(frame).status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, RejectsBatchCountAboveBound) {
  // Hand-build a TupleBatch whose declared item count exceeds
  // kMaxBatchTuples while the frame itself stays tiny.
  Bytes frame;
  PutU16(&frame, kMagic);
  frame.push_back(kWireVersion);
  frame.push_back(static_cast<uint8_t>(MsgType::kTupleBatch));
  PutU32(&frame, 4 + 8 + 4);  // round_id + token_ops + count
  PutU32(&frame, 1);          // round_id
  PutU64(&frame, 0);          // token_ops
  PutU32(&frame, static_cast<uint32_t>(kMaxBatchTuples + 1));
  auto decoded = DecodeMessage(frame);
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(decoded.status().message().find("kMaxBatchTuples"),
            std::string::npos);
}

TEST(NetCodecTest, TruncationSweepNeverSucceeds) {
  for (const Message& m : AllMessageTypes()) {
    Bytes frame = EncodeMessage(m);
    for (size_t len = 0; len < frame.size(); ++len) {
      auto decoded = DecodeMessage(ByteView(frame.data(), len));
      EXPECT_FALSE(decoded.ok())
          << "type " << static_cast<int>(m.type()) << " prefix " << len;
    }
  }
}

TEST(NetCodecTest, MutationSweepIsErrorClean) {
  // Flip every byte of every message type two ways. A mutation may still
  // decode (e.g. a flipped bit inside a counter value) but must never
  // crash, read out of bounds, or leave a half-built message — and
  // whatever decodes must re-encode cleanly.
  for (const Message& m : AllMessageTypes()) {
    Bytes frame = EncodeMessage(m);
    for (size_t i = 0; i < frame.size(); ++i) {
      for (uint8_t flip : {uint8_t{0x01}, uint8_t{0xFF}}) {
        Bytes mutated = frame;
        mutated[i] ^= flip;
        auto decoded = DecodeMessage(mutated);
        if (decoded.ok()) {
          Bytes reencoded = EncodeMessage(*decoded);
          EXPECT_GE(reencoded.size(), kFrameHeaderSize);
        }
      }
    }
  }
}

TEST(NetCodecTest, DecodeAsEnforcesType) {
  Bytes frame = EncodeHelloAck(HelloAckMsg{true});
  auto wrong = DecodeAs<TupleBatchMsg>(frame);
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);
  auto right = DecodeAs<HelloAckMsg>(frame);
  ASSERT_TRUE(right.ok());
  EXPECT_TRUE(right->accepted);
}

TEST(NetCodecTest, DecodeAsSurfacesPeerError) {
  Bytes frame = EncodeError(ErrorMsg{1, "token on fire"});
  auto got = DecodeAs<TupleBatchMsg>(frame);
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(got.status().message().find("token on fire"), std::string::npos);
}

TEST(NetCodecTest, EmptyBatchAndEmptyEntriesRoundTrip) {
  RoundRequestMsg req;
  req.header = {1, RoundKind::kCollect, global::AggFunc::kSum};
  auto decoded = DecodeMessage(EncodeRoundRequest(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::get<RoundRequestMsg>(decoded->body).batch.empty());

  AggResultMsg ar;
  ar.round_id = 2;
  auto decoded2 = DecodeMessage(EncodeAggResult(ar));
  ASSERT_TRUE(decoded2.ok());
  EXPECT_TRUE(std::get<AggResultMsg>(decoded2->body).entries.empty());
}

TEST(NetCodecTest, DetParamsRejectNonFiniteOrNegativeNoiseRatio) {
  DetParams p;
  p.noise_ratio = 0.5;
  auto ok = DecodeDetParams(ByteView(EncodeDetParams(p)));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(*ok, p);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                     std::numeric_limits<double>::infinity()}) {
    p.noise_ratio = bad;
    auto got = DecodeDetParams(ByteView(EncodeDetParams(p)));
    EXPECT_EQ(got.status().code(), StatusCode::kCorruption) << bad;
  }
}

}  // namespace
}  // namespace pds::net
