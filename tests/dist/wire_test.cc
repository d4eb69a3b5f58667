// Wire-protocol unit tests: every message type must survive an
// encode -> frame -> decode round trip unchanged, and every malformed frame
// — truncated, oversized, unknown-typed, or carrying trailing garbage —
// must be rejected with a Status, never a partial decode.

#include "frapp/dist/wire.h"

#include <gtest/gtest.h>

namespace frapp {
namespace dist {
namespace {

mining::Itemset MakeItemset(std::vector<mining::Item> items) {
  return *mining::Itemset::Create(std::move(items));
}

TEST(WireFrameTest, RoundTripsHeaderAndPayload) {
  Message message{MessageType::kCountResponse, {1, 2, 3, 4, 5}};
  const std::vector<uint8_t> frame = EncodeFrame(message);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 5);
  EXPECT_EQ(message.WireSize(), frame.size());

  size_t consumed = 0;
  const StatusOr<Message> decoded =
      DecodeFrame(frame.data(), frame.size(), &consumed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(decoded->type, MessageType::kCountResponse);
  EXPECT_EQ(decoded->payload, message.payload);
}

TEST(WireFrameTest, RejectsTruncatedHeader) {
  const std::vector<uint8_t> frame = EncodeFrame(EncodeShutdown());
  size_t consumed = 0;
  for (size_t keep = 0; keep < kFrameHeaderBytes; ++keep) {
    const StatusOr<Message> decoded =
        DecodeFrame(frame.data(), keep, &consumed);
    EXPECT_FALSE(decoded.ok()) << "header bytes kept: " << keep;
  }
}

TEST(WireFrameTest, RejectsTruncatedPayload) {
  Message message{MessageType::kCountResponse, std::vector<uint8_t>(64, 7)};
  const std::vector<uint8_t> frame = EncodeFrame(message);
  size_t consumed = 0;
  for (size_t missing = 1; missing <= 64; missing += 13) {
    const StatusOr<Message> decoded =
        DecodeFrame(frame.data(), frame.size() - missing, &consumed);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireFrameTest, RejectsUnknownMessageType) {
  std::vector<uint8_t> frame = EncodeFrame(EncodeShutdown());
  frame[4] = 0x77;  // type byte
  size_t consumed = 0;
  const StatusOr<Message> decoded =
      DecodeFrame(frame.data(), frame.size(), &consumed);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("unknown message type"),
            std::string::npos);
}

TEST(WireFrameTest, RetiredPatternTypesDecodeAsUnknown) {
  // Types 5 and 6 carried the boolean pattern counts up to protocol v3;
  // since v4 every mechanism counts through CountRequest, and a frame of
  // either type is refused like any other unknown type.
  for (const uint8_t type : {uint8_t{5}, uint8_t{6}}) {
    std::vector<uint8_t> frame = EncodeFrame(EncodeShutdown());
    frame[4] = type;
    size_t consumed = 0;
    const StatusOr<Message> decoded =
        DecodeFrame(frame.data(), frame.size(), &consumed);
    ASSERT_FALSE(decoded.ok()) << "type " << int{type};
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find("unknown message type"),
              std::string::npos);
  }
}

TEST(WireFrameTest, RejectsOversizedLengthPrefix) {
  std::vector<uint8_t> frame = EncodeFrame(EncodeShutdown());
  frame[0] = 0xff;  // low byte of a huge little-endian length
  frame[1] = 0xff;
  frame[2] = 0xff;
  frame[3] = 0x7f;
  size_t consumed = 0;
  const StatusOr<Message> decoded =
      DecodeFrame(frame.data(), frame.size(), &consumed);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("cap"), std::string::npos);
}

TEST(WireHelloTest, RoundTrips) {
  HelloRequest hello;
  hello.schema_fingerprint = 0x1234567890abcdefULL;
  hello.perturb_seed = 17;
  hello.range_begin = 8192;
  hello.range_end = 40960;
  hello.spec.kind = MechanismSpec::Kind::kRanGd;
  hello.spec.gamma = 19.0;
  hello.spec.alpha = 0.56;
  hello.spec.randomization = random::RandomizationKind::kTwoPoint;
  hello.spec.cutoff_k = 5;
  hello.spec.rho = 0.25;

  const StatusOr<HelloRequest> decoded = DecodeHello(EncodeHello(hello));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->protocol_version, kProtocolVersion);
  EXPECT_EQ(decoded->schema_fingerprint, hello.schema_fingerprint);
  EXPECT_EQ(decoded->perturb_seed, hello.perturb_seed);
  EXPECT_EQ(decoded->range_begin, hello.range_begin);
  EXPECT_EQ(decoded->range_end, hello.range_end);
  EXPECT_EQ(decoded->spec.kind, hello.spec.kind);
  EXPECT_EQ(decoded->spec.gamma, hello.spec.gamma);
  EXPECT_EQ(decoded->spec.alpha, hello.spec.alpha);
  EXPECT_EQ(decoded->spec.randomization, hello.spec.randomization);
  EXPECT_EQ(decoded->spec.cutoff_k, hello.spec.cutoff_k);
  EXPECT_EQ(decoded->spec.rho, hello.spec.rho);
}

TEST(WireHelloTest, RejectsInvertedRange) {
  HelloRequest hello;
  hello.range_begin = 100;
  hello.range_end = 50;
  EXPECT_FALSE(DecodeHello(EncodeHello(hello)).ok());
}

TEST(WireHelloTest, RejectsTruncatedPayload) {
  Message message = EncodeHello(HelloRequest{});
  message.payload.pop_back();
  const StatusOr<HelloRequest> decoded = DecodeHello(message);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("truncated"), std::string::npos);
}

TEST(WireHelloTest, RejectsTrailingGarbage) {
  Message message = EncodeHello(HelloRequest{});
  message.payload.push_back(0);
  const StatusOr<HelloRequest> decoded = DecodeHello(message);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("trailing"), std::string::npos);
}

TEST(WireHelloAckTest, RoundTrips) {
  HelloAck ack;
  ack.num_rows = 123456;
  const StatusOr<HelloAck> decoded = DecodeHelloAck(EncodeHelloAck(ack));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_rows, ack.num_rows);
}

TEST(WireCountTest, RequestRoundTrips) {
  CountRequest request;
  request.itemsets.push_back(MakeItemset({{0, 3}}));
  request.itemsets.push_back(MakeItemset({{1, 0}, {4, 2}}));
  request.itemsets.push_back(MakeItemset({{0, 1}, {2, 2}, {5, 1}}));

  const StatusOr<CountRequest> decoded =
      DecodeCountRequest(EncodeCountRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->itemsets.size(), request.itemsets.size());
  for (size_t c = 0; c < request.itemsets.size(); ++c) {
    EXPECT_EQ(decoded->itemsets[c], request.itemsets[c]);
  }
}

TEST(WireCountTest, RequestRejectsDuplicateAttributes) {
  // Bypass Itemset validation by crafting the payload directly: a 2-item
  // itemset using attribute 3 twice.
  Message message = EncodeCountRequest(CountRequest{});
  message.payload.clear();
  const uint8_t raw[] = {1, 0, 0, 0,        // 1 itemset
                         2, 0,              // k = 2
                         3, 0, 1, 0,        // (3, 1)
                         3, 0, 2, 0};       // (3, 2) -- same attribute
  message.payload.assign(raw, raw + sizeof(raw));
  EXPECT_FALSE(DecodeCountRequest(message).ok());
}

TEST(WireCountTest, RequestRejectsEmptyItemset) {
  Message message{MessageType::kCountRequest, {1, 0, 0, 0, 0, 0}};
  EXPECT_FALSE(DecodeCountRequest(message).ok());
}

TEST(WireCountTest, ResponseRoundTrips) {
  CountResponse response;
  response.counts = {0, 1, 42, 50000, 0xffffffffffffULL};
  const StatusOr<CountResponse> decoded =
      DecodeCountResponse(EncodeCountResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->counts, response.counts);
}

TEST(WireCountTest, ResponseRejectsCountMismatch) {
  Message message = EncodeCountResponse(CountResponse{{1, 2, 3}});
  message.payload.resize(message.payload.size() - 8);  // drop one count
  EXPECT_FALSE(DecodeCountResponse(message).ok());
}

TEST(WireDecodeTest, HugeElementCountFailsAsTruncationNotAllocation) {
  // A 4-byte payload announcing 2^32-1 elements must come back as a
  // truncated-payload Status — never as a multi-gigabyte reserve() that
  // kills the process before the decoder can answer.
  Message message{MessageType::kCountRequest, {0xff, 0xff, 0xff, 0xff}};
  EXPECT_FALSE(DecodeCountRequest(message).ok());
  message.type = MessageType::kCountResponse;
  EXPECT_FALSE(DecodeCountResponse(message).ok());
}

TEST(WireErrorTest, StatusRoundTrips) {
  const Status original =
      Status::FailedPrecondition("schema fingerprint mismatch");
  const Status decoded = DecodeError(EncodeError(original));
  EXPECT_EQ(decoded.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(decoded.message().find("schema fingerprint mismatch"),
            std::string::npos);
  EXPECT_NE(decoded.message().find("remote"), std::string::npos);
}

TEST(WireErrorTest, DecodersSurfaceErrorFramesAsStatus) {
  // A decoder handed an Error frame (the worker failed) must yield that
  // remote Status, not "unexpected message type".
  const Message error = EncodeError(Status::OutOfRange("bit position 99"));
  const StatusOr<CountResponse> decoded = DecodeCountResponse(error);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(decoded.status().message().find("bit position 99"),
            std::string::npos);
}

TEST(WireShutdownTest, HasEmptyPayload) {
  const Message message = EncodeShutdown();
  EXPECT_EQ(message.type, MessageType::kShutdown);
  EXPECT_TRUE(message.payload.empty());
}

TEST(WireLivenessTest, PingPongArePayloadFree) {
  const Message ping = EncodePing();
  EXPECT_EQ(ping.type, MessageType::kPing);
  EXPECT_TRUE(ping.payload.empty());
  const Message pong = EncodePong();
  EXPECT_EQ(pong.type, MessageType::kPong);
  EXPECT_TRUE(pong.payload.empty());
}

TEST(WireAssignRangeTest, RoundTrips) {
  AssignRange assign;
  assign.range_begin = 8192;
  assign.range_end = 40960;
  const StatusOr<AssignRange> decoded =
      DecodeAssignRange(EncodeAssignRange(assign));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->range_begin, assign.range_begin);
  EXPECT_EQ(decoded->range_end, assign.range_end);
}

TEST(WireAssignRangeTest, RejectsInvertedRange) {
  AssignRange assign;
  assign.range_begin = 100;
  assign.range_end = 50;
  EXPECT_FALSE(DecodeAssignRange(EncodeAssignRange(assign)).ok());
}

TEST(WireAssignRangeTest, RejectsTruncatedPayload) {
  Message message = EncodeAssignRange(AssignRange{});
  message.payload.pop_back();
  EXPECT_FALSE(DecodeAssignRange(message).ok());
}

TEST(WireRangeAckTest, RoundTrips) {
  RangeAck ack;
  ack.num_rows = 32768;
  const StatusOr<RangeAck> decoded = DecodeRangeAck(EncodeRangeAck(ack));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_rows, ack.num_rows);
}

TEST(WireRangeAckTest, ErrorFrameSurfacesAsRemoteStatus) {
  const Message error = EncodeError(Status::InvalidArgument("bad range"));
  const StatusOr<RangeAck> decoded = DecodeRangeAck(error);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("bad range"), std::string::npos);
}

}  // namespace
}  // namespace dist
}  // namespace frapp
