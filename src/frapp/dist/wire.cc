#include "frapp/dist/wire.h"

#include <algorithm>
#include <utility>

#include "frapp/dist/wire_io.h"

namespace frapp {
namespace dist {

namespace {

// The payload builder/reader moved to dist/wire_io.h when the serve query
// frames joined the protocol; these aliases keep the decoders below
// unchanged.
using Writer = PayloadWriter;
using Reader = PayloadReader;

bool KnownMessageType(uint8_t type) {
  // Types 5 and 6 (the pattern messages of protocol v3) are retired.
  return type >= static_cast<uint8_t>(MessageType::kHello) &&
         type <= static_cast<uint8_t>(MessageType::kQueryResponse) &&
         type != 5 && type != 6;
}

}  // namespace

// ---------------------------------------------------------------- framing --

std::vector<uint8_t> EncodeFrame(const Message& message) {
  Writer w;
  w.U32(static_cast<uint32_t>(message.payload.size()));
  w.U8(static_cast<uint8_t>(message.type));
  std::vector<uint8_t> frame = w.Take();
  frame.insert(frame.end(), message.payload.begin(), message.payload.end());
  return frame;
}

StatusOr<Message> DecodeFrame(const uint8_t* data, size_t size,
                              size_t* consumed) {
  if (size < kFrameHeaderBytes) {
    return Status::InvalidArgument(
        "frame truncated: " + std::to_string(size) + " of " +
        std::to_string(kFrameHeaderBytes) + " header bytes");
  }
  Reader header(data, kFrameHeaderBytes);
  const uint32_t payload_len = header.U32();
  const uint8_t type = header.U8();
  if (payload_len > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame announces " + std::to_string(payload_len) +
        " payload bytes, above the " + std::to_string(kMaxFramePayload) +
        " cap (corrupt length prefix?)");
  }
  if (!KnownMessageType(type)) {
    return Status::InvalidArgument("unknown message type " +
                                   std::to_string(type));
  }
  if (size - kFrameHeaderBytes < payload_len) {
    return Status::InvalidArgument(
        "frame truncated: payload has " +
        std::to_string(size - kFrameHeaderBytes) + " of " +
        std::to_string(payload_len) + " bytes");
  }
  Message message;
  message.type = static_cast<MessageType>(type);
  message.payload.assign(data + kFrameHeaderBytes,
                         data + kFrameHeaderBytes + payload_len);
  *consumed = kFrameHeaderBytes + payload_len;
  return message;
}

// --------------------------------------------------------------- messages --

namespace {

Status ExpectType(const Message& message, MessageType want, const char* what) {
  if (message.type == want) return Status::OK();
  if (message.type == MessageType::kError) return DecodeError(message);
  return Status::InvalidArgument(
      std::string(what) + ": unexpected message type " +
      std::to_string(static_cast<int>(message.type)));
}

}  // namespace

Message EncodeHello(const HelloRequest& hello) {
  Writer w;
  w.U32(hello.protocol_version);
  w.U64(hello.schema_fingerprint);
  w.U64(hello.perturb_seed);
  w.U64(hello.range_begin);
  w.U64(hello.range_end);
  w.U8(static_cast<uint8_t>(hello.spec.kind));
  w.F64(hello.spec.gamma);
  w.F64(hello.spec.alpha);
  w.U8(static_cast<uint8_t>(hello.spec.randomization));
  w.U64(hello.spec.cutoff_k);
  w.F64(hello.spec.rho);
  return Message{MessageType::kHello, w.Take()};
}

StatusOr<HelloRequest> DecodeHello(const Message& message) {
  FRAPP_RETURN_IF_ERROR(ExpectType(message, MessageType::kHello, "Hello"));
  Reader r(message.payload.data(), message.payload.size());
  HelloRequest hello;
  hello.protocol_version = r.U32();
  hello.schema_fingerprint = r.U64();
  hello.perturb_seed = r.U64();
  hello.range_begin = r.U64();
  hello.range_end = r.U64();
  const uint8_t kind = r.U8();
  hello.spec.gamma = r.F64();
  hello.spec.alpha = r.F64();
  const uint8_t randomization = r.U8();
  hello.spec.cutoff_k = r.U64();
  hello.spec.rho = r.F64();
  FRAPP_RETURN_IF_ERROR(r.Finish("Hello"));
  if (kind > static_cast<uint8_t>(MechanismSpec::Kind::kIndGd)) {
    return Status::InvalidArgument("Hello: unknown mechanism kind " +
                                   std::to_string(kind));
  }
  if (randomization >
      static_cast<uint8_t>(random::RandomizationKind::kTruncatedGaussian)) {
    return Status::InvalidArgument("Hello: unknown randomization kind " +
                                   std::to_string(randomization));
  }
  if (hello.range_end < hello.range_begin) {
    return Status::InvalidArgument("Hello: range end before begin");
  }
  hello.spec.kind = static_cast<MechanismSpec::Kind>(kind);
  hello.spec.randomization =
      static_cast<random::RandomizationKind>(randomization);
  return hello;
}

Message EncodeHelloAck(const HelloAck& ack) {
  Writer w;
  w.U64(ack.num_rows);
  return Message{MessageType::kHelloAck, w.Take()};
}

StatusOr<HelloAck> DecodeHelloAck(const Message& message) {
  FRAPP_RETURN_IF_ERROR(
      ExpectType(message, MessageType::kHelloAck, "HelloAck"));
  Reader r(message.payload.data(), message.payload.size());
  HelloAck ack;
  ack.num_rows = r.U64();
  FRAPP_RETURN_IF_ERROR(r.Finish("HelloAck"));
  return ack;
}

Message EncodeCountRequest(const CountRequest& request) {
  Writer w;
  w.U32(static_cast<uint32_t>(request.itemsets.size()));
  for (const mining::Itemset& itemset : request.itemsets) {
    w.U16(static_cast<uint16_t>(itemset.size()));
    for (const mining::Item& item : itemset.items()) {
      w.U16(item.attribute);
      w.U16(item.category);
    }
  }
  return Message{MessageType::kCountRequest, w.Take()};
}

StatusOr<CountRequest> DecodeCountRequest(const Message& message) {
  FRAPP_RETURN_IF_ERROR(
      ExpectType(message, MessageType::kCountRequest, "CountRequest"));
  Reader r(message.payload.data(), message.payload.size());
  const uint32_t n = r.U32();
  CountRequest request;
  // Never reserve a peer-controlled count beyond what the payload could
  // possibly hold (6 bytes is the smallest itemset encoding): a corrupt n
  // must fail as a truncated payload, not as a giant allocation.
  request.itemsets.reserve(
      r.failed() ? 0 : std::min<size_t>(n, r.remaining() / 6));
  for (uint32_t c = 0; c < n && !r.failed(); ++c) {
    const uint16_t k = r.U16();
    if (k == 0) {
      return Status::InvalidArgument("CountRequest: empty itemset");
    }
    std::vector<mining::Item> items;
    items.reserve(k);
    for (uint16_t i = 0; i < k; ++i) {
      const uint16_t attribute = r.U16();
      const uint16_t category = r.U16();
      items.push_back(mining::Item{attribute, category});
    }
    if (r.failed()) break;
    // Validate the sorted-distinct-attributes invariant instead of trusting
    // the peer.
    FRAPP_ASSIGN_OR_RETURN(mining::Itemset itemset,
                           mining::Itemset::Create(std::move(items)));
    request.itemsets.push_back(std::move(itemset));
  }
  FRAPP_RETURN_IF_ERROR(r.Finish("CountRequest"));
  return request;
}

Message EncodeCountResponse(const CountResponse& response) {
  Writer w;
  w.U32(static_cast<uint32_t>(response.counts.size()));
  for (uint64_t count : response.counts) w.U64(count);
  return Message{MessageType::kCountResponse, w.Take()};
}

StatusOr<CountResponse> DecodeCountResponse(const Message& message) {
  FRAPP_RETURN_IF_ERROR(
      ExpectType(message, MessageType::kCountResponse, "CountResponse"));
  Reader r(message.payload.data(), message.payload.size());
  const uint32_t n = r.U32();
  CountResponse response;
  if (!r.failed() && r.remaining() == n * sizeof(uint64_t)) {
    response.counts.reserve(n);
  }
  for (uint32_t c = 0; c < n && !r.failed(); ++c) {
    response.counts.push_back(r.U64());
  }
  FRAPP_RETURN_IF_ERROR(r.Finish("CountResponse"));
  return response;
}

Message EncodeShutdown() { return Message{MessageType::kShutdown, {}}; }

Message EncodePing() { return Message{MessageType::kPing, {}}; }

Message EncodePong() { return Message{MessageType::kPong, {}}; }

Message EncodeAssignRange(const AssignRange& assign) {
  Writer w;
  w.U64(assign.range_begin);
  w.U64(assign.range_end);
  return Message{MessageType::kAssignRange, w.Take()};
}

StatusOr<AssignRange> DecodeAssignRange(const Message& message) {
  FRAPP_RETURN_IF_ERROR(
      ExpectType(message, MessageType::kAssignRange, "AssignRange"));
  Reader r(message.payload.data(), message.payload.size());
  AssignRange assign;
  assign.range_begin = r.U64();
  assign.range_end = r.U64();
  FRAPP_RETURN_IF_ERROR(r.Finish("AssignRange"));
  if (assign.range_end < assign.range_begin) {
    return Status::InvalidArgument("AssignRange: range end before begin");
  }
  return assign;
}

Message EncodeRangeAck(const RangeAck& ack) {
  Writer w;
  w.U64(ack.num_rows);
  return Message{MessageType::kRangeAck, w.Take()};
}

StatusOr<RangeAck> DecodeRangeAck(const Message& message) {
  FRAPP_RETURN_IF_ERROR(
      ExpectType(message, MessageType::kRangeAck, "RangeAck"));
  Reader r(message.payload.data(), message.payload.size());
  RangeAck ack;
  ack.num_rows = r.U64();
  FRAPP_RETURN_IF_ERROR(r.Finish("RangeAck"));
  return ack;
}

Message EncodeError(const Status& status) {
  Writer w;
  w.U8(static_cast<uint8_t>(status.code()));
  w.Str(status.message());
  return Message{MessageType::kError, w.Take()};
}

Status DecodeError(const Message& message) {
  if (message.type != MessageType::kError) {
    return Status::InvalidArgument("DecodeError on a non-Error message");
  }
  Reader r(message.payload.data(), message.payload.size());
  const uint8_t code = r.U8();
  std::string text = r.Str();
  FRAPP_RETURN_IF_ERROR(r.Finish("Error"));
  if (code == 0 || code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::Internal("remote error with unknown status code " +
                            std::to_string(code) + ": " + text);
  }
  return Status(static_cast<StatusCode>(code), "remote: " + std::move(text));
}

}  // namespace dist
}  // namespace frapp
