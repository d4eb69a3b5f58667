// The frapp/dist binary wire protocol: length-prefixed frames carrying the
// coordinator <-> worker conversation.
//
// Design rules:
//  - Only CONFIG and COUNT VECTORS ever cross the wire. Rows — original or
//    perturbed — never do: a candidate pass moves O(workers x candidates)
//    integers, independent of the table size.
//  - Everything is little-endian, encoded explicitly byte by byte (no
//    memcpy-of-struct), so the format is identical across hosts.
//  - Frames are length-prefixed and size-capped; a truncated, oversized or
//    trailing-garbage frame is a hard decode error, never a partial read.
//
// Frame layout:
//
//   offset  size  field
//   0       4     u32 payload length (bytes after the type byte)
//   4       1     u8 message type
//   5       ...   payload
//
// Conversation (one coordinator per worker connection):
//
//   coordinator                          worker
//   ----------------------------------- ----------------------------------
//   Hello {version, schema fingerprint,
//          seed, row range, mechanism}  ->
//                                       <- HelloAck {rows}
//                                          or Error {status}
//   CountRequest {candidate block}      ->
//                                       <- CountResponse {u64 counts}
//   Ping {}                             ->
//                                       <- Pong {}  (liveness probe; valid
//                                          before AND after the handshake)
//   AssignRange {row range}             ->
//                                       <- RangeAck {rows}  (fault
//                                          recovery: a dead worker's chunk
//                                          range re-ingested by a survivor)
//   Shutdown {}                         -> (worker closes)
//
// Status propagation: any worker-side failure is shipped back as an Error
// frame carrying the StatusCode and message, which the coordinator rethrows
// as its own Status — a remote failure reads like a local one.

#ifndef FRAPP_DIST_WIRE_H_
#define FRAPP_DIST_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/dist/mechanism_spec.h"
#include "frapp/mining/itemset.h"

namespace frapp {
namespace dist {

/// Protocol version; bumped on any incompatible frame/payload change. The
/// handshake rejects mismatches outright (no negotiation). v2 added the
/// liveness and recovery messages (Ping/Pong, AssignRange/RangeAck); v3
/// added the serve query family (QueryRequest/QueryResponse — payloads in
/// serve/query_wire.h); v4 retired the boolean pattern messages (types 5
/// and 6, now unknown) and the HelloAck/RangeAck one-hot width: MASK and
/// C&P count through CountRequest like every other mechanism.
inline constexpr uint32_t kProtocolVersion = 4;

/// Hard cap on a frame's payload, rejecting corrupt length prefixes before
/// they turn into allocations.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

/// Frame header bytes (u32 length + u8 type).
inline constexpr size_t kFrameHeaderBytes = 5;

enum class MessageType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kCountRequest = 3,
  kCountResponse = 4,
  // 5 and 6 carried the boolean pattern counts up to protocol v3; they
  // decode as unknown types.
  kShutdown = 7,
  kError = 8,
  kPing = 9,
  kPong = 10,
  kAssignRange = 11,
  kRangeAck = 12,
  // The serve query family (frapp/serve): a client asks a long-lived
  // `frapp serve` process for mined results, top-k itemsets, association
  // rules, or server stats. Payload layouts live in serve/query_wire.h;
  // they share this framing, the Error frame, and Ping/Pong liveness.
  kQueryRequest = 13,
  kQueryResponse = 14,
};

/// One decoded frame: a type plus its raw payload bytes.
struct Message {
  MessageType type = MessageType::kShutdown;
  std::vector<uint8_t> payload;

  /// Bytes this message occupies on the wire (header + payload).
  size_t WireSize() const { return kFrameHeaderBytes + payload.size(); }
};

// ---------------------------------------------------------------- framing --

/// Serializes a message as one frame.
std::vector<uint8_t> EncodeFrame(const Message& message);

/// Decodes one complete frame from the front of [data, data+size). On
/// success sets *consumed to the frame's full byte length. A buffer shorter
/// than the frame it announces, an unknown type, or an oversized length
/// prefix is an error (truncation names how many more bytes were expected).
StatusOr<Message> DecodeFrame(const uint8_t* data, size_t size,
                              size_t* consumed);

// --------------------------------------------------------------- messages --

/// Coordinator -> worker handshake: the job description.
struct HelloRequest {
  uint32_t protocol_version = kProtocolVersion;

  /// data::SchemaFingerprint of the coordinator's schema; the worker
  /// refuses the job unless it matches its own ingest schema, so the two
  /// sides can never disagree on what a category id means.
  uint64_t schema_fingerprint = 0;

  /// Master seed of the deterministic perturbation (the global seeded-chunk
  /// streams are derived from it, worker-side).
  uint64_t perturb_seed = 0;

  /// The worker's assigned global row range [begin, end), chunk-aligned.
  uint64_t range_begin = 0;
  uint64_t range_end = 0;

  MechanismSpec spec;
};

/// Worker -> coordinator handshake reply.
struct HelloAck {
  /// Rows the worker ingested (|assigned range ∩ its stream|).
  uint64_t num_rows = 0;
};

/// One block of an Apriori pass's candidate list.
struct CountRequest {
  std::vector<mining::Itemset> itemsets;
};

/// counts[c] = worker-local support count of itemsets[c].
struct CountResponse {
  std::vector<uint64_t> counts;
};

/// Worker -> coordinator failure report.
struct ErrorResponse {
  uint8_t code = 0;
  std::string message;
};

/// Coordinator -> worker fault recovery: ingest ANOTHER chunk-aligned
/// global row range on top of the one(s) already held — the dead worker's
/// range, re-perturbed by this survivor on the same global seeded-chunk
/// streams. Because counts are additive over the row partition, the merged
/// totals stay bit-identical to the healthy run.
struct AssignRange {
  uint64_t range_begin = 0;
  uint64_t range_end = 0;
};

/// Worker -> coordinator recovery ack: rows ingested for the assigned
/// range (the coordinator re-verifies total coverage).
struct RangeAck {
  uint64_t num_rows = 0;
};

Message EncodeHello(const HelloRequest& hello);
StatusOr<HelloRequest> DecodeHello(const Message& message);

Message EncodeHelloAck(const HelloAck& ack);
StatusOr<HelloAck> DecodeHelloAck(const Message& message);

Message EncodeCountRequest(const CountRequest& request);
StatusOr<CountRequest> DecodeCountRequest(const Message& message);

Message EncodeCountResponse(const CountResponse& response);
StatusOr<CountResponse> DecodeCountResponse(const Message& message);

Message EncodeShutdown();

/// Liveness probe and reply; both payload-free. The worker answers Pong
/// whether or not a handshake has happened, so a coordinator can health-
/// check a fleet it has not hired yet.
Message EncodePing();
Message EncodePong();

Message EncodeAssignRange(const AssignRange& assign);
StatusOr<AssignRange> DecodeAssignRange(const Message& message);

Message EncodeRangeAck(const RangeAck& ack);
StatusOr<RangeAck> DecodeRangeAck(const Message& message);

/// Status <-> Error frame round trip, the remote half of Status
/// propagation.
Message EncodeError(const Status& status);
Status DecodeError(const Message& message);

}  // namespace dist
}  // namespace frapp

#endif  // FRAPP_DIST_WIRE_H_
