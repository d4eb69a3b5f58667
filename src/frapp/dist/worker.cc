#include "frapp/dist/worker.h"

#include <algorithm>
#include <vector>

#include "frapp/core/mechanism.h"
#include "frapp/data/shard_io.h"
#include "frapp/data/sharded_boolean_vertical_index.h"
#include "frapp/data/sharded_table.h"
#include "frapp/dist/mechanism_spec.h"
#include "frapp/dist/wire.h"
#include "frapp/mining/sharded_vertical_index.h"

namespace frapp {
namespace dist {

namespace {

/// The worker's post-ingest state: the local index of its perturbed
/// range(s) (exactly one of the two populated, by shard kind), the
/// mechanism, and the saved job description so a later AssignRange re-runs
/// ingest with the SAME seed and spec.
struct LocalState {
  std::unique_ptr<core::Mechanism> mechanism;
  core::Mechanism::ShardKind kind = core::Mechanism::ShardKind::kCategorical;
  mining::ShardedVerticalIndex categorical =
      mining::ShardedVerticalIndex::FromShards({});
  data::ShardedBooleanVerticalIndex boolean;
  HelloRequest hello;

  size_t num_rows() const {
    return kind == core::Mechanism::ShardKind::kBoolean
               ? boolean.num_rows()
               : categorical.num_rows();
  }
};

/// Streams the source's shards intersected with [begin, end) through
/// core::PerturbIntoIndex. Every sub-shard keeps its GLOBAL row position,
/// so the seeded-chunk streams — and therefore the perturbed bits — equal
/// the single-process pass over the same rows.
StatusOr<CachedRangeIndex> IngestRange(uint64_t range_begin,
                                       uint64_t range_end, uint64_t seed,
                                       const WorkerOptions& options,
                                       pipeline::TableSource& source,
                                       const LocalState& state) {
  const data::RowRange range{static_cast<size_t>(range_begin),
                             static_cast<size_t>(range_end)};
  // Seekable sources jump straight to the range (binary files seek); others
  // keep yielding from row 0 and the loop below drops the leading rows.
  FRAPP_RETURN_IF_ERROR(source.SkipToRow(range.begin));

  CachedRangeIndex built;
  pipeline::PulledShard shard;
  while (true) {
    FRAPP_ASSIGN_OR_RETURN(const bool more, source.NextShard(&shard));
    if (!more) break;
    const size_t shard_begin = shard.view.global_begin;
    const size_t shard_end = shard_begin + shard.view.size();
    if (shard_end <= range.begin) continue;  // wholly before the range
    if (shard_begin >= range.end) break;     // global order: nothing follows
    // Intersect with the assigned range. Both range bounds and every shard
    // begin are chunk-aligned, so the sub-shard still starts on the chunk
    // grid and seeded perturbation draws the same global streams.
    FRAPP_RETURN_IF_ERROR(core::PerturbIntoIndex(
        *state.mechanism,
        shard.view.Slice(std::max(shard_begin, range.begin),
                         std::min(shard_end, range.end)),
        seed, options.num_threads, built));
    shard.owned.reset();  // source rows dropped once indexed
  }
  return built;
}

/// Cache-aware ingest of one chunk-aligned range: serves from the
/// process-lifetime IndexCache when the (source, fingerprint, spec, seed,
/// range) key hits, otherwise opens a fresh source, builds, and populates
/// the cache. Determinism of the pass is what makes a hit safe.
StatusOr<CachedRangeIndex> BuildOrFetchRange(uint64_t range_begin,
                                             uint64_t range_end,
                                             const WorkerOptions& options,
                                             const LocalState& state) {
  std::string key;
  const bool cacheable =
      options.index_cache != nullptr && !options.source_id.empty();
  if (cacheable) {
    key = MakeIndexCacheKey(options.source_id,
                            data::SchemaFingerprint(options.schema),
                            CanonicalSpecKey(state.hello.spec),
                            state.hello.perturb_seed, range_begin, range_end);
    CachedRangeIndex cached;
    if (options.index_cache->Lookup(key, &cached)) return cached;
  }
  FRAPP_ASSIGN_OR_RETURN(std::unique_ptr<pipeline::TableSource> source,
                         options.source_factory());
  if (data::SchemaFingerprint(source->schema()) !=
      data::SchemaFingerprint(options.schema)) {
    return Status::FailedPrecondition(
        "worker source schema differs from worker schema");
  }
  FRAPP_ASSIGN_OR_RETURN(
      CachedRangeIndex built,
      IngestRange(range_begin, range_end, state.hello.perturb_seed, options,
                  *source, state));
  if (cacheable) options.index_cache->Insert(key, built);
  return built;
}

/// Handshake: validates the Hello against local reality, then perturbs and
/// indexes the assigned range.
Status HandleHello(const Message& message, const WorkerOptions& options,
                   LocalState* state, HelloAck* ack) {
  FRAPP_ASSIGN_OR_RETURN(const HelloRequest hello, DecodeHello(message));
  if (hello.protocol_version != kProtocolVersion) {
    return Status::FailedPrecondition(
        "protocol version mismatch: coordinator speaks v" +
        std::to_string(hello.protocol_version) + ", worker v" +
        std::to_string(kProtocolVersion));
  }
  const uint64_t local_fingerprint = data::SchemaFingerprint(options.schema);
  if (hello.schema_fingerprint != local_fingerprint) {
    return Status::FailedPrecondition(
        "schema fingerprint mismatch: coordinator " +
        std::to_string(hello.schema_fingerprint) + ", worker " +
        std::to_string(local_fingerprint) +
        " — the two sides would disagree on category ids");
  }
  if (hello.range_begin % data::kShardAlignmentRows != 0) {
    return Status::InvalidArgument(
        "assigned range must start on the chunk quantum (" +
        std::to_string(data::kShardAlignmentRows) + " rows)");
  }
  FRAPP_ASSIGN_OR_RETURN(state->mechanism,
                         MakeMechanism(hello.spec, options.schema));
  state->kind = state->mechanism->shard_kind();
  state->hello = hello;
  // A re-handshake starts the job over: drop ranges held for the old one.
  state->categorical = mining::ShardedVerticalIndex::FromShards({});
  state->boolean = data::ShardedBooleanVerticalIndex();

  FRAPP_ASSIGN_OR_RETURN(
      CachedRangeIndex built,
      BuildOrFetchRange(hello.range_begin, hello.range_end, options, *state));
  // Only the vector of the job's shard kind is non-empty.
  state->categorical.AppendShards(std::move(built.categorical));
  state->boolean.AppendShards(std::move(built.boolean));

  const bool boolean = state->kind == core::Mechanism::ShardKind::kBoolean;
  ack->num_rows = state->num_rows();
  ack->shard_kind = boolean ? 1 : 0;
  ack->num_bits = boolean ? state->boolean.num_bits() : 0;
  return Status::OK();
}

/// Fault recovery: ingests ANOTHER chunk-aligned range (a dead worker's)
/// on top of the held one(s), with the seed and spec saved from Hello.
Status HandleAssignRange(const Message& message, const WorkerOptions& options,
                         LocalState* state, RangeAck* ack) {
  FRAPP_ASSIGN_OR_RETURN(const AssignRange assign,
                         DecodeAssignRange(message));
  if (assign.range_begin % data::kShardAlignmentRows != 0) {
    return Status::InvalidArgument(
        "assigned range must start on the chunk quantum (" +
        std::to_string(data::kShardAlignmentRows) + " rows)");
  }
  FRAPP_ASSIGN_OR_RETURN(
      CachedRangeIndex built,
      BuildOrFetchRange(assign.range_begin, assign.range_end, options,
                        *state));
  ack->num_rows = built.num_rows;
  ack->num_bits = built.boolean.empty() ? 0 : built.boolean.front().num_bits();
  state->categorical.AppendShards(std::move(built.categorical));
  state->boolean.AppendShards(std::move(built.boolean));
  return Status::OK();
}

StatusOr<Message> HandleCountRequest(const Message& message,
                                     const WorkerOptions& options,
                                     const LocalState& state) {
  if (state.kind != core::Mechanism::ShardKind::kCategorical) {
    return Status::FailedPrecondition(
        "CountRequest against a boolean-kind worker");
  }
  FRAPP_ASSIGN_OR_RETURN(const CountRequest request,
                         DecodeCountRequest(message));
  // Validate against the schema before touching bitmaps: a corrupt peer
  // must get an Error frame, not index out of range.
  for (const mining::Itemset& itemset : request.itemsets) {
    for (const mining::Item& item : itemset.items()) {
      if (item.attribute >= options.schema.num_attributes() ||
          item.category >= options.schema.Cardinality(item.attribute)) {
        return Status::OutOfRange("itemset references item (" +
                                  std::to_string(item.attribute) + ", " +
                                  std::to_string(item.category) +
                                  ") outside the schema");
      }
    }
  }
  const std::vector<size_t> counts =
      state.categorical.CountSupports(request.itemsets, options.num_threads);
  CountResponse response;
  response.counts.assign(counts.begin(), counts.end());
  return EncodeCountResponse(response);
}

StatusOr<Message> HandlePatternRequest(const Message& message,
                                       const WorkerOptions& options,
                                       const LocalState& state) {
  if (state.kind != core::Mechanism::ShardKind::kBoolean) {
    return Status::FailedPrecondition(
        "PatternRequest against a categorical-kind worker");
  }
  FRAPP_ASSIGN_OR_RETURN(const PatternRequest request,
                         DecodePatternRequest(message));
  PatternResponse response;
  response.superset_counts.reserve(request.candidates.size());
  for (const std::vector<uint32_t>& candidate : request.candidates) {
    std::vector<size_t> positions(candidate.begin(), candidate.end());
    // A zero-row worker owns no bits; its superset counts are all zero for
    // any positions. Otherwise bounds-check against the one-hot width.
    if (state.boolean.num_shards() > 0) {
      for (size_t position : positions) {
        if (position >= state.boolean.num_bits()) {
          return Status::OutOfRange(
              "bit position " + std::to_string(position) +
              " outside the one-hot layout (" +
              std::to_string(state.boolean.num_bits()) + " bits)");
        }
      }
    }
    response.superset_counts.push_back(
        state.boolean.SupersetCounts(positions, options.num_threads));
  }
  return EncodePatternResponse(response);
}

}  // namespace

Status ServeWorker(Transport& transport, const WorkerOptions& options) {
  LocalState state;
  bool prepared = false;
  if (options.session_idle_timeout_ms > 0) {
    transport.SetReceiveTimeoutMillis(options.session_idle_timeout_ms);
  }
  while (true) {
    StatusOr<Message> received = transport.Receive();
    if (!received.ok()) {
      // A peer that simply went away (clean close) ends the session
      // without error, and so does one idle past the session timeout (a
      // SIGKILLed or partitioned coordinator must not pin the worker);
      // anything else — a corrupt frame, an I/O failure — is the session's
      // failure.
      if (received.status().code() == StatusCode::kFailedPrecondition ||
          received.status().code() == StatusCode::kUnavailable ||
          received.status().code() == StatusCode::kDeadlineExceeded) {
        return Status::OK();
      }
      return received.status();
    }
    StatusOr<Message> reply = Status::Internal("unhandled message");
    switch (received->type) {
      case MessageType::kHello: {
        HelloAck ack;
        const Status handshake =
            HandleHello(*received, options, &state, &ack);
        prepared = handshake.ok();
        reply = handshake.ok() ? StatusOr<Message>(EncodeHelloAck(ack))
                               : StatusOr<Message>(handshake);
        break;
      }
      case MessageType::kCountRequest:
        reply = prepared ? HandleCountRequest(*received, options, state)
                         : StatusOr<Message>(Status::FailedPrecondition(
                               "CountRequest before a successful Hello"));
        break;
      case MessageType::kPatternRequest:
        reply = prepared ? HandlePatternRequest(*received, options, state)
                         : StatusOr<Message>(Status::FailedPrecondition(
                               "PatternRequest before a successful Hello"));
        break;
      case MessageType::kPing:
        // Liveness is a property of the process, not the job: answered
        // whether or not a handshake happened.
        reply = EncodePong();
        break;
      case MessageType::kAssignRange: {
        if (!prepared) {
          reply = Status::FailedPrecondition(
              "AssignRange before a successful Hello");
          break;
        }
        RangeAck ack;
        const Status assigned =
            HandleAssignRange(*received, options, &state, &ack);
        reply = assigned.ok() ? StatusOr<Message>(EncodeRangeAck(ack))
                              : StatusOr<Message>(assigned);
        break;
      }
      case MessageType::kShutdown:
        return Status::OK();
      default:
        reply = Status::InvalidArgument(
            "worker cannot handle message type " +
            std::to_string(static_cast<int>(received->type)));
        break;
    }
    if (reply.ok()) {
      const Status sent = transport.Send(*reply);
      if (!sent.ok()) {
        // The coordinator can vanish WHILE we reply (it declared this
        // worker dead, crashed, or reset the connection): the reply just
        // has no reader. Same clean session end as a close between
        // requests — only a local I/O failure is the session's error.
        if (sent.code() == StatusCode::kFailedPrecondition ||
            sent.code() == StatusCode::kUnavailable) {
          return Status::OK();
        }
        return sent;
      }
    } else {
      // Status propagation: ship the failure to the coordinator, then end
      // the session with it locally too.
      (void)transport.Send(EncodeError(reply.status()));
      return reply.status();
    }
  }
}

InProcessWorker::InProcessWorker(WorkerOptions options) {
  auto [worker_side, coordinator_side] = CreateInProcessTransportPair();
  worker_endpoint_ = std::move(worker_side);
  coordinator_endpoint_ = std::move(coordinator_side);
  thread_ = std::thread([this, options = std::move(options)] {
    result_ = ServeWorker(*worker_endpoint_, options);
  });
}

InProcessWorker::~InProcessWorker() { (void)Join(); }

Status InProcessWorker::Join() {
  if (!joined_) {
    worker_endpoint_->Close();
    thread_.join();
    joined_ = true;
  }
  return result_;
}

}  // namespace dist
}  // namespace frapp
