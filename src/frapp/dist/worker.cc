#include "frapp/dist/worker.h"

#include <vector>

#include "frapp/core/mechanism.h"
#include "frapp/data/shard_io.h"
#include "frapp/data/sharded_table.h"
#include "frapp/dist/mechanism_spec.h"
#include "frapp/dist/wire.h"
#include "frapp/mining/sharded_vertical_index.h"
#include "frapp/pipeline/ingest_range.h"

namespace frapp {
namespace dist {

namespace {

/// The worker's post-ingest state: the local index of its perturbed
/// range(s), the mechanism, and the saved job description so a later
/// AssignRange re-runs ingest with the SAME seed and spec.
struct LocalState {
  std::unique_ptr<core::Mechanism> mechanism;
  mining::ShardedVerticalIndex index =
      mining::ShardedVerticalIndex::FromShards({});
  HelloRequest hello;
};

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
  // Every slice keeps its GLOBAL row position, so the seeded-chunk streams,
  // and with them the perturbed bits, equal the single-process pass.
  const pipeline::IndexFn perturb = [&state](const data::ShardView& shard,
                                             size_t num_threads,
                                             core::ShardIndexes& out) {
    return core::PerturbIntoIndex(*state.mechanism, shard,
                                  state.hello.perturb_seed, num_threads, out);
  };
  FRAPP_ASSIGN_OR_RETURN(
      pipeline::IngestResult ingest,
      pipeline::IngestRange(*source,
                            {static_cast<size_t>(range_begin),
                             static_cast<size_t>(range_end)},
                            options.num_threads, perturb));
  if (cacheable) options.index_cache->Insert(key, ingest.indexes);
  return std::move(ingest.indexes);
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
  FRAPP_ASSIGN_OR_RETURN(state->mechanism,
                         MakeMechanism(hello.spec, options.schema));
  state->hello = hello;
  // A re-handshake starts the job over: drop ranges held for the old one.
  state->index = mining::ShardedVerticalIndex::FromShards({});

  FRAPP_ASSIGN_OR_RETURN(
      CachedRangeIndex built,
      BuildOrFetchRange(hello.range_begin, hello.range_end, options, *state));
  state->index.AppendShards(std::move(built.shards));
  ack->num_rows = state->index.num_rows();
  return Status::OK();
}

/// Fault recovery: ingests ANOTHER chunk-aligned range (a dead worker's)
/// on top of the held one(s), with the seed and spec saved from Hello.
Status HandleAssignRange(const Message& message, const WorkerOptions& options,
                         LocalState* state, RangeAck* ack) {
  FRAPP_ASSIGN_OR_RETURN(const AssignRange assign,
                         DecodeAssignRange(message));
  FRAPP_ASSIGN_OR_RETURN(
      CachedRangeIndex built,
      BuildOrFetchRange(assign.range_begin, assign.range_end, options,
                        *state));
  ack->num_rows = built.num_rows;
  state->index.AppendShards(std::move(built.shards));
  return Status::OK();
}

StatusOr<Message> HandleCountRequest(const Message& message,
                                     const WorkerOptions& options,
                                     const LocalState& state) {
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
      state.index.CountSupports(request.itemsets, options.num_threads);
  CountResponse response;
  response.counts.assign(counts.begin(), counts.end());
  return EncodeCountResponse(response);
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
