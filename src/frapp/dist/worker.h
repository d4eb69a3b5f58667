// The frapp/dist worker: owns one contiguous chunk-aligned shard range of
// the table and answers candidate-count requests over it.
//
// On Hello the worker validates the protocol version and schema fingerprint,
// instantiates the mechanism the coordinator named, ingests its assigned
// global row range from its LOCAL TableSource (CSV, binary shard file,
// in-memory table, generator — rows never cross the wire), perturbs each
// shard with the GLOBAL seeded-chunk RNG streams (the shard's global row
// position selects the streams, so the perturbed bits equal the
// single-process pass), indexes it, and drops the rows. From then on it
// serves:
//
//   CountRequest    -> per-candidate support counts over the local index
//                      (every mechanism: MASK and C&P ask for the supports
//                      of their candidates' sub-itemsets)
//   Ping            -> Pong (liveness; answered before AND after Hello)
//   AssignRange     -> RangeAck, after ingesting ANOTHER chunk-aligned
//                      range on top of the held one(s): the coordinator's
//                      fault recovery hands a dead worker's range to a
//                      survivor, which perturbs it on the same global
//                      seeded-chunk streams — merged counts stay
//                      bit-identical
//
// until Shutdown or peer close. Any local failure is shipped back as an
// Error frame (Status propagation) and ends the session.
//
// A worker OUTLIVES its coordinator: ServeWorker returns OK on a clean peer
// close, and the CLI loops back to accept, so a crashed coordinator can be
// rerun against the same fleet. With an IndexCache installed, the rerun's
// Hello hits the cache and skips the ingest -> perturb -> index pass.

#ifndef FRAPP_DIST_WORKER_H_
#define FRAPP_DIST_WORKER_H_

#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include <string>

#include "frapp/common/statusor.h"
#include "frapp/data/schema.h"
#include "frapp/dist/index_cache.h"
#include "frapp/dist/transport.h"
#include "frapp/pipeline/table_source.h"

namespace frapp {
namespace dist {

struct WorkerOptions {
  explicit WorkerOptions(data::CategoricalSchema schema_in)
      : schema(std::move(schema_in)) {}

  /// Schema of the worker's local data; its fingerprint must match the
  /// coordinator's or the handshake fails.
  data::CategoricalSchema schema;

  /// Produces a fresh TableSource per session (ingest may need to restart
  /// from row 0 for a new coordinator). The source yields the FULL stream;
  /// the worker skips to its assigned range (seekable sources at zero parse
  /// cost, see TableSource::SkipToRow) and keeps only rows inside it.
  std::function<StatusOr<std::unique_ptr<pipeline::TableSource>>()>
      source_factory;

  /// Worker threads for shard perturbation/indexing and for each counting
  /// pass (0 = hardware concurrency). Never affects results.
  size_t num_threads = 1;

  /// Optional process-lifetime cache of built range indexes, shared across
  /// sessions. Requires a non-empty `source_id`; nullptr disables caching.
  IndexCache* index_cache = nullptr;

  /// Stable identity of the local row stream (file path or generator
  /// descriptor) — part of the cache key. Empty = no stable identity, so
  /// the cache is skipped even when installed.
  std::string source_id;

  /// Bounds each receive wait of a session; a session idle past this is
  /// ended CLEANLY (the worker returns to accept, it does not die), so a
  /// coordinator that vanished without closing — SIGKILL, SIGSTOP, network
  /// partition — cannot pin a worker forever. 0 = wait forever.
  uint64_t session_idle_timeout_ms = 0;
};

/// Serves one coordinator session on `transport`; returns OK after a clean
/// Shutdown (or peer close), the failure otherwise. Blocking: run it on a
/// dedicated thread or process.
Status ServeWorker(Transport& transport, const WorkerOptions& options);

/// ServeWorker on a dedicated thread over an in-process transport pair: the
/// test/bench substrate, and the one-box degenerate deployment.
class InProcessWorker {
 public:
  explicit InProcessWorker(WorkerOptions options);

  /// Joins the serving thread (closing the transport first if the
  /// coordinator never did).
  ~InProcessWorker();

  /// The coordinator-side endpoint; call once and hand it to the
  /// Coordinator, which takes ownership.
  std::unique_ptr<Transport> TakeCoordinatorEndpoint() {
    return std::move(coordinator_endpoint_);
  }

  /// Waits for the session to end and returns ServeWorker's status.
  Status Join();

 private:
  std::unique_ptr<Transport> worker_endpoint_;
  std::unique_ptr<Transport> coordinator_endpoint_;
  std::thread thread_;
  Status result_;
  bool joined_ = false;
};

}  // namespace dist
}  // namespace frapp

#endif  // FRAPP_DIST_WORKER_H_
