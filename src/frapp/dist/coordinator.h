// The frapp/dist coordinator: drives Apriori over remote shard workers.
//
// Connect() splits the global row space [0, total_rows) into one contiguous
// chunk-aligned range per worker (the same ShardedTable::Plan the
// single-process pipeline uses), hands each worker its range plus the
// mechanism spec and perturbation seed, and waits for the ingest acks. From
// then on every Apriori pass works like this:
//
//   candidate block --> every worker            (same request, fanned out)
//   count vector    <-- every worker            (integers over ITS rows)
//   tree-merge (integer sums, fixed worker order)
//   mechanism's reconstruction on the totals    (coordinator-local)
//
// Support counts are linear in the row partition, so the merged integers
// equal the single-process pipeline's — and since the reconstruction code
// consuming them is literally the same (the mechanism's estimator over a
// SupportCountSource; MASK and C&P fold their sub-itemset supports into
// pattern counts after the merge), mined itemsets and reconstructed
// supports are BIT-IDENTICAL to pipeline::PrivacyPipeline at any worker
// count, over any transport.
//
// Traffic is O(workers x candidates) integers per pass; rows never cross
// the wire. DistStats accounts for every byte both ways plus the merge
// time, which is what bench/dist_benchmark.cc records.
//
// FAULT TOLERANCE. With a request deadline configured (CoordinatorOptions::
// retry), the coordinator survives workers that die, hang, or drop off the
// network, at ANY point after dial-out — and the recovery preserves the
// bit-identity guarantee:
//
//   - A receive that trips its deadline is retried on the same connection
//     (transports resume partial frames), up to max_attempts waits; a
//     worker still silent after that — or one whose connection failed
//     outright — is declared DEAD and its connection closed.
//   - A dead worker's chunk-aligned ranges are re-split (the same
//     ShardedTable::Plan) across the survivors, which re-ingest them via
//     AssignRange: perturbation draws the same GLOBAL seeded-chunk streams,
//     and counts are additive over the row partition, so the merged totals
//     after recovery equal the healthy run's bit for bit.
//   - The interrupted broadcast round then RESTARTS against the survivors:
//     every response of the aborted round was either drained or its
//     connection closed, so the strict request/response streams stay in
//     sync. Re-counted integers are deterministic, so the restart cannot
//     change results — only recover them.
//   - Only when NO worker remains does mining fail, with kUnavailable.
//
// With retry.request_deadline_ms == 0 (the default) deadlines are off and
// behaviour is exactly the pre-fault-tolerance one: block forever, fail on
// the first transport error.

#ifndef FRAPP_DIST_COORDINATOR_H_
#define FRAPP_DIST_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/core/mechanism.h"
#include "frapp/data/schema.h"
#include "frapp/dist/mechanism_spec.h"
#include "frapp/dist/transport.h"
#include "frapp/mining/apriori.h"

namespace frapp {
namespace dist {

struct CoordinatorOptions {
  /// Master seed of the deterministic perturbation (worker-side).
  uint64_t perturb_seed = 7;

  /// Threads fanning per-worker calls out (0 = one per worker). Blocking
  /// transport I/O runs on the shared common::ThreadPool. Never affects
  /// results.
  size_t num_threads = 0;

  /// Candidates per CountRequest frame: bounds frame sizes for huge passes.
  size_t max_itemsets_per_request = 8192;

  /// Failure detection and retry policy. request_deadline_ms bounds every
  /// send and receive against a worker; max_attempts bounds the deadline-
  /// retried receive waits before the worker is declared dead. The deadline
  /// should comfortably exceed the slowest expected ingest/counting pass —
  /// though even a falsely-declared death only costs re-ingest time, never
  /// correctness. The default (0) disables deadlines: block forever.
  RetryOptions retry;
};

/// Observability of one coordinator session.
struct DistStats {
  size_t num_workers = 0;

  /// Workers still serving (== num_workers unless failures struck).
  size_t workers_alive = 0;

  /// Workers declared dead (connection failure, or silent past the retry
  /// budget).
  uint64_t workers_failed = 0;

  /// Chunk-aligned ranges handed to survivors via AssignRange.
  uint64_t ranges_reassigned = 0;

  /// Chunks covering [0, total_rows), the partial tail chunk included.
  uint64_t total_chunks = 0;

  /// Receive waits that tripped their deadline and were retried on the
  /// same connection.
  uint64_t deadline_retries = 0;

  /// Liveness probes sent by CheckHealth.
  uint64_t pings_sent = 0;

  /// Broadcast rounds restarted after a mid-round worker death.
  uint64_t rounds_restarted = 0;

  /// Rows ingested across workers (sum of HelloAck row counts).
  uint64_t total_rows = 0;

  /// Request/response frames sent to and received from workers.
  uint64_t requests_sent = 0;
  uint64_t responses_received = 0;

  /// Wire bytes both ways (frame headers included), as EncodeFrame lays
  /// them out — identical for TCP and in-process transports.
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;

  /// Nanoseconds merging per-worker count vectors (tree merge + Mobius).
  uint64_t merge_nanos = 0;
};

/// A mining::SupportEstimator whose counts come from remote workers: the
/// mechanism's own reconstructing estimator, fed by merged count vectors.
/// This is what slots into the existing Apriori/estimator seam — Apriori
/// cannot tell it from a local one. Created by Coordinator::MakeEstimator;
/// valid while its Coordinator lives.
class DistributedSupportEstimator : public mining::SupportEstimator {
 public:
  StatusOr<double> EstimateSupport(const mining::Itemset& itemset) override {
    return inner_->EstimateSupport(itemset);
  }
  StatusOr<std::vector<double>> EstimateSupports(
      const std::vector<mining::Itemset>& itemsets) override {
    return inner_->EstimateSupports(itemsets);
  }

 private:
  friend class Coordinator;
  explicit DistributedSupportEstimator(
      std::unique_ptr<mining::SupportEstimator> inner)
      : inner_(std::move(inner)) {}

  std::unique_ptr<mining::SupportEstimator> inner_;
};

class Coordinator {
 public:
  /// Performs the handshake over already-connected transports (one per
  /// worker, ownership taken): assigns ranges over [0, total_rows), ships
  /// the spec + seed, waits for every ingest ack, and verifies the acked
  /// row counts sum to total_rows (a worker whose local data disagrees
  /// would silently skew every count otherwise).
  static StatusOr<std::unique_ptr<Coordinator>> Connect(
      std::vector<std::unique_ptr<Transport>> workers,
      const data::CategoricalSchema& schema, const MechanismSpec& spec,
      size_t total_rows, const CoordinatorOptions& options);

  ~Coordinator();

  /// One liveness round: pings every live worker and waits for Pongs (under
  /// the retry policy). Workers that fail the probe are declared dead and
  /// their ranges re-assigned to survivors, exactly as during a counting
  /// pass. Fails with kUnavailable once no worker remains. Requires a
  /// configured request deadline to detect HUNG (vs dead) workers.
  Status CheckHealth();

  /// The distributed estimator over this coordinator's workers.
  StatusOr<std::unique_ptr<DistributedSupportEstimator>> MakeEstimator();

  /// Runs Apriori with the distributed estimator: perturbation and counting
  /// on the workers, reconstruction and candidate generation here.
  StatusOr<mining::AprioriResult> Mine(const mining::AprioriOptions& mining);

  /// Sends Shutdown to every worker and closes the transports. Idempotent;
  /// also run by the destructor.
  void Shutdown();

  const data::CategoricalSchema& schema() const { return schema_; }
  size_t num_workers() const { return workers_.size(); }
  size_t num_alive_workers() const;

  /// Stats snapshot (cheap; callable between passes).
  DistStats stats() const;

 private:
  class RemoteSupportCountSource;
  struct Internals;

  /// A global row span a worker covers (chunk-aligned).
  struct RowSpan {
    uint64_t begin = 0;
    uint64_t end = 0;
  };

  /// One hired worker: its connection, liveness, and the global coverage
  /// it holds — the hand-off manifest if it dies.
  struct WorkerSlot {
    std::unique_ptr<Transport> transport;
    bool alive = true;
    std::vector<RowSpan> ranges;
    uint64_t rows = 0;
  };

  Coordinator(std::vector<std::unique_ptr<Transport>> workers,
              data::CategoricalSchema schema, const MechanismSpec& spec,
              const CoordinatorOptions& options);

  /// Send/receive against one worker with stats accounting; ReceiveFrom
  /// retries deadline-tripped waits up to the retry budget (the resumable
  /// receive makes that safe) and lets every other failure through.
  Status SendTo(size_t w, const Message& message);
  StatusOr<Message> ReceiveFrom(size_t w);

  /// Declares worker `w` dead: closes its connection and moves its
  /// coverage into *orphans for re-assignment.
  void MarkDead(size_t w, std::vector<RowSpan>* orphans);

  /// Re-splits orphaned spans across the live fleet via AssignRange
  /// (chunk-aligned sub-plans, so perturbation streams stay global), then
  /// re-verifies total row coverage. A worker failing ITS re-assignment is
  /// declared dead too and the loop continues; kUnavailable once nobody is
  /// left.
  Status ReassignOrphans(std::vector<RowSpan> orphans);

  /// Sends `request` to every live worker, then collects one response per
  /// live worker (in slot order). The send loop finishes before any
  /// receive blocks, so all workers compute concurrently; receives fan out
  /// on the shared thread pool. If any worker dies mid-round, the round's
  /// responses are DISCARDED, the dead workers' ranges are re-assigned,
  /// and the round restarts against the survivors — see the file comment
  /// for why that preserves bit-identity.
  Status Broadcast(const Message& request, std::vector<Message>* responses);

  std::vector<WorkerSlot> workers_;
  data::CategoricalSchema schema_;
  MechanismSpec spec_;
  CoordinatorOptions options_;
  std::unique_ptr<core::Mechanism> mechanism_;
  uint64_t total_rows_ = 0;
  bool shut_down_ = false;
  std::unique_ptr<Internals> internals_;  // atomic stats counters
};

}  // namespace dist
}  // namespace frapp

#endif  // FRAPP_DIST_COORDINATOR_H_
