#include "frapp/dist/coordinator.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "frapp/common/clock.h"
#include "frapp/common/parallel.h"
#include "frapp/common/tree_merge.h"
#include "frapp/data/shard_io.h"
#include "frapp/data/sharded_table.h"
#include "frapp/dist/wire.h"
#include "frapp/mining/count_source.h"

namespace frapp {
namespace dist {


/// Atomic counters behind the DistStats snapshot (updated from pool
/// threads during fan-out).
struct Coordinator::Internals {
  std::atomic<uint64_t> requests_sent{0};
  std::atomic<uint64_t> responses_received{0};
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> bytes_received{0};
  std::atomic<uint64_t> merge_nanos{0};
  std::atomic<uint64_t> workers_failed{0};
  std::atomic<uint64_t> ranges_reassigned{0};
  std::atomic<uint64_t> deadline_retries{0};
  std::atomic<uint64_t> pings_sent{0};
  std::atomic<uint64_t> rounds_restarted{0};
};

// ------------------------------------------------------- remote counting --

/// SupportCountSource whose CountSupports fans candidate blocks out to the
/// workers and tree-merges the returned vectors.
class Coordinator::RemoteSupportCountSource
    : public mining::SupportCountSource {
 public:
  explicit RemoteSupportCountSource(Coordinator* coordinator)
      : coordinator_(coordinator) {}

  size_t num_rows() const override {
    return static_cast<size_t>(coordinator_->total_rows_);
  }

  StatusOr<std::vector<uint64_t>> CountSupports(
      const std::vector<mining::Itemset>& itemsets) override {
    std::vector<uint64_t> totals;
    totals.reserve(itemsets.size());
    const size_t block_size =
        std::max<size_t>(1, coordinator_->options_.max_itemsets_per_request);
    for (size_t begin = 0; begin < itemsets.size(); begin += block_size) {
      const size_t end = std::min(itemsets.size(), begin + block_size);
      CountRequest request;
      request.itemsets.assign(itemsets.begin() + begin, itemsets.begin() + end);
      std::vector<Message> responses;
      FRAPP_RETURN_IF_ERROR(
          coordinator_->Broadcast(EncodeCountRequest(request), &responses));
      const uint64_t merge_start = common::NowNanos();
      std::vector<std::vector<uint64_t>> vectors(responses.size());
      for (size_t w = 0; w < responses.size(); ++w) {
        FRAPP_ASSIGN_OR_RETURN(CountResponse response,
                               DecodeCountResponse(responses[w]));
        if (response.counts.size() != end - begin) {
          return Status::Internal(
              "worker " + std::to_string(w) + " returned " +
              std::to_string(response.counts.size()) + " counts for " +
              std::to_string(end - begin) + " candidates");
        }
        vectors[w] = std::move(response.counts);
      }
      common::TreeMergeVectors(vectors);
      totals.insert(totals.end(), vectors[0].begin(), vectors[0].end());
      coordinator_->internals_->merge_nanos.fetch_add(
          common::NowNanos() - merge_start, std::memory_order_relaxed);
    }
    return totals;
  }

 private:
  Coordinator* coordinator_;
};

// ------------------------------------------------------------ coordinator --

Coordinator::Coordinator(std::vector<std::unique_ptr<Transport>> workers,
                         data::CategoricalSchema schema,
                         const MechanismSpec& spec,
                         const CoordinatorOptions& options)
    : schema_(std::move(schema)),
      spec_(spec),
      options_(options),
      internals_(std::make_unique<Internals>()) {
  workers_.reserve(workers.size());
  for (std::unique_ptr<Transport>& transport : workers) {
    WorkerSlot slot;
    slot.transport = std::move(transport);
    workers_.push_back(std::move(slot));
  }
}

Coordinator::~Coordinator() { Shutdown(); }

StatusOr<std::unique_ptr<Coordinator>> Coordinator::Connect(
    std::vector<std::unique_ptr<Transport>> workers,
    const data::CategoricalSchema& schema, const MechanismSpec& spec,
    size_t total_rows, const CoordinatorOptions& options) {
  if (workers.empty()) {
    return Status::InvalidArgument("Connect needs at least one worker");
  }
  std::unique_ptr<Coordinator> coordinator(
      new Coordinator(std::move(workers), schema, spec, options));

  // The coordinator's own mechanism instance: its reconstruction
  // parameters. Never perturbs anything here.
  FRAPP_ASSIGN_OR_RETURN(coordinator->mechanism_,
                         MakeMechanism(spec, coordinator->schema_));
  coordinator->total_rows_ = total_rows;

  // Failure detection needs bounded waits on every connection; a zero
  // deadline keeps the pre-fault-tolerance block-forever behaviour.
  if (options.retry.request_deadline_ms > 0) {
    for (WorkerSlot& slot : coordinator->workers_) {
      slot.transport->SetReceiveTimeoutMillis(
          options.retry.request_deadline_ms);
      slot.transport->SetSendTimeoutMillis(options.retry.request_deadline_ms);
    }
  }

  // One contiguous chunk-aligned range per worker — the same partition
  // function the in-process pipeline shards with. Workers past the number
  // of chunk quanta get an empty range (and count zeros, harmlessly).
  const std::vector<data::RowRange> plan = data::ShardedTable::Plan(
      total_rows, coordinator->workers_.size(), data::kShardAlignmentRows);
  const uint64_t fingerprint =
      data::SchemaFingerprint(coordinator->schema_);

  // Send every Hello before waiting on any ack, so all workers ingest
  // their ranges concurrently. A worker that cannot even be sent to is
  // dead on arrival; its planned range is re-assigned after the ack loop.
  std::vector<RowSpan> orphans;
  std::vector<bool> hello_sent(coordinator->workers_.size(), false);
  for (size_t w = 0; w < coordinator->workers_.size(); ++w) {
    HelloRequest hello;
    hello.schema_fingerprint = fingerprint;
    hello.perturb_seed = options.perturb_seed;
    if (w < plan.size()) {
      hello.range_begin = plan[w].begin;
      hello.range_end = plan[w].end;
    }
    hello.spec = spec;
    coordinator->workers_[w].ranges.push_back(
        RowSpan{hello.range_begin, hello.range_end});
    const Status sent = coordinator->SendTo(w, EncodeHello(hello));
    if (sent.ok()) {
      hello_sent[w] = true;
    } else {
      coordinator->MarkDead(w, &orphans);
    }
  }
  for (size_t w = 0; w < coordinator->workers_.size(); ++w) {
    if (!hello_sent[w]) continue;
    StatusOr<Message> received = coordinator->ReceiveFrom(w);
    if (!received.ok()) {
      // A transport-level failure at handshake is a dead worker, not a
      // dead job: survivors absorb its range below.
      coordinator->MarkDead(w, &orphans);
      continue;
    }
    if (received->type == MessageType::kError) {
      // An application-level refusal (schema/version mismatch) means the
      // JOB is misconfigured — re-assigning would refuse everywhere.
      const Status refused = DecodeError(*received);
      return Status(refused.code(),
                    "worker " + std::to_string(w) + ": " + refused.message());
    }
    FRAPP_ASSIGN_OR_RETURN(const HelloAck ack, DecodeHelloAck(*received));
    coordinator->workers_[w].rows = ack.num_rows;
  }
  FRAPP_RETURN_IF_ERROR(coordinator->ReassignOrphans(std::move(orphans)));
  return coordinator;
}

size_t Coordinator::num_alive_workers() const {
  size_t alive = 0;
  for (const WorkerSlot& slot : workers_) {
    if (slot.alive) ++alive;
  }
  return alive;
}

Status Coordinator::SendTo(size_t w, const Message& message) {
  const Status sent = workers_[w].transport->Send(message);
  if (sent.ok()) {
    internals_->bytes_sent.fetch_add(message.WireSize(),
                                     std::memory_order_relaxed);
    internals_->requests_sent.fetch_add(1, std::memory_order_relaxed);
  }
  return sent;
}

StatusOr<Message> Coordinator::ReceiveFrom(size_t w) {
  const size_t attempts =
      options_.retry.max_attempts > 0 ? options_.retry.max_attempts : 1;
  Status last = Status::Internal("no receive attempts made");
  for (size_t attempt = 0; attempt < attempts; ++attempt) {
    StatusOr<Message> received = workers_[w].transport->Receive();
    if (received.ok()) {
      internals_->bytes_received.fetch_add(received->WireSize(),
                                           std::memory_order_relaxed);
      internals_->responses_received.fetch_add(1, std::memory_order_relaxed);
      return received;
    }
    last = received.status();
    // Only a deadline is worth another wait (the resumable receive picks
    // the same frame back up); closed/corrupt connections cannot recover.
    if (last.code() != StatusCode::kDeadlineExceeded) break;
    if (attempt + 1 < attempts) {
      internals_->deadline_retries.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return last;
}

void Coordinator::MarkDead(size_t w, std::vector<RowSpan>* orphans) {
  WorkerSlot& slot = workers_[w];
  if (!slot.alive) return;
  slot.alive = false;
  slot.transport->Close();
  internals_->workers_failed.fetch_add(1, std::memory_order_relaxed);
  for (const RowSpan& span : slot.ranges) {
    if (span.end > span.begin) orphans->push_back(span);
  }
  slot.ranges.clear();
  slot.rows = 0;
}

Status Coordinator::ReassignOrphans(std::vector<RowSpan> orphans) {
  while (!orphans.empty()) {
    std::vector<size_t> alive;
    for (size_t w = 0; w < workers_.size(); ++w) {
      if (workers_[w].alive) alive.push_back(w);
    }
    if (alive.empty()) {
      return Status::Unavailable(
          "all " + std::to_string(workers_.size()) + " workers failed");
    }
    // Split every orphaned span across the live fleet with the SAME
    // chunk-aligned planner that cut the original ranges: sub-ranges stay
    // on the chunk grid (the span begins chunk-aligned), so survivors
    // perturb them on the same global seeded-chunk streams.
    struct Assignment {
      RowSpan span;
      size_t target;
    };
    std::vector<Assignment> assignments;
    for (const RowSpan& orphan : orphans) {
      const std::vector<data::RowRange> split = data::ShardedTable::Plan(
          static_cast<size_t>(orphan.end - orphan.begin), alive.size(),
          data::kShardAlignmentRows);
      for (size_t i = 0; i < split.size(); ++i) {
        if (split[i].end == split[i].begin) continue;
        assignments.push_back(
            Assignment{RowSpan{orphan.begin + split[i].begin,
                               orphan.begin + split[i].end},
                       alive[i % alive.size()]});
      }
    }
    orphans.clear();

    // Per-target queues, ingested concurrently across targets (sequential
    // request/response per connection, as the protocol requires).
    std::vector<std::vector<RowSpan>> queue(workers_.size());
    for (const Assignment& assignment : assignments) {
      queue[assignment.target].push_back(assignment.span);
    }
    std::vector<std::vector<RowSpan>> failed_spans(workers_.size());
    // vector<char>, not vector<bool>: pool threads flag distinct indexes
    // concurrently, and vector<bool> packs bits into shared words.
    std::vector<char> died(workers_.size(), 0);
    std::vector<Status> refused(workers_.size());
    const size_t fan_out =
        options_.num_threads == 0 ? workers_.size() : options_.num_threads;
    common::ParallelForChunks(workers_.size(), fan_out, [&](size_t w) {
      for (size_t i = 0; i < queue[w].size(); ++i) {
        const RowSpan& span = queue[w][i];
        AssignRange assign;
        assign.range_begin = span.begin;
        assign.range_end = span.end;
        const Status sent = SendTo(w, EncodeAssignRange(assign));
        StatusOr<Message> received =
            sent.ok() ? ReceiveFrom(w) : StatusOr<Message>(sent);
        if (received.ok() && received->type == MessageType::kError) {
          // An Error frame over a healthy connection is the worker
          // REFUSING the assignment (schema mismatch, misaligned range) —
          // the JOB's fault, same as Broadcast: every survivor would
          // refuse too, so it stays fatal instead of cascading the whole
          // fleet into MarkDead.
          refused[w] = DecodeError(*received);
          return;
        }
        StatusOr<RangeAck> ack =
            received.ok() ? DecodeRangeAck(*received)
                          : StatusOr<RangeAck>(received.status());
        if (!ack.ok()) {
          // This survivor failed too: everything still queued for it —
          // including the span that just failed — goes back to the pool.
          died[w] = 1;
          failed_spans[w].assign(queue[w].begin() + i, queue[w].end());
          return;
        }
        workers_[w].ranges.push_back(span);
        workers_[w].rows += ack->num_rows;
        internals_->ranges_reassigned.fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (size_t w = 0; w < workers_.size(); ++w) {
      if (!refused[w].ok()) {
        return Status(refused[w].code(), "worker " + std::to_string(w) +
                                             ": " + refused[w].message());
      }
      if (!died[w]) continue;
      MarkDead(w, &orphans);
      orphans.insert(orphans.end(), failed_spans[w].begin(),
                     failed_spans[w].end());
    }
  }
  // Coverage re-check: after any recovery the live fleet must still hold
  // exactly the table (a worker whose local data cannot produce its range
  // would silently skew every count otherwise).
  uint64_t covered = 0;
  for (const WorkerSlot& slot : workers_) {
    if (slot.alive) covered += slot.rows;
  }
  if (covered != total_rows_) {
    return Status::FailedPrecondition(
        "workers ingested " + std::to_string(covered) + " rows, expected " +
        std::to_string(total_rows_) +
        " — worker data does not cover the assigned ranges");
  }
  return Status::OK();
}

Status Coordinator::CheckHealth() {
  std::vector<RowSpan> orphans;
  std::vector<size_t> alive;
  for (size_t w = 0; w < workers_.size(); ++w) {
    if (workers_[w].alive) alive.push_back(w);
  }
  // vector<char>, not vector<bool>: see ReassignOrphans.
  std::vector<char> died(workers_.size(), 0);
  const size_t fan_out =
      options_.num_threads == 0 ? workers_.size() : options_.num_threads;
  common::ParallelForChunks(alive.size(), fan_out, [&](size_t i) {
    const size_t w = alive[i];
    internals_->pings_sent.fetch_add(1, std::memory_order_relaxed);
    const Status sent = SendTo(w, EncodePing());
    StatusOr<Message> received =
        sent.ok() ? ReceiveFrom(w) : StatusOr<Message>(sent);
    if (!received.ok() || received->type != MessageType::kPong) {
      died[w] = 1;
    }
  });
  for (size_t w = 0; w < workers_.size(); ++w) {
    if (died[w]) MarkDead(w, &orphans);
  }
  return ReassignOrphans(std::move(orphans));
}

Status Coordinator::Broadcast(const Message& request,
                              std::vector<Message>* responses) {
  // Same request to every live worker: the candidate block is global, each
  // worker counts it over ITS rows. All sends complete before the first
  // receive can block, so worker compute overlaps. A round that loses a
  // worker discards ALL its responses, re-assigns the dead worker's ranges
  // and restarts — survivors then hold the orphaned rows too, so keeping
  // the aborted round's (pre-recovery) responses would undercount.
  bool first_round = true;
  while (true) {
    std::vector<size_t> alive;
    for (size_t w = 0; w < workers_.size(); ++w) {
      if (workers_[w].alive) alive.push_back(w);
    }
    if (alive.empty()) {
      return Status::Unavailable(
          "all " + std::to_string(workers_.size()) + " workers failed");
    }
    if (!first_round) {
      internals_->rounds_restarted.fetch_add(1, std::memory_order_relaxed);
    }
    first_round = false;

    std::vector<char> sent_ok(workers_.size(), 0);
    for (const size_t w : alive) {
      sent_ok[w] = SendTo(w, request).ok() ? 1 : 0;
    }
    responses->assign(alive.size(), Message{});
    std::vector<Status> statuses(workers_.size());
    // An Error frame is the worker REPORTING a failure over a healthy
    // connection — a bad candidate list, a schema disagreement. That is
    // the request's fault, not the worker's: re-assigning rows cannot fix
    // it, so it stays fatal. Transport-level failures (deadline after
    // retries, closed, reset, corrupt frame) mean the WORKER is gone,
    // which recovery exists for.
    // vector<char>, not vector<bool>: see ReassignOrphans.
    std::vector<char> worker_reported(workers_.size(), 0);
    const size_t fan_out =
        options_.num_threads == 0 ? alive.size() : options_.num_threads;
    common::ParallelForChunks(alive.size(), fan_out, [&](size_t i) {
      const size_t w = alive[i];
      if (!sent_ok[w]) {
        statuses[w] = Status::Unavailable("send failed");
        return;
      }
      StatusOr<Message> received = ReceiveFrom(w);
      if (!received.ok()) {
        statuses[w] = received.status();
        return;
      }
      if (received->type == MessageType::kError) {
        statuses[w] = DecodeError(*received);
        worker_reported[w] = 1;
        return;
      }
      (*responses)[i] = *std::move(received);
    });

    std::vector<RowSpan> orphans;
    for (const size_t w : alive) {
      if (statuses[w].ok()) continue;
      if (worker_reported[w]) {
        return Status(statuses[w].code(), "worker " + std::to_string(w) +
                                              ": " + statuses[w].message());
      }
      MarkDead(w, &orphans);
    }
    if (orphans.empty()) return Status::OK();
    FRAPP_RETURN_IF_ERROR(ReassignOrphans(std::move(orphans)));
  }
}

StatusOr<std::unique_ptr<DistributedSupportEstimator>>
Coordinator::MakeEstimator() {
  FRAPP_ASSIGN_OR_RETURN(
      std::unique_ptr<mining::SupportEstimator> inner,
      mechanism_->MakeCountSourceEstimator(
          std::make_shared<RemoteSupportCountSource>(this)));
  return std::unique_ptr<DistributedSupportEstimator>(
      new DistributedSupportEstimator(std::move(inner)));
}

StatusOr<mining::AprioriResult> Coordinator::Mine(
    const mining::AprioriOptions& mining) {
  FRAPP_ASSIGN_OR_RETURN(std::unique_ptr<DistributedSupportEstimator> estimator,
                         MakeEstimator());
  return mining::MineFrequentItemsets(schema_, *estimator, mining);
}

void Coordinator::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  const Message shutdown = EncodeShutdown();
  for (WorkerSlot& slot : workers_) {
    if (slot.alive) (void)slot.transport->Send(shutdown);
    slot.transport->Close();
  }
}

DistStats Coordinator::stats() const {
  DistStats stats;
  stats.num_workers = workers_.size();
  stats.workers_alive = num_alive_workers();
  stats.total_rows = total_rows_;
  stats.requests_sent =
      internals_->requests_sent.load(std::memory_order_relaxed);
  stats.responses_received =
      internals_->responses_received.load(std::memory_order_relaxed);
  stats.bytes_sent = internals_->bytes_sent.load(std::memory_order_relaxed);
  stats.bytes_received =
      internals_->bytes_received.load(std::memory_order_relaxed);
  stats.merge_nanos = internals_->merge_nanos.load(std::memory_order_relaxed);
  stats.workers_failed =
      internals_->workers_failed.load(std::memory_order_relaxed);
  stats.ranges_reassigned =
      internals_->ranges_reassigned.load(std::memory_order_relaxed);
  stats.total_chunks =
      common::NumChunks(total_rows_, data::kShardAlignmentRows);
  stats.deadline_retries =
      internals_->deadline_retries.load(std::memory_order_relaxed);
  stats.pings_sent = internals_->pings_sent.load(std::memory_order_relaxed);
  stats.rounds_restarted =
      internals_->rounds_restarted.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace dist
}  // namespace frapp
