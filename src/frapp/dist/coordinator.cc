#include "frapp/dist/coordinator.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "frapp/common/clock.h"
#include "frapp/common/parallel.h"
#include "frapp/common/tree_merge.h"
#include "frapp/data/boolean_vertical_index.h"
#include "frapp/data/pattern_count_source.h"
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
  std::atomic<uint64_t> ranges_appended{0};
  std::atomic<uint64_t> rows_appended{0};
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
    return static_cast<size_t>(coordinator_->total_rows_ -
                               coordinator_->options_.begin_row);
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

/// PatternCountSource whose batches fan candidate BLOCKS of bit positions
/// out (split on the wire's pattern budget, so a whole Apriori pass costs
/// few round trips instead of one per candidate), tree-merge the RAW
/// per-candidate superset vectors, and apply the Mobius transform once per
/// candidate on the merged totals (it is linear, so this equals
/// transforming per worker and summing — and bit-equals the single-process
/// ShardedBooleanVerticalIndex path).
class Coordinator::RemotePatternCountSource
    : public data::PatternCountSource {
 public:
  explicit RemotePatternCountSource(Coordinator* coordinator)
      : coordinator_(coordinator) {}

  size_t num_rows() const override {
    return static_cast<size_t>(coordinator_->total_rows_ -
                               coordinator_->options_.begin_row);
  }
  size_t num_bits() const override {
    return static_cast<size_t>(coordinator_->num_bits_);
  }

  StatusOr<std::vector<int64_t>> PatternCounts(
      const std::vector<size_t>& positions) override {
    FRAPP_ASSIGN_OR_RETURN(std::vector<std::vector<int64_t>> counts,
                           PatternCountsBatch({positions}));
    return std::move(counts[0]);
  }

  StatusOr<std::vector<std::vector<int64_t>>> PatternCountsBatch(
      const std::vector<std::vector<size_t>>& candidates) override {
    std::vector<std::vector<int64_t>> totals;
    totals.reserve(candidates.size());
    // Greedy blocks under the wire's pattern budget (and the categorical
    // block cap, for symmetry): block boundaries only change round-trip
    // granularity, never the integers merged per candidate.
    size_t begin = 0;
    while (begin < candidates.size()) {
      uint64_t budget = 0;
      size_t end = begin;
      PatternRequest request;
      while (end < candidates.size() &&
             request.candidates.size() <
                 coordinator_->options_.max_itemsets_per_request) {
        const std::vector<size_t>& positions = candidates[end];
        if (positions.size() >
            data::BooleanVerticalIndex::kMaxPatternLength) {
          return Status::InvalidArgument("pattern length above the 2^k cap");
        }
        const uint64_t patterns = 1ull << positions.size();
        if (end > begin && budget + patterns > kMaxPatternsPerBatch) break;
        budget += patterns;
        request.candidates.emplace_back(positions.begin(), positions.end());
        ++end;
      }
      std::vector<Message> responses;
      FRAPP_RETURN_IF_ERROR(
          coordinator_->Broadcast(EncodePatternRequest(request), &responses));
      const uint64_t merge_start = common::NowNanos();
      std::vector<PatternResponse> decoded(responses.size());
      for (size_t w = 0; w < responses.size(); ++w) {
        FRAPP_ASSIGN_OR_RETURN(decoded[w],
                               DecodePatternResponse(responses[w]));
        if (decoded[w].superset_counts.size() != end - begin) {
          return Status::Internal(
              "worker " + std::to_string(w) + " returned " +
              std::to_string(decoded[w].superset_counts.size()) +
              " superset vectors for " + std::to_string(end - begin) +
              " candidates");
        }
      }
      for (size_t c = 0; c < end - begin; ++c) {
        const size_t patterns = 1ull << candidates[begin + c].size();
        std::vector<std::vector<int64_t>> vectors(decoded.size());
        for (size_t w = 0; w < decoded.size(); ++w) {
          if (decoded[w].superset_counts[c].size() != patterns) {
            return Status::Internal(
                "worker " + std::to_string(w) +
                " returned a wrong-sized superset vector");
          }
          vectors[w] = std::move(decoded[w].superset_counts[c]);
        }
        common::TreeMergeVectors(vectors);
        std::vector<int64_t> merged = std::move(vectors[0]);
        data::BooleanVerticalIndex::MobiusExactCounts(merged);
        totals.push_back(std::move(merged));
      }
      coordinator_->internals_->merge_nanos.fetch_add(
          common::NowNanos() - merge_start, std::memory_order_relaxed);
      begin = end;
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
  if (options.begin_row % data::kShardAlignmentRows != 0) {
    return Status::InvalidArgument(
        "begin_row must be a multiple of the chunk quantum (" +
        std::to_string(data::kShardAlignmentRows) + ")");
  }
  if (options.begin_row > total_rows) {
    return Status::InvalidArgument("begin_row is past total_rows");
  }
  std::unique_ptr<Coordinator> coordinator(
      new Coordinator(std::move(workers), schema, spec, options));

  // The coordinator's own mechanism instance: reconstruction parameters and
  // the shard-kind the workers must index. Never perturbs anything here.
  FRAPP_ASSIGN_OR_RETURN(coordinator->mechanism_,
                         MakeMechanism(spec, coordinator->schema_));
  coordinator->kind_ = coordinator->mechanism_->shard_kind();
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

  // One contiguous chunk-aligned range per worker over the session window
  // [begin_row, total_rows) — the same partition function the in-process
  // pipeline shards with, offset to the window start (begin_row is
  // chunk-aligned, so every sub-range stays on the global chunk grid).
  // Workers past the number of chunk quanta get an empty range (and count
  // zeros, harmlessly).
  std::vector<data::RowRange> plan = data::ShardedTable::Plan(
      total_rows - options.begin_row, coordinator->workers_.size(),
      data::kShardAlignmentRows);
  for (data::RowRange& range : plan) {
    range.begin += options.begin_row;
    range.end += options.begin_row;
  }
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
    const uint8_t want_kind =
        coordinator->kind_ == core::Mechanism::ShardKind::kBoolean ? 1 : 0;
    if (ack.shard_kind != want_kind) {
      return Status::Internal("worker " + std::to_string(w) +
                              " indexed the wrong shard representation");
    }
    coordinator->workers_[w].rows = ack.num_rows;
    coordinator->num_bits_ = std::max(coordinator->num_bits_, ack.num_bits);
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

Status Coordinator::ReassignOrphans(std::vector<RowSpan> orphans,
                                    bool appending) {
  std::atomic<uint64_t>& assign_counter = appending
                                              ? internals_->ranges_appended
                                              : internals_->ranges_reassigned;
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
    std::vector<uint64_t> seen_bits(workers_.size(), 0);
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
        seen_bits[w] = std::max(seen_bits[w], ack->num_bits);
        assign_counter.fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (size_t w = 0; w < workers_.size(); ++w) {
      if (!refused[w].ok()) {
        return Status(refused[w].code(), "worker " + std::to_string(w) +
                                             ": " + refused[w].message());
      }
      num_bits_ = std::max(num_bits_, seen_bits[w]);
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
  if (covered != total_rows_ - options_.begin_row) {
    return Status::FailedPrecondition(
        "workers ingested " + std::to_string(covered) + " rows, expected " +
        std::to_string(total_rows_ - options_.begin_row) +
        " — worker data does not cover the assigned ranges");
  }
  return Status::OK();
}

Status Coordinator::AppendRows(size_t new_total_rows) {
  if (shut_down_) {
    return Status::FailedPrecondition("session already shut down");
  }
  if (new_total_rows < total_rows_) {
    return Status::InvalidArgument(
        "AppendRows cannot shrink the table: sessions only support growth");
  }
  if (new_total_rows == total_rows_) return Status::OK();
  if (total_rows_ % data::kShardAlignmentRows != 0) {
    return Status::FailedPrecondition(
        "append requires the previous total (" + std::to_string(total_rows_) +
        ") to be chunk-aligned: a partial tail chunk cannot be extended once "
        "its rows are perturbed");
  }
  const uint64_t old_total = total_rows_;
  total_rows_ = new_total_rows;
  FRAPP_RETURN_IF_ERROR(ReassignOrphans({RowSpan{old_total, new_total_rows}},
                                        /*appending=*/true));
  internals_->rows_appended.fetch_add(new_total_rows - old_total,
                                      std::memory_order_relaxed);
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
  std::unique_ptr<mining::SupportEstimator> inner;
  if (kind_ == core::Mechanism::ShardKind::kBoolean) {
    FRAPP_ASSIGN_OR_RETURN(
        inner, mechanism_->MakeBooleanCountSourceEstimator(
                   std::make_shared<RemotePatternCountSource>(this)));
  } else {
    FRAPP_ASSIGN_OR_RETURN(
        inner, mechanism_->MakeCountSourceEstimator(
                   std::make_shared<RemoteSupportCountSource>(this)));
  }
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
  stats.ranges_appended =
      internals_->ranges_appended.load(std::memory_order_relaxed);
  stats.rows_appended =
      internals_->rows_appended.load(std::memory_order_relaxed);
  stats.begin_row = options_.begin_row;
  stats.total_chunks = common::NumChunks(total_rows_ - options_.begin_row,
                                         data::kShardAlignmentRows);
  stats.appended_chunks = common::NumChunks(stats.rows_appended,
                                            data::kShardAlignmentRows);
  stats.deadline_retries =
      internals_->deadline_retries.load(std::memory_order_relaxed);
  stats.pings_sent = internals_->pings_sent.load(std::memory_order_relaxed);
  stats.rounds_restarted =
      internals_->rounds_restarted.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace dist
}  // namespace frapp
