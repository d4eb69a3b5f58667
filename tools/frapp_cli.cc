// frapp: command-line front end for the library.
//
// Subcommands:
//   frapp generate --dataset census|health [--rows N] [--seed S] --out F.csv
//       Writes a synthetic stand-in dataset as CSV.
//   frapp perturb  --dataset census|health --in F.csv --out G.csv
//                  [--rho1 0.05 --rho2 0.50] [--alpha-frac 0..1] [--seed S]
//       Client-side perturbation with the (optionally randomized)
//       gamma-diagonal mechanism, on the engines' seeded-chunk stream:
//       `mine --in` over the output prints the report of
//       `mine --run-pipeline` over the input at the same --seed.
//   frapp mine     --dataset census|health --in G.csv
//                  [--rho1 .. --rho2 ..] [--alpha-frac ..] [--minsup 0.02]
//                  [--exact] [--top K]
//       Miner-side frequent-itemset discovery. With --exact the input is
//       treated as unperturbed truth; otherwise supports are reconstructed
//       through the gamma-diagonal inverse (paper Eq. 28), so a --mechanism
//       other than det-gd/ran-gd is refused (exit 2), here as in perturb
//       and audit.
//   frapp audit    --dataset census|health [--rho1 .. --rho2 ..]
//                  [--alpha-frac ..]
//       Prints the two-step FRAPP design for the schema.
//   frapp convert  --dataset census|health --in F.csv --out F.bin
//       One-time CSV -> binary shard conversion (data/shard_io.h format):
//       later runs ingest the pre-tokenized labels with no text parsing
//       (pipeline::BinaryTableSource), the repeated-mining fast path.
//   frapp worker   --listen PORT [--bind-host 127.0.0.1] --dataset D
//                  (--in F.csv|F.bin | --rows N [--gen-seed S])
//                  [--threads T] [--once] [--idle-timeout-ms MS]
//                  [--index-cache-mb MB]
//       A frapp/dist shard worker: serves coordinator sessions on a TCP
//       port. Each session perturbs and indexes the worker's assigned row
//       range of the LOCAL data and answers candidate-count requests; rows
//       never leave the worker. Built range indexes are cached for the
//       process lifetime (keyed on source/spec/seed/range) under an LRU
//       byte budget (--index-cache-mb, default 256, 0 = unbounded), so a
//       rerun or a re-assigned range skips the ingest pass.
//       --idle-timeout-ms ends sessions whose coordinator vanished without
//       closing.
//   frapp mine ... --count-store F.frappcnt [--superset-margin F]
//                  [--window-begin ROW]
//       Incremental mine (store/incremental_mine.h): loads or creates the
//       materialized count store, perturbs and counts ONLY the chunks
//       appended since the store's high-water mark (plus the partial tail),
//       re-runs the lattice walk, and saves the store back. stdout is
//       byte-identical to the same mine without the store; stderr reports
//       delta vs total chunk counts. --window-begin expires rows below the
//       given chunk-aligned row by subtraction (windowed streams).
//   frapp append   --dataset D --out F.bin (--in NEW.csv | --rows N
//                  [--gen-seed S])
//       Grows a binary table in place (cells appended, header row count
//       patched): the producer side of the incremental flow. With --in, the
//       CSV's rows are appended verbatim; with --rows, the table grows to
//       its generated continuation (rows [old, old+N) of the deterministic
//       generator stream).
//   frapp mine ... --mechanism det-gd|ran-gd|mask|cp|ind-gd
//                  [--gamma G | --rho1 R --rho2 R]
//                  [--alpha A | --alpha-frac F] [--cutoff-k K] [--rho R]
//                  [--seed S] [--minsup F] plus ONE of
//       gamma is --gamma (default 19) or the --rho1/--rho2 requirement's,
//       as in perturb and mine --in; giving both is a usage error (exit 2).
//       --workers host:port,...  --rows N
//                  [--request-deadline-ms 30000] [--retry-attempts 3]
//                  [--connect-timeout-ms 5000] [--connect-retries 25]
//                  [--fault-spec "I:key=N,..."]
//           Distributed mine: coordinator-side reconstruction over remote
//           count vectors (see docs/DISTRIBUTED.md). Deadlines + retries
//           make it survive dead/hung workers: a dead worker's ranges are
//           re-assigned to survivors and results stay bit-identical.
//           --fault-spec injects a deterministic failure schedule into the
//           dialed connections (dist/fault.h grammar) for recovery drills.
//       --run-pipeline (--in F.csv|F.bin | --rows N [--gen-seed S])
//                  [--prefetch [--prefetch-parsers N]] [--pin-threads]
//           Single-process pipeline::PrivacyPipeline over the same spec —
//           prints the identical report, so `diff` proves output parity
//           with the distributed path. --prefetch parses ahead on parser
//           thread(s) (N = 0 means one per physical core); --pin-threads
//           pins the counting workers one per physical core. Both are
//           scheduling-only: the mined output is bit-identical.
//   frapp cpuinfo
//       Prints the detected ISA features, cache geometry and core topology
//       (common/cpuinfo.h) plus the counting-kernel level the dispatcher
//       resolved (mining/kernels.h, honouring FRAPP_FORCE_KERNEL).
//   frapp serve    --listen PORT [--bind-host 127.0.0.1] --dataset D
//                  (--in F.csv|F.bin | --rows N [--gen-seed S])
//                  [--threads T] [--cache-entries N] [--superset-margin F]
//       Mining-as-a-service front end (docs/SERVICE.md): a long-lived
//       process answering query frames over the dist wire protocol from a
//       result cache + count store. Concurrent identical mine queries
//       coalesce into ONE run; repeat queries are cache hits; sub-supmin /
//       top-k / rule queries against an already-mined problem are answered
//       from materialized count vectors with zero re-perturbation. SIGINT/
//       SIGTERM shut down gracefully: in-flight queries complete and their
//       responses are delivered before sessions close.
//   frapp query    --connect HOST:PORT --dataset D
//                  [--query mine|topk|rules|stats] --mechanism M [--seed S]
//                  [--minsup 0.02] [--min-confidence C] [--top K]
//       One query against a running `frapp serve`. --query mine prints the
//       EXACT report of `frapp mine --run-pipeline` over the same spec
//       (byte-diffable); topk/rules print their tables; stats prints the
//       server counters. stderr carries the per-query cache outcome and
//       server stats snapshot (what the smoke scripts assert on).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "frapp/common/cpuinfo.h"
#include "frapp/common/parallel.h"
#include "frapp/common/string_util.h"
#include "frapp/core/designer.h"
#include "frapp/data/census.h"
#include "frapp/data/csv.h"
#include "frapp/data/health.h"
#include "frapp/data/shard_io.h"
#include "frapp/dist/coordinator.h"
#include "frapp/dist/fault.h"
#include "frapp/dist/index_cache.h"
#include "frapp/dist/mechanism_spec.h"
#include "frapp/dist/retry.h"
#include "frapp/dist/transport.h"
#include "frapp/dist/worker.h"
#include "frapp/eval/reporting.h"
#include "frapp/mining/apriori.h"
#include "frapp/mining/count_source.h"
#include "frapp/mining/kernels.h"
#include "frapp/pipeline/privacy_pipeline.h"
#include "frapp/serve/broker.h"
#include "frapp/serve/client.h"
#include "frapp/serve/query_wire.h"
#include "frapp/serve/server.h"
#include "frapp/store/incremental_mine.h"

namespace {

using namespace frapp;

int Usage() {
  std::cerr <<
      "usage: frapp <generate|perturb|mine|append|audit|convert|worker|serve|query|cpuinfo> [flags]\n"
      "  generate --dataset census|health [--rows N] [--seed S] --out F.csv\n"
      "  perturb  --dataset D --in F.csv --out G.csv [--rho1 R --rho2 R]\n"
      "           [--alpha-frac F] [--seed 7]  (the --run-pipeline stream)\n"
      "  mine     --dataset D --in G.csv [--rho1 R --rho2 R] [--alpha-frac F]\n"
      "           [--minsup 0.02] [--exact] [--top K]\n"
      "  mine     --dataset D --mechanism det-gd|ran-gd|mask|cp|ind-gd\n"
      "           [--gamma 19 | --rho1 R --rho2 R]\n"
      "           [--alpha A | --alpha-frac F]                (ran-gd spread)\n"
      "           [--cutoff-k 3] [--rho 0.494]                (cp operator)\n"
      "           [--seed 7] [--minsup 0.02] [--top K] plus one of\n"
      "             --workers host:port,... --rows N         (distributed)\n"
      "               [--request-deadline-ms 30000] [--retry-attempts 3]\n"
      "               [--connect-timeout-ms 5000] [--connect-retries 25]\n"
      "               [--fault-spec \"I:key=N,...\"]  (recovery drills)\n"
      "             --run-pipeline (--in F.csv|F.bin | --rows N [--gen-seed S])\n"
      "               [--prefetch [--prefetch-parsers N]] [--pin-threads]\n"
      "             --count-store F.frappcnt (--in F.csv|F.bin | --rows N)\n"
      "               [--superset-margin 0.25] [--window-begin ROW]\n"
      "  append   --dataset D --out F.bin (--in NEW.csv | --rows N [--gen-seed S])\n"
      "  audit    --dataset D [--rho1 R --rho2 R] [--alpha-frac F]\n"
      "  convert  --dataset D --in F.csv --out F.bin\n"
      "  worker   --listen PORT [--bind-host 127.0.0.1] --dataset D\n"
      "           (--in F.csv|F.bin | --rows N [--gen-seed S])\n"
      "           [--threads T] [--pin-threads] [--once]\n"
      "           [--idle-timeout-ms MS] [--index-cache-mb MB]\n"
      "  serve    --listen PORT [--bind-host 127.0.0.1] --dataset D\n"
      "           (--in F.csv|F.bin | --rows N [--gen-seed S])\n"
      "           [--threads T] [--cache-entries 64] [--superset-margin 0.25]\n"
      "  query    --connect HOST:PORT --dataset D [--query mine|topk|rules|stats]\n"
      "           --mechanism det-gd|ran-gd|mask|cp|ind-gd\n"
      "           [--gamma G | --rho1 R --rho2 R]\n"
      "           [--alpha A | --alpha-frac F] [--cutoff-k K] [--rho R]\n"
      "           [--seed 7] [--minsup 0.02] [--min-confidence C] [--top 20]\n"
      "  cpuinfo  (prints ISA/cache/topology detection + kernel dispatch;\n"
      "            FRAPP_FORCE_KERNEL=scalar|avx2|avx512 overrides dispatch)\n";
  return 2;
}

// Tiny flag parser: --key value pairs plus boolean --key flags.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) continue;
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  double GetDouble(const std::string& key, double fallback) const {
    double out = fallback;
    auto it = values_.find(key);
    if (it != values_.end() && !ParseDouble(it->second, &out)) {
      std::cerr << "bad numeric value for --" << key << ": " << it->second << "\n";
      std::exit(2);
    }
    return out;
  }

  unsigned long long GetUint(const std::string& key,
                             unsigned long long fallback) const {
    unsigned long long out = fallback;
    auto it = values_.find(key);
    if (it != values_.end() && !ParseUint64(it->second, &out)) {
      std::cerr << "bad integer value for --" << key << ": " << it->second << "\n";
      std::exit(2);
    }
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
};

template <typename T>
T Unwrap(StatusOr<T> v) {
  if (!v.ok()) {
    std::cerr << "error: " << v.status().ToString() << "\n";
    std::exit(1);
  }
  return *std::move(v);
}

void UnwrapStatus(const Status& s) {
  if (!s.ok()) {
    std::cerr << "error: " << s.ToString() << "\n";
    std::exit(1);
  }
}

data::CategoricalSchema SchemaFor(const std::string& dataset) {
  if (dataset == "census") return data::census::Schema();
  if (dataset == "health") return data::health::Schema();
  std::cerr << "unknown --dataset '" << dataset << "' (census|health)\n";
  std::exit(2);
}

/// The (rho1, rho2) privacy requirement of --rho1/--rho2, defaulting to the
/// paper's (5%, 50%), i.e. gamma = 19.
core::PrivacyRequirement RequirementFromFlags(const Flags& flags) {
  return {flags.GetDouble("rho1", 0.05), flags.GetDouble("rho2", 0.50)};
}

/// The gamma-diagonal design of perturb, audit and mine --in: DET-GD, or
/// RAN-GD under --alpha-frac. Any other --mechanism is a usage error (exit
/// 2): these commands would otherwise silently run DET-GD in its place.
core::FrappDesign DesignFor(const data::CategoricalSchema& schema,
                            const Flags& flags) {
  const dist::MechanismSpec::Kind kind =
      Unwrap(dist::ParseMechanismKind(flags.Get("mechanism", "det-gd")));
  if (kind != dist::MechanismSpec::Kind::kDetGd &&
      kind != dist::MechanismSpec::Kind::kRanGd) {
    std::cerr << "--mechanism " << flags.Get("mechanism")
              << ": this command designs DET-GD or RAN-GD only; mine other "
                 "mechanisms with --run-pipeline, --count-store or --workers\n";
    std::exit(2);
  }
  core::DesignOptions options;
  options.requirement = RequirementFromFlags(flags);
  options.randomization_fraction = flags.GetDouble("alpha-frac", 0.0);
  return Unwrap(core::DesignMechanism(schema, options));
}

int CmdGenerate(const Flags& flags) {
  const std::string dataset = flags.Get("dataset");
  const std::string out = flags.Get("out");
  if (out.empty()) return Usage();
  const size_t default_rows = dataset == "health" ? data::health::kDefaultNumRecords
                                                  : data::census::kDefaultNumRecords;
  const size_t rows = static_cast<size_t>(flags.GetUint("rows", default_rows));
  const uint64_t seed = flags.GetUint("seed", dataset == "health"
                                                  ? data::health::kDefaultSeed
                                                  : data::census::kDefaultSeed);
  const data::CategoricalTable table =
      dataset == "health" ? Unwrap(data::health::MakeDataset(rows, seed))
                          : Unwrap(data::census::MakeDataset(rows, seed));
  UnwrapStatus(data::WriteCsv(table, out));
  std::cout << "wrote " << table.num_rows() << " " << dataset << " records to "
            << out << "\n";
  return 0;
}

int CmdPerturb(const Flags& flags) {
  const data::CategoricalSchema schema = SchemaFor(flags.Get("dataset"));
  const std::string in = flags.Get("in");
  const std::string out = flags.Get("out");
  if (in.empty() || out.empty()) return Usage();

  const data::CategoricalTable original = Unwrap(data::ReadCsv(in, schema));
  core::FrappDesign design = DesignFor(schema, flags);
  std::cout << design.Summary();

  // The engines' seeded-chunk stream over the whole table: the file mines
  // to the same report as `frapp mine --run-pipeline` at the same --seed.
  UnwrapStatus(data::WriteCsv(
      Unwrap(design.mechanism->PerturbShard(data::ShardView::Whole(original),
                                            flags.GetUint("seed", 7), 1)),
      out));
  std::cout << "wrote perturbed database to " << out << "\n";
  return 0;
}

// Shared by every mine mode, so single-process, distributed, incremental,
// and served runs can be diffed for bit-parity: identical supports print
// identical text. The format itself lives in eval::PrintMiningReport (one
// renderer for the CLI, `frapp query`, and the golden fixtures freezing it).
void PrintMiningReport(const data::CategoricalSchema& schema,
                       const mining::AprioriResult& result,
                       const std::string& label, double minsup, size_t top) {
  eval::PrintMiningReport(std::cout, schema, result, label, minsup, top);
}

dist::MechanismSpec SpecFromFlags(const Flags& flags,
                                  const data::CategoricalSchema& schema) {
  dist::MechanismSpec spec;
  spec.kind = Unwrap(dist::ParseMechanismKind(flags.Get("mechanism", "det-gd")));
  // gamma comes from --gamma or from the --rho1/--rho2 requirement (as in
  // perturb and mine --in), never from both.
  if (flags.Has("rho1") || flags.Has("rho2")) {
    if (flags.Has("gamma")) {
      std::cerr << "--gamma and --rho1/--rho2 both set gamma; give one\n";
      std::exit(2);
    }
    spec.gamma = Unwrap(core::GammaFromRequirement(RequirementFromFlags(flags)));
  } else {
    spec.gamma = flags.GetDouble("gamma", 19.0);
  }
  // RAN-GD spread: --alpha is the absolute spread; --alpha-frac mirrors the
  // legacy perturb/audit convention (fraction of the max gamma * x, with
  // x = 1 / (gamma + |S_U| - 1)).
  spec.alpha = flags.GetDouble("alpha", 0.0);
  if (flags.Has("alpha-frac")) {
    const double x =
        1.0 / (spec.gamma + static_cast<double>(schema.DomainSize()) - 1.0);
    spec.alpha = flags.GetDouble("alpha-frac", 0.0) * spec.gamma * x;
  }
  spec.cutoff_k = flags.GetUint("cutoff-k", 3);
  spec.rho = flags.GetDouble("rho", 0.494);
  return spec;
}

size_t DefaultRows(const std::string& dataset) {
  return dataset == "health" ? data::health::kDefaultNumRecords
                             : data::census::kDefaultNumRecords;
}

uint64_t DefaultGenSeed(const std::string& dataset) {
  return dataset == "health" ? data::health::kDefaultSeed
                             : data::census::kDefaultSeed;
}

/// A TableSource plus whatever keeps it fed (generated tables stay alive in
/// `table`). Resolves --in F.csv / --in F.bin / generated --rows data the
/// same way for `frapp worker` and `frapp mine --run-pipeline`.
struct ResolvedSource {
  std::shared_ptr<const data::CategoricalTable> table;  // generated data only
  std::unique_ptr<pipeline::TableSource> source;
};

StatusOr<ResolvedSource> MakeSource(const Flags& flags,
                                    const data::CategoricalSchema& schema) {
  const std::string dataset = flags.Get("dataset");
  const std::string in = flags.Get("in");
  ResolvedSource resolved;
  if (in.empty()) {
    // Generated stand-in data: deterministic in (--rows, --gen-seed), so
    // every process given the same flags holds the same table.
    const size_t rows =
        static_cast<size_t>(flags.GetUint("rows", DefaultRows(dataset)));
    const uint64_t seed = flags.GetUint("gen-seed", DefaultGenSeed(dataset));
    data::CategoricalTable table =
        dataset == "health" ? *data::health::MakeDataset(rows, seed)
                            : *data::census::MakeDataset(rows, seed);
    resolved.table =
        std::make_shared<const data::CategoricalTable>(std::move(table));
    resolved.source = std::make_unique<pipeline::InMemoryTableSource>(
        *resolved.table, /*num_shards=*/0);
    return resolved;
  }
  if (in.size() > 4 && in.compare(in.size() - 4, 4, ".bin") == 0) {
    FRAPP_ASSIGN_OR_RETURN(pipeline::BinaryTableSource source,
                           pipeline::BinaryTableSource::Open(in, schema));
    resolved.source =
        std::make_unique<pipeline::BinaryTableSource>(std::move(source));
    return resolved;
  }
  FRAPP_ASSIGN_OR_RETURN(pipeline::CsvTableSource source,
                         pipeline::CsvTableSource::Open(in, schema));
  resolved.source =
      std::make_unique<pipeline::CsvTableSource>(std::move(source));
  return resolved;
}

/// Ties a generated table's lifetime to the TableSource handed out, so a
/// source factory's product can outlive the factory call.
class OwningSource : public pipeline::TableSource {
 public:
  OwningSource(std::shared_ptr<const data::CategoricalTable> table,
               std::unique_ptr<pipeline::TableSource> inner)
      : table_(std::move(table)), inner_(std::move(inner)) {}
  const data::CategoricalSchema& schema() const override {
    return inner_->schema();
  }
  StatusOr<bool> NextShard(pipeline::PulledShard* out) override {
    return inner_->NextShard(out);
  }
  Status SkipToRow(size_t row) override { return inner_->SkipToRow(row); }
  std::optional<size_t> TotalRows() const override {
    return inner_->TotalRows();
  }

 private:
  std::shared_ptr<const data::CategoricalTable> table_;
  std::unique_ptr<pipeline::TableSource> inner_;
};

/// The factory every long-lived consumer shares (`frapp worker` sessions,
/// `frapp mine --count-store`, `frapp serve` mine runs): each call opens a
/// fresh view of the flags' table, with generated data kept alive by the
/// returned source. `flags` and `schema` must outlive the factory.
store::SourceFactory MakeSourceFactory(const Flags& flags,
                                       const data::CategoricalSchema& schema) {
  return [&flags,
          &schema]() -> StatusOr<std::unique_ptr<pipeline::TableSource>> {
    FRAPP_ASSIGN_OR_RETURN(ResolvedSource resolved, MakeSource(flags, schema));
    if (resolved.table == nullptr) return std::move(resolved.source);
    return std::unique_ptr<pipeline::TableSource>(
        std::make_unique<OwningSource>(std::move(resolved.table),
                                       std::move(resolved.source)));
  };
}

/// Stable identity of the served/stored table across growth: a file keeps
/// its path; a generated table keeps its (dataset, seed) — never its row
/// count (the incremental-store convention).
std::string StoreSourceId(const Flags& flags) {
  const std::string in = flags.Get("in");
  if (!in.empty()) return in;
  return "gen:" + flags.Get("dataset") + ":" +
         std::to_string(
             flags.GetUint("gen-seed", DefaultGenSeed(flags.Get("dataset"))));
}

int CmdMineDistributed(const Flags& flags,
                       const data::CategoricalSchema& schema) {
  const dist::MechanismSpec spec = SpecFromFlags(flags, schema);
  if (!flags.Has("rows")) {
    std::cerr << "error: --workers needs --rows (the coordinator never "
                 "touches the data; it only plans ranges)\n";
    return 2;
  }
  const size_t total_rows = static_cast<size_t>(flags.GetUint("rows", 0));

  // One retry policy drives both dial-out and the per-request deadlines.
  // The CLI default detects hung workers after 3 x 30 s; the library
  // default (0 = no deadlines) is only for embedders that opt out.
  dist::RetryOptions retry;
  retry.max_attempts = flags.GetUint("retry-attempts", 3);
  retry.request_deadline_ms = flags.GetUint("request-deadline-ms", 30000);

  // Deterministic fault schedule for drills and tests (--fault-spec
  // "INDEX:close-send=N,...;..."); empty = no injection.
  const dist::FaultSpec fault_spec =
      Unwrap(dist::ParseFaultSpec(flags.Get("fault-spec")));

  // Dial every worker with per-attempt timeouts and backoff, so scripts
  // can launch the workers and the coordinator together.
  dist::DialOptions dial;
  dial.connect_timeout_ms = flags.GetUint("connect-timeout-ms", 5000);
  dial.retry = retry;
  dial.retry.max_attempts = flags.GetUint("connect-retries", 25);
  dial.retry.base_backoff_ms = 50;
  dial.retry.max_backoff_ms = 1000;
  std::vector<std::unique_ptr<dist::Transport>> transports;
  for (const std::string& endpoint : Split(flags.Get("workers"), ',')) {
    const size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos) {
      std::cerr << "bad worker endpoint '" << endpoint << "' (host:port)\n";
      return 2;
    }
    const std::string host = endpoint.substr(0, colon);
    unsigned long long port = 0;
    if (!ParseUint64(endpoint.substr(colon + 1), &port) || port > 65535) {
      std::cerr << "bad worker port in '" << endpoint << "'\n";
      return 2;
    }
    std::unique_ptr<dist::Transport> transport =
        Unwrap(dist::TcpDial(host, static_cast<uint16_t>(port), dial));
    transports.push_back(dist::MaybeInjectFaults(
        std::move(transport), fault_spec, transports.size()));
  }

  dist::CoordinatorOptions options;
  options.perturb_seed = flags.GetUint("seed", 7);
  options.num_threads = flags.GetUint("threads", 0);
  options.retry = retry;
  auto coordinator = Unwrap(dist::Coordinator::Connect(
      std::move(transports), schema, spec, total_rows, options));

  mining::AprioriOptions mining_options;
  mining_options.min_support = flags.GetDouble("minsup", 0.02);
  const mining::AprioriResult result =
      Unwrap(coordinator->Mine(mining_options));

  PrintMiningReport(schema, result, dist::MechanismSpecName(spec),
                    mining_options.min_support,
                    static_cast<size_t>(flags.GetUint("top", 20)));
  const dist::DistStats stats = coordinator->stats();
  std::cerr << "dist: " << stats.num_workers << " worker(s), "
            << stats.total_rows << " rows (" << stats.total_chunks
            << " chunk(s)), " << stats.requests_sent
            << " requests, " << stats.bytes_sent << " B out, "
            << stats.bytes_received << " B in, merge "
            << stats.merge_nanos / 1000000.0 << " ms\n";
  if (stats.workers_failed > 0) {
    std::cerr << "dist recovery: " << stats.workers_failed
              << " worker(s) failed, " << stats.workers_alive
              << " alive, " << stats.ranges_reassigned
              << " range(s) reassigned, " << stats.rounds_restarted
              << " round(s) restarted, " << stats.deadline_retries
              << " deadline retries\n";
  }
  coordinator->Shutdown();
  return 0;
}

int CmdMinePipeline(const Flags& flags,
                    const data::CategoricalSchema& schema) {
  const dist::MechanismSpec spec = SpecFromFlags(flags, schema);
  ResolvedSource resolved = Unwrap(MakeSource(flags, schema));
  auto mechanism = Unwrap(dist::MakeMechanism(spec, schema));

  pipeline::PipelineOptions options;
  options.num_shards = flags.GetUint("shards", 1);
  options.num_threads = flags.GetUint("threads", 1);
  options.perturb_seed = flags.GetUint("seed", 7);
  options.prefetch_source = flags.Has("prefetch");
  options.prefetch_parsers = flags.GetUint("prefetch-parsers", 0);
  options.pin_threads = flags.Has("pin-threads");
  options.mining.min_support = flags.GetDouble("minsup", 0.02);
  const pipeline::PipelineResult result = Unwrap(
      pipeline::PrivacyPipeline(options).Run(*mechanism, *resolved.source));

  PrintMiningReport(schema, result.mined, dist::MechanismSpecName(spec),
                    options.mining.min_support,
                    static_cast<size_t>(flags.GetUint("top", 20)));
  std::cerr << "pipeline: " << result.stats.num_shards << " shard(s), "
            << result.stats.total_rows << " rows\n";
  return 0;
}

int CmdMineIncremental(const Flags& flags,
                       const data::CategoricalSchema& schema) {
  const dist::MechanismSpec spec = SpecFromFlags(flags, schema);
  const std::string store_path = flags.Get("count-store");
  if (store_path.empty()) return Usage();

  store::IncrementalOptions options;
  options.mining.min_support = flags.GetDouble("minsup", 0.02);
  options.perturb_seed = flags.GetUint("seed", 7);
  options.num_threads = flags.GetUint("threads", 1);
  options.superset_margin = flags.GetDouble("superset-margin", 0.25);
  options.window_begin_row = flags.GetUint("window-begin", 0);
  options.source_id = StoreSourceId(flags);

  bool created = false;
  store::CountStore store = Unwrap(store::LoadOrCreateStore(
      store_path, store::MakeStoreIdentity(spec, schema, options), &created));
  const store::IncrementalResult result = Unwrap(store::AppendAndMine(
      store, spec, MakeSourceFactory(flags, schema), options));
  UnwrapStatus(store.SaveToFile(store_path));

  // Byte-identical to the same mine without --count-store: reports diff
  // clean, which is how scripts prove the incremental path changed nothing.
  PrintMiningReport(schema, result.mined, dist::MechanismSpecName(spec),
                    options.mining.min_support,
                    static_cast<size_t>(flags.GetUint("top", 20)));
  const store::IncrementalStats& stats = result.stats;
  std::cerr << "incremental: store " << (created ? "created" : "loaded")
            << ", " << stats.total_rows << " rows, " << stats.total_chunks
            << " total chunk(s), " << stats.delta_chunks
            << " delta chunk(s) perturbed, " << stats.expired_chunks
            << " expired, " << stats.tail_rows << " tail row(s), "
            << stats.store_hits << " store hit(s), " << stats.store_misses
            << " miss(es), " << stats.superset_fallbacks
            << " fallback recount(s), " << stats.stored_entries
            << " entries stored\n";
  return 0;
}

int CmdAppend(const Flags& flags) {
  const std::string dataset = flags.Get("dataset");
  const data::CategoricalSchema schema = SchemaFor(dataset);
  const std::string out = flags.Get("out");
  if (out.empty()) return Usage();

  // The header knows the current size — needed to continue the generator
  // stream, and a cheap validity check for the CSV path too.
  data::BinaryShardReader reader =
      Unwrap(data::BinaryShardReader::Open(out, schema));
  const size_t old_rows = reader.total_rows();

  data::CategoricalTable grown = Unwrap([&]() -> StatusOr<data::CategoricalTable> {
    const std::string in = flags.Get("in");
    if (!in.empty()) return data::ReadCsv(in, schema);
    if (!flags.Has("rows")) {
      return Status::InvalidArgument(
          "append needs --in NEW.csv or --rows N (how much to grow)");
    }
    const size_t n = static_cast<size_t>(flags.GetUint("rows", 0));
    const uint64_t seed = flags.GetUint("gen-seed", DefaultGenSeed(dataset));
    // Rows [old, old+n) of the deterministic generator stream: growing in
    // steps lands on the same bytes as generating old+n rows outright.
    FRAPP_ASSIGN_OR_RETURN(
        data::CategoricalTable full,
        dataset == "health" ? data::health::MakeDataset(old_rows + n, seed)
                            : data::census::MakeDataset(old_rows + n, seed));
    return data::CopyRowRange(full, {old_rows, old_rows + n});
  }());
  UnwrapStatus(data::AppendBinaryTable(grown, out));
  std::cout << "appended " << grown.num_rows() << " rows to " << out
            << " (now " << old_rows + grown.num_rows() << " rows)\n";
  return 0;
}

int CmdMine(const Flags& flags) {
  const data::CategoricalSchema schema = SchemaFor(flags.Get("dataset"));
  if (flags.Has("workers")) return CmdMineDistributed(flags, schema);
  if (flags.Has("count-store")) return CmdMineIncremental(flags, schema);
  if (flags.Has("run-pipeline")) return CmdMinePipeline(flags, schema);

  const std::string in = flags.Get("in");
  if (in.empty()) return Usage();
  const data::CategoricalTable table = Unwrap(data::ReadCsv(in, schema));

  mining::AprioriOptions options;
  options.min_support = flags.GetDouble("minsup", 0.02);

  mining::AprioriResult result;
  std::string label = "exact";
  if (flags.Has("exact")) {
    result = Unwrap(mining::MineExact(table, options));
  } else {
    // The input is a PERTURBED database: mine with reconstruction over the
    // counts of a one-shard index of the table (Eq. 28's inverse).
    core::FrappDesign design = DesignFor(schema, flags);
    const std::unique_ptr<mining::SupportEstimator> estimator =
        Unwrap(design.mechanism->MakeCountSourceEstimator(
            std::make_shared<mining::LocalSupportCountSource>(
                mining::ShardedVerticalIndex::Build(table, 1))));
    result = Unwrap(mining::MineFrequentItemsets(schema, *estimator, options));
    label = design.mechanism->name();
  }

  PrintMiningReport(schema, result, label, options.min_support,
                    static_cast<size_t>(flags.GetUint("top", 20)));
  return 0;
}

int CmdWorker(const Flags& flags) {
  const std::string dataset = flags.Get("dataset");
  const data::CategoricalSchema schema = SchemaFor(dataset);
  if (!flags.Has("listen")) return Usage();
  const unsigned long long port = flags.GetUint("listen", 0);
  if (port > 65535) {
    std::cerr << "bad --listen port\n";
    return 2;
  }

  // One ResolvedSource per session: sessions re-ingest from row 0, and
  // generated tables are shared across sessions through the flags being
  // deterministic.
  dist::WorkerOptions options(schema);
  options.num_threads = flags.GetUint("threads", 1);
  // Scheduling-only (counts are integer sums); sticky for the process.
  if (flags.Has("pin-threads")) {
    common::ThreadPool::Shared().SetPinPhysicalCores(true);
  }

  // Process-lifetime cache of built range indexes: a coordinator rerun (or
  // a re-assignment of a range this worker already built) skips the
  // ingest -> perturb -> index pass. The key needs a stable identity for
  // the local row stream: the input path, or the generator descriptor.
  // LRU-bounded so a worker reused across many jobs/seeds stays flat.
  dist::IndexCache index_cache(
      static_cast<size_t>(flags.GetUint(
          "index-cache-mb", dist::IndexCache::kDefaultMaxBytes >> 20))
      << 20);
  options.index_cache = &index_cache;
  const std::string in = flags.Get("in");
  if (!in.empty()) {
    options.source_id = in;
  } else {
    options.source_id =
        "gen:" + dataset + ":" +
        std::to_string(flags.GetUint("rows", DefaultRows(dataset))) + ":" +
        std::to_string(flags.GetUint("gen-seed", DefaultGenSeed(dataset)));
  }

  // A coordinator that vanished without closing (SIGKILL, partition) must
  // not pin the worker forever: end idle sessions cleanly and re-accept.
  options.session_idle_timeout_ms = flags.GetUint("idle-timeout-ms", 0);
  // Materializes fresh per session (sessions are rare; ingest dominates).
  options.source_factory = MakeSourceFactory(flags, schema);

  auto listener = Unwrap(dist::TcpListener::Bind(
      flags.Get("bind-host", "127.0.0.1"), static_cast<uint16_t>(port)));
  std::cout << "frapp worker listening on " << flags.Get("bind-host", "127.0.0.1")
            << ":" << listener.port() << " (dataset " << dataset << ")"
            << std::endl;
  bool last_session_failed = false;
  do {
    auto transport = Unwrap(listener.Accept());
    // Flushed before serving: scripts (tools/dist_smoke.sh's kill drill)
    // key on this line to know the worker is inside a session.
    std::cout << "accepted session" << std::endl;
    const Status session = dist::ServeWorker(*transport, options);
    last_session_failed = !session.ok();
    const dist::IndexCache::Stats cache = index_cache.stats();
    if (session.ok()) {
      std::cout << "session complete (index cache: " << cache.hits
                << " hit(s), " << cache.misses << " miss(es), "
                << cache.entries << " cached)" << std::endl;
    } else {
      std::cerr << "session failed: " << session.ToString() << std::endl;
    }
  } while (!flags.Has("once"));
  // Scripts (`--once` + wait $pid) read the exit status as "did the
  // session succeed"; a failed handshake or count pass must not exit 0.
  return last_session_failed ? 1 : 0;
}

// SIGINT/SIGTERM initiate graceful shutdown by closing the listener: the
// accept loop's failed Accept is its exit signal, and close(2) is
// async-signal-safe where mutexes and condition variables are not.
std::atomic<dist::TcpListener*> g_serve_listener{nullptr};

void ServeSignalHandler(int) {
  dist::TcpListener* listener = g_serve_listener.exchange(nullptr);
  if (listener != nullptr) listener->Close();
}

int CmdServe(const Flags& flags) {
  const std::string dataset = flags.Get("dataset");
  const data::CategoricalSchema schema = SchemaFor(dataset);
  if (!flags.Has("listen")) return Usage();
  const unsigned long long port = flags.GetUint("listen", 0);
  if (port > 65535) {
    std::cerr << "bad --listen port\n";
    return 2;
  }

  serve::BrokerOptions options(schema);
  options.source_factory = MakeSourceFactory(flags, schema);
  options.source_id = StoreSourceId(flags);
  options.num_threads = flags.GetUint("threads", 1);
  options.superset_margin = flags.GetDouble("superset-margin", 0.25);
  options.cache_entries = flags.GetUint("cache-entries", 64);
  serve::QueryBroker broker(std::move(options));
  serve::QueryServer server(&broker);

  auto listener = Unwrap(dist::TcpListener::Bind(
      flags.Get("bind-host", "127.0.0.1"), static_cast<uint16_t>(port)));
  g_serve_listener.store(&listener);
  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);
  // Flushed before serving: scripts (tools/serve_smoke.sh) scrape the bound
  // port from this line.
  std::cout << "frapp serve listening on " << flags.Get("bind-host", "127.0.0.1")
            << ":" << listener.port() << " (dataset " << dataset << ")"
            << std::endl;
  UnwrapStatus(server.ServeLoop(listener));
  g_serve_listener.exchange(nullptr);

  const serve::BrokerStats stats = broker.stats();
  std::cerr << "serve: " << server.sessions() << " session(s), "
            << stats.queries << " quer(y/ies), " << stats.mine_runs
            << " mine run(s), " << stats.cache_hits << " cache hit(s), "
            << stats.coalesced << " coalesced, " << stats.store_hits
            << " store hit(s), " << stats.store_misses << " store miss(es), "
            << stats.cache_evictions << " eviction(s), " << stats.rejected
            << " rejected" << std::endl;
  return 0;
}

int CmdQuery(const Flags& flags) {
  const data::CategoricalSchema schema = SchemaFor(flags.Get("dataset"));
  const std::string endpoint = flags.Get("connect");
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    std::cerr << "bad --connect '" << endpoint << "' (host:port)\n";
    return 2;
  }
  const std::string host = endpoint.substr(0, colon);
  unsigned long long port = 0;
  if (!ParseUint64(endpoint.substr(colon + 1), &port) || port > 65535) {
    std::cerr << "bad --connect port in '" << endpoint << "'\n";
    return 2;
  }

  serve::QueryRequest request;
  const std::string kind = flags.Get("query", "mine");
  if (kind == "mine") {
    request.kind = serve::QueryKind::kMine;
  } else if (kind == "topk") {
    request.kind = serve::QueryKind::kTopK;
  } else if (kind == "rules") {
    request.kind = serve::QueryKind::kRules;
  } else if (kind == "stats") {
    request.kind = serve::QueryKind::kStats;
  } else {
    std::cerr << "unknown --query '" << kind << "' (mine|topk|rules|stats)\n";
    return 2;
  }
  request.schema_fingerprint = data::SchemaFingerprint(schema);
  request.spec = SpecFromFlags(flags, schema);
  request.perturb_seed = flags.GetUint("seed", 7);
  request.min_support = flags.GetDouble("minsup", 0.02);
  request.min_confidence = flags.GetDouble("min-confidence", 0.0);
  const size_t top = static_cast<size_t>(flags.GetUint("top", 20));
  request.top_k = top;

  // Same dial-with-backoff defaults as the distributed coordinator, so
  // scripts can launch `frapp serve` and its clients together.
  dist::DialOptions dial;
  dial.connect_timeout_ms = flags.GetUint("connect-timeout-ms", 5000);
  dial.retry.max_attempts = flags.GetUint("connect-retries", 25);
  dial.retry.base_backoff_ms = 50;
  dial.retry.max_backoff_ms = 1000;
  serve::QueryClient client(
      Unwrap(dist::TcpDial(host, static_cast<uint16_t>(port), dial)));
  const serve::QueryResponse response = Unwrap(client.Query(request));

  const std::string label = dist::MechanismSpecName(request.spec);
  switch (response.kind) {
    case serve::QueryKind::kMine:
      // THE report of `frapp mine --run-pipeline` over the same spec:
      // stdout byte-diffs clean, which is how the smoke scripts prove a
      // served mine changed nothing.
      eval::PrintMiningReport(std::cout, schema, response.result, label,
                              request.min_support, top);
      break;
    case serve::QueryKind::kTopK: {
      std::cout << label << " top " << response.top.size()
                << " frequent itemset(s) (minsup = " << request.min_support
                << "):\n\n";
      eval::TextTable out({"support", "itemset"});
      for (const mining::FrequentItemset& f : response.top) {
        out.AddRow({eval::Cell(f.support, 9), f.itemset.ToString(schema)});
      }
      out.Print(std::cout);
      break;
    }
    case serve::QueryKind::kRules:
      eval::PrintRulesReport(std::cout, schema, response.rules, label,
                             request.min_confidence, top);
      break;
    case serve::QueryKind::kStats:
      // Plain key=value lines: what the smoke scripts grep to assert
      // coalescing (mine_runs stays 1 under N concurrent clients).
      std::cout << "queries=" << response.server.queries << "\n"
                << "mine_runs=" << response.server.mine_runs << "\n"
                << "cache_hits=" << response.server.cache_hits << "\n"
                << "coalesced=" << response.server.coalesced << "\n"
                << "store_hits=" << response.server.store_hits << "\n"
                << "store_misses=" << response.server.store_misses << "\n"
                << "cache_entries=" << response.server.cache_entries << "\n"
                << "cache_evictions=" << response.server.cache_evictions << "\n"
                << "rejected=" << response.server.rejected << "\n";
      break;
  }

  const char* outcome = response.outcome == serve::CacheOutcome::kHit
                            ? "hit"
                            : response.outcome == serve::CacheOutcome::kCoalesced
                                  ? "coalesced"
                                  : "miss";
  std::cerr << "query: outcome=" << outcome << " store_hits="
            << response.store_hits << " store_misses=" << response.store_misses
            << " delta_chunks=" << response.delta_chunks
            << " tail_rows=" << response.tail_rows
            << " elapsed_us=" << response.elapsed_micros
            << " server{queries=" << response.server.queries
            << " mine_runs=" << response.server.mine_runs
            << " cache_hits=" << response.server.cache_hits
            << " coalesced=" << response.server.coalesced << "}" << std::endl;
  return 0;
}

int CmdAudit(const Flags& flags) {
  const data::CategoricalSchema schema = SchemaFor(flags.Get("dataset"));
  const core::FrappDesign design = DesignFor(schema, flags);
  std::cout << design.Summary();
  std::cout << "domain size |S_U|     : " << schema.DomainSize() << "\n";
  std::cout << "record amplification  : " << design.mechanism->Amplification()
            << "\n";
  return 0;
}

int CmdConvert(const Flags& flags) {
  const data::CategoricalSchema schema = SchemaFor(flags.Get("dataset"));
  const std::string in = flags.Get("in");
  const std::string out = flags.Get("out");
  if (in.empty() || out.empty()) return Usage();
  // One-time offline step: parse the whole CSV (the last time its text is
  // ever parsed), then emit the pre-tokenized binary shards.
  const data::CategoricalTable table = Unwrap(data::ReadCsv(in, schema));
  UnwrapStatus(data::WriteBinaryTable(table, out));
  std::cout << "wrote " << table.num_rows() << " pre-tokenized records to "
            << out << " (schema fingerprint "
            << data::SchemaFingerprint(schema) << ")\n";
  return 0;
}

int CmdCpuinfo() {
  const common::CpuInfo& info = common::GetCpuInfo();
  std::cout << common::CpuInfoSummary(info);
  std::cout << "kernel dispatch:\n"
            << "  best supported    : "
            << mining::KernelLevelName(mining::BestSupportedLevel()) << "\n"
            << "  active            : "
            << mining::KernelLevelName(mining::ActiveKernels().level);
  const char* forced = std::getenv("FRAPP_FORCE_KERNEL");
  if (forced != nullptr && forced[0] != '\0') {
    std::cout << " (FRAPP_FORCE_KERNEL=" << forced << ")";
  }
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags(argc, argv, 2);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "perturb") return CmdPerturb(flags);
  if (command == "mine") return CmdMine(flags);
  if (command == "append") return CmdAppend(flags);
  if (command == "audit") return CmdAudit(flags);
  if (command == "convert") return CmdConvert(flags);
  if (command == "worker") return CmdWorker(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "query") return CmdQuery(flags);
  if (command == "cpuinfo") return CmdCpuinfo();
  return Usage();
}
