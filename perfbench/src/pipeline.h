#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

// The pipeline stages every workload is made of — world generation, the
// offline build (load → fit → snapshot → render → pack), HTTP traffic
// against a ModelServer, and live ingest — each driven through the
// repository's public API and timed from outside.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "core/input.h"
#include "core/model.h"
#include "io/dataset_io.h"
#include "serve/model_server.h"
#include "serve/read_model.h"
#include "spans.h"
#include "stats.h"
#include "synth/world.h"

namespace perfbench {

/// Workload sizes and the thread budget (4 vCPUs: fit W=2, server 2
/// threads, at most 2 client connections).
struct Sizes {
  int users = 5000;
  int setup_reps = 3;        // serve: set-up builds a model
  int build_setup_reps = 11;  // build: set-up only generates the world
  int fit_workers = 2;
  int burn_in_sweeps = 10;
  int sampling_sweeps = 14;
  int server_threads = 2;
  int client_connections = 2;
  double serve_rate = 5000.0;   // open-loop offered rate, requests/s
  double live_rate = 1000.0;    // open-loop query rate during ingest
  double zipf_s = 1.0;
  int batch_ids = 64;           // ids per POST /v1/batch
  int delta_users = 10;         // users per live-ingest batch
  int epilogue_batches = 2;     // live batches on build/serve
  double build_query_s = 1.0;   // serve-mix HTTP after each build
  int poll_ms = 5;              // LiveIngestor spool poll interval
};

/// Shared per-run state: inputs, spans, error accounting, and the fit /
/// ingest registry deltas gathered around the calls that produce them.
struct Context {
  uint64_t seed = 1;
  Sizes sizes;
  std::string work_dir;
  SpanRecorder* spans = nullptr;
  Tally* tally = nullptr;
  /// fit_* counter deltas summed over every Fit call, and the call count.
  std::map<std::string, uint64_t> fit_counters;
  int fits = 0;
  int64_t fit_edges = 0;  // following + tweeting relationships per fit
  /// Sizes of the last snapshot written and the serve section packed
  /// behind it.
  int64_t snapshot_bytes = 0;
  int64_t section_bytes = 0;
};

/// One generated world, its dataset CSVs, the held-out fold and the
/// Sec-5.3 relationship evaluation set.
struct World {
  mlp::synth::SyntheticWorld synth;
  std::vector<std::vector<mlp::geo::CityId>> referents;
  std::vector<mlp::geo::CityId> registered;
  std::vector<mlp::geo::CityId> observed;  // fold 0's labels hidden
  std::vector<mlp::graph::UserId> test_users;
  std::vector<mlp::graph::EdgeId> rel_edges;
  std::vector<std::pair<mlp::geo::CityId, mlp::geo::CityId>> rel_truth;
  std::string data_dir;

  mlp::core::ModelInput Input(const mlp::graph::SocialGraph* graph) const;
};

/// Generates the paper-calibrated world (25% noise, 40% multi-location)
/// for ctx.seed and writes its dataset CSVs under `dir`.
mlp::Result<std::unique_ptr<World>> MakeWorld(Context& ctx,
                                              const std::string& dir);

/// The offline path to a servable model, with its stage times.
struct Built {
  std::unique_ptr<mlp::io::LoadedDataset> data;
  mlp::core::ModelInput input;  // graph = &data->graph
  mlp::core::FitCheckpoint checkpoint;
  mlp::core::MlpResult result;
  mlp::serve::ReadModel model;  // the heap model that was packed
  std::string snapshot_path;
  double total_ms = 0.0;
  int64_t snapshot_bytes = 0;
  int64_t section_bytes = 0;
};

/// io::LoadDataset → MlpModel::Fit → MakeModelSnapshot + SaveModelSnapshot
/// → ReadModel::Build → AppendServeSection.
mlp::Result<std::unique_ptr<Built>> BuildModel(Context& ctx,
                                               const World& world,
                                               const std::string& path);

/// Table-2 home ACC@100mi on the held-out users and Sec-5.3 relationship
/// ACC@100mi, in percent.
struct Quality {
  double home_acc_pct = 0.0;
  double rel_acc_pct = 0.0;
};
Quality Evaluate(const World& world, const mlp::core::MlpResult& result);

/// Maps the packed section and checks it serves bytes identical to the
/// heap model on a sampled id set (one tally entry per id).
void CheckPacked(Context& ctx, const World& world, const Built& built);

std::unique_ptr<mlp::serve::ModelServer> StartServer(
    Context& ctx, mlp::serve::ReadModel model);

/// One generated request and what its answer must be.
struct Request {
  enum Kind { kUser, kEdge, kBatch };
  Kind kind = kUser;
  const char* method = "GET";
  std::string target;
  std::string body;
  int user = -1;
  int src = -1;
  int dst = -1;
  std::vector<int> ids;
};

/// Request generators over one graph: the serve mix (Zipf-ranked users
/// and edges; 70% user, 20% edge, 10% batch) and the live mix (uniform
/// over the base ids; half user, half edge).
class RequestMix {
 public:
  RequestMix(const mlp::graph::SocialGraph& graph, double zipf_s,
             int batch_ids, uint64_t seed);
  void NextServe(mlp::Pcg32& rng, Request* r) const;
  void NextLive(mlp::Pcg32& rng, Request* r) const;

 private:
  void SetUser(int user, Request* r) const;
  void SetEdge(int edge, Request* r) const;

  const mlp::graph::SocialGraph& graph_;
  ZipfSampler users_;
  ZipfSampler edges_;
  int batch_ids_;
};

/// What one traffic phase saw.
struct Traffic {
  std::vector<double> latency_us;
  /// Open loop: p95 and p99 latency of each slice of the run long enough
  /// to hold a supported p99 (see IntervalPercentiles).
  std::vector<double> p95_slices_us;
  std::vector<double> p99_slices_us;
  std::vector<double> late_us;  // open loop only
  int64_t requests = 0;
  double seconds = 0.0;
  std::vector<Request> replay;  // the first requests sent, for replays
};

/// Closed loop on `connections` keep-alive connections for `seconds`.
/// With a reference model every 2xx body must equal what that model
/// serves for the request (a batch: its fragments concatenated).
Traffic ClosedLoop(Context& ctx, int port, const RequestMix& mix,
                   const mlp::serve::ReadModel* reference, double seconds,
                   uint64_t stream);

/// Open loop at `rate` requests/s on `connections` connections, timed from
/// each request's due time. `live` selects the live mix and a 200-only
/// check; otherwise the serve mix is checked against `reference`. Stops
/// early when `stop` is set.
Traffic OpenLoop(Context& ctx, int port, const RequestMix& mix,
                 const mlp::serve::ReadModel* reference, int connections,
                 double rate, double seconds, bool live, uint64_t stream,
                 const std::atomic<bool>* stop = nullptr);

/// Replays `requests` through ModelServer::Handle (no socket) and returns
/// the mean ns per request.
double ReplayHandleNs(mlp::serve::ModelServer& server,
                      const std::vector<Request>& requests);
/// Replays the lookups behind `requests` against the model itself
/// (UserJson / FindEdge + EdgeJson) and returns the mean ns per lookup.
double ReplayLookupNs(const mlp::serve::ReadModel& model,
                      const std::vector<Request>& requests);

/// The evolving fit state live ingest applies batches to.
struct LiveState {
  mlp::core::ModelInput input;  // current world; graph points at `graph`
                                // once the first batch merged
  std::unique_ptr<mlp::graph::SocialGraph> graph;
  mlp::core::FitCheckpoint checkpoint;
  mlp::core::MlpResult result;
  int base_users = 0;
  int next_user = 0;   // id of the next delta user
  int batches = 0;     // batches written so far (names are ordered)
  bool consumed = false;  // moved into a LiveIngestor
};

struct LiveStats {
  std::vector<double> visible_ms;      // rename → model_generation advances
  int batches = 0;
  double shards_touched_pct_sum = 0.0;  // self-driven batches only
  int self_driven = 0;
};

/// Commits delta batches through the spool's rename protocol, one in
/// flight at a time, while one connection sends open-loop live queries.
/// `daemon` hands the state to a stream::LiveIngestor (the production
/// path); otherwise the stage sequence LoadDeltaBatch → ApplyDeltaBatch →
/// MakeModelSnapshot → ReadModel::Build → SwapReadModel runs here with a
/// span around each call. Stops after `batches` batches, or at the first
/// one that fails.
void RunLive(Context& ctx, const World& world, mlp::serve::ModelServer& server,
             LiveState& state, bool daemon, int batches, LiveStats* stats);

/// Registry counters whose names start with `prefix`.
std::map<std::string, uint64_t> RegistryCounters(const std::string& prefix);
/// The value of counter `name` in `text`, a GET /metricsz body; 0 when the
/// series is absent.
double ScrapeMetric(const std::string& text, const std::string& name);

/// Peak resident set since the last ResetPeakRss, in MB.
void ResetPeakRss();
double PeakRssMb();
/// Returns freed heap to the OS so RSS reflects what is still live.
void TrimHeap();

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
