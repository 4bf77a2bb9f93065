#ifndef MLP_SERVE_MODEL_SERVER_H_
#define MLP_SERVE_MODEL_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/ring_log.h"
#include "serve/http_server.h"
#include "serve/json.h"
#include "serve/read_model.h"

namespace mlp {
namespace serve {

/// Requests answered by every ModelServer in the process.
inline constexpr char kServeRequestsTotal[] = "serve_requests_total";

/// Server knobs (the `mlpctl serve` flags map 1:1 onto these).
struct ServeOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port.
  int port = 8080;
  /// Worker threads serving connections.
  int threads = 4;
  /// Structured JSON access log, one line per request (`mlpctl serve
  /// --access_log[=path]`). With a path the lines are appended to that
  /// file (flushed per line); with the bare flag they go through
  /// MLP_LOG(kInfo).
  bool access_log = false;
  std::string access_log_path;
  /// Requests whose total time crosses this many microseconds are retained
  /// (with their stage breakdown) in the GET /debug/slowz ring; <= 0
  /// disables slow-request capture.
  int64_t slow_request_us = 10000;
};

/// The online query front end over one fitted model (ISSUE 4 / ROADMAP
/// "serving layer"): an immutable ReadModel behind a minimal HTTP/1.1
/// server. Every answer body is pre-rendered in the model, so a point
/// query is a substring copy and a batch a concatenation of them.
///
/// Endpoints (all JSON; see src/serve/README.md for shapes):
///   GET  /v1/user/{id}         posterior location profile + home of a user
///   GET  /v1/edge/{src}/{dst}  following-relationship explanation
///   POST /v1/batch             {"users":[...],"edges":[[s,d],...]}
///   GET  /healthz              liveness
///   GET  /statsz               server/model counters (?format=csv for CSV)
///   GET  /metricsz             Prometheus text exposition (scrape target)
///   GET  /statusz              human-readable HTML dashboard (QPS,
///                              per-endpoint p50/p99, model
///                              generation/staleness, RSS)
///   GET  /debug/slowz          last-N slow requests with stage breakdowns
///
/// Threading: connections run on `conn_pool_`, and each request is
/// answered on the thread that read it. Each ReadModel is immutable; the
/// server publishes the CURRENT one behind an atomic shared_ptr so
/// streaming ingest can swap in a post-delta model while the server runs
/// (SwapReadModel): every request pins one (model, generation) snapshot up
/// front and renders entirely against it, so in-flight queries finish on
/// the model they started with and the swap never blocks the data path.
class ModelServer {
 public:
  /// How many slow-request traces /debug/slowz retains.
  static constexpr int kSlowRingCapacity = 64;

  ModelServer(ReadModel model, const ServeOptions& options);

  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;
  ~ModelServer();

  /// Binds and starts serving. Returns the bound port via port().
  Status Start();
  int port() const { return http_.port(); }
  bool running() const { return http_.running(); }

  /// Graceful shutdown: stop accepting, finish in-flight requests, drain
  /// the pool. Safe to call from a signal-driven main loop; idempotent.
  void Stop();

  /// Atomically publishes `model` as the serving view (streaming ingest:
  /// the post-delta snapshot's ReadModel). Requests that already pinned
  /// the previous model finish on it — the shared_ptr keeps it alive until
  /// the last one returns — while every new request sees the new model.
  /// Safe to call from any thread, any number of times.
  void SwapReadModel(ReadModel model);

  /// Pins and returns the currently published model.
  std::shared_ptr<const ReadModel> model() const;
  /// Monotonic publish counter, starting at 1; reported by /statsz as
  /// "model_generation" so operators can observe ingest swaps land.
  uint64_t model_generation() const;

  /// The request router — exposed so tests can exercise routing and
  /// rendering without sockets. Creates a local RequestTrace and runs the
  /// full HandleTraced + FinishRequest pipeline (histograms, access log,
  /// slow ring), minus the socket-level parse/write stages.
  HttpResponse Handle(const HttpRequest& request);

  /// The traced request path: routes the request, labels the trace with
  /// endpoint/generation, and lets each layer attribute its stages into
  /// `*trace` (never null). The HTTP server calls this as its handler.
  HttpResponse HandleTraced(const HttpRequest& request,
                            obs::RequestTrace* trace);
  /// Completion hook: finishes the trace (idempotent), counts the request
  /// and its errors by endpoint (the one place requests are counted), and,
  /// with obs enabled, records the latency histograms, stage counters and
  /// /debug/slowz ring. Emits the access-log line.
  void FinishRequest(const HttpRequest& request, const HttpResponse& response,
                     obs::RequestTrace& trace);

 private:
  /// One published (model, generation) pair — swapped as a unit so a
  /// request's access-log generation always names the model it read.
  struct Published {
    std::shared_ptr<const ReadModel> model;
    uint64_t generation = 1;
  };

  /// One endpoint's registry series: user, edge, batch, then "other"
  /// (health, stats pages, unknown paths), which counts no requests.
  struct EndpointSeries {
    obs::Counter* requests = nullptr;
    obs::Counter* errors = nullptr;
    obs::Histogram* latency = nullptr;
  };
  static constexpr int kNumEndpoints = 4;
  using Rows = std::vector<std::pair<std::string, std::string>>;

  std::shared_ptr<const Published> Pin() const;

  HttpResponse HandleUser(const ReadModel& model, const std::string& rest);
  HttpResponse HandleEdge(const ReadModel& model, const std::string& rest);
  /// Parses the batch body, then (timed as the render stage) concatenates
  /// the point bodies into the response.
  HttpResponse HandleBatch(const ReadModel& model, const HttpRequest& request,
                           obs::RequestTrace* trace);
  HttpResponse HandleStats(const Published& published,
                           const std::string& query);
  HttpResponse HandleMetrics(const Published& published);
  HttpResponse HandleStatusz(const Published& published);
  HttpResponse HandleSlowz();
  /// Sets this server's gauges (queue depth, generation, staleness) and the
  /// process RSS gauges just before a page renders them.
  void UpdateGauges(const Published& published);
  /// The server rows /statsz and /statusz share, read from the registry.
  Rows ServerRows(const Published& published);
  /// Appends one structured JSON access-log line for a finished request.
  void WriteAccessLog(const HttpRequest& request,
                      const obs::RequestTrace& trace);
  /// Seconds since the last SwapReadModel (or Start, before any swap).
  double SecondsSinceLastSwap() const;

  /// Swapped atomically (std::atomic_load/atomic_store on shared_ptr).
  std::shared_ptr<const Published> published_;
  /// Serializes SwapReadModel calls (unique, monotonic generations);
  /// never touched on the request path.
  std::mutex swap_mu_;
  ServeOptions options_;
  engine::ThreadPool conn_pool_;
  HttpServer http_;
  std::atomic<bool> stopped_{false};

  std::chrono::steady_clock::time_point start_time_;
  /// steady_clock ns of the last model publish (Start or SwapReadModel) —
  /// deliberately not obs::NowNs(), so /statusz staleness survives
  /// obs::SetEnabled(false).
  std::atomic<int64_t> last_swap_ns_{0};

  /// Slow-request retention (GET /debug/slowz); only requests crossing
  /// options_.slow_request_us ever touch it.
  obs::RingLog slow_ring_;
  /// Access log sink when options_.access_log names a path; lines are
  /// serialized by access_log_mu_ and flushed per line.
  std::FILE* access_log_file_ = nullptr;
  std::mutex access_log_mu_;

  // Registry-owned handles (process-lifetime; see src/obs/README.md).
  obs::Counter* requests_total_;
  obs::Histogram* request_latency_us_;
  // Error responses are counted, not histogrammed.
  EndpointSeries endpoints_[kNumEndpoints];
  obs::Counter* batch_lookups_total_;
  obs::Counter* model_swaps_total_;
  obs::Counter* slow_requests_total_;
  // serve_stage_*_ns, indexed by obs::RequestStage.
  obs::Counter* stage_ns_total_[obs::kNumRequestStages];
};

}  // namespace serve
}  // namespace mlp

#endif  // MLP_SERVE_MODEL_SERVER_H_
