#include "serve/model_server.h"

#include <cstdlib>
#include <iterator>
#include <limits>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "io/table_printer.h"
#include "obs/fit_profile.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/trace.h"

namespace mlp {
namespace serve {

namespace {

HttpResponse ErrorResponse(int status, const std::string& message) {
  JsonWriter w;
  w.BeginObject();
  w.Key("error");
  w.String(message);
  w.EndObject();
  HttpResponse response;
  response.status = status;
  response.body = std::move(w).Take();
  return response;
}

/// Parses a non-negative decimal id occupying all of `text`; -1 otherwise.
int64_t ParseId(const std::string& text) {
  if (text.empty() || text.size() > 18) return -1;
  int64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return -1;
    value = value * 10 + (c - '0');
  }
  return value;
}

/// Narrows an id to graph::UserId without wrap-around: anything outside
/// [0, INT32_MAX] becomes kInvalidUser, which every lookup rejects —
/// /v1/user/4294967296 must be a 404, not user 0.
graph::UserId NarrowUserId(int64_t id) {
  if (id < 0 || id > std::numeric_limits<int32_t>::max()) {
    return graph::kInvalidUser;
  }
  return static_cast<graph::UserId>(id);
}

/// steady_clock nanoseconds — independent of the obs::Enabled() switch
/// (model staleness must stay observable with tracing off).
int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Latency bounds shared by the per-endpoint histograms (same scale as
/// serve_request_latency_us).
std::vector<int64_t> LatencyBoundsUs() {
  return {100,   250,   500,    1000,   2500,  5000,
          10000, 25000, 50000, 100000, 250000, 1000000};
}

/// Trace endpoints with their own series, in ModelServer::endpoints_
/// order; any other endpoint label maps to the trailing "other" slot.
constexpr const char* kEndpointNames[] = {"user", "edge", "batch", "other"};
constexpr int kOtherSlot = 3;

int EndpointSlot(std::string_view endpoint) {
  int slot = 0;
  while (slot < kOtherSlot && endpoint != kEndpointNames[slot]) ++slot;
  return slot;
}

// This server's gauges, set by UpdateGauges just before a page renders.
constexpr char kConnQueueDepth[] = "serve_conn_queue_depth";
constexpr char kModelGeneration[] = "serve_model_generation";
constexpr char kSecondsSinceLastSwap[] = "serve_seconds_since_last_swap";

std::string RegistryGauge(const char* name) {
  return std::to_string(obs::Registry::Global().GetGauge(name)->Value());
}

std::string RegistryCount(const char* name) {
  return std::to_string(obs::Registry::Global().GetCounter(name)->Value());
}

/// The live-ingest rows /statsz and /statusz share: the spool
/// watcher's registry metrics, so the CI live-pipeline job (and operators)
/// can poll one JSON endpoint for swap progress and quarantine counts. All
/// zero when no --spool watcher is attached.
std::vector<std::pair<std::string, std::string>> LiveRows() {
  return {
      {"live_spool_depth", RegistryGauge(obs::kIngestSpoolDepth)},
      {"live_batches_applied", RegistryCount(obs::kIngestLiveBatchesTotal)},
      {"live_batches_failed", RegistryCount(obs::kIngestFailedBatchesTotal)},
      {"live_swap_staleness_ms", RegistryGauge(obs::kIngestSwapStalenessMs)},
  };
}

}  // namespace

ModelServer::ModelServer(ReadModel model, const ServeOptions& options)
    : options_(options),
      conn_pool_(std::max(1, options.threads)),
      http_(&conn_pool_),
      slow_ring_(kSlowRingCapacity) {
  static_assert(std::size(kEndpointNames) == kNumEndpoints);
  obs::Registry& registry = obs::Registry::Global();
  requests_total_ = registry.GetCounter(kServeRequestsTotal);
  request_latency_us_ =
      registry.GetHistogram("serve_request_latency_us", LatencyBoundsUs());
  for (int i = 0; i < kNumEndpoints; ++i) {
    const std::string prefix = std::string("serve_") + kEndpointNames[i];
    EndpointSeries& series = endpoints_[i];
    if (i != kOtherSlot) {
      series.requests = registry.GetCounter(prefix + "_requests_total");
    }
    series.errors = registry.GetCounter(prefix + "_errors_total");
    series.latency =
        registry.GetHistogram(prefix + "_latency_us", LatencyBoundsUs());
  }
  batch_lookups_total_ = registry.GetCounter("serve_batch_lookups_total");
  model_swaps_total_ = registry.GetCounter("serve_model_swaps_total");
  slow_requests_total_ = registry.GetCounter("serve_slow_requests_total");
  for (int s = 0; s < obs::kNumRequestStages; ++s) {
    stage_ns_total_[s] = registry.GetCounter(
        obs::RequestStageCounterName(static_cast<obs::RequestStage>(s)));
  }
  auto published = std::make_shared<Published>();
  published->model = std::make_shared<const ReadModel>(std::move(model));
  published->generation = 1;
  published_ = std::move(published);
}

ModelServer::~ModelServer() { Stop(); }

Status ModelServer::Start() {
  start_time_ = std::chrono::steady_clock::now();
  last_swap_ns_.store(SteadyNs());
  if (options_.access_log && !options_.access_log_path.empty()) {
    access_log_file_ = std::fopen(options_.access_log_path.c_str(), "a");
    if (access_log_file_ == nullptr) {
      return Status::IOError("cannot open access log " +
                             options_.access_log_path);
    }
  }
  return http_.Start(
      options_.port,
      [this](const HttpRequest& request, obs::RequestTrace* trace) {
        return HandleTraced(request, trace);
      },
      [this](const HttpRequest& request, const HttpResponse& response,
             obs::RequestTrace& trace) {
        FinishRequest(request, response, trace);
      });
}

void ModelServer::Stop() {
  if (stopped_.exchange(true)) return;
  http_.Stop();
  conn_pool_.Drain();
  if (access_log_file_ != nullptr) {
    std::fclose(access_log_file_);
    access_log_file_ = nullptr;
  }
}

std::shared_ptr<const ModelServer::Published> ModelServer::Pin() const {
  // atomic_load on the shared_ptr: lock-free on the data path against
  // concurrent SwapReadModel stores, and the returned pin keeps the model
  // alive for the whole request even if a swap lands mid-render.
  return std::atomic_load(&published_);
}

void ModelServer::SwapReadModel(ReadModel model) {
  // Swaps serialize on a control-plane mutex: two concurrent swaps must
  // not mint the same generation or publish out of order. The data path
  // never takes this lock — requests only atomic_load the published pair.
  std::lock_guard<std::mutex> lock(swap_mu_);
  auto fresh = std::make_shared<Published>();
  fresh->model = std::make_shared<const ReadModel>(std::move(model));
  fresh->generation = Pin()->generation + 1;
  std::atomic_store(&published_,
                    std::shared_ptr<const Published>(std::move(fresh)));
  model_swaps_total_->Add(1);
  last_swap_ns_.store(SteadyNs());
}

double ModelServer::SecondsSinceLastSwap() const {
  const int64_t last = last_swap_ns_.load();
  if (last == 0) return 0.0;
  return static_cast<double>(SteadyNs() - last) / 1e9;
}

std::shared_ptr<const ReadModel> ModelServer::model() const {
  return Pin()->model;
}

uint64_t ModelServer::model_generation() const { return Pin()->generation; }

// --------------------------------------------------------------- routing

HttpResponse ModelServer::HandleUser(const ReadModel& model,
                                     const std::string& rest) {
  int64_t id = ParseId(rest);
  if (id < 0) {
    return ErrorResponse(400, "user id must be a non-negative integer");
  }
  std::string_view fragment = model.UserJson(NarrowUserId(id));
  if (fragment.empty()) {
    return ErrorResponse(404, StringPrintf("no user %lld",
                                           static_cast<long long>(id)));
  }
  HttpResponse response;
  response.body.assign(fragment.data(), fragment.size());
  return response;
}

HttpResponse ModelServer::HandleEdge(const ReadModel& model,
                                     const std::string& rest) {
  size_t slash = rest.find('/');
  if (slash == std::string::npos) {
    return ErrorResponse(400, "expected /v1/edge/{src}/{dst}");
  }
  int64_t src = ParseId(rest.substr(0, slash));
  int64_t dst = ParseId(rest.substr(slash + 1));
  if (src < 0 || dst < 0) {
    return ErrorResponse(400, "edge endpoints must be non-negative integers");
  }
  std::string_view fragment = model.EdgeJson(
      model.FindEdge(NarrowUserId(src), NarrowUserId(dst)));
  if (fragment.empty()) {
    return ErrorResponse(
        404, StringPrintf("no following relationship %lld -> %lld",
                          static_cast<long long>(src),
                          static_cast<long long>(dst)));
  }
  HttpResponse response;
  response.body.assign(fragment.data(), fragment.size());
  return response;
}

HttpResponse ModelServer::HandleBatch(const ReadModel& model,
                                      const HttpRequest& request,
                                      obs::RequestTrace* trace) {
  Result<JsonValue> parsed = ParseJson(request.body);
  if (!parsed.ok()) {
    return ErrorResponse(400, parsed.status().message());
  }
  if (!parsed->is_object()) {
    return ErrorResponse(400, "batch body must be a JSON object");
  }
  const JsonValue* users = parsed->Find("users");
  if (users != nullptr && !users->is_array()) {
    return ErrorResponse(400, "\"users\" must be an array of ids");
  }
  const JsonValue* edges = parsed->Find("edges");
  if (edges != nullptr) {
    if (!edges->is_array()) {
      return ErrorResponse(400, "\"edges\" must be an array of [src,dst]");
    }
    for (const JsonValue& item : edges->items) {
      if (!item.is_array() || item.items.size() != 2) {
        return ErrorResponse(400, "each edge must be a [src,dst] pair");
      }
    }
  }

  // {"users":[...],"edges":[...]} aligned 1:1 with the request: each slot
  // is the point endpoint's pre-rendered body, or null when missing.
  obs::RequestTrace::StageTimer timer(trace, obs::RequestStage::kRender);
  HttpResponse response;
  std::string& body = response.body;
  auto append = [&body](std::string_view fragment) {
    if (fragment.empty()) {
      body += "null";
    } else {
      body.append(fragment.data(), fragment.size());
    }
  };
  body = "{\"users\":[";
  if (users != nullptr) {
    for (size_t i = 0; i < users->items.size(); ++i) {
      if (i > 0) body += ',';
      append(model.UserJson(NarrowUserId(users->items[i].AsInt(-1))));
    }
  }
  body += "],\"edges\":[";
  if (edges != nullptr) {
    for (size_t i = 0; i < edges->items.size(); ++i) {
      if (i > 0) body += ',';
      const std::vector<JsonValue>& pair = edges->items[i].items;
      append(model.EdgeJson(model.FindEdge(NarrowUserId(pair[0].AsInt(-1)),
                                           NarrowUserId(pair[1].AsInt(-1)))));
    }
  }
  body += "]}";
  batch_lookups_total_->Add((users != nullptr ? users->items.size() : 0) +
                            (edges != nullptr ? edges->items.size() : 0));
  return response;
}

void ModelServer::UpdateGauges(const Published& published) {
  obs::Registry& registry = obs::Registry::Global();
  registry.GetGauge(kConnQueueDepth)->Set(conn_pool_.queue_depth());
  registry.GetGauge(kModelGeneration)
      ->Set(static_cast<int64_t>(published.generation));
  registry.GetGauge(kSecondsSinceLastSwap)
      ->Set(static_cast<int64_t>(SecondsSinceLastSwap()));
  obs::UpdateProcessRssGauges();
}

ModelServer::Rows ModelServer::ServerRows(const Published& published) {
  UpdateGauges(published);
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  uint64_t errors = 0;
  for (const EndpointSeries& series : endpoints_) {
    errors += series.errors->Value();
  }
  auto count = [](const obs::Counter* counter) {
    return std::to_string(counter->Value());
  };
  const uint64_t requests = requests_total_->Value();
  return {
      {"threads", std::to_string(conn_pool_.size())},
      {"uptime_seconds", StringPrintf("%.1f", uptime)},
      {"qps", StringPrintf("%.2f", uptime > 0.0 ? requests / uptime : 0.0)},
      {"requests_served", std::to_string(requests)},
      {"connections_accepted", RegistryCount(kServeConnectionsTotal)},
      {"user_queries", count(endpoints_[0].requests)},
      {"edge_queries", count(endpoints_[1].requests)},
      {"batch_lookups", count(batch_lookups_total_)},
      {"errors", std::to_string(errors)},
      {"conn_queue_depth", RegistryGauge(kConnQueueDepth)},
      {"model_generation", RegistryGauge(kModelGeneration)},
      {"model_swaps", count(model_swaps_total_)},
      {"seconds_since_last_swap", RegistryGauge(kSecondsSinceLastSwap)},
  };
}

HttpResponse ModelServer::HandleStats(const Published& published,
                                      const std::string& query) {
  const ReadModel& model = *published.model;
  // Memory picture (ISSUE 8): the read model's exact owned footprint next
  // to the live process RSS. mmap-backed models account only resident
  // structures — the gap between RSS and the snapshot size is the point.
  const int64_t model_bytes = model.AccountedBytes();
  obs::Registry::Global().GetGauge(obs::kMemReadModelBytes)->Set(model_bytes);
  Rows rows = {
      {"users", std::to_string(model.num_users())},
      {"following_edges", std::to_string(model.num_edges())},
      {"active_candidate_slots",
       std::to_string(model.active_candidate_slots())},
      {"candidate_layout_version",
       std::to_string(model.candidate_layout_version())},
      {"mean_profile_entries",
       StringPrintf("%.2f", model.mean_profile_entries())},
      {"alpha", StringPrintf("%.4f", model.alpha())},
      {"beta", StringPrintf("%.6f", model.beta())},
      {"fit_complete", model.fit_complete() ? "1" : "0"},
      {"mmap_backed", model.mmap_backed() ? "1" : "0"},
      {"mem_readmodel_bytes", std::to_string(model_bytes)},
  };
  const Rows server = ServerRows(published);
  rows.insert(rows.end(), server.begin(), server.end());
  rows.emplace_back("mem_process_rss_bytes",
                    RegistryGauge(obs::kMemProcessRssBytes));
  rows.emplace_back("mem_process_peak_rss_bytes",
                    RegistryGauge(obs::kMemProcessPeakRssBytes));
  const Rows live = LiveRows();
  rows.insert(rows.end(), live.begin(), live.end());

  HttpResponse response;
  if (query == "format=csv" || query == "format=table") {
    io::TablePrinter table({"stat", "value"});
    for (const auto& [key, value] : rows) table.AddRow({key, value});
    const bool csv = query == "format=csv";
    response.content_type = csv ? "text/csv" : "text/plain";
    response.body = csv ? table.ToCsv() : table.ToString();
    return response;
  }
  // Default: the same rows as a flat JSON object (values kept as the
  // strings the table renders — /statsz is an operator surface, not an API
  // contract).
  JsonWriter w;
  w.BeginObject();
  for (const auto& [key, value] : rows) {
    w.Key(key);
    w.String(value);
  }
  w.EndObject();
  response.body = std::move(w).Take();
  return response;
}

HttpResponse ModelServer::HandleMetrics(const Published& published) {
  // The registry is the whole exposition; this server's gauges and the
  // process RSS are set first so the scrape sees them as of now.
  UpdateGauges(published);
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  response.body = obs::Registry::Global().RenderPrometheus();
  return response;
}

HttpResponse ModelServer::HandleStatusz(const Published& published) {
  std::string body;
  body +=
      "<!DOCTYPE html><html><head><title>mlp /statusz</title>"
      "<style>body{font-family:monospace;margin:2em}"
      "table{border-collapse:collapse;margin-bottom:1.5em}"
      "td,th{border:1px solid #999;padding:4px 10px;text-align:right}"
      "th{background:#eee}td:first-child,th:first-child{text-align:left}"
      "</style></head><body><h1>mlp model server</h1>\n";

  body += "<h2>server</h2><table>\n";
  auto row = [&](const std::string& key, const std::string& value) {
    body += StringPrintf("<tr><td>%s</td><td>%s</td></tr>\n", key.c_str(),
                         value.c_str());
  };
  for (const auto& [key, value] : ServerRows(published)) row(key, value);
  row("model_users", std::to_string(published.model->num_users()));
  row("vm_rss_bytes", RegistryGauge(obs::kMemProcessRssBytes));
  row("vm_hwm_bytes", RegistryGauge(obs::kMemProcessPeakRssBytes));
  row("slow_requests_captured", std::to_string(slow_ring_.total_pushed()));
  body += "</table>\n";

  // Live ingest: rendered only when a watcher has ever touched the
  // registry (a non-empty spool, or a batch applied or failed) — a plain
  // static server keeps its dashboard uncluttered.
  const Rows live = LiveRows();
  if (live[0].second != "0" || live[1].second != "0" ||
      live[2].second != "0") {
    body += "<h2>live ingest</h2><table>\n";
    for (const auto& [key, value] : live) row(key, value);
    const obs::Histogram::Snapshot apply_snap =
        obs::Registry::Global()
            .GetHistogram(obs::kIngestApplyNs, obs::IngestApplyNsBounds())
            ->GetSnapshot();
    row("mean_apply_ms",
        StringPrintf("%.1f", apply_snap.count > 0
                                 ? static_cast<double>(apply_snap.sum) /
                                       static_cast<double>(apply_snap.count) /
                                       1e6
                                 : 0.0));
    body += "</table>\n";
  }

  body +=
      "<h2>latency by endpoint (µs)</h2><table>\n"
      "<tr><th>endpoint</th><th>count</th><th>p50</th><th>p99</th></tr>\n";
  auto latency_row = [&](const char* label, const obs::Histogram* histogram) {
    const obs::Histogram::Snapshot snap = histogram->GetSnapshot();
    body += StringPrintf(
        "<tr><td>%s</td><td>%llu</td><td>%.0f</td><td>%.0f</td></tr>\n",
        label, static_cast<unsigned long long>(snap.count),
        obs::HistogramQuantile(snap, 0.5), obs::HistogramQuantile(snap, 0.99));
  };
  latency_row("all", request_latency_us_);
  for (int i = 0; i < kNumEndpoints; ++i) {
    latency_row(kEndpointNames[i], endpoints_[i].latency);
  }
  body += "</table>\n";

  body +=
      "<p>more: <a href=\"/statsz\">/statsz</a> "
      "<a href=\"/metricsz\">/metricsz</a> "
      "<a href=\"/debug/slowz\">/debug/slowz</a></p></body></html>\n";

  HttpResponse response;
  response.content_type = "text/html; charset=utf-8";
  response.body = std::move(body);
  return response;
}

HttpResponse ModelServer::HandleSlowz() {
  const std::vector<obs::RequestTraceRecord> records = slow_ring_.Snapshot();
  JsonWriter w;
  w.BeginObject();
  w.Key("threshold_us");
  w.Int(options_.slow_request_us);
  w.Key("capacity");
  w.Int(static_cast<int64_t>(slow_ring_.capacity()));
  w.Key("total_captured");
  w.Int(static_cast<int64_t>(slow_ring_.total_pushed()));
  w.Key("count");
  w.Int(static_cast<int64_t>(records.size()));
  w.Key("requests");
  w.BeginArray();
  for (const obs::RequestTraceRecord& r : records) {
    w.BeginObject();
    w.Key("id");
    w.Int(static_cast<int64_t>(r.id));
    w.Key("method");
    w.String(r.method);
    w.Key("target");
    w.String(r.target);
    w.Key("status");
    w.Int(r.status);
    w.Key("endpoint");
    w.String(r.endpoint);
    w.Key("outcome");
    w.String(r.outcome);
    w.Key("generation");
    w.Int(static_cast<int64_t>(r.generation));
    w.Key("total_us");
    w.Int(r.total_ns / 1000);
    w.Key("stages");
    w.BeginObject();
    for (int s = 0; s < obs::kNumRequestStages; ++s) {
      const auto stage = static_cast<obs::RequestStage>(s);
      w.Key(std::string(obs::RequestStageName(stage)) + "_us");
      w.Int(r.stage_ns[s] / 1000);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  HttpResponse response;
  response.body = std::move(w).Take();
  return response;
}

void ModelServer::WriteAccessLog(const HttpRequest& request,
                                 const obs::RequestTrace& trace) {
  JsonWriter w;
  w.BeginObject();
  w.Key("ts_us");
  w.Int(trace.start_ns() / 1000);
  w.Key("id");
  w.Int(static_cast<int64_t>(trace.id()));
  w.Key("method");
  w.String(request.method);
  w.Key("target");
  w.String(request.target);
  w.Key("status");
  w.Int(trace.status());
  w.Key("endpoint");
  w.String(trace.endpoint());
  w.Key("outcome");
  w.String(trace.outcome());
  w.Key("generation");
  w.Int(static_cast<int64_t>(trace.generation()));
  w.Key("total_us");
  w.Int(trace.total_ns() / 1000);
  for (int s = 0; s < obs::kNumRequestStages; ++s) {
    const auto stage = static_cast<obs::RequestStage>(s);
    w.Key(std::string(obs::RequestStageName(stage)) + "_us");
    w.Int(trace.stage_ns(stage) / 1000);
  }
  w.EndObject();
  const std::string line = std::move(w).Take();
  if (access_log_file_ != nullptr) {
    // One locked fputs+flush per request: the log is line-atomic and
    // survives a crash up to the last completed request.
    std::lock_guard<std::mutex> lock(access_log_mu_);
    std::fputs(line.c_str(), access_log_file_);
    std::fputc('\n', access_log_file_);
    std::fflush(access_log_file_);
  } else {
    MLP_LOG(kInfo) << "access " << line;
  }
}

HttpResponse ModelServer::Handle(const HttpRequest& request) {
  obs::RequestTrace trace;
  HttpResponse response = HandleTraced(request, &trace);
  trace.set_status(response.status);
  FinishRequest(request, response, trace);
  return response;
}

void ModelServer::FinishRequest(const HttpRequest& request,
                                const HttpResponse& response,
                                obs::RequestTrace& trace) {
  trace.Finish();  // idempotent; the socket path already finished it
  // Counts feed /statsz, /statusz and /metricsz alike, so they are never
  // gated: the three pages agree with obs disabled too.
  const EndpointSeries& series = endpoints_[EndpointSlot(trace.endpoint())];
  requests_total_->Add(1);
  if (series.requests != nullptr) series.requests->Add(1);
  const bool error = response.status >= 400;
  if (error) {
    trace.set_outcome("error");
    series.errors->Add(1);
  }
  if (obs::Enabled()) {
    const int64_t total_us = trace.total_ns() / 1000;
    request_latency_us_->Record(total_us);
    for (int s = 0; s < obs::kNumRequestStages; ++s) {
      const int64_t ns = trace.stage_ns(static_cast<obs::RequestStage>(s));
      if (ns > 0) stage_ns_total_[s]->Add(static_cast<uint64_t>(ns));
    }
    if (!error) series.latency->Record(total_us);
    if (options_.slow_request_us > 0 && total_us >= options_.slow_request_us) {
      slow_requests_total_->Add(1);
      slow_ring_.Push(obs::MakeRecord(trace, request.method, request.target));
    }
  }
  if (options_.access_log) WriteAccessLog(request, trace);
}

HttpResponse ModelServer::HandleTraced(const HttpRequest& request,
                                       obs::RequestTrace* trace) {
  const std::string& target = request.target;
  std::string path = target;
  std::string query;
  size_t qmark = target.find('?');
  if (qmark != std::string::npos) {
    path = target.substr(0, qmark);
    query = target.substr(qmark + 1);
  }

  // Pin one (model, generation) snapshot for the whole request: a
  // concurrent SwapReadModel can land at any point from here on and this
  // request still renders consistently from the model it started with.
  const std::shared_ptr<const Published> published = Pin();
  trace->set_generation(published->generation);

  if (path == "/healthz") {
    trace->set_endpoint("health");
    JsonWriter w;
    w.BeginObject();
    w.Key("status");
    w.String("ok");
    w.Key("model");
    w.String("loaded");
    w.Key("users");
    w.Int(published->model->num_users());
    w.EndObject();
    HttpResponse response;
    response.body = std::move(w).Take();
    return response;
  }
  if (path == "/statsz") {
    trace->set_endpoint("stats");
    return HandleStats(*published, query);
  }
  if (path == "/metricsz") {
    trace->set_endpoint("metrics");
    return HandleMetrics(*published);
  }
  if (path == "/statusz") {
    trace->set_endpoint("statusz");
    return HandleStatusz(*published);
  }
  if (path == "/debug/slowz") {
    trace->set_endpoint("slowz");
    return HandleSlowz();
  }

  constexpr char kUserPrefix[] = "/v1/user/";
  constexpr char kEdgePrefix[] = "/v1/edge/";
  if (path.rfind(kUserPrefix, 0) == 0) {
    trace->set_endpoint("user");
    if (request.method != "GET") {
        return ErrorResponse(405, "use GET");
    }
    obs::RequestTrace::StageTimer timer(trace, obs::RequestStage::kRender);
    return HandleUser(*published->model,
                      path.substr(sizeof(kUserPrefix) - 1));
  }
  if (path.rfind(kEdgePrefix, 0) == 0) {
    trace->set_endpoint("edge");
    if (request.method != "GET") {
        return ErrorResponse(405, "use GET");
    }
    obs::RequestTrace::StageTimer timer(trace, obs::RequestStage::kRender);
    return HandleEdge(*published->model,
                      path.substr(sizeof(kEdgePrefix) - 1));
  }
  if (path == "/v1/batch") {
    trace->set_endpoint("batch");
    if (request.method != "POST") {
        return ErrorResponse(405, "use POST");
    }
    return HandleBatch(*published->model, request, trace);
  }
  return ErrorResponse(404, "unknown endpoint " + path);
}

}  // namespace serve
}  // namespace mlp
