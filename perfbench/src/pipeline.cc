#include "pipeline.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "eval/cross_validation.h"
#include "eval/metrics.h"
#include "io/model_snapshot.h"
#include "obs/metrics.h"
#include "serve/http_server.h"
#include "serve/json.h"
#include "stream/delta_batch.h"
#include "stream/delta_ingest.h"
#include "stream/live_ingest.h"
#include "synth/world_config.h"
#include "synth/world_generator.h"

namespace perfbench {

namespace fs = std::filesystem;
using mlp::Result;
using mlp::Status;
namespace core = mlp::core;
namespace geo = mlp::geo;
namespace graph = mlp::graph;
namespace io = mlp::io;
namespace serve = mlp::serve;
namespace stream = mlp::stream;

namespace {

constexpr size_t kReplayRequests = 4096;
constexpr int kParsedBatchesPerLane = 32;

int64_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

std::string Describe(const Request& r) {
  return std::string(r.method) + " " + r.target;
}

}  // namespace

std::map<std::string, uint64_t> RegistryCounters(const std::string& prefix) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] :
       mlp::obs::Registry::Global().CounterValues()) {
    if (name.rfind(prefix, 0) == 0) out[name] = value;
  }
  return out;
}

double ScrapeMetric(const std::string& text, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const size_t at = text.find(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

core::ModelInput World::Input(const graph::SocialGraph* graph) const {
  core::ModelInput input;
  input.gazetteer = synth.gazetteer.get();
  input.graph = graph;
  input.distances = synth.distances.get();
  input.venue_referents = &referents;
  input.observed_home = observed;
  return input;
}

Result<std::unique_ptr<World>> MakeWorld(Context& ctx,
                                         const std::string& dir) {
  mlp::synth::WorldConfig config;
  config.num_users = ctx.sizes.users;
  config.seed = ctx.seed;
  config.following_noise_fraction = 0.25;
  config.tweeting_noise_fraction = 0.25;
  config.multi_location_fraction = 0.40;

  auto world = std::make_unique<World>();
  {
    Span span(ctx.spans, "synth.generate_world");
    Result<mlp::synth::SyntheticWorld> generated =
        mlp::synth::GenerateWorld(config);
    if (!generated.ok()) return generated.status();
    world->synth = std::move(generated).ValueOrDie();
  }
  world->data_dir = dir;
  {
    Span span(ctx.spans, "io.save_dataset");
    fs::create_directories(dir);
    Status saved = io::SaveDataset(dir, *world->synth.graph,
                                   &world->synth.truth);
    if (!saved.ok()) return saved;
  }
  const graph::SocialGraph& g = *world->synth.graph;
  world->referents = world->synth.vocab->ReferentTable();
  world->registered = mlp::eval::RegisteredHomes(g);
  const mlp::eval::FoldAssignment folds =
      mlp::eval::MakeKFolds(world->registered, 5, ctx.seed ^ 0x5eed);
  world->observed = folds.MaskedHomes(world->registered, 0);
  world->test_users = folds.TestUsers(0);

  // Sec. 5.3's labeled relationships: location-based follows of
  // multi-location users whose true assignments share a region.
  const mlp::synth::GroundTruth& truth = world->synth.truth;
  world->rel_truth.assign(truth.following.size(),
                          {geo::kInvalidCity, geo::kInvalidCity});
  for (size_t s = 0; s < truth.following.size(); ++s) {
    const mlp::synth::FollowingTruth& t = truth.following[s];
    if (t.noisy) continue;
    world->rel_truth[s] = {t.x, t.y};
    if (world->synth.distances->raw_miles(t.x, t.y) > 50.0) continue;
    const graph::FollowingEdge& e = g.following(static_cast<int>(s));
    if (truth.profiles[e.follower].IsMultiLocation() ||
        truth.profiles[e.friend_user].IsMultiLocation()) {
      world->rel_edges.push_back(static_cast<graph::EdgeId>(s));
    }
  }
  return world;
}

Result<std::unique_ptr<Built>> BuildModel(Context& ctx, const World& world,
                                          const std::string& path) {
  auto built = std::make_unique<Built>();
  built->snapshot_path = path;
  const int64_t start = NowNs();
  Span build_span(ctx.spans, "pipeline.build");
  {
    Span span(ctx.spans, "io.load_dataset");
    Result<io::LoadedDataset> data =
        io::LoadDataset(world.data_dir, world.synth.vocab->size());
    if (!data.ok()) return data.status();
    built->data =
        std::make_unique<io::LoadedDataset>(std::move(data).ValueOrDie());
  }
  built->input = world.Input(&built->data->graph);

  core::MlpConfig config;
  config.burn_in_iterations = ctx.sizes.burn_in_sweeps;
  config.sampling_iterations = ctx.sizes.sampling_sweeps;
  config.num_threads = ctx.sizes.fit_workers;
  config.seed = ctx.seed;
  core::FitOptions options;
  options.checkpoint_out = &built->checkpoint;
  {
    const auto before = RegistryCounters("fit_");
    Span span(ctx.spans, "core.fit");
    Result<core::MlpResult> result =
        core::MlpModel(config).Fit(built->input, options);
    if (!result.ok()) return result.status();
    built->result = std::move(result).ValueOrDie();
    for (const auto& [name, value] : RegistryCounters("fit_")) {
      auto it = before.find(name);
      ctx.fit_counters[name] += value - (it == before.end() ? 0 : it->second);
    }
    ++ctx.fits;
    ctx.fit_edges = built->data->graph.num_following() +
                    built->data->graph.num_tweeting();
  }
  io::ModelSnapshot snapshot;
  {
    Span span(ctx.spans, "io.snapshot_save");
    snapshot =
        io::MakeModelSnapshot(built->input, built->checkpoint, built->result);
    Status saved = io::SaveModelSnapshot(path, snapshot);
    if (!saved.ok()) return saved;
  }
  built->snapshot_bytes = FileSize(path);
  {
    Span span(ctx.spans, "serve.readmodel_build");
    Result<serve::ReadModel> model = serve::ReadModel::Build(
        snapshot, built->data->graph, world.synth.gazetteer.get());
    if (!model.ok()) return model.status();
    built->model = std::move(model).ValueOrDie();
  }
  {
    Span span(ctx.spans, "serve.append_section");
    Status packed = built->model.AppendServeSection(path);
    if (!packed.ok()) return packed;
  }
  built->section_bytes = FileSize(path) - built->snapshot_bytes;
  ctx.snapshot_bytes = built->snapshot_bytes;
  ctx.section_bytes = built->section_bytes;
  built->total_ms = static_cast<double>(NowNs() - start) / 1e6;
  return built;
}

Quality Evaluate(const World& world, const core::MlpResult& result) {
  Quality q;
  q.home_acc_pct =
      100.0 * mlp::eval::AccuracyWithin(result.home, world.registered,
                                        world.test_users,
                                        *world.synth.distances, 100.0);
  q.rel_acc_pct = 100.0 * mlp::eval::RelationshipAccuracy(
                              result.following, world.rel_truth,
                              world.rel_edges, *world.synth.distances, 100.0);
  return q;
}

void CheckPacked(Context& ctx, const World& world, const Built& built) {
  Result<serve::ReadModel> mapped = serve::ReadModel::MapServeSection(
      built.snapshot_path, world.synth.gazetteer.get());
  ctx.tally->Record(mapped.ok(), "map serve section: " +
                                     (mapped.ok() ? std::string()
                                                  : mapped.status().ToString()));
  if (!mapped.ok()) return;
  const graph::SocialGraph& g = built.data->graph;
  mlp::Pcg32 rng(ctx.seed, 0x51ed2701);
  for (int i = 0; i < 256; ++i) {
    const int u = static_cast<int>(rng.UniformU32(g.num_users()));
    ctx.tally->Record(mapped->UserJson(u) == built.model.UserJson(u),
                      "packed user " + std::to_string(u) + " differs");
    const graph::FollowingEdge& e =
        g.following(static_cast<int>(rng.UniformU32(g.num_following())));
    ctx.tally->Record(
        mapped->EdgeJson(mapped->FindEdge(e.follower, e.friend_user)) ==
            built.model.EdgeJson(
                built.model.FindEdge(e.follower, e.friend_user)),
        "packed edge " + std::to_string(e.follower) + "/" +
            std::to_string(e.friend_user) + " differs");
  }
}

std::unique_ptr<serve::ModelServer> StartServer(Context& ctx,
                                                serve::ReadModel model) {
  serve::ServeOptions options;  // 16 MB cache, top_k 10
  options.port = 0;
  options.threads = ctx.sizes.server_threads;
  auto server = std::make_unique<serve::ModelServer>(std::move(model), options);
  Status started = server->Start();
  ctx.tally->Record(started.ok(), "server start: " + started.ToString());
  if (!started.ok()) return nullptr;
  return server;
}

RequestMix::RequestMix(const graph::SocialGraph& graph, double zipf_s,
                       int batch_ids, uint64_t seed)
    : graph_(graph),
      users_(graph.num_users(), zipf_s, seed),
      edges_(graph.num_following(), zipf_s, seed ^ 0x9e3779b97f4a7c15ULL),
      batch_ids_(batch_ids) {}

void RequestMix::SetUser(int user, Request* r) const {
  r->kind = Request::kUser;
  r->method = "GET";
  r->user = user;
  r->target = "/v1/user/" + std::to_string(user);
  r->body.clear();
}

void RequestMix::SetEdge(int edge, Request* r) const {
  const graph::FollowingEdge& e = graph_.following(edge);
  r->kind = Request::kEdge;
  r->method = "GET";
  r->src = e.follower;
  r->dst = e.friend_user;
  r->target = "/v1/edge/" + std::to_string(e.follower) + "/" +
              std::to_string(e.friend_user);
  r->body.clear();
}

void RequestMix::NextServe(mlp::Pcg32& rng, Request* r) const {
  const uint32_t pick = rng.UniformU32(100);
  if (pick < 70) return SetUser(users_.Sample(rng), r);
  if (pick < 90) return SetEdge(edges_.Sample(rng), r);
  r->kind = Request::kBatch;
  r->method = "POST";
  r->target = "/v1/batch";
  r->ids.resize(batch_ids_);
  r->body = "{\"users\":[";
  for (int i = 0; i < batch_ids_; ++i) {
    r->ids[i] = users_.Sample(rng);
    if (i > 0) r->body += ',';
    r->body += std::to_string(r->ids[i]);
  }
  r->body += "]}";
}

void RequestMix::NextLive(mlp::Pcg32& rng, Request* r) const {
  if (rng.UniformU32(2) == 0) {
    return SetUser(static_cast<int>(rng.UniformU32(graph_.num_users())), r);
  }
  SetEdge(static_cast<int>(rng.UniformU32(graph_.num_following())), r);
}

namespace {

std::string ExpectedBody(const serve::ReadModel& reference, const Request& r) {
  switch (r.kind) {
    case Request::kUser:
      return std::string(reference.UserJson(r.user));
    case Request::kEdge:
      return std::string(reference.EdgeJson(reference.FindEdge(r.src, r.dst)));
    case Request::kBatch: {
      std::string body = "{\"users\":[";
      for (size_t i = 0; i < r.ids.size(); ++i) {
        if (i > 0) body += ',';
        body += reference.UserJson(r.ids[i]);
      }
      return body + "],\"edges\":[]}";
    }
  }
  return {};
}

// One client connection's request loop body shared by both loop shapes:
// round trip, check, and record the outcome. Returns success.
class Lane {
 public:
  Lane(Context& ctx, int port, const serve::ReadModel* reference, bool live)
      : ctx_(ctx), port_(port), reference_(reference), live_(live) {}

  bool Send(const Request& r, uint64_t parent_span) {
    if (!client_) Connect();
    if (!client_) {
      ctx_.tally->Fail("connect to 127.0.0.1:" + std::to_string(port_));
      return false;
    }
    Result<serve::HttpResponse> response = [&] {
      Span span(ctx_.spans, "serve.request", parent_span);
      return client_->RoundTrip(r.method, r.target, r.body);
    }();
    if (!response.ok()) {
      client_.reset();  // reconnect on the next request
      ctx_.tally->Fail(Describe(r) + ": " + response.status().ToString());
      return false;
    }
    bool ok = response->status == 200;
    if (ok && !live_ && reference_ != nullptr) {
      ok = response->body == ExpectedBody(*reference_, r);
      if (ok && r.kind == Request::kBatch &&
          parsed_batches_ < kParsedBatchesPerLane) {
        ++parsed_batches_;
        ok = mlp::serve::ParseJson(response->body).ok();
      }
    }
    if (!ok) {
      ctx_.tally->Fail(Describe(r) + ": status " +
                       std::to_string(response->status) +
                       (response->status == 200 ? " with a wrong body" : ""));
      return false;
    }
    ctx_.tally->Ok();
    return true;
  }

 private:
  void Connect() {
    Result<serve::HttpClient> client =
        serve::HttpClient::Connect("127.0.0.1", port_);
    if (client.ok()) {
      client_ = std::make_unique<serve::HttpClient>(
          std::move(client).ValueOrDie());
    }
  }

  Context& ctx_;
  const int port_;
  const serve::ReadModel* reference_;
  const bool live_;
  std::unique_ptr<serve::HttpClient> client_;
  int parsed_batches_ = 0;
};

}  // namespace

Traffic ClosedLoop(Context& ctx, int port, const RequestMix& mix,
                   const serve::ReadModel* reference, double seconds,
                   uint64_t stream) {
  const int connections = ctx.sizes.client_connections;
  std::vector<std::vector<double>> latencies(connections);
  std::vector<std::vector<Request>> replays(connections);
  Span phase(ctx.spans, "serve.closed_loop");
  const uint64_t parent = phase.id();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Lane lane(ctx, port, reference, /*live=*/false);
      mlp::Pcg32 rng(ctx.seed, stream + static_cast<uint64_t>(c));
      Request r;
      while (NowNs() < deadline) {
        mix.NextServe(rng, &r);
        const int64_t t0 = NowNs();
        const bool ok = lane.Send(r, parent);
        const int64_t t1 = NowNs();
        if (ok) latencies[c].push_back(static_cast<double>(t1 - t0) / 1e3);
        if (replays[c].size() < kReplayRequests / connections) {
          replays[c].push_back(r);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Traffic traffic;
  traffic.seconds = static_cast<double>(NowNs() - start) / 1e9;
  for (int c = 0; c < connections; ++c) {
    traffic.latency_us.insert(traffic.latency_us.end(), latencies[c].begin(),
                              latencies[c].end());
    traffic.replay.insert(traffic.replay.end(), replays[c].begin(),
                          replays[c].end());
  }
  traffic.requests = static_cast<int64_t>(traffic.latency_us.size());
  return traffic;
}

Traffic OpenLoop(Context& ctx, int port, const RequestMix& mix,
                 const serve::ReadModel* reference, int connections,
                 double rate, double seconds, bool live, uint64_t stream,
                 const std::atomic<bool>* stop) {
  std::vector<std::unique_ptr<Lane>> lanes;
  std::vector<mlp::Pcg32> rngs;
  std::vector<std::vector<Request>> replays(connections);
  for (int c = 0; c < connections; ++c) {
    lanes.push_back(std::make_unique<Lane>(ctx, port, reference, live));
    rngs.emplace_back(ctx.seed, stream + static_cast<uint64_t>(c));
  }
  Span phase(ctx.spans, live ? "serve.live_queries" : "serve.open_loop");
  const uint64_t parent = phase.id();
  const int64_t start = NowNs();
  OpenLoopResult result = RunOpenLoop(
      connections, rate, seconds,
      [&](int c, int64_t) {
        Request r;
        if (live) {
          mix.NextLive(rngs[c], &r);
        } else {
          mix.NextServe(rngs[c], &r);
        }
        const bool ok = lanes[c]->Send(r, parent);
        if (replays[c].size() < kReplayRequests / connections) {
          replays[c].push_back(std::move(r));
        }
        return ok;
      },
      stop);
  Traffic traffic;
  traffic.seconds = static_cast<double>(NowNs() - start) / 1e9;
  // Slices hold ~2000 samples, so each has 20 beyond its p99.
  const double slice_s = std::max(0.25, 2000.0 / rate);
  traffic.p95_slices_us =
      IntervalPercentiles(result.at_s, result.latency_us, slice_s, 95.0);
  traffic.p99_slices_us =
      IntervalPercentiles(result.at_s, result.latency_us, slice_s, 99.0);
  traffic.latency_us = std::move(result.latency_us);
  traffic.late_us = std::move(result.late_us);
  traffic.requests = result.sent;
  for (auto& replay : replays) {
    traffic.replay.insert(traffic.replay.end(), replay.begin(), replay.end());
  }
  return traffic;
}

double ReplayHandleNs(serve::ModelServer& server,
                      const std::vector<Request>& requests) {
  if (requests.empty()) return 0.0;
  serve::HttpRequest request;
  int64_t total = 0;
  for (const Request& r : requests) {
    request.method = r.method;
    request.target = r.target;
    request.body = r.body;
    const int64_t t0 = NowNs();
    const serve::HttpResponse response = server.Handle(request);
    total += NowNs() - t0;
    if (response.body.empty()) return 0.0;
  }
  return static_cast<double>(total) / static_cast<double>(requests.size());
}

double ReplayLookupNs(const serve::ReadModel& model,
                      const std::vector<Request>& requests) {
  int64_t total = 0;
  int64_t lookups = 0;
  size_t bytes = 0;
  for (const Request& r : requests) {
    const int64_t t0 = NowNs();
    switch (r.kind) {
      case Request::kUser:
        bytes += model.UserJson(r.user).size();
        ++lookups;
        break;
      case Request::kEdge:
        bytes += model.EdgeJson(model.FindEdge(r.src, r.dst)).size();
        ++lookups;
        break;
      case Request::kBatch:
        for (int id : r.ids) bytes += model.UserJson(id).size();
        lookups += static_cast<int64_t>(r.ids.size());
        break;
    }
    total += NowNs() - t0;
  }
  if (lookups == 0 || bytes == 0) return 0.0;
  return static_cast<double>(total) / static_cast<double>(lookups);
}

namespace {

// A localized burst: `count` new users (half labeled) following a few hub
// accounts of the base world and tweeting a few venues — staged under
// tmp.<name> and renamed into the spool, which is the commit point.
fs::path WriteBatch(const fs::path& spool, const std::string& name,
                    int first_id, int count, int base_users, int num_venues,
                    uint64_t seed) {
  const fs::path tmp = spool / ("tmp." + name);
  fs::create_directories(tmp);
  mlp::Pcg32 rng(seed, 0x7fb5d329728ea185ULL);
  std::vector<int> hubs;
  for (int h = 0; h < 4; ++h) {
    hubs.push_back(static_cast<int>(rng.UniformU32(base_users)));
  }
  std::ofstream users(tmp / "users.csv");
  std::ofstream following(tmp / "following.csv");
  std::ofstream tweeting(tmp / "tweeting.csv");
  users << "handle,profile_location,registered_city\n";
  following << "follower,friend\n";
  tweeting << "user,venue\n";
  for (int i = 0; i < count; ++i) {
    const int id = first_id + i;
    const int city = i % 2 == 0 ? static_cast<int>(rng.UniformU32(40)) : -1;
    users << "perfbench_burst_" << id << ",," << city << "\n";
    for (int e = 0; e < 2; ++e) {
      following << id << "," << hubs[rng.UniformU32(4)] << "\n";
    }
    for (int t = 0; t < 3; ++t) {
      tweeting << id << "," << rng.UniformU32(num_venues) << "\n";
    }
  }
  return tmp;
}

// The daemon's stage sequence, one span per public call.
bool ApplySelfDriven(Context& ctx, const World& world,
                     serve::ModelServer& server, LiveState& state,
                     const fs::path& batch_dir, LiveStats* stats) {
  Span batch_span(ctx.spans, "stream.batch");
  Result<stream::DeltaBatch> delta = [&] {
    Span span(ctx.spans, "stream.load_delta");
    return stream::LoadDeltaBatch(batch_dir.string());
  }();
  if (!delta.ok()) {
    ctx.tally->Fail("load delta: " + delta.status().ToString());
    return false;
  }
  Result<stream::IngestOutput> out = [&] {
    Span span(ctx.spans, "stream.apply_delta");
    return stream::ApplyDeltaBatch(state.input, state.checkpoint,
                                   state.result, *delta);
  }();
  if (!out.ok()) {
    ctx.tally->Fail("apply delta: " + out.status().ToString());
    return false;
  }
  core::ModelInput merged = state.input;
  merged.graph = out->merged_graph.get();
  merged.observed_home = out->merged_observed_home;
  io::ModelSnapshot snapshot;
  {
    Span span(ctx.spans, "stream.snapshot_copy");
    snapshot = io::MakeModelSnapshot(merged, out->checkpoint, out->result);
  }
  Result<serve::ReadModel> model = [&] {
    Span span(ctx.spans, "serve.ingest_render");
    return serve::ReadModel::Build(snapshot, *out->merged_graph,
                                   world.synth.gazetteer.get());
  }();
  if (!model.ok()) {
    ctx.tally->Fail("ingest render: " + model.status().ToString());
    return false;
  }
  {
    Span span(ctx.spans, "stream.swap");
    server.SwapReadModel(std::move(model).ValueOrDie());
  }
  const core::DeltaReport& report = out->report;
  if (report.shards_total > 0) {
    stats->shards_touched_pct_sum +=
        100.0 * report.shards_touched / report.shards_total;
  }
  ++stats->self_driven;
  state.graph = std::move(out->merged_graph);
  state.input = merged;
  state.input.graph = state.graph.get();
  state.checkpoint = std::move(out->checkpoint);
  state.result = std::move(out->result);
  return true;
}

bool WaitForGeneration(serve::ModelServer& server, uint64_t generation,
                       int64_t timeout_ns) {
  const int64_t deadline = NowNs() + timeout_ns;
  while (server.model_generation() < generation) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

}  // namespace

void RunLive(Context& ctx, const World& world, serve::ModelServer& server,
             LiveState& state, bool daemon, int batches, LiveStats* stats) {
  if (state.consumed) {
    ctx.tally->Fail("live state already handed to a daemon");
    return;
  }
  const fs::path spool = fs::path(ctx.work_dir) / "spool";
  fs::create_directories(spool);
  std::unique_ptr<stream::LiveIngestor> ingestor;
  if (daemon) {
    stream::LiveIngestOptions options;
    options.spool_dir = spool.string();
    options.poll_ms = ctx.sizes.poll_ms;
    ingestor = std::make_unique<stream::LiveIngestor>(
        &server, state.input, std::move(state.checkpoint),
        std::move(state.result), options);
    state.consumed = true;
    Status started = ingestor->Start();
    ctx.tally->Record(started.ok(), "live ingestor start: " +
                                        started.ToString());
    if (!started.ok()) return;
  }

  // Queries only touch base-world ids, so every one is a 200 in every
  // generation; the lanes count each one in the tally.
  const RequestMix mix(*world.synth.graph, ctx.sizes.zipf_s,
                       ctx.sizes.batch_ids, ctx.seed);
  std::atomic<bool> stop{false};
  const uint64_t stream = 0x11ae + static_cast<uint64_t>(state.batches);
  std::thread query_thread([&, stream] {
    OpenLoop(ctx, server.port(), mix, nullptr, 1, ctx.sizes.live_rate, 3600.0,
             /*live=*/true, stream, &stop);
  });

  Span phase(ctx.spans, daemon ? "stream.daemon_phase" : "stream.traced_phase");
  const uint64_t generation_start = server.model_generation();
  int applied = 0;
  while (applied < batches) {
    char name[32];
    std::snprintf(name, sizeof(name), "batch-%06d", state.batches);
    const int first_id = state.next_user;
    const fs::path tmp =
        WriteBatch(spool, name, first_id, ctx.sizes.delta_users,
                   state.base_users, world.synth.graph->num_venues(),
                   ctx.seed * 1000003ULL + static_cast<uint64_t>(state.batches));
    ++state.batches;
    state.next_user += ctx.sizes.delta_users;
    const uint64_t next_generation = server.model_generation() + 1;
    const fs::path batch_dir = spool / name;
    fs::rename(tmp, batch_dir);
    const int64_t committed = NowNs();
    bool ok = daemon ? WaitForGeneration(server, next_generation, 120000000000LL)
                     : ApplySelfDriven(ctx, world, server, state, batch_dir,
                                       stats);
    ok = ok && server.model_generation() == next_generation;
    const int64_t visible = NowNs();
    ctx.tally->Record(ok, std::string("batch ") + name + " never became visible");
    if (!ok) break;
    stats->visible_ms.push_back(static_cast<double>(visible - committed) / 1e6);
    ++applied;
    if (!daemon) fs::remove_all(batch_dir);
    // The new users must be queryable in the generation that absorbed them.
    serve::HttpRequest request;
    request.method = "GET";
    for (int id = first_id; id < state.next_user; ++id) {
      request.target = "/v1/user/" + std::to_string(id);
      ctx.tally->Record(server.Handle(request).status == 200,
                        "new user " + std::to_string(id) + " not queryable");
    }
  }
  stop.store(true, std::memory_order_release);
  query_thread.join();
  if (ingestor) {
    ingestor->Stop();
    ctx.tally->Record(ingestor->batches_failed() == 0,
                      "live ingestor quarantined a batch");
  }
  ctx.tally->Record(
      server.model_generation() == generation_start + applied,
      "model generation " + std::to_string(server.model_generation()) +
          " after " + std::to_string(applied) + " batches from generation " +
          std::to_string(generation_start));
  stats->batches += applied;
}

void ResetPeakRss() {
  // "5" resets the peak RSS (VmHWM) of this process to its current RSS.
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MB
    }
  }
  return 0.0;
}

void TrimHeap() { malloc_trim(0); }

}  // namespace perfbench
