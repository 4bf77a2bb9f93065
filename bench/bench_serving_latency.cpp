// bench_serving_latency — latency and throughput of the online query
// subsystem (src/serve/, ISSUE 4): fits a model on a synthetic world,
// serves it through a real ModelServer on an ephemeral loopback port, and
// measures
//   - sequential point-query latency (p50/p99) and QPS over one
//     keep-alive connection,
//   - concurrent point-query QPS with one client connection per server
//     thread,
//   - batch-endpoint QPS (POST /v1/batch, 64 lookups per request), whose
//     coalescing is the serving layer's core throughput lever (acceptance:
//     >= 3x sequential point QPS at 8 threads),
// for server thread counts 1/2/4/8. Emits BENCH_serving.json for the CI
// perf-trajectory artifact next to BENCH_parallel.json / BENCH_pruning.json.
//
// Env: MLP_BENCH_SERVE_USERS (default 600), MLP_BENCH_SERVE_QUERIES
// (default 2000), MLP_BENCH_SEED, MLP_BENCH_JSON_DIR.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/model.h"
#include "io/model_snapshot.h"
#include "io/table_printer.h"
#include "serve/http_server.h"
#include "serve/model_server.h"
#include "serve/read_model.h"
#include "synth/world_generator.h"

namespace {

using namespace mlp;
using Clock = std::chrono::steady_clock;

using bench::EnvInt;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

double PercentileMs(std::vector<double>* micros, double p) {
  if (micros->empty()) return 0.0;
  std::sort(micros->begin(), micros->end());
  size_t idx = static_cast<size_t>(p * (micros->size() - 1));
  return (*micros)[idx] / 1000.0;
}

struct PointRun {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// `queries` sequential GETs over one keep-alive connection.
PointRun RunSequentialPoint(int port, const std::vector<std::string>& targets) {
  Result<serve::HttpClient> client = serve::HttpClient::Connect("127.0.0.1", port);
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<double> micros;
  micros.reserve(targets.size());
  Clock::time_point begin = Clock::now();
  for (const std::string& target : targets) {
    Clock::time_point t0 = Clock::now();
    Result<serve::HttpResponse> response = client->RoundTrip("GET", target);
    Clock::time_point t1 = Clock::now();
    if (!response.ok() || response->status != 200) {
      std::fprintf(stderr, "query %s failed\n", target.c_str());
      std::exit(1);
    }
    micros.push_back(Seconds(t0, t1) * 1e6);
  }
  PointRun run;
  run.qps = targets.size() / Seconds(begin, Clock::now());
  run.p50_ms = PercentileMs(&micros, 0.50);
  run.p99_ms = PercentileMs(&micros, 0.99);
  return run;
}

/// The same queries spread over `clients` concurrent connections.
double RunConcurrentPoint(int port, const std::vector<std::string>& targets,
                          int clients) {
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  Clock::time_point begin = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&] {
      Result<serve::HttpClient> client =
          serve::HttpClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failed.store(true);
        return;
      }
      for (;;) {
        size_t i = next.fetch_add(1);
        if (i >= targets.size()) return;
        Result<serve::HttpResponse> response =
            client->RoundTrip("GET", targets[i]);
        if (!response.ok() || response->status != 200) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  if (failed.load()) {
    std::fprintf(stderr, "concurrent point run failed\n");
    std::exit(1);
  }
  return targets.size() / Seconds(begin, Clock::now());
}

/// The same user lookups coalesced into POST /v1/batch bodies of
/// `batch_size`; returns lookups (not HTTP requests) per second.
double RunBatch(int port, const std::vector<graph::UserId>& users,
                int batch_size) {
  Result<serve::HttpClient> client = serve::HttpClient::Connect("127.0.0.1", port);
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    std::exit(1);
  }
  Clock::time_point begin = Clock::now();
  size_t done = 0;
  while (done < users.size()) {
    size_t end = std::min(users.size(), done + batch_size);
    std::string body = "{\"users\":[";
    for (size_t i = done; i < end; ++i) {
      if (i > done) body += ',';
      body += std::to_string(users[i]);
    }
    body += "]}";
    Result<serve::HttpResponse> response =
        client->RoundTrip("POST", "/v1/batch", body);
    if (!response.ok() || response->status != 200) {
      std::fprintf(stderr, "batch failed\n");
      std::exit(1);
    }
    done = end;
  }
  return users.size() / Seconds(begin, Clock::now());
}

}  // namespace

int main() {
  const int num_users = static_cast<int>(EnvInt("MLP_BENCH_SERVE_USERS", 600));
  const int num_queries =
      static_cast<int>(EnvInt("MLP_BENCH_SERVE_QUERIES", 2000));
  const uint64_t seed = static_cast<uint64_t>(EnvInt("MLP_BENCH_SEED", 20120827));

  std::printf("bench_serving_latency: %d users, %d queries per mode\n",
              num_users, num_queries);
  synth::WorldConfig world_config;
  world_config.num_users = num_users;
  world_config.seed = seed;
  Result<synth::SyntheticWorld> world = synth::GenerateWorld(world_config);
  if (!world.ok()) {
    std::fprintf(stderr, "world generation failed\n");
    return 1;
  }

  core::ModelInput input;
  input.gazetteer = world->gazetteer.get();
  input.graph = world->graph.get();
  input.distances = world->distances.get();
  auto referents = world->vocab->ReferentTable();
  input.venue_referents = &referents;
  for (graph::UserId u = 0; u < world->graph->num_users(); ++u) {
    input.observed_home.push_back(world->graph->user(u).registered_city);
  }

  core::MlpConfig fit_config;
  fit_config.burn_in_iterations = 4;
  fit_config.sampling_iterations = 4;
  fit_config.seed = seed;
  core::FitCheckpoint checkpoint;
  core::FitOptions fit_options;
  fit_options.checkpoint_out = &checkpoint;
  Clock::time_point fit_begin = Clock::now();
  Result<core::MlpResult> result =
      core::MlpModel(fit_config).Fit(input, fit_options);
  if (!result.ok()) {
    std::fprintf(stderr, "fit failed\n");
    return 1;
  }
  std::printf("fit done in %.1fs\n", Seconds(fit_begin, Clock::now()));
  io::ModelSnapshot snapshot = io::MakeModelSnapshot(input, checkpoint, *result);

  // Query mix: uniform random users (and the /v1/user targets derived
  // from them), identical across thread counts and modes.
  Pcg32 rng(seed);
  std::vector<graph::UserId> query_users(num_queries);
  std::vector<std::string> targets(num_queries);
  for (int i = 0; i < num_queries; ++i) {
    query_users[i] = static_cast<graph::UserId>(
        rng.UniformU32(world->graph->num_users()));
    targets[i] = "/v1/user/" + std::to_string(query_users[i]);
  }

  bench::BenchJson json;
  json.Set("bench", std::string("serving_latency"));
  json.Set("users", static_cast<int64_t>(num_users));
  json.Set("queries", static_cast<int64_t>(num_queries));
  json.Set("batch_size", static_cast<int64_t>(64));

  io::TablePrinter table({"threads", "point QPS", "p50 ms", "p99 ms",
                          "conc QPS", "batch QPS", "batch/point"});
  double point_qps_8 = 0.0, batch_qps_8 = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    Result<serve::ReadModel> model = serve::ReadModel::Build(
        snapshot, *world->graph, world->gazetteer.get());
    if (!model.ok()) {
      std::fprintf(stderr, "read model build failed\n");
      return 1;
    }
    serve::ServeOptions options;
    options.port = 0;  // ephemeral
    options.threads = threads;
    serve::ModelServer server(std::move(*model), options);
    if (!server.Start().ok()) {
      std::fprintf(stderr, "server start failed\n");
      return 1;
    }
    const int port = server.port();

    PointRun point = RunSequentialPoint(port, targets);
    double concurrent_qps = RunConcurrentPoint(port, targets, threads);
    double batch_qps = RunBatch(port, query_users, 64);
    server.Stop();

    double speedup = point.qps > 0.0 ? batch_qps / point.qps : 0.0;
    table.AddRow({std::to_string(threads),
                  StringPrintf("%.0f", point.qps),
                  StringPrintf("%.3f", point.p50_ms),
                  StringPrintf("%.3f", point.p99_ms),
                  StringPrintf("%.0f", concurrent_qps),
                  StringPrintf("%.0f", batch_qps),
                  StringPrintf("%.1fx", speedup)});
    std::string prefix = "threads_" + std::to_string(threads) + "_";
    json.Set(prefix + "point_qps", point.qps);
    json.Set(prefix + "point_p50_ms", point.p50_ms);
    json.Set(prefix + "point_p99_ms", point.p99_ms);
    json.Set(prefix + "concurrent_qps", concurrent_qps);
    json.Set(prefix + "batch_qps", batch_qps);
    json.Set(prefix + "batch_speedup", speedup);
    if (threads == 8) {
      point_qps_8 = point.qps;
      batch_qps_8 = batch_qps;
    }
  }
  table.Print();

  const double speedup_8 =
      point_qps_8 > 0.0 ? batch_qps_8 / point_qps_8 : 0.0;
  json.Set("batch_speedup_at_8_threads", speedup_8);
  std::printf("batch endpoint speedup at 8 threads: %.1fx %s\n", speedup_8,
              speedup_8 >= 3.0 ? "(meets >=3x acceptance)"
                               : "(BELOW 3x acceptance)");
  json.WriteTo(bench::BenchJsonPath("BENCH_serving.json"));
  return speedup_8 >= 3.0 ? 0 : 1;
}
