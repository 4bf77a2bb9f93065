// Micro-benchmarks (google-benchmark) for the hot paths: geo math, alias
// sampling, the d^alpha table, venue extraction, power-law fitting, full
// Gibbs sweeps (exact, and a two-worker engine sweep), and the
// serve-section render (one double, one 5k-user ReadModel::Build). After
// the benchmark suite, main() runs the observability overhead guard:
// instrumented (obs enabled) vs. short-circuited (obs disabled) sweeps must
// agree within 2% — the src/obs/ overhead budget, enforced here so a
// regression fails the bench job instead of silently taxing every fit.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "core/model.h"
#include "core/pair_distance.h"
#include "core/pow_table.h"
#include "core/priors.h"
#include "core/random_models.h"
#include "core/sampler.h"
#include "engine/parallel_gibbs.h"
#include "eval/cross_validation.h"
#include "geo/gazetteer.h"
#include "geo/grid_index.h"
#include "io/model_snapshot.h"
#include "obs/trace.h"
#include "serve/http_server.h"
#include "serve/json.h"
#include "serve/model_server.h"
#include "serve/read_model.h"
#include "stats/alias_table.h"
#include "synth/world_generator.h"
#include "text/venue_extractor.h"

namespace {

using namespace mlp;

const geo::Gazetteer& Gaz() {
  static geo::Gazetteer gaz = geo::Gazetteer::FromEmbedded();
  return gaz;
}

const geo::CityDistanceMatrix& Distances() {
  static geo::CityDistanceMatrix dist(Gaz(), 1.0);
  return dist;
}

void BM_Haversine(benchmark::State& state) {
  geo::LatLon a{34.05, -118.24}, b{40.71, -74.01};
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::HaversineMiles(a, b));
    b.lat += 1e-9;  // defeat CSE
  }
}
BENCHMARK(BM_Haversine);

void BM_DistanceMatrixLookup(benchmark::State& state) {
  const geo::CityDistanceMatrix& dist = Distances();
  Pcg32 rng(1);
  int n = dist.size();
  for (auto _ : state) {
    geo::CityId a = static_cast<geo::CityId>(rng.UniformU32(n));
    geo::CityId b = static_cast<geo::CityId>(rng.UniformU32(n));
    benchmark::DoNotOptimize(dist.miles(a, b));
  }
}
BENCHMARK(BM_DistanceMatrixLookup);

void BM_PowTableBuild(benchmark::State& state) {
  for (auto _ : state) {
    core::PowTable table(&Distances(), -0.55);
    benchmark::DoNotOptimize(table.Get(0, 1));
  }
}
BENCHMARK(BM_PowTableBuild);

void BM_AliasTableSample(benchmark::State& state) {
  stats::AliasTable table(Gaz().PopulationWeights());
  Pcg32 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(&rng));
  }
}
BENCHMARK(BM_AliasTableSample);

void BM_GridIndexRadiusQuery(benchmark::State& state) {
  geo::CityGridIndex index(&Gaz());
  geo::LatLon center{34.05, -118.24};
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.WithinMiles(center, state.range(0)));
  }
}
BENCHMARK(BM_GridIndexRadiusQuery)->Arg(50)->Arg(200);

void BM_VenueExtraction(benchmark::State& state) {
  static text::VenueVocabulary vocab = text::VenueVocabulary::Build(Gaz());
  text::VenueExtractor extractor(&vocab);
  std::string tweet =
      "flying from los angeles to austin for sxsw, then new york!";
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.ExtractIds(tweet));
  }
}
BENCHMARK(BM_VenueExtraction);

void BM_PowerLawFit(benchmark::State& state) {
  std::vector<stats::CurvePoint> points;
  stats::PowerLaw truth{-0.55, 0.0045};
  for (double d = 1.0; d < 3000.0; d *= 1.1) {
    points.push_back({d, truth(d), d});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::FitPowerLaw(points));
  }
}
BENCHMARK(BM_PowerLawFit);

void BM_WorldGeneration(benchmark::State& state) {
  for (auto _ : state) {
    synth::WorldConfig config;
    config.num_users = static_cast<int>(state.range(0));
    config.seed = 11;
    auto world = synth::GenerateWorld(config);
    benchmark::DoNotOptimize(world.ok());
  }
}
BENCHMARK(BM_WorldGeneration)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_PairDistanceHistogram(benchmark::State& state) {
  synth::WorldConfig config;
  config.num_users = 2000;
  config.seed = 13;
  static auto world = std::move(synth::GenerateWorld(config).ValueOrDie());
  static auto homes = eval::RegisteredHomes(*world.graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::PairDistanceHistogram(homes, *world.distances, 1.0, 3000));
  }
}
BENCHMARK(BM_PairDistanceHistogram)->Unit(benchmark::kMillisecond);

/// One full Gibbs sweep over a 1000-user world (following + tweeting).
void BM_GibbsSweep(benchmark::State& state) {
  synth::WorldConfig config;
  config.num_users = 1000;
  config.seed = 17;
  static auto world = std::move(synth::GenerateWorld(config).ValueOrDie());
  static auto referents = world.vocab->ReferentTable();
  static core::ModelInput input = [] {
    core::ModelInput in;
    in.gazetteer = world.gazetteer.get();
    in.graph = world.graph.get();
    in.distances = world.distances.get();
    in.venue_referents = &referents;
    in.observed_home = eval::RegisteredHomes(*world.graph);
    return in;
  }();
  static core::MlpConfig model_config;
  static auto space = core::CandidateSpace::Build(input, model_config);
  static auto random_models = core::RandomModels::Learn(*world.graph);
  static core::PowTable pow_table(world.distances.get(), -0.55);
  core::GibbsSampler sampler(&input, &model_config, &space, &random_models,
                             &pow_table);
  Pcg32 rng(23);
  sampler.Initialize(&rng);
  for (auto _ : state) {
    sampler.RunSweep(&rng);
  }
  state.SetItemsProcessed(state.iterations() *
                          (world.graph->num_following() +
                           world.graph->num_tweeting()));
}
BENCHMARK(BM_GibbsSweep)->Unit(benchmark::kMillisecond);

/// One W=2 ParallelGibbsEngine::RunSweep on the 5k-user paper world: the
/// alias-MH following kernel, the exact tweeting kernel, and the per-sweep
/// proposal rebuild, fold and merge that a two-worker fit pays. Rate counters use wall-clock time, since the
/// workers, not the calling thread, do the work.
void BM_EngineSweepW2(benchmark::State& state) {
  static synth::WorldConfig world_config = [] {
    synth::WorldConfig config = bench::BenchWorldConfig();
    config.num_users = 5000;
    return config;
  }();
  static auto world =
      std::move(synth::GenerateWorld(world_config).ValueOrDie());
  static auto referents = world.vocab->ReferentTable();
  static core::ModelInput input = [] {
    core::ModelInput in;
    in.gazetteer = world.gazetteer.get();
    in.graph = world.graph.get();
    in.distances = world.distances.get();
    in.venue_referents = &referents;
    in.observed_home = eval::RegisteredHomes(*world.graph);
    return in;
  }();
  static core::MlpConfig model_config = [] {
    core::MlpConfig config = bench::BenchMlpConfig();
    config.num_threads = 2;
    return config;
  }();
  core::CandidateSpace space = core::CandidateSpace::Build(input, model_config);
  const core::RandomModels random_models =
      core::RandomModels::Learn(*world.graph);
  const core::PowTable pow_table(world.distances.get(), model_config.alpha);
  core::GibbsSampler sampler(&input, &model_config, &space, &random_models,
                             &pow_table);
  engine::ParallelGibbsEngine engine(&sampler, &input, &model_config, &space);
  Pcg32 rng(model_config.seed);
  engine.Initialize(&rng);
  engine.RunSweep(&rng);  // warm: replicas, proposal rows, pool threads
  for (auto _ : state) {
    engine.RunSweep(&rng);
    benchmark::DoNotOptimize(sampler.stats().phi.data());
  }
  const double relationships = static_cast<double>(
      world.graph->num_following() + world.graph->num_tweeting());
  state.counters["relationships_per_s"] = benchmark::Counter(
      relationships * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineSweepW2)->Unit(benchmark::kMillisecond)->UseRealTime();

/// One served double: the posterior-shaped values the read model renders
/// (count ratios, uniform probabilities, exp(-x) tails), cycled.
void BM_JsonDouble(benchmark::State& state) {
  Pcg32 rng(37);
  std::vector<double> values;
  for (int i = 0; i < 4096; ++i) {
    const uint32_t n = 1 + rng.NextU32() % 1000;
    values.push_back(static_cast<double>(rng.NextU32() % (n + 1)) / n);
    values.push_back(rng.NextDouble());
    values.push_back(std::exp(-rng.NextDouble() * 50.0));
  }
  std::string out;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    serve::AppendJsonDouble(&out, values[i]);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    if (++i == values.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JsonDouble);

/// ReadModel::Build (profiles, edge explanations and the rendered JSON
/// blobs) on a fitted 5k-user world — the render `mlpctl pack` and every
/// live-ingest batch pay.
void BM_ReadModelBuild(benchmark::State& state) {
  synth::WorldConfig config;
  config.num_users = 5000;
  config.seed = 47;
  static auto world = std::move(synth::GenerateWorld(config).ValueOrDie());
  static io::ModelSnapshot snapshot = [] {
    auto referents = world.vocab->ReferentTable();
    core::ModelInput input;
    input.gazetteer = world.gazetteer.get();
    input.graph = world.graph.get();
    input.distances = world.distances.get();
    input.venue_referents = &referents;
    input.observed_home = eval::RegisteredHomes(*world.graph);
    core::MlpConfig fit_config;
    fit_config.burn_in_iterations = 2;
    fit_config.sampling_iterations = 2;
    fit_config.seed = 53;
    core::FitCheckpoint checkpoint;
    core::FitOptions fit_options;
    fit_options.checkpoint_out = &checkpoint;
    auto result = core::MlpModel(fit_config).Fit(input, fit_options);
    return io::MakeModelSnapshot(input, checkpoint, result.ValueOrDie());
  }();
  for (auto _ : state) {
    auto model = serve::ReadModel::Build(snapshot, *world.graph,
                                         world.gazetteer.get());
    benchmark::DoNotOptimize(model.ok());
  }
  state.counters["users"] = world.graph->num_users();
  state.counters["edges"] = world.graph->num_following();
}
BENCHMARK(BM_ReadModelBuild)->Unit(benchmark::kMillisecond);

// ---------------------------------------------- obs overhead guard (≤2%)

/// Measures sweep wall-clock with observability enabled vs. disabled
/// (obs::SetEnabled(false) short-circuits every span and clock read) and
/// fails hard when the instrumented sweeps are more than 2% slower.
/// Repetitions are interleaved and compared by their minima — the minimum
/// is the least noise-sensitive location statistic for "how fast can this
/// go", which is exactly what an overhead bound is about.
int RunObsOverheadGuard() {
  synth::WorldConfig config;
  config.num_users = 1000;
  config.seed = 29;
  auto world = std::move(synth::GenerateWorld(config).ValueOrDie());
  auto referents = world.vocab->ReferentTable();
  core::ModelInput input;
  input.gazetteer = world.gazetteer.get();
  input.graph = world.graph.get();
  input.distances = world.distances.get();
  input.venue_referents = &referents;
  input.observed_home = eval::RegisteredHomes(*world.graph);
  core::MlpConfig model_config;
  auto space = core::CandidateSpace::Build(input, model_config);
  auto random_models = core::RandomModels::Learn(*world.graph);
  core::PowTable pow_table(world.distances.get(), -0.55);
  core::GibbsSampler sampler(&input, &model_config, &space, &random_models,
                             &pow_table);
  Pcg32 rng(31);
  sampler.Initialize(&rng);

  constexpr int kRepetitions = 7;
  constexpr int kSweepsPerRep = 3;
  auto run_sweeps = [&](bool enabled) {
    obs::SetEnabled(enabled);
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kSweepsPerRep; ++i) sampler.RunSweep(&rng);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  run_sweeps(true);  // shared warmup (caches, branch predictors)
  double min_enabled = 1e30;
  double min_disabled = 1e30;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    min_enabled = std::min(min_enabled, run_sweeps(true));
    min_disabled = std::min(min_disabled, run_sweeps(false));
  }
  obs::SetEnabled(true);

  const double overhead =
      min_disabled > 0.0 ? (min_enabled / min_disabled - 1.0) * 100.0 : 0.0;
  std::printf(
      "obs_overhead_guard: instrumented %.3f ms vs short-circuited %.3f ms "
      "per %d sweeps -> %+.2f%% (budget +2%%)\n",
      min_enabled * 1000.0, min_disabled * 1000.0, kSweepsPerRep, overhead);
  if (overhead > 2.0) {
    std::fprintf(stderr,
                 "obs_overhead_guard FAILED: instrumentation overhead "
                 "%.2f%% exceeds the 2%% budget (src/obs/README.md)\n",
                 overhead);
    return 1;
  }
  std::printf("obs_overhead_guard OK\n");
  return 0;
}

// ------------------------- request-path overhead guard (≤2%, ISSUE 9)

/// Same contract for the per-request serving path: full HTTP round trips
/// (the unit the request-trace instrumentation taxes — socket read, parse,
/// route, render, write) against a live ModelServer, with request
/// tracing enabled vs. obs::SetEnabled(false). Minima of interleaved
/// repetitions, ≤2% budget. Uses a keep-alive connection and point
/// queries — pre-rendered substring copies, the fastest (worst-case
/// relative overhead) request shape.
int RunRequestTraceOverheadGuard() {
  synth::WorldConfig config;
  config.num_users = 300;
  config.seed = 41;
  auto world = std::move(synth::GenerateWorld(config).ValueOrDie());
  auto referents = world.vocab->ReferentTable();
  core::ModelInput input;
  input.gazetteer = world.gazetteer.get();
  input.graph = world.graph.get();
  input.distances = world.distances.get();
  input.venue_referents = &referents;
  input.observed_home = eval::RegisteredHomes(*world.graph);
  core::MlpConfig fit_config;
  fit_config.burn_in_iterations = 2;
  fit_config.sampling_iterations = 2;
  fit_config.seed = 43;
  core::FitCheckpoint checkpoint;
  core::FitOptions fit_options;
  fit_options.checkpoint_out = &checkpoint;
  auto result = core::MlpModel(fit_config).Fit(input, fit_options);
  if (!result.ok()) {
    std::fprintf(stderr, "request_trace_guard: fit failed\n");
    return 1;
  }
  io::ModelSnapshot snapshot =
      io::MakeModelSnapshot(input, checkpoint, *result);
  auto model = serve::ReadModel::Build(snapshot, *world.graph,
                                       world.gazetteer.get());
  if (!model.ok()) {
    std::fprintf(stderr, "request_trace_guard: read model build failed\n");
    return 1;
  }
  serve::ServeOptions options;
  options.port = 0;  // ephemeral
  options.threads = 2;
  serve::ModelServer server(std::move(*model), options);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "request_trace_guard: server start failed\n");
    return 1;
  }
  auto client = serve::HttpClient::Connect("127.0.0.1", server.port());
  if (!client.ok()) {
    std::fprintf(stderr, "request_trace_guard: connect failed\n");
    return 1;
  }
  std::vector<std::string> targets;
  for (int u = 0; u < 64; ++u) {
    targets.push_back("/v1/user/" + std::to_string(u));
  }

  constexpr int kRepetitions = 7;
  constexpr int kRequestsPerRep = 400;
  bool failed = false;
  auto run_requests = [&](bool enabled) {
    obs::SetEnabled(enabled);
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kRequestsPerRep; ++i) {
      auto response =
          client->RoundTrip("GET", targets[i % targets.size()]);
      if (!response.ok() || response->status != 200) failed = true;
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  run_requests(true);  // shared warmup (connection, predictors)
  double min_enabled = 1e30;
  double min_disabled = 1e30;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    min_enabled = std::min(min_enabled, run_requests(true));
    min_disabled = std::min(min_disabled, run_requests(false));
  }
  obs::SetEnabled(true);
  server.Stop();
  if (failed) {
    std::fprintf(stderr, "request_trace_guard: request failed\n");
    return 1;
  }

  const double overhead =
      min_disabled > 0.0 ? (min_enabled / min_disabled - 1.0) * 100.0 : 0.0;
  std::printf(
      "request_trace_overhead_guard: traced %.3f ms vs short-circuited "
      "%.3f ms per %d requests -> %+.2f%% (budget +2%%)\n",
      min_enabled * 1000.0, min_disabled * 1000.0, kRequestsPerRep, overhead);
  if (overhead > 2.0) {
    std::fprintf(stderr,
                 "request_trace_overhead_guard FAILED: per-request tracing "
                 "overhead %.2f%% exceeds the 2%% budget "
                 "(src/obs/README.md)\n",
                 overhead);
    return 1;
  }
  std::printf("request_trace_overhead_guard OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  int rc = RunObsOverheadGuard();
  rc |= RunRequestTraceOverheadGuard();
  return rc;
}
