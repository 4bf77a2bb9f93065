// Adaptive candidate pruning end to end (ISSUE 3 / ROADMAP "candidate-set
// pruning"): runs the full sweep program twice on the paper-calibrated
// power-law world — once with pruning off (the exact pre-pruning chain)
// and once with the default floor — and reports
//   - end-to-end sweep-loop wall time and the speedup,
//   - the surviving active-candidate fraction,
//   - Table-2 home-prediction accuracy (ACC@100 / ACC@20 on held-out
//     users) for both runs and their delta (the "AAD delta" at the Fig-4
//     100/20-mile points).
// Results are also written as machine-readable BENCH_pruning.json so CI
// can archive the perf trajectory PR-over-PR.
//
// Env overrides: MLP_BENCH_PRUNE_USERS (default 4000), MLP_BENCH_SEED,
// MLP_BENCH_PRUNE_FLOOR (default eval::kDefaultPruneFloor),
// MLP_BENCH_PRUNE_PATIENCE (default 3), MLP_BENCH_JSON_DIR (default ".").

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/candidate_space.h"
#include "core/pow_table.h"
#include "core/random_models.h"
#include "core/sampler.h"
#include "engine/parallel_gibbs.h"
#include "eval/cross_validation.h"
#include "eval/methods.h"
#include "eval/metrics.h"
#include "io/table_printer.h"
#include "synth/world_generator.h"

namespace {

using namespace mlp;

long long EnvOr(const char* name, long long fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoll(value) : fallback;
}

double EnvOrDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atof(value) : fallback;
}

struct RunOutcome {
  double sweep_seconds = 0.0;      // sweep-loop wall time, whole program
  double active_fraction = 1.0;    // after the final barrier
  uint64_t layout_version = 0;
  int64_t deactivated = 0;
  double acc100 = 0.0;
  double acc20 = 0.0;
};

// Drives the same burn-in + sampling program core::MlpModel::Fit runs
// (without Gibbs-EM), through the engine so the pruning barrier is live,
// and times ONLY the sweep loop — world generation and scoring excluded.
RunOutcome RunProgram(const core::ModelInput& input,
                      const core::MlpConfig& config,
                      const std::vector<geo::CityId>& registered,
                      const std::vector<graph::UserId>& test_users,
                      const geo::CityDistanceMatrix& distances) {
  core::CandidateSpace space = core::CandidateSpace::Build(input, config);
  core::RandomModels random_models = core::RandomModels::Learn(*input.graph);
  core::PowTable pow_table(input.distances, config.alpha,
                           config.distance_floor_miles);
  core::GibbsSampler sampler(&input, &config, &space, &random_models,
                             &pow_table);
  engine::ParallelGibbsEngine engine(&sampler, &input, &config, &space);
  Pcg32 rng(config.seed, 0x5bd1e995u);
  engine.Initialize(&rng);

  auto start = std::chrono::steady_clock::now();
  int sweep = 0;
  for (int it = 0; it < config.burn_in_iterations; ++it) {
    engine.RunSweep(&rng);
    engine.MaybePrune(++sweep);
  }
  sampler.ResetAccumulators();
  for (int it = 0; it < config.sampling_iterations; ++it) {
    engine.RunSweep(&rng);
    sampler.AccumulateSample();
    ++sweep;
  }
  RunOutcome outcome;
  outcome.sweep_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  outcome.active_fraction = space.ActiveFraction();
  outcome.layout_version = space.layout_version();
  for (const core::PruneEvent& event : space.history()) {
    outcome.deactivated += event.deactivated;
  }

  core::MlpResult result = sampler.BuildResult();
  outcome.acc100 = eval::AccuracyWithin(result.home, registered, test_users,
                                        distances, 100.0);
  outcome.acc20 = eval::AccuracyWithin(result.home, registered, test_users,
                                       distances, 20.0);
  return outcome;
}

}  // namespace

int main() {
  synth::WorldConfig world_config = bench::BenchWorldConfig();
  world_config.num_users = static_cast<int>(
      EnvOr("MLP_BENCH_PRUNE_USERS", world_config.num_users));

  std::printf("generating %d-user power-law world...\n",
              world_config.num_users);
  Result<synth::SyntheticWorld> world = synth::GenerateWorld(world_config);
  if (!world.ok()) {
    std::fprintf(stderr, "world generation failed: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }

  std::vector<std::vector<geo::CityId>> referents =
      world->vocab->ReferentTable();
  std::vector<geo::CityId> registered = eval::RegisteredHomes(*world->graph);
  eval::FoldAssignment folds = eval::MakeKFolds(registered, 5, 17);

  core::ModelInput input;
  input.gazetteer = world->gazetteer.get();
  input.graph = world->graph.get();
  input.distances = world->distances.get();
  input.venue_referents = &referents;
  input.observed_home = folds.MaskedHomes(registered, 0);
  std::vector<graph::UserId> test_users = folds.TestUsers(0);

  core::MlpConfig config = bench::BenchMlpConfig();
  const double floor =
      EnvOrDouble("MLP_BENCH_PRUNE_FLOOR", eval::kDefaultPruneFloor);
  const int patience =
      static_cast<int>(EnvOr("MLP_BENCH_PRUNE_PATIENCE", 3));

  std::printf("%d users, %d following, %d tweeting; floor=%g patience=%d\n",
              input.graph->num_users(), input.graph->num_following(),
              input.graph->num_tweeting(), floor, patience);

  core::MlpConfig base_config = config;
  base_config.prune_floor = 0.0;
  RunOutcome base =
      RunProgram(input, base_config, registered, test_users,
                 *world->distances);

  core::MlpConfig pruned_config = config;
  pruned_config.prune_floor = floor;
  pruned_config.prune_patience = patience;
  RunOutcome pruned =
      RunProgram(input, pruned_config, registered, test_users,
                 *world->distances);

  const double speedup =
      pruned.sweep_seconds > 0.0 ? base.sweep_seconds / pruned.sweep_seconds
                                 : 0.0;
  const double delta100 = (pruned.acc100 - base.acc100) * 100.0;
  const double delta20 = (pruned.acc20 - base.acc20) * 100.0;

  io::TablePrinter table(
      {"run", "sweep time s", "active frac", "ACC@100", "ACC@20"});
  table.AddRow({"no_prune", StringPrintf("%.2f", base.sweep_seconds),
                StringPrintf("%.3f", base.active_fraction),
                StringPrintf("%.2f%%", base.acc100 * 100.0),
                StringPrintf("%.2f%%", base.acc20 * 100.0)});
  table.AddRow({StringPrintf("floor=%g", floor),
                StringPrintf("%.2f", pruned.sweep_seconds),
                StringPrintf("%.3f", pruned.active_fraction),
                StringPrintf("%.2f%%", pruned.acc100 * 100.0),
                StringPrintf("%.2f%%", pruned.acc20 * 100.0)});
  table.Print();
  std::printf(
      "speedup %.2fx, %lld candidates deactivated over %llu compactions, "
      "AAD delta %.2f%% @100mi / %.2f%% @20mi\n",
      speedup, static_cast<long long>(pruned.deactivated),
      static_cast<unsigned long long>(pruned.layout_version), delta100,
      delta20);

  bench::BenchJson json;
  json.Set("bench", std::string("candidate_pruning"));
  json.Set("users", static_cast<int64_t>(input.graph->num_users()));
  json.Set("following", static_cast<int64_t>(input.graph->num_following()));
  json.Set("tweeting", static_cast<int64_t>(input.graph->num_tweeting()));
  json.Set("seed", static_cast<int64_t>(world_config.seed));
  json.Set("prune_floor", floor);
  json.Set("prune_patience", static_cast<int64_t>(patience));
  json.Set("sweep_seconds_base", base.sweep_seconds);
  json.Set("sweep_seconds_pruned", pruned.sweep_seconds);
  json.Set("speedup", speedup);
  json.Set("active_fraction", pruned.active_fraction);
  json.Set("deactivated", pruned.deactivated);
  json.Set("compactions", static_cast<int64_t>(pruned.layout_version));
  json.Set("acc100_base_pct", base.acc100 * 100.0);
  json.Set("acc100_pruned_pct", pruned.acc100 * 100.0);
  json.Set("acc20_base_pct", base.acc20 * 100.0);
  json.Set("acc20_pruned_pct", pruned.acc20 * 100.0);
  json.Set("aad_delta_100mi_pct", delta100);
  json.Set("aad_delta_20mi_pct", delta20);
  json.WriteTo(bench::BenchJsonPath("BENCH_pruning.json"));
  return 0;
}
