// Sweep-throughput scaling of the parallel sharded Gibbs engine
// (src/engine/): relationships resampled per second at 1/2/4/8 threads on
// a generated 50k-user world. The 1-thread row is the exact sequential
// sampler; multi-thread rows run the work-queue engine (alias-MH following
// kernel, exact tweeting kernel, measured-cost scheduling, single-barrier
// merge+refresh), so the speedup measures the whole pipeline including
// the sync barrier.
//
// Besides throughput, each row reports:
//   - threads_N_shard_kernel_max_over_mean: per-sweep max/mean of worker
//     busy time (kernel + fold), averaged over the timed sweeps. 1.0 is a
//     perfectly balanced schedule; the gate watches this so the EWMA
//     scheduler cannot silently decay into one hot thread.
//   - threads_N_acc_100mi_pct (+ _delta vs the 1-thread row): Table-2-style
//     ACC@100mi of MAP homes against the synthetic ground truth, same
//     sweep budget per row. The engine samples a different chain than
//     the sequential path, so the delta key is the "unchanged accuracy"
//     acceptance criterion in measurable form.
//   - hardware_threads: std::thread::hardware_concurrency() of the machine
//     that produced the JSON, so the compare gate can condition its
//     speedup floors on real cores being present.
//
// MLP_BENCH_SCALING_USERS overrides the world size (e.g. for quick runs
// on small machines); MLP_BENCH_SEED overrides the seed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "core/pow_table.h"
#include "core/priors.h"
#include "core/random_models.h"
#include "core/sampler.h"
#include "engine/parallel_gibbs.h"
#include "eval/metrics.h"
#include "io/table_printer.h"
#include "common/string_util.h"
#include "obs/fit_profile.h"
#include "obs/metrics.h"
#include "synth/world_generator.h"

namespace {

using namespace mlp;

long long EnvOr(const char* name, long long fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoll(value) : fallback;
}

// MAP home per user from the merged counts: argmax_l (ϕ_u(l) + γ_u(l)).
// Deliberately the same read for every thread count so the accuracy keys
// compare chains, not estimators.
std::vector<geo::CityId> MapHomes(const core::GibbsSampler& sampler,
                                  const core::CandidateSpace& space) {
  const core::SuffStatsArena& stats = sampler.stats();
  const core::SuffStatsLayout& layout = sampler.layout();
  std::vector<geo::CityId> homes(layout.num_users, geo::kInvalidCity);
  for (graph::UserId u = 0; u < layout.num_users; ++u) {
    const core::CandidateView& view = space.view(u);
    const double* phi_u = stats.phi_row(u);
    double best = -1.0;
    for (int l = 0; l < view.count; ++l) {
      const double score = phi_u[l] + view.gamma[l];
      if (score > best) {
        best = score;
        homes[u] = view.candidates[l];
      }
    }
  }
  return homes;
}

}  // namespace

int main() {
  synth::WorldConfig world_config;
  world_config.num_users =
      static_cast<int>(EnvOr("MLP_BENCH_SCALING_USERS", 50000));
  world_config.seed = static_cast<uint64_t>(EnvOr("MLP_BENCH_SEED", 20120827));

  std::printf("generating %d-user world...\n", world_config.num_users);
  Result<synth::SyntheticWorld> world = synth::GenerateWorld(world_config);
  if (!world.ok()) {
    std::fprintf(stderr, "world generation failed: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }

  core::ModelInput input;
  input.gazetteer = world->gazetteer.get();
  input.graph = world->graph.get();
  input.distances = world->distances.get();
  std::vector<std::vector<geo::CityId>> referents =
      world->vocab->ReferentTable();
  input.venue_referents = &referents;
  input.observed_home.reserve(world->graph->num_users());
  for (graph::UserId u = 0; u < world->graph->num_users(); ++u) {
    input.observed_home.push_back(world->graph->user(u).registered_city);
  }

  std::vector<geo::CityId> true_homes;
  std::vector<graph::UserId> all_users;
  true_homes.reserve(world->truth.profiles.size());
  all_users.reserve(world->truth.profiles.size());
  for (graph::UserId u = 0; u < world->graph->num_users(); ++u) {
    true_homes.push_back(world->truth.profiles[u].home());
    all_users.push_back(u);
  }

  const long long relationships_per_sweep =
      static_cast<long long>(input.graph->num_following()) +
      input.graph->num_tweeting();
  std::printf("%d users, %d following, %d tweeting (%lld relationships/sweep)\n",
              input.graph->num_users(), input.graph->num_following(),
              input.graph->num_tweeting(), relationships_per_sweep);

  core::MlpConfig base_config;
  core::RandomModels random_models = core::RandomModels::Learn(*input.graph);
  core::PowTable pow_table(input.distances, base_config.alpha,
                           base_config.distance_floor_miles);

  const int warmup_sweeps = 2;
  const int timed_sweeps = 5;
  io::TablePrinter table({"threads", "sweep ms", "relationships/sec",
                          "speedup", "busy max/mean", "acc@100mi"});
  bench::BenchJson json;
  json.Set("bench", std::string("parallel_scaling"));
  json.Set("users", static_cast<int64_t>(input.graph->num_users()));
  json.Set("relationships_per_sweep",
           static_cast<int64_t>(relationships_per_sweep));
  json.Set("seed", static_cast<int64_t>(world_config.seed));
  json.Set("timed_sweeps", static_cast<int64_t>(timed_sweeps));
  json.Set("hardware_threads",
           static_cast<int64_t>(std::thread::hardware_concurrency()));
  double base_rate = 0.0;
  double base_acc = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    core::MlpConfig config = base_config;
    config.num_threads = threads;
    // Fresh candidate space per row: each config's chain starts from the
    // same priors and the MAP-home read below sees only its own counts.
    core::CandidateSpace space = core::CandidateSpace::Build(input, config);
    core::GibbsSampler sampler(&input, &config, &space, &random_models,
                               &pow_table);
    engine::ParallelGibbsEngine engine(&sampler, &input, &config);
    Pcg32 rng(config.seed, 0x5bd1e995u);
    engine.Initialize(&rng);
    for (int it = 0; it < warmup_sweeps; ++it) engine.RunSweep(&rng);

    // Snapshot the phase counters around the timed loop: all four thread
    // configs run in one process against the same global registry, so the
    // per-config breakdown must come from diffs, not absolute values.
    const std::map<std::string, uint64_t> before =
        obs::Registry::Global().CounterValues();
    double imbalance_sum = 0.0;
    int imbalance_sweeps = 0;
    auto start = std::chrono::steady_clock::now();
    for (int it = 0; it < timed_sweeps; ++it) {
      engine.RunSweep(&rng);
      const std::vector<int64_t>& busy = engine.LastSweepThreadBusyNs();
      if (!busy.empty()) {
        const int64_t max_busy = *std::max_element(busy.begin(), busy.end());
        const double mean_busy =
            static_cast<double>(
                std::accumulate(busy.begin(), busy.end(), int64_t{0})) /
            static_cast<double>(busy.size());
        if (mean_busy > 0.0) {
          imbalance_sum += static_cast<double>(max_busy) / mean_busy;
          ++imbalance_sweeps;
        }
      }
    }
    auto elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    const obs::FitProfile profile = obs::ComputeFitProfile(
        before, obs::Registry::Global().CounterValues(), threads);

    double sweep_ms = elapsed / timed_sweeps * 1000.0;
    double rate = relationships_per_sweep * timed_sweeps / elapsed;
    if (threads == 1) base_rate = rate;
    // The sequential path has no per-worker busy vector; its schedule is
    // one thread by definition.
    const double imbalance =
        imbalance_sweeps > 0 ? imbalance_sum / imbalance_sweeps : 1.0;
    const double accuracy =
        100.0 * eval::AccuracyWithin(MapHomes(sampler, space), true_homes,
                                     all_users, *input.distances, 100.0);
    if (threads == 1) base_acc = accuracy;
    table.AddRow({std::to_string(threads), StringPrintf("%.1f", sweep_ms),
                  StringPrintf("%.0f", rate),
                  StringPrintf("%.2fx", base_rate > 0 ? rate / base_rate : 0),
                  StringPrintf("%.2f", imbalance),
                  StringPrintf("%.1f%%", accuracy)});
    const std::string prefix = "threads_" + std::to_string(threads);
    json.Set(prefix + "_sweep_ms", sweep_ms);
    json.Set(prefix + "_relationships_per_sec", rate);
    json.Set(prefix + "_speedup", base_rate > 0 ? rate / base_rate : 0.0);
    json.Set(prefix + "_shard_kernel_max_over_mean", imbalance);
    json.Set(prefix + "_acc_100mi_pct", accuracy);
    json.Set(prefix + "_acc_delta_100mi_pct", accuracy - base_acc);
    // Per-phase wall-clock-equivalent breakdown (the "why" behind the
    // speedup number): phase names from the profile, per timed sweep.
    for (const obs::PhaseRow& row : profile.rows) {
      if (row.counter == "-") continue;  // skip the unattributed remainder
      std::string key = row.counter;     // e.g. fit_shard_kernel_ns
      if (key.rfind("fit_", 0) == 0) key = key.substr(4);
      if (key.size() > 3 && key.compare(key.size() - 3, 3, "_ns") == 0) {
        key.resize(key.size() - 3);
      }
      json.Set(prefix + "_phase_" + key + "_ms", row.wall_ms / timed_sweeps);
    }
  }
  table.Print();
  std::printf("phase breakdown (wall-ms/sweep) written alongside the\n"
              "scaling rows in BENCH_parallel.json\n");
  json.WriteTo(bench::BenchJsonPath("BENCH_parallel.json"));
  std::printf(
      "note: speedup requires real cores; inside a 1-core container the\n"
      "multi-thread rows only measure sharding + barrier overhead.\n");
  return 0;
}
