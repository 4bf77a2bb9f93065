#include "engine/parallel_gibbs.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/fit_profile.h"
#include "obs/trace.h"

namespace mlp {
namespace engine {

namespace {

// Following edges the sweep loop looks ahead when prefetching the rows the
// alias-MH kernel will read. Far enough to cover a DRAM miss behind the
// ~0.5 µs an edge's six proposals take; near enough that the lines are
// still cached when the kernel reaches the edge.
constexpr size_t kPrefetchEdges = 4;

// Phase counters resolved once; Registry handles are stable for the
// process lifetime, so the hot path never touches the registry mutex.
struct FitCounters {
  obs::Counter* sweeps;
  obs::Counter* sweep_ns;
  obs::Counter* replica_refresh_ns;
  obs::Counter* alias_rebuild_ns;
  obs::Counter* shard_kernel_ns;
  obs::Counter* delta_fold_ns;
  obs::Counter* barrier_wait_ns;
  obs::Counter* delta_merge_ns;
  obs::Counter* prune_ns;
  obs::Counter* rebalance_ns;
  obs::Counter* mh_proposed;
  obs::Counter* mh_accepted;
  obs::Gauge* mh_accept_ppm;
};

const FitCounters& Counters() {
  static const FitCounters counters = [] {
    obs::Registry& registry = obs::Registry::Global();
    FitCounters c;
    c.sweeps = registry.GetCounter(obs::kFitSweepsTotal);
    c.sweep_ns = registry.GetCounter(obs::kFitSweepNs);
    c.replica_refresh_ns = registry.GetCounter(obs::kFitReplicaRefreshNs);
    c.alias_rebuild_ns = registry.GetCounter(obs::kFitAliasRebuildNs);
    c.shard_kernel_ns = registry.GetCounter(obs::kFitShardKernelNs);
    c.delta_fold_ns = registry.GetCounter(obs::kFitDeltaFoldNs);
    c.barrier_wait_ns = registry.GetCounter(obs::kFitBarrierWaitNs);
    c.delta_merge_ns = registry.GetCounter(obs::kFitDeltaMergeNs);
    c.prune_ns = registry.GetCounter(obs::kFitPruneNs);
    c.rebalance_ns = registry.GetCounter(obs::kFitRebalanceNs);
    c.mh_proposed = registry.GetCounter(obs::kFitMhProposedTotal);
    c.mh_accepted = registry.GetCounter(obs::kFitMhAcceptedTotal);
    c.mh_accept_ppm = registry.GetGauge(obs::kFitMhAcceptPpm);
    return c;
  }();
  return counters;
}

// Region r's half-open slice of a flat buffer of n elements, for T regions.
inline int64_t SliceBegin(int64_t n, int r, int regions) {
  return n * r / regions;
}

}  // namespace

ParallelGibbsEngine::ParallelGibbsEngine(core::GibbsSampler* sampler,
                                         const core::ModelInput* input,
                                         const core::MlpConfig* config,
                                         core::CandidateSpace* space)
    : sampler_(sampler),
      input_(input),
      config_(config),
      space_(space),
      num_threads_(std::max(1, config->num_threads)) {
  MLP_CHECK(sampler_ != nullptr && input_ != nullptr && config_ != nullptr);
  if (num_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
    const int num_sub = num_threads_ * kSubShardsPerThread;
    shards_ = GraphSharder::Partition(*input_->graph, num_sub);
    shard_rngs_.reserve(num_sub);
    for (int k = 0; k < num_sub; ++k) {
      // Decorrelated per-sub-shard streams derived from the base seed:
      // distinct PCG increments give independent sequences, and the
      // derivation is a pure function of (seed, sub-shard), so a fixed
      // thread count replays the exact same chain regardless of
      // scheduling.
      shard_rngs_.emplace_back(
          config_->seed ^ (0x9e3779b97f4a7c15ULL * (k + 1)),
          0xda3e39cb94b95bdbULL + 2 * static_cast<uint64_t>(k));
    }
    replicas_.resize(num_threads_);
    delta_accs_.resize(num_threads_);
    scratches_.resize(num_threads_);
    proposal_scratches_.resize(num_threads_);
    RebuildTouchSets();
    ResetSchedule();
  }
}

void ParallelGibbsEngine::Initialize(Pcg32* rng) {
  sampler_->Initialize(rng);
  replicas_fresh_ = false;
  proposals_stale_ = true;
}

void ParallelGibbsEngine::RebuildTouchSets() {
  const graph::SocialGraph& graph = *input_->graph;
  const bool use_following = sampler_->UseFollowing();
  const bool use_tweeting = sampler_->UseTweeting();
  touch_users_.assign(shards_.size(), {});
  for (size_t k = 0; k < shards_.size(); ++k) {
    std::vector<graph::UserId>& touched = touch_users_[k];
    if (use_following) {
      for (graph::EdgeId s : shards_[k].following) {
        const graph::FollowingEdge& edge = graph.following(s);
        touched.push_back(edge.follower);
        touched.push_back(edge.friend_user);
      }
    }
    if (use_tweeting) {
      for (graph::EdgeId t : shards_[k].tweeting) {
        touched.push_back(graph.tweeting(t).user);
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  }
}

void ParallelGibbsEngine::ResetSchedule() {
  ewma_ns_.assign(shards_.size(), -1.0);
  order_.resize(shards_.size());
  for (size_t k = 0; k < order_.size(); ++k) order_[k] = static_cast<int>(k);
  // Until measurements arrive, the static edge-count weight is the best
  // available cost prior. stable_sort keeps ties in index order.
  std::stable_sort(order_.begin(), order_.end(), [this](int a, int b) {
    return shards_[a].Weight() > shards_[b].Weight();
  });
}

void ParallelGibbsEngine::RefreshReplicas() {
  const core::SuffStatsLayout* layout = &sampler_->layout();
  for (int i = 0; i < num_threads_; ++i) {
    pool_->Submit([this, i, layout] {
      obs::ScopedSpan span(Counters().replica_refresh_ns, "replica_refresh");
      replicas_[i].CopyValuesFrom(sampler_->stats());
      delta_accs_[i].Reset(layout);
    });
  }
  pool_->Wait();
  replicas_fresh_ = true;
}

void ParallelGibbsEngine::RebuildProposals() {
  const core::CandidateSpace& space = sampler_->space();
  if (!proposals_.bound() ||
      proposals_.layout_version() != space.layout_version()) {
    proposals_.Bind(&space);
  }
  const int64_t num_users = space.num_users();
  for (int i = 0; i < num_threads_; ++i) {
    const graph::UserId begin =
        static_cast<graph::UserId>(SliceBegin(num_users, i, num_threads_));
    const graph::UserId end =
        static_cast<graph::UserId>(SliceBegin(num_users, i + 1, num_threads_));
    pool_->Submit([this, i, begin, end] {
      obs::ScopedSpan span(Counters().alias_rebuild_ns, "alias_rebuild");
      proposals_.RebuildRange(sampler_->stats(), begin, end,
                              &proposal_scratches_[i]);
    });
  }
  pool_->Wait();
  proposals_stale_ = false;
}

void ParallelGibbsEngine::FoldShardDelta(int sub_shard, int slot) {
  const core::SuffStatsArena& global = sampler_->stats();
  const core::SuffStatsLayout& layout = sampler_->layout();
  core::SuffStatsArena* replica = &replicas_[slot];
  core::SuffStatsArena* acc = &delta_accs_[slot];

  for (graph::UserId u : touch_users_[sub_shard]) {
    const int64_t begin = layout.phi_offset[u];
    const int64_t end = layout.phi_offset[u + 1];
    for (int64_t i = begin; i < end; ++i) {
      const double d = replica->phi[i] - global.phi[i];
      if (d != 0.0) {
        acc->phi[i] += d;
        replica->phi[i] = global.phi[i];
      }
    }
    const double dt = replica->phi_total[u] - global.phi_total[u];
    if (dt != 0.0) {
      acc->phi_total[u] += dt;
      replica->phi_total[u] = global.phi_total[u];
    }
  }

  // The venue rectangle is location×venue — far too wide to diff per
  // sub-shard — so the tweeting kernel logs exactly the cells it touched.
  // Duplicate log entries are harmless: after the first visit the replica
  // cell equals the global again and the diff is zero. Totals piggy-back on
  // the logged cells' locations the same way.
  core::GibbsScratch* scratch = &scratches_[slot];
  if (!scratch->venue_cells.empty()) {
    const int64_t num_venues = layout.num_venues;
    for (const int64_t cell : scratch->venue_cells) {
      const double d = replica->venue_counts[cell] - global.venue_counts[cell];
      if (d != 0.0) {
        acc->venue_counts[cell] += d;
        replica->venue_counts[cell] = global.venue_counts[cell];
      }
      const int32_t loc = static_cast<int32_t>(cell / num_venues);
      const double dt =
          replica->venue_counts_total[loc] - global.venue_counts_total[loc];
      if (dt != 0.0) {
        acc->venue_counts_total[loc] += dt;
        replica->venue_counts_total[loc] = global.venue_counts_total[loc];
      }
    }
    scratch->venue_cells.clear();
  }
}

void ParallelGibbsEngine::MergeAndRefresh() {
  core::SuffStatsArena* global = sampler_->mutable_stats();
  // One parallel pass, region-sliced: thread r owns slice r of every flat
  // buffer, merges all accumulators' slices into the global slice (zeroing
  // them), then copies the merged slice into every replica. Merge and
  // refresh overlap inside a single barrier, and each byte of the global
  // counts has exactly one writer. Accumulator deltas are integer-valued,
  // so the per-cell sums are exact regardless of which worker produced
  // which delta — the merged counts are schedule-independent.
  for (int r = 0; r < num_threads_; ++r) {
    pool_->Submit([this, global, r] {
      auto merge_slice = [](std::vector<double>* dst, std::vector<double>* acc,
                            int64_t begin, int64_t end) {
        double* d = dst->data();
        double* a = acc->data();
        for (int64_t i = begin; i < end; ++i) {
          d[i] += a[i];
          a[i] = 0.0;
        }
      };
      auto copy_slice = [](const std::vector<double>& src,
                           std::vector<double>* dst, int64_t begin,
                           int64_t end) {
        std::copy(src.begin() + begin, src.begin() + end,
                  dst->begin() + begin);
      };
      const int64_t phi_b = SliceBegin(global->phi.size(), r, num_threads_);
      const int64_t phi_e = SliceBegin(global->phi.size(), r + 1, num_threads_);
      const int64_t tot_b =
          SliceBegin(global->phi_total.size(), r, num_threads_);
      const int64_t tot_e =
          SliceBegin(global->phi_total.size(), r + 1, num_threads_);
      const int64_t ven_b =
          SliceBegin(global->venue_counts.size(), r, num_threads_);
      const int64_t ven_e =
          SliceBegin(global->venue_counts.size(), r + 1, num_threads_);
      const int64_t vtot_b =
          SliceBegin(global->venue_counts_total.size(), r, num_threads_);
      const int64_t vtot_e =
          SliceBegin(global->venue_counts_total.size(), r + 1, num_threads_);
      {
        obs::ScopedSpan span(Counters().delta_merge_ns, "delta_merge");
        for (core::SuffStatsArena& acc : delta_accs_) {
          merge_slice(&global->phi, &acc.phi, phi_b, phi_e);
          merge_slice(&global->phi_total, &acc.phi_total, tot_b, tot_e);
          merge_slice(&global->venue_counts, &acc.venue_counts, ven_b, ven_e);
          merge_slice(&global->venue_counts_total, &acc.venue_counts_total,
                      vtot_b, vtot_e);
        }
      }
      {
        obs::ScopedSpan span(Counters().replica_refresh_ns, "replica_refresh");
        for (core::SuffStatsArena& replica : replicas_) {
          copy_slice(global->phi, &replica.phi, phi_b, phi_e);
          copy_slice(global->phi_total, &replica.phi_total, tot_b, tot_e);
          copy_slice(global->venue_counts, &replica.venue_counts, ven_b,
                     ven_e);
          copy_slice(global->venue_counts_total, &replica.venue_counts_total,
                     vtot_b, vtot_e);
        }
      }
    });
  }
  pool_->Wait();
  proposals_stale_ = true;  // rebuilt lazily from the just-merged counts
  // Timed separately (fit_trace_record_ns, inside the sampler): the sweep
  // trace diff is main-thread work that is easy to mistake for merge cost.
  sampler_->RecordSweepTrace();
}

void ParallelGibbsEngine::RunSweep(Pcg32* rng) {
  Counters().sweeps->Add(1);
  obs::ScopedSpan sweep_span(Counters().sweep_ns, "sweep");
  if (num_threads_ <= 1) {
    sampler_->RunSweep(rng);
    return;
  }
  const bool use_following = sampler_->UseFollowing();
  const bool use_tweeting = sampler_->UseTweeting();
  if (!replicas_fresh_) RefreshReplicas();
  // Only the following kernel draws from the proposal tables.
  if (proposals_stale_ && use_following) RebuildProposals();

  const int num_sub = static_cast<int>(shards_.size());
  sub_kernel_ns_.assign(num_sub, 0);
  thread_busy_ns_.assign(num_threads_, 0);
  const int64_t section_start_ns = obs::NowNs();
  // Work queue: sub-shards submitted heaviest-first (online LPT over the
  // measured EWMA costs); idle workers pull the next one. The fold after
  // each sub-shard reverts the worker's replica to the global counts, so
  // the assignment of sub-shards to workers is semantically neutral — only
  // the makespan depends on it.
  for (int idx = 0; idx < num_sub; ++idx) {
    const int k = order_[idx];
    pool_->Submit([this, k, use_following, use_tweeting] {
      const int slot = ThreadPool::CurrentWorkerIndex();
      const int64_t kernel_start_ns = obs::NowNs();
      const Shard& shard = shards_[k];
      core::SuffStatsArena* replica = &replicas_[slot];
      core::GibbsScratch* scratch = &scratches_[slot];
      Pcg32* shard_rng = &shard_rngs_[k];
      if (use_following) {
        // Each edge's kernel reads the follower's and the friend's proposal
        // rows and replica ϕ rows; the friend is a random user. Request
        // them a few edges early so the misses overlap the kernel work in
        // between.
        const graph::SocialGraph& graph = *input_->graph;
        const std::vector<graph::EdgeId>& edges = shard.following;
        for (size_t e = 0; e < edges.size(); ++e) {
          if (e + kPrefetchEdges < edges.size()) {
            const graph::FollowingEdge& ahead =
                graph.following(edges[e + kPrefetchEdges]);
            __builtin_prefetch(proposals_.row(ahead.follower));
            __builtin_prefetch(proposals_.row(ahead.friend_user));
            __builtin_prefetch(replica->phi_row(ahead.follower));
            __builtin_prefetch(replica->phi_row(ahead.friend_user));
          }
          sampler_->SampleFollowingEdgeFast(edges[e], replica, scratch,
                                            shard_rng, proposals_);
        }
      }
      if (use_tweeting) {
        for (graph::EdgeId t : shard.tweeting) {
          sampler_->SampleTweetingEdge(t, replica, scratch, shard_rng);
        }
      }
      const int64_t kernel_ns = obs::EndSpan(Counters().shard_kernel_ns,
                                             "shard_kernel", kernel_start_ns);
      sub_kernel_ns_[k] = kernel_ns;
      const int64_t fold_start_ns = obs::NowNs();
      FoldShardDelta(k, slot);
      const int64_t fold_ns = obs::EndSpan(Counters().delta_fold_ns,
                                           "delta_fold", fold_start_ns);
      thread_busy_ns_[slot] += kernel_ns + fold_ns;
    });
  }
  pool_->Wait();
  if (obs::Enabled()) {
    // Barrier wait isn't directly observable per worker (the pool hands
    // idle threads the next task immediately); derive it as the idle
    // remainder of the parallel section: every thread spans the whole
    // section, so threads × section − Σ busy = total time threads spent
    // NOT running kernels or folds — queue latency plus the tail wait on
    // the last sub-shards.
    const int64_t section_ns = obs::NowNs() - section_start_ns;
    int64_t busy_sum_ns = 0;
    for (int64_t ns : thread_busy_ns_) busy_sum_ns += ns;
    const int64_t barrier_ns = num_threads_ * section_ns - busy_sum_ns;
    if (barrier_ns > 0) {
      Counters().barrier_wait_ns->Add(static_cast<uint64_t>(barrier_ns));
    }
    // Fold this sweep's alias-MH tallies (following edges only) from the
    // worker scratches (workers are quiesced at this point, so plain reads
    // are safe) and publish the acceptance rate as a gauge.
    int64_t proposed = 0;
    int64_t accepted = 0;
    for (core::GibbsScratch& scratch : scratches_) {
      proposed += scratch.mh_proposed;
      accepted += scratch.mh_accepted;
      scratch.mh_proposed = 0;
      scratch.mh_accepted = 0;
    }
    if (proposed > 0) {
      Counters().mh_proposed->Add(static_cast<uint64_t>(proposed));
      Counters().mh_accepted->Add(static_cast<uint64_t>(accepted));
      Counters().mh_accept_ppm->Set(accepted * 1000000 / proposed);
    }
  }
  // Fold this sweep's measurements into the cost model and re-derive the
  // submit order. Purely a scheduling signal: results are independent of
  // it, so feeding wall-clock noise back in cannot break determinism.
  for (int k = 0; k < num_sub; ++k) {
    const double measured = static_cast<double>(sub_kernel_ns_[k]);
    ewma_ns_[k] =
        ewma_ns_[k] < 0.0 ? measured : 0.7 * ewma_ns_[k] + 0.3 * measured;
  }
  std::stable_sort(order_.begin(), order_.end(), [this](int a, int b) {
    return ewma_ns_[a] > ewma_ns_[b];
  });

  MergeAndRefresh();
}

void ParallelGibbsEngine::ReshardByCost() {
  // Per-user cost = the exact update's inner-loop work over the ACTIVE
  // candidate rows. (The alias-MH following kernel is ~O(|cand_i|) per
  // edge, but the candidate-product measure still orders users correctly
  // and the EWMA feedback corrects the residual error within a few
  // sweeps.) Recomputed from scratch each compaction — pruning is rare and
  // the pass is linear in the edge lists.
  const graph::SocialGraph& graph = *input_->graph;
  shards_ = GraphSharder::Partition(
      graph, num_threads_ * kSubShardsPerThread,
      GraphSharder::CandidateProductCost(graph, *space_,
                                         sampler_->UseFollowing(),
                                         sampler_->UseTweeting()));
  RebuildTouchSets();
  ResetSchedule();
}

bool ParallelGibbsEngine::MaybePrune(int32_t sweep_index) {
  if (space_ == nullptr || config_->prune_floor <= 0.0) return false;
  bool pruned = false;
  {
    obs::ScopedSpan span(Counters().prune_ns, "prune");
    core::CompactionPlan plan;
    pruned = space_->PruneStep(sampler_->stats(), *config_, sweep_index, &plan);
    if (pruned) sampler_->ApplyCompaction(plan);
  }
  if (!pruned) return false;
  if (num_threads_ > 1) {
    // Replicas, accumulators and proposal tables are stale in both shape
    // and values; the next sweep's refresh re-binds them to the compacted
    // arena. Shard costs changed non-uniformly, so re-balance — timed as
    // its own phase (fit_rebalance_ns) so prune time means prune time.
    obs::ScopedSpan span(Counters().rebalance_ns, "rebalance");
    replicas_fresh_ = false;
    proposals_stale_ = true;
    ReshardByCost();
  }
  return true;
}

void ParallelGibbsEngine::OnActivationRestored() {
  if (space_ != nullptr && space_->layout_version() > 0 && num_threads_ > 1) {
    ReshardByCost();
  }
}

std::vector<Pcg32State> ParallelGibbsEngine::ShardRngStates() const {
  std::vector<Pcg32State> states;
  states.reserve(shard_rngs_.size());
  for (const Pcg32& rng : shard_rngs_) states.push_back(rng.SaveState());
  return states;
}

Status ParallelGibbsEngine::RestoreShardRngStates(
    const std::vector<Pcg32State>& states) {
  if (states.size() != shard_rngs_.size()) {
    return Status::InvalidArgument(
        "shard RNG state count does not match the engine's sub-shard "
        "streams");
  }
  for (size_t k = 0; k < states.size(); ++k) {
    shard_rngs_[k].RestoreState(states[k]);
  }
  replicas_fresh_ = false;
  proposals_stale_ = true;
  return Status::OK();
}

}  // namespace engine
}  // namespace mlp
