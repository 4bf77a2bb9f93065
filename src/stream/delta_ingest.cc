#include "stream/delta_ingest.h"

#include <utility>

#include "obs/fit_profile.h"
#include "obs/trace.h"

namespace mlp {
namespace stream {

Result<IngestOutput> ApplyDeltaBatch(const core::ModelInput& base_input,
                                     const core::FitCheckpoint& base_checkpoint,
                                     const core::MlpResult& base_result,
                                     const DeltaBatch& delta) {
  const int64_t merge_start_ns = obs::NowNs();
  MLP_ASSIGN_OR_RETURN(graph::SocialGraph merged,
                       MergeDelta(*base_input.graph, delta));
  obs::EndSpan(obs::Registry::Global().GetCounter(obs::kIngestMergeNs),
               "ingest_merge", merge_start_ns);
  // Ingest volume counters (ISSUE 9): how much the world grew, batch by
  // batch — scraped from /metricsz alongside the ingest phase timers.
  {
    obs::Registry& registry = obs::Registry::Global();
    registry.GetCounter(obs::kIngestBatchesTotal)->Add(1);
    registry.GetCounter(obs::kIngestUsersAddedTotal)->Add(delta.users.size());
    registry.GetCounter(obs::kIngestFollowingAddedTotal)
        ->Add(delta.following.size());
    registry.GetCounter(obs::kIngestTweetingAddedTotal)
        ->Add(delta.tweeting.size());
  }

  IngestOutput out;
  out.merged_graph = std::make_unique<graph::SocialGraph>(std::move(merged));
  // New users join the serving population with whatever label they carry:
  // a parsed registered city is observed supervision (the fit workflow's
  // full-supervision convention), kInvalidCity keeps them unlabeled.
  out.merged_observed_home = base_input.observed_home;
  for (const graph::UserRecord& record : delta.users) {
    out.merged_observed_home.push_back(record.registered_city);
  }

  core::ModelInput merged_input = base_input;
  merged_input.graph = out.merged_graph.get();
  merged_input.observed_home = out.merged_observed_home;

  core::FitOptions fit_options;
  fit_options.warm_start = &base_checkpoint;
  fit_options.checkpoint_out = &out.checkpoint;

  core::MlpModel model(base_checkpoint.config);
  MLP_ASSIGN_OR_RETURN(out.result,
                       model.ApplyDelta(base_input, merged_input, base_result,
                                        fit_options, &out.report));
  return out;
}

}  // namespace stream
}  // namespace mlp
