#ifndef MLP_STREAM_DELTA_INGEST_H_
#define MLP_STREAM_DELTA_INGEST_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "core/input.h"
#include "core/model.h"
#include "stream/delta_batch.h"

namespace mlp {
namespace stream {

/// Everything one ingest produces. The merged graph is owned here because
/// the updated checkpoint/result are only meaningful against it — callers
/// keep the pair together (snapshot it, serve it, or ingest again).
struct IngestOutput {
  std::unique_ptr<graph::SocialGraph> merged_graph;  // finalized
  /// base observed homes + the delta users' registered cities.
  std::vector<geo::CityId> merged_observed_home;
  core::FitCheckpoint checkpoint;  // bound to the merged world
  core::MlpResult result;
  core::DeltaReport report;
};

/// The delta-ingest lifecycle in one call (see src/stream/README.md):
/// merge the batch into the base graph (MergeDelta validation), extend the
/// observed-home vector with the new users' registered cities, and drive
/// core::MlpModel::ApplyDelta — candidate migration, warm shard-scoped
/// resampling, result merge. `base_input` must be the world
/// `base_checkpoint` was fitted on (fingerprint-enforced); `base_result`
/// is the fit's stored result (untouched rows are carried from it
/// verbatim). An empty batch returns the base model unchanged.
Result<IngestOutput> ApplyDeltaBatch(const core::ModelInput& base_input,
                                     const core::FitCheckpoint& base_checkpoint,
                                     const core::MlpResult& base_result,
                                     const DeltaBatch& delta);

}  // namespace stream
}  // namespace mlp

#endif  // MLP_STREAM_DELTA_INGEST_H_
