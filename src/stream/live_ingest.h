#ifndef MLP_STREAM_LIVE_INGEST_H_
#define MLP_STREAM_LIVE_INGEST_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/input.h"
#include "core/model.h"
#include "obs/metrics.h"
#include "serve/model_server.h"
#include "serve/read_model.h"
#include "stream/delta_ingest.h"

namespace mlp {
namespace stream {

/// Knobs for the live ingest daemon (the `mlpctl serve --spool*` flags map
/// 1:1 onto these).
struct LiveIngestOptions {
  /// Directory watched for delta-batch subdirectories. Writers MUST use
  /// the rename-in protocol (see src/stream/README.md): stage under
  /// `tmp.*`, then rename to `batch-*` — the rename is the commit point.
  std::string spool_dir;
  /// Poll interval between spool scans.
  int poll_ms = 200;
  /// Forwarded to ReadModel::Build for each swapped-in model.
  serve::ReadModelOptions read_model;
  /// > 0: snapshot the evolving model to `checkpoint_path` every K applied
  /// batches (in addition to the drain-time checkpoint).
  int checkpoint_every = 0;
  /// Non-empty: snapshot destination; Stop() always writes a final
  /// checkpoint here after the drain. Empty disables checkpointing.
  std::string checkpoint_path;
};

/// The one-process ingest+serve daemon (ISSUE 10 / ROADMAP "one-process
/// ingest+serve daemon"): a background thread attached to a running
/// serve::ModelServer that watches a spool directory for delta batches,
/// applies each with stream::ApplyDeltaBatch (candidate migration +
/// shard-scoped warm resample) against its own evolving
/// (graph, checkpoint, result) state, and atomically publishes the
/// post-delta ReadModel with ModelServer::SwapReadModel — queries are
/// never interrupted and no snapshot round-trip happens on the data path.
///
/// Spool protocol (full schema in src/stream/README.md):
///   - writers create `spool/tmp.<anything>`, fill in the delta CSVs, then
///     rename to `spool/batch-<name>` — rename(2) is atomic, so a visible
///     `batch-*` directory is always complete;
///   - batches are applied in lexicographic name order;
///   - an applied batch is moved to `spool/done/` AFTER its model swap
///     publishes (a crash between apply and swap therefore re-applies the
///     batch on restart instead of ever publishing a half-built model);
///   - a batch that fails to load, merge or apply is moved to
///     `spool/failed/` with a `receipt.json` describing the failure, and
///     the served model is left untouched — the watcher keeps running.
///
/// Threading: one watcher thread owns all mutable fit state; the server's
/// request threads only ever see immutable ReadModels through the atomic
/// publish, and `state_mu_` serializes the watcher against SaveSnapshot()
/// calls from other threads (tests, the drain path).
class LiveIngestor {
 public:
  /// `server` must outlive this object. `base_input` describes the world
  /// the server currently serves: the gazetteer/distances/referents
  /// pointers must stay valid for the ingestor's lifetime (the caller owns
  /// them, exactly like ApplyDeltaBatch); the graph pointer is only used
  /// until the first batch replaces it with an owned merged graph.
  /// `checkpoint`/`result` are the fitted state the snapshot was loaded
  /// with — moved in, the ingestor's copies evolve batch by batch.
  LiveIngestor(serve::ModelServer* server, const core::ModelInput& base_input,
               core::FitCheckpoint checkpoint, core::MlpResult result,
               const LiveIngestOptions& options);

  LiveIngestor(const LiveIngestor&) = delete;
  LiveIngestor& operator=(const LiveIngestor&) = delete;
  /// Stops the watcher (drain semantics, see Stop()).
  ~LiveIngestor();

  /// Validates the spool synchronously — the directory must exist and be
  /// writable (done/ and failed/ are created here) — then starts the
  /// watcher thread. A bad spool therefore fails fast at startup with
  /// NotFound/IOError, never later inside the watcher.
  Status Start();

  /// Graceful drain: the in-flight batch (if any) finishes applying and
  /// swapping, remaining spooled batches are left for the next run, the
  /// thread joins, and — when `checkpoint_path` is set — a final snapshot
  /// of the current model is written. Idempotent.
  void Stop();

  uint64_t batches_applied() const {
    return batches_applied_.load(std::memory_order_relaxed);
  }
  uint64_t batches_failed() const {
    return batches_failed_.load(std::memory_order_relaxed);
  }
  /// Largest swap-visible staleness seen so far: now − batch mtime at the
  /// moment its swap published, in milliseconds (bench_live_ingest's
  /// "staleness bounded" acceptance metric).
  int64_t max_swap_staleness_ms() const {
    return max_swap_staleness_ms_.load(std::memory_order_relaxed);
  }

  /// Test/bench helpers: block until the applied/failed counter reaches
  /// `n` or `timeout_ms` elapses. Return whether the count was reached.
  bool WaitForApplied(uint64_t n, int timeout_ms) const;
  bool WaitForFailed(uint64_t n, int timeout_ms) const;

  /// Snapshots the CURRENT model (base + every applied batch) to `path` —
  /// the same io::SaveModelSnapshot format `mlpctl fit --save` writes, and
  /// byte-identical to offline `mlpctl ingest` of the same deltas. Safe
  /// from any thread.
  Status SaveSnapshot(const std::string& path);

 private:
  void Run();
  /// One spool scan: list pending batch-* directories, update the depth
  /// gauge, process them in name order (checking the stop flag between
  /// batches, so a drain finishes the in-flight batch only).
  void ScanOnce();
  void ProcessBatch(const std::string& name);
  /// Moves spool/<name> to failed/ and drops a receipt.json beside the
  /// batch files; the served model is untouched by design.
  void Quarantine(const std::string& name, const std::string& stage,
                  const Status& error);
  /// The evolving world as a ModelInput (borrows base pointers, current
  /// graph + observed homes). Caller must hold state_mu_.
  core::ModelInput CurrentInputLocked() const;

  serve::ModelServer* server_;
  core::ModelInput base_input_;
  LiveIngestOptions options_;

  /// Evolving fit state, owned by the watcher, guarded by state_mu_
  /// against SaveSnapshot readers. graph_ is null until the first batch
  /// (base_input_.graph serves as generation 1).
  mutable std::mutex state_mu_;
  std::unique_ptr<graph::SocialGraph> graph_;
  std::vector<geo::CityId> observed_home_;
  core::FitCheckpoint checkpoint_;
  core::MlpResult result_;

  std::thread thread_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_requested_ = false;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  std::atomic<uint64_t> batches_applied_{0};
  std::atomic<uint64_t> batches_failed_{0};
  std::atomic<int64_t> max_swap_staleness_ms_{0};
  uint64_t applied_since_checkpoint_ = 0;
  /// Batches that failed but could not be renamed into failed/ (e.g. the
  /// quarantine rename itself failed) — skipped on later scans so one
  /// stuck batch cannot hot-loop the watcher.
  std::set<std::string> stuck_;

  // Registry-owned handles, resolved once (see src/obs/README.md).
  obs::Gauge* spool_depth_;
  obs::Gauge* swap_staleness_ms_;
  obs::Counter* live_batches_total_;
  obs::Counter* failed_batches_total_;
  obs::Histogram* apply_ns_;
  obs::Histogram* swap_ns_;
};

}  // namespace stream
}  // namespace mlp

#endif  // MLP_STREAM_LIVE_INGEST_H_
