#include "stream/live_ingest.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "io/model_snapshot.h"
#include "obs/fit_profile.h"
#include "serve/json.h"
#include "stream/delta_batch.h"

namespace mlp {
namespace stream {

namespace fs = std::filesystem;

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t WallNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Age of `path` in milliseconds via its mtime — the batch's spool age,
/// i.e. how stale its data is by the time the swap publishes it. Clamped
/// at zero (a writer's clock may run ahead); -1 when the mtime is gone
/// (already moved).
int64_t FileAgeMs(const fs::path& path) {
  std::error_code ec;
  const fs::file_time_type mtime = fs::last_write_time(path, ec);
  if (ec) return -1;
  const auto age = fs::file_time_type::clock::now() - mtime;
  const int64_t ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(age).count();
  return std::max<int64_t>(0, ms);
}

/// Picks a non-colliding destination under `dir` for `name` (a re-spooled
/// batch may reuse a name already in done/ or failed/).
fs::path UniqueDestination(const fs::path& dir, const std::string& name) {
  fs::path dest = dir / name;
  std::error_code ec;
  for (int i = 2; fs::exists(dest, ec); ++i) {
    dest = dir / (name + "." + std::to_string(i));
  }
  return dest;
}

}  // namespace

LiveIngestor::LiveIngestor(serve::ModelServer* server,
                           const core::ModelInput& base_input,
                           core::FitCheckpoint checkpoint,
                           core::MlpResult result,
                           const LiveIngestOptions& options)
    : server_(server),
      base_input_(base_input),
      options_(options),
      observed_home_(base_input.observed_home),
      checkpoint_(std::move(checkpoint)),
      result_(std::move(result)) {
  obs::Registry& registry = obs::Registry::Global();
  spool_depth_ = registry.GetGauge(obs::kIngestSpoolDepth);
  swap_staleness_ms_ = registry.GetGauge(obs::kIngestSwapStalenessMs);
  live_batches_total_ = registry.GetCounter(obs::kIngestLiveBatchesTotal);
  failed_batches_total_ = registry.GetCounter(obs::kIngestFailedBatchesTotal);
  apply_ns_ = registry.GetHistogram(obs::kIngestApplyNs,
                                    obs::IngestApplyNsBounds());
  swap_ns_ = registry.GetHistogram(obs::kIngestSwapNs,
                                   obs::IngestSwapNsBounds());
}

LiveIngestor::~LiveIngestor() { Stop(); }

Status LiveIngestor::Start() {
  if (started_.load()) {
    return Status::FailedPrecondition("live ingestor already started");
  }
  if (options_.spool_dir.empty()) {
    return Status::InvalidArgument("live ingest needs a spool directory");
  }
  if (options_.poll_ms <= 0) {
    return Status::InvalidArgument("live ingest poll interval must be > 0");
  }
  if (options_.checkpoint_every > 0 && options_.checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "checkpoint_every needs a checkpoint path");
  }
  // Fail fast, on THIS thread: a typo'd or read-only spool is a startup
  // error the operator sees immediately, not a watcher-thread log line.
  std::error_code ec;
  if (!fs::is_directory(options_.spool_dir, ec)) {
    return Status::NotFound("spool directory does not exist: " +
                            options_.spool_dir);
  }
  const fs::path spool(options_.spool_dir);
  for (const char* sub : {"done", "failed"}) {
    fs::create_directories(spool / sub, ec);
    if (ec) {
      return Status::IOError(StringPrintf(
          "cannot create %s/%s: %s", options_.spool_dir.c_str(), sub,
          ec.message().c_str()));
    }
  }
  // create_directories succeeds without writing when the directory already
  // exists, so probe writability explicitly — quarantine moves and done/
  // moves both need it.
  const fs::path probe = spool / ".write-probe";
  std::FILE* f = std::fopen(probe.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("spool directory is not writable: " +
                           options_.spool_dir);
  }
  std::fclose(f);
  fs::remove(probe, ec);

  started_.store(true);
  thread_ = std::thread(&LiveIngestor::Run, this);
  return Status::OK();
}

void LiveIngestor::Stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_requested_ = true;
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  if (!options_.checkpoint_path.empty()) {
    // Drain-time checkpoint: whatever the daemon absorbed survives the
    // shutdown as an ordinary loadable snapshot.
    Status saved = SaveSnapshot(options_.checkpoint_path);
    if (!saved.ok()) {
      MLP_LOG(kError) << "drain checkpoint failed: " << saved.ToString();
    } else {
      MLP_LOG(kInfo) << "live ingest drained: checkpoint -> "
                     << options_.checkpoint_path;
    }
  }
}

void LiveIngestor::Run() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(wake_mu_);
      if (stop_requested_) return;
    }
    ScanOnce();
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait_for(lock, std::chrono::milliseconds(options_.poll_ms),
                      [this] { return stop_requested_; });
    if (stop_requested_) return;
  }
}

void LiveIngestor::ScanOnce() {
  std::vector<std::string> pending;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(options_.spool_dir, ec)) {
    if (ec) break;
    if (!entry.is_directory(ec)) continue;
    const std::string name = entry.path().filename().string();
    // tmp.* is a writer still staging; done/failed are our own output.
    if (name.rfind("batch-", 0) != 0) continue;
    if (stuck_.count(name) != 0) continue;
    pending.push_back(name);
  }
  // Lexicographic order is the protocol's apply order — writers that need
  // ordering encode it in the name (batch-0001, batch-0002, ...).
  std::sort(pending.begin(), pending.end());
  spool_depth_->Set(static_cast<int64_t>(pending.size()));
  for (size_t i = 0; i < pending.size(); ++i) {
    {
      // A drain finishes the batch being applied, not the whole backlog.
      std::lock_guard<std::mutex> lock(wake_mu_);
      if (stop_requested_) return;
    }
    ProcessBatch(pending[i]);
    spool_depth_->Set(static_cast<int64_t>(pending.size() - i - 1));
  }
}

void LiveIngestor::ProcessBatch(const std::string& name) {
  const fs::path batch_dir = fs::path(options_.spool_dir) / name;

  Result<DeltaBatch> delta = LoadDeltaBatch(batch_dir.string());
  if (!delta.ok()) {
    Quarantine(name, "load", delta.status());
    return;
  }

  // Apply + rebuild against a private copy of the serving state; nothing
  // the server can observe mutates until the atomic swap below.
  const int64_t apply_start_ns = SteadyNowNs();
  std::unique_lock<std::mutex> state_lock(state_mu_);
  Result<IngestOutput> out =
      ApplyDeltaBatch(CurrentInputLocked(), checkpoint_, result_, *delta);
  state_lock.unlock();
  if (!out.ok()) {
    Quarantine(name, "apply", out.status());
    return;
  }

  core::ModelInput merged_input = base_input_;
  merged_input.graph = out->merged_graph.get();
  merged_input.observed_home = out->merged_observed_home;
  io::ModelSnapshot snapshot =
      io::MakeModelSnapshot(merged_input, out->checkpoint, out->result);
  Result<serve::ReadModel> model =
      serve::ReadModel::Build(snapshot, *out->merged_graph,
                              base_input_.gazetteer, options_.read_model);
  if (!model.ok()) {
    Quarantine(name, "build", model.status());
    return;
  }
  apply_ns_->Record(SteadyNowNs() - apply_start_ns);

  // Swap-visible staleness: how old the batch's bytes are at the moment
  // queries can first see them.
  const int64_t staleness_ms = FileAgeMs(batch_dir);

  const int64_t swap_start_ns = SteadyNowNs();
  server_->SwapReadModel(std::move(*model));
  swap_ns_->Record(SteadyNowNs() - swap_start_ns);
  if (staleness_ms >= 0) {
    swap_staleness_ms_->Set(staleness_ms);
    int64_t prev = max_swap_staleness_ms_.load(std::memory_order_relaxed);
    while (staleness_ms > prev &&
           !max_swap_staleness_ms_.compare_exchange_weak(
               prev, staleness_ms, std::memory_order_relaxed)) {
    }
  }

  // The swap published; commit the matching fit state.
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    graph_ = std::move(out->merged_graph);
    observed_home_ = std::move(out->merged_observed_home);
    checkpoint_ = std::move(out->checkpoint);
    result_ = std::move(out->result);
  }

  // done/ move comes strictly AFTER the swap: a crash anywhere above
  // leaves the batch in the spool, and a restart re-applies it — a
  // half-built model is never the published one. (The flip side: a crash
  // between swap and this rename re-applies an already-applied batch on
  // restart, which then quarantines on its duplicate handles — receipts
  // make that visible instead of silent.)
  std::error_code ec;
  const fs::path dest =
      UniqueDestination(fs::path(options_.spool_dir) / "done", name);
  fs::rename(batch_dir, dest, ec);
  if (ec) {
    MLP_LOG(kError) << "applied batch " << name
                    << " could not move to done/: " << ec.message();
    stuck_.insert(name);
  }

  live_batches_total_->Add(1);
  batches_applied_.fetch_add(1, std::memory_order_release);
  MLP_LOG(kInfo) << "live ingest applied " << name << ": +"
                 << delta->users.size() << " users, generation "
                 << server_->model_generation() << ", staleness "
                 << staleness_ms << "ms";

  if (options_.checkpoint_every > 0 &&
      ++applied_since_checkpoint_ >=
          static_cast<uint64_t>(options_.checkpoint_every)) {
    applied_since_checkpoint_ = 0;
    Status saved = SaveSnapshot(options_.checkpoint_path);
    if (!saved.ok()) {
      MLP_LOG(kError) << "periodic checkpoint failed: " << saved.ToString();
    }
  }
}

void LiveIngestor::Quarantine(const std::string& name,
                              const std::string& stage, const Status& error) {
  const fs::path spool(options_.spool_dir);
  const fs::path dest = UniqueDestination(spool / "failed", name);
  std::error_code ec;
  fs::rename(spool / name, dest, ec);
  if (ec) {
    // Can't move it aside: remember the name so the watcher doesn't spin
    // on it every poll, and surface the original failure anyway.
    stuck_.insert(name);
    MLP_LOG(kError) << "batch " << name << " failed (" << stage << ": "
                    << error.ToString() << ") and could not be quarantined: "
                    << ec.message();
  } else {
    // Machine-readable receipt next to the offending files, so an
    // operator (or the CI live-pipeline job) can see what was rejected
    // and why without scraping server logs.
    serve::JsonWriter w;
    w.BeginObject();
    w.Key("batch");
    w.String(name);
    w.Key("stage");
    w.String(stage);
    w.Key("error");
    w.String(error.ToString());
    w.Key("quarantined_unix_ms");
    w.Int(WallNowMs());
    w.EndObject();
    const std::string receipt = std::move(w).Take();
    std::FILE* f = std::fopen((dest / "receipt.json").c_str(), "w");
    if (f != nullptr) {
      std::fwrite(receipt.data(), 1, receipt.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
    }
    MLP_LOG(kError) << "batch " << name << " quarantined to failed/ ("
                    << stage << "): " << error.ToString();
  }
  failed_batches_total_->Add(1);
  batches_failed_.fetch_add(1, std::memory_order_release);
}

core::ModelInput LiveIngestor::CurrentInputLocked() const {
  core::ModelInput input = base_input_;
  if (graph_ != nullptr) input.graph = graph_.get();
  input.observed_home = observed_home_;
  return input;
}

Status LiveIngestor::SaveSnapshot(const std::string& path) {
  std::lock_guard<std::mutex> lock(state_mu_);
  const io::ModelSnapshot snapshot =
      io::MakeModelSnapshot(CurrentInputLocked(), checkpoint_, result_);
  return io::SaveModelSnapshot(path, snapshot);
}

bool LiveIngestor::WaitForApplied(uint64_t n, int timeout_ms) const {
  const int64_t deadline = SteadyNowNs() + int64_t{timeout_ms} * 1000000;
  while (batches_applied_.load(std::memory_order_acquire) < n) {
    if (SteadyNowNs() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

bool LiveIngestor::WaitForFailed(uint64_t n, int timeout_ms) const {
  const int64_t deadline = SteadyNowNs() + int64_t{timeout_ms} * 1000000;
  while (batches_failed_.load(std::memory_order_acquire) < n) {
    if (SteadyNowNs() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

}  // namespace stream
}  // namespace mlp
