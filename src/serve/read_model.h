#ifndef MLP_SERVE_READ_MODEL_H_
#define MLP_SERVE_READ_MODEL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "geo/gazetteer.h"
#include "graph/social_graph.h"
#include "io/mmap_file.h"
#include "io/model_snapshot.h"

namespace mlp {
namespace serve {

/// Tuning for ReadModel::Build.
struct ReadModelOptions {
  /// Profile entries kept per user (posterior top-K). <= 0 keeps all.
  int top_k = 10;
};

/// Serve-section format version (the mmap-able blob AppendServeSection
/// appends after a snapshot's core payload). Bump on any layout change;
/// MapServeSection rejects versions it does not understand, and `mlpctl
/// serve --mmap` falls back to asking the operator to re-pack — the core
/// snapshot itself stays readable either way (downgrade path).
inline constexpr uint32_t kServeSectionVersion = 1;

/// Immutable serving view of one fitted model snapshot: every user's
/// top-K location profile (probabilities copied verbatim from MlpResult,
/// so served values are byte-consistent with the fit) and every following
/// relationship's explanation, pre-rendered as JSON into two flat blobs
/// with CSR offsets, plus a sorted (src, dst) → edge key table and the
/// /statsz metadata. That is the whole representation, whether Build()
/// rendered it onto the heap or MapServeSection() maps it from a packed
/// snapshot: both backings feed the same views and accessors. Read-only
/// after construction and safe to share across server threads without
/// locking.
///
/// The snapshot carries the model but not the observation graph, which is
/// why Build also takes the dataset's SocialGraph (edge endpoints, degrees)
/// — callers are expected to have fingerprint-checked the pair, as
/// `mlpctl serve` does.
class ReadModel {
 public:
  /// Validates shape agreement between snapshot and graph, then renders
  /// every response body onto the heap. The gazetteer (not owned) supplies
  /// city names and distances.
  static Result<ReadModel> Build(const io::ModelSnapshot& snapshot,
                                 const graph::SocialGraph& graph,
                                 const geo::Gazetteer* gazetteer,
                                 const ReadModelOptions& options = {});

  /// Writes this (heap-backed) model's views — the JSON blobs, their CSR
  /// offsets, the sorted (src,dst)→edge key table and the /statsz
  /// metadata — into an aligned, versioned section appended to
  /// the snapshot file at `snapshot_path` (replacing any existing section,
  /// so re-packing is idempotent). The core snapshot bytes are untouched
  /// and keep loading everywhere. Layout: src/io/README.md.
  Status AppendServeSection(const std::string& snapshot_path) const;

  /// Out-of-core backing: maps the serve section of a packed snapshot and
  /// points the views into the mapping — responses are byte-identical to
  /// the heap model the section was written from, but resident memory
  /// stays proportional to the touched pages, not the model size. A
  /// corrupt interior offset yields an empty body (a 404), never a crash.
  /// Fails with NotFound when the snapshot has no serve section (run
  /// `mlpctl pack` first) and InvalidArgument/IOError on a foreign,
  /// stale-version or corrupt one.
  static Result<ReadModel> MapServeSection(const std::string& snapshot_path,
                                           const geo::Gazetteer* gazetteer);

  ReadModel() = default;
  ReadModel(ReadModel&&) = default;
  ReadModel& operator=(ReadModel&&) = default;
  ReadModel(const ReadModel&) = delete;
  ReadModel& operator=(const ReadModel&) = delete;

  int num_users() const { return static_cast<int>(num_users_); }
  int num_edges() const { return static_cast<int>(num_edges_); }

  /// (src, dst) → edge id, or -1. A duplicated (src, dst) pair resolves to
  /// its lowest edge id.
  graph::EdgeId FindEdge(graph::UserId src, graph::UserId dst) const;

  /// Pre-rendered JSON value of one user / edge answer: a substring of
  /// the blob, so a point query is a copy and a batch response a
  /// concatenation. Empty view when out of range (or when a mapped
  /// section's offsets are corrupt).
  std::string_view UserJson(graph::UserId u) const {
    return Slice(user_json_, user_offsets_, num_users_, u);
  }
  std::string_view EdgeJson(graph::EdgeId s) const {
    return Slice(edge_json_, edge_offsets_, num_edges_, s);
  }

  const geo::Gazetteer* gazetteer() const { return gazetteer_; }

  // ---- model metadata served by /statsz ----
  double alpha() const { return alpha_; }
  double beta() const { return beta_; }
  bool fit_complete() const { return fit_complete_; }
  int64_t active_candidate_slots() const { return active_slots_; }
  uint64_t candidate_layout_version() const { return layout_version_; }
  double mean_profile_entries() const;

  /// True when this model serves out of a mapped serve section.
  bool mmap_backed() const { return mapped_.data() != nullptr; }

  /// Exact heap footprint of the owned views (vector capacities), feeding
  /// the mem_readmodel_bytes gauge. 0 for an mmap-backed model — the
  /// mapping is paged in and out by the kernel on demand.
  int64_t AccountedBytes() const;

  /// Smallest (src, dst) key of the model, or false when edgeless — the
  /// edge probe the selfcheck uses in place of a loaded graph.
  bool ExampleEdge(graph::UserId* src, graph::UserId* dst) const;

 private:
  /// Entity `i` of a CSR-indexed blob, or {} when `i` is out of range or
  /// its offsets do not describe a range inside the blob.
  static std::string_view Slice(std::string_view blob, const int64_t* offsets,
                                int64_t count, int64_t i) {
    if (i < 0 || i >= count) return {};
    const int64_t begin = offsets[i];
    const int64_t end = offsets[i + 1];
    if (begin < 0 || begin > end ||
        end > static_cast<int64_t>(blob.size())) {
      return {};
    }
    return blob.substr(begin, end - begin);
  }

  const geo::Gazetteer* gazetteer_ = nullptr;

  // ---- the serving views (alias the owned vectors or the mapping) ----
  int64_t num_users_ = 0;
  int64_t num_edges_ = 0;
  int64_t num_edge_keys_ = 0;               // distinct (src,dst) pairs
  const int64_t* user_offsets_ = nullptr;   // num_users + 1
  const int64_t* edge_offsets_ = nullptr;   // num_edges + 1
  const uint64_t* edge_keys_ = nullptr;     // sorted (src<<32|dst)
  const int64_t* edge_ids_ = nullptr;       // lowest edge id per key
  std::string_view user_json_;
  std::string_view edge_json_;

  // ---- /statsz metadata ----
  double alpha_ = 0.0;
  double beta_ = 0.0;
  bool fit_complete_ = false;
  int64_t active_slots_ = 0;
  uint64_t layout_version_ = 0;
  int64_t total_profile_entries_ = 0;  // for mean_profile_entries()

  // ---- backings: the views alias at most one of them ----
  // Vectors, not strings: a moved vector keeps its data pointer (a short
  // std::string may not), as does a moved io::MmapFile, so a moved
  // ReadModel keeps serving without re-deriving the views.
  std::vector<char> owned_user_json_;
  std::vector<char> owned_edge_json_;
  std::vector<int64_t> owned_user_offsets_;
  std::vector<int64_t> owned_edge_offsets_;
  std::vector<uint64_t> owned_edge_keys_;
  std::vector<int64_t> owned_edge_ids_;
  io::MmapFile mapped_;
};

}  // namespace serve
}  // namespace mlp

#endif  // MLP_SERVE_READ_MODEL_H_
