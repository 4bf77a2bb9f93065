#ifndef MLP_SERVE_READ_MODEL_H_
#define MLP_SERVE_READ_MODEL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "geo/gazetteer.h"
#include "graph/social_graph.h"
#include "io/mmap_file.h"
#include "io/model_snapshot.h"

namespace mlp {
namespace serve {

/// One (city, probability) line of a served location profile.
struct ProfileEntry {
  geo::CityId city = geo::kInvalidCity;
  double prob = 0.0;
};

/// Answer to GET /v1/user/{id}. `entries` aliases the read model's flat
/// profile storage (valid for the model's lifetime).
struct UserAnswer {
  graph::UserId user = graph::kInvalidUser;
  geo::CityId home = geo::kInvalidCity;
  const ProfileEntry* entries = nullptr;
  int entry_count = 0;
  int32_t num_friends = 0;    // out-degree (accounts this user follows)
  int32_t num_followers = 0;  // in-degree
  int32_t num_tweets = 0;     // tweeting relationships
};

/// Answer to GET /v1/edge/{src}/{dst}: the Sec-3 following-relationship
/// explanation — the posterior-mode assignment pair (x̂, ŷ), the noise
/// posterior, and support scores recomputed from the arena's sufficient
/// statistics (the final chain's ϕ counts), which say how strongly each
/// endpoint's own assignments back the explanation.
struct EdgeAnswer {
  graph::UserId src = graph::kInvalidUser;
  graph::UserId dst = graph::kInvalidUser;
  graph::EdgeId edge = -1;
  geo::CityId x = geo::kInvalidCity;  // follower's assigned location
  geo::CityId y = geo::kInvalidCity;  // friend's assigned location
  double noise_prob = 0.0;
  double x_support = 0.0;  // ϕ_src[x̂] / ϕ_src total, from the arena
  double y_support = 0.0;  // ϕ_dst[ŷ] / ϕ_dst total
  double distance_miles = 0.0;  // d(x̂, ŷ); 0 when either side is invalid
};

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

/// Immutable, query-optimized view of one fitted model snapshot: flat
/// top-K posterior profiles (CSR over users, probabilities copied verbatim
/// from MlpResult so served values are byte-consistent with the fit),
/// per-edge explanations with arena-derived support scores, an O(1)
/// (src, dst) → edge index, and per-user degrees. Everything is built once
/// by Build(); afterwards the model is read-only and safe to share across
/// server threads without locking.
///
/// The snapshot carries the model but not the observation graph, which is
/// why Build also takes the dataset's SocialGraph (edge endpoints, degrees)
/// — callers are expected to have fingerprint-checked the pair, as
/// `mlpctl serve` does.
class ReadModel {
 public:
  /// Validates shape agreement between snapshot and graph, then builds the
  /// flat read-side structures. The gazetteer is retained (not owned) for
  /// city names in rendered responses.
  static Result<ReadModel> Build(const io::ModelSnapshot& snapshot,
                                 const graph::SocialGraph& graph,
                                 const geo::Gazetteer* gazetteer,
                                 const ReadModelOptions& options = {});

  /// Renders this (in-memory) model's serving surface — the pre-rendered
  /// JSON blobs, their CSR offsets, a sorted (src,dst)→edge key table and
  /// the /statsz metadata — into an aligned, versioned section appended to
  /// the snapshot file at `snapshot_path` (replacing any existing section,
  /// so re-packing is idempotent). The core snapshot bytes are untouched
  /// and keep loading everywhere. Layout: src/io/README.md.
  Status AppendServeSection(const std::string& snapshot_path) const;

  /// Out-of-core backing: maps the serve section of a packed snapshot and
  /// serves every HTTP query (UserJson / EdgeJson / FindEdge / statsz
  /// metadata) straight out of the mapping — responses are byte-identical
  /// to the in-memory model the section was rendered from, but resident
  /// memory stays proportional to the touched pages, not the model size.
  /// The struct-answer lookups (GetUser/GetEdge/GetEdgeById) are not
  /// available in this mode and return false. Fails with NotFound when the
  /// snapshot has no serve section (run `mlpctl pack` first) and
  /// InvalidArgument/IOError on a foreign, stale-version or corrupt one.
  static Result<ReadModel> MapServeSection(const std::string& snapshot_path,
                                           const geo::Gazetteer* gazetteer);

  ReadModel() = default;
  ReadModel(ReadModel&&) = default;
  ReadModel& operator=(ReadModel&&) = default;
  ReadModel(const ReadModel&) = delete;
  ReadModel& operator=(const ReadModel&) = delete;

  int num_users() const {
    return mmap_backed_ ? static_cast<int>(map_num_users_)
                        : static_cast<int>(home_.size());
  }
  int num_edges() const {
    return mmap_backed_ ? static_cast<int>(map_num_edges_)
                        : static_cast<int>(edge_x_.size());
  }

  /// Point lookups. Return false when the id is out of range / the edge
  /// does not exist; `out` is untouched in that case. An mmap-backed model
  /// carries only the rendered responses, so these always return false
  /// there — the serving surface goes through UserJson/EdgeJson instead.
  bool GetUser(graph::UserId u, UserAnswer* out) const;
  bool GetEdge(graph::UserId src, graph::UserId dst, EdgeAnswer* out) const;
  /// Edge lookup by id (the batch scan path after index resolution).
  bool GetEdgeById(graph::EdgeId s, EdgeAnswer* out) const;
  /// (src, dst) → edge id, or -1.
  graph::EdgeId FindEdge(graph::UserId src, graph::UserId dst) const;

  /// Pre-rendered JSON value of one user / edge answer — rendered once at
  /// Build time into a flat blob (CSR over entities), so a point query is
  /// a substring copy and a batch response a sequential concatenation scan
  /// instead of per-request JSON assembly. Empty view when out of range.
  std::string_view UserJson(graph::UserId u) const {
    if (u < 0 || u >= num_users()) return {};
    const int64_t* off =
        mmap_backed_ ? map_user_json_offset_ : user_json_offset_.data();
    std::string_view blob =
        mmap_backed_ ? map_user_json_ : std::string_view(user_json_);
    return blob.substr(off[u], off[u + 1] - off[u]);
  }
  std::string_view EdgeJson(graph::EdgeId s) const {
    if (s < 0 || s >= num_edges()) return {};
    const int64_t* off =
        mmap_backed_ ? map_edge_json_offset_ : edge_json_offset_.data();
    std::string_view blob =
        mmap_backed_ ? map_edge_json_ : std::string_view(edge_json_);
    return blob.substr(off[s], off[s + 1] - off[s]);
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
  bool mmap_backed() const { return mmap_backed_; }

  /// Exact heap footprint of the owned read-side structures (vector
  /// capacities + blob sizes + edge index), feeding the mem_readmodel_bytes
  /// gauge. An mmap-backed model accounts only its resident skeleton — the
  /// mapping itself is paged in and out by the kernel on demand.
  int64_t AccountedBytes() const;

  /// First edge of the model as (src, dst), or false when edgeless — the
  /// probe the mmap selfcheck uses in place of a loaded graph.
  bool ExampleEdge(graph::UserId* src, graph::UserId* dst) const;

 private:
  const geo::Gazetteer* gazetteer_ = nullptr;

  // Flat top-K profiles: CSR prefix over users into entries_.
  std::vector<int64_t> profile_offset_;
  std::vector<ProfileEntry> entries_;
  std::vector<geo::CityId> home_;

  // Per-user degrees.
  std::vector<int32_t> num_friends_;
  std::vector<int32_t> num_followers_;
  std::vector<int32_t> num_tweets_;

  // Per-edge explanation columns (struct-of-arrays; the batch path scans
  // them sequentially).
  std::vector<graph::UserId> edge_src_;
  std::vector<graph::UserId> edge_dst_;
  std::vector<geo::CityId> edge_x_;
  std::vector<geo::CityId> edge_y_;
  std::vector<double> edge_noise_;
  std::vector<double> edge_x_support_;
  std::vector<double> edge_y_support_;
  std::vector<double> edge_distance_;

  // (src << 32 | dst) → first matching edge id.
  std::unordered_map<uint64_t, graph::EdgeId> edge_index_;

  // Pre-rendered response fragments (flat blob + CSR prefix per entity).
  std::string user_json_;
  std::vector<int64_t> user_json_offset_;
  std::string edge_json_;
  std::vector<int64_t> edge_json_offset_;

  double alpha_ = 0.0;
  double beta_ = 0.0;
  bool fit_complete_ = false;
  int64_t active_slots_ = 0;
  uint64_t layout_version_ = 0;

  // ---- mmap backing (MapServeSection) ----
  // The mapping owns the file; the raw pointers/views below alias it.
  // io::MmapFile moves preserve the base address, so a moved ReadModel
  // keeps serving without re-deriving them.
  io::MmapFile mapped_;
  bool mmap_backed_ = false;
  int64_t map_num_users_ = 0;
  int64_t map_num_edges_ = 0;
  int64_t total_profile_entries_ = 0;  // for mean_profile_entries()
  const int64_t* map_user_json_offset_ = nullptr;  // num_users + 1
  const int64_t* map_edge_json_offset_ = nullptr;  // num_edges + 1
  int64_t map_num_edge_keys_ = 0;  // distinct (src,dst) pairs, ≤ num_edges
  const uint64_t* map_edge_keys_ = nullptr;  // sorted (src<<32|dst)
  const int64_t* map_edge_ids_ = nullptr;    // parallel edge ids
  std::string_view map_user_json_;
  std::string_view map_edge_json_;
};

}  // namespace serve
}  // namespace mlp

#endif  // MLP_SERVE_READ_MODEL_H_
