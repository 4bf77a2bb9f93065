#include "io/model_snapshot.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <type_traits>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "core/candidate_space.h"

namespace mlp {
namespace io {

namespace {

// Eight magic bytes + version + endian marker head every snapshot. The
// payload after the header is covered by an FNV-1a 64 checksum, so torn
// writes, truncation and bit flips are all detected before any field is
// interpreted.
constexpr char kMagic[8] = {'M', 'L', 'P', 'S', 'N', 'A', 'P', 'B'};
constexpr uint32_t kEndianMarker = 0x01020304u;

class BinaryWriter {
 public:
  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable<T>::value, "POD only");
    const char* p = reinterpret_cast<const char*>(&value);
    buffer_.append(p, sizeof(T));
  }
  template <typename T>
  void PutVector(const std::vector<T>& v) {
    static_assert(std::is_arithmetic<T>::value, "no padding allowed");
    Put<uint64_t>(v.size());
    if (!v.empty()) {
      buffer_.append(reinterpret_cast<const char*>(v.data()),
                     v.size() * sizeof(T));
    }
  }
  const std::string& buffer() const { return buffer_; }

 private:
  std::string buffer_;
};

/// Bounds-checked reader: any overrun latches `failed()` and every later
/// read returns zeros, so one end-of-parse check suffices.
class BinaryReader {
 public:
  BinaryReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  T Get() {
    static_assert(std::is_trivially_copyable<T>::value, "POD only");
    T value{};
    if (failed_ || size_ - pos_ < sizeof(T)) {
      failed_ = true;
      return value;
    }
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }
  template <typename T>
  void GetVector(std::vector<T>* out) {
    static_assert(std::is_arithmetic<T>::value, "no padding allowed");
    uint64_t count = Get<uint64_t>();
    if (failed_ || count > (size_ - pos_) / sizeof(T)) {
      failed_ = true;
      out->clear();
      return;
    }
    out->resize(count);
    if (count > 0) {
      std::memcpy(out->data(), data_ + pos_, count * sizeof(T));
      pos_ += count * sizeof(T);
    }
  }
  bool failed() const { return failed_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

void PutConfig(BinaryWriter* w, const core::MlpConfig& c, uint32_t version) {
  w->Put<int32_t>(static_cast<int32_t>(c.source));
  w->Put(c.alpha);
  w->Put(c.beta);
  w->Put<uint8_t>(c.fit_power_law_from_data);
  w->Put(c.rho_f);
  w->Put(c.rho_t);
  w->Put<uint8_t>(c.model_noise);
  w->Put(c.tau);
  w->Put(c.supervision_boost);
  w->Put(c.delta);
  w->Put<uint8_t>(c.use_candidacy);
  w->Put<uint8_t>(c.use_supervision);
  w->Put<int32_t>(c.fallback_top_cities);
  w->Put<int32_t>(c.max_candidates);
  w->Put<int32_t>(c.burn_in_iterations);
  w->Put<int32_t>(c.sampling_iterations);
  w->Put<int32_t>(c.gibbs_em_rounds);
  w->Put(c.em_damping);
  w->Put(c.seed);
  w->Put(c.distance_floor_miles);
  w->Put<int32_t>(c.num_threads);
  w->Put<int32_t>(1);  // retired merge-cadence slot: every sweep merges
  if (version >= 2) {
    w->Put(c.prune_floor);
    w->Put<int32_t>(c.prune_patience);
  }
}

/// `merge_cadence` receives the retired slot after num_threads, which the
/// writer always fills with 1 (every sweep merges).
core::MlpConfig GetConfig(BinaryReader* r, uint32_t version,
                          int32_t* merge_cadence) {
  core::MlpConfig c;
  c.source = static_cast<core::ObservationSource>(r->Get<int32_t>());
  c.alpha = r->Get<double>();
  c.beta = r->Get<double>();
  c.fit_power_law_from_data = r->Get<uint8_t>() != 0;
  c.rho_f = r->Get<double>();
  c.rho_t = r->Get<double>();
  c.model_noise = r->Get<uint8_t>() != 0;
  c.tau = r->Get<double>();
  c.supervision_boost = r->Get<double>();
  c.delta = r->Get<double>();
  c.use_candidacy = r->Get<uint8_t>() != 0;
  c.use_supervision = r->Get<uint8_t>() != 0;
  c.fallback_top_cities = r->Get<int32_t>();
  c.max_candidates = r->Get<int32_t>();
  c.burn_in_iterations = r->Get<int32_t>();
  c.sampling_iterations = r->Get<int32_t>();
  c.gibbs_em_rounds = r->Get<int32_t>();
  c.em_damping = r->Get<double>();
  c.seed = r->Get<uint64_t>();
  c.distance_floor_miles = r->Get<double>();
  c.num_threads = r->Get<int32_t>();
  *merge_cadence = r->Get<int32_t>();
  if (version >= 2) {
    c.prune_floor = r->Get<double>();
    c.prune_patience = r->Get<int32_t>();
  }
  // version 1 predates pruning: the defaults (prune_floor = 0, i.e. off)
  // already describe the program that fit ran.
  return c;
}

void PutActivation(BinaryWriter* w, const core::CandidateActivation& a) {
  w->PutVector(a.active);
  w->PutVector(a.cold_streak);
  w->Put(a.layout_version);
  w->Put<uint64_t>(a.history.size());
  for (const core::PruneEvent& event : a.history) {
    w->Put(event.sweep);
    w->Put(event.deactivated);
  }
}

void GetActivation(BinaryReader* r, core::CandidateActivation* a) {
  r->GetVector(&a->active);
  r->GetVector(&a->cold_streak);
  a->layout_version = r->Get<uint64_t>();
  uint64_t history = r->Get<uint64_t>();
  a->history.clear();
  for (uint64_t i = 0; i < history && !r->failed(); ++i) {
    core::PruneEvent event;
    event.sweep = r->Get<int32_t>();
    event.deactivated = r->Get<int32_t>();
    a->history.push_back(event);
  }
}

void PutRng(BinaryWriter* w, const Pcg32State& s) {
  w->Put(s.state);
  w->Put(s.inc);
  w->Put(s.has_cached_normal);
  w->Put(s.cached_normal);
}

Pcg32State GetRng(BinaryReader* r) {
  Pcg32State s;
  s.state = r->Get<uint64_t>();
  s.inc = r->Get<uint64_t>();
  s.has_cached_normal = r->Get<uint8_t>();
  s.cached_normal = r->Get<double>();
  return s;
}

void PutRagged(BinaryWriter* w, const std::vector<std::vector<float>>& rows) {
  w->Put<uint64_t>(rows.size());
  for (const std::vector<float>& row : rows) w->PutVector(row);
}

void GetRagged(BinaryReader* r, std::vector<std::vector<float>>* rows) {
  uint64_t count = r->Get<uint64_t>();
  rows->clear();
  for (uint64_t i = 0; i < count && !r->failed(); ++i) {
    rows->emplace_back();
    r->GetVector(&rows->back());
  }
}

void PutSamplerState(BinaryWriter* w, const core::SamplerState& s) {
  w->PutVector(s.mu);
  w->PutVector(s.x_idx);
  w->PutVector(s.y_idx);
  w->PutVector(s.nu);
  w->PutVector(s.z_idx);
  w->PutVector(s.phi);
  w->PutVector(s.phi_total);
  w->PutVector(s.venue_counts);
  w->PutVector(s.venue_counts_total);
  w->Put(s.accumulated_samples);
  w->PutVector(s.acc_phi);
  PutRagged(w, s.acc_x);
  PutRagged(w, s.acc_y);
  w->PutVector(s.acc_mu);
  PutRagged(w, s.acc_z);
  w->PutVector(s.acc_nu);
  w->PutVector(s.acc_edge_distance);
  w->PutVector(s.last_homes);
  w->PutVector(s.home_change_per_sweep);
}

void GetSamplerState(BinaryReader* r, core::SamplerState* s) {
  r->GetVector(&s->mu);
  r->GetVector(&s->x_idx);
  r->GetVector(&s->y_idx);
  r->GetVector(&s->nu);
  r->GetVector(&s->z_idx);
  r->GetVector(&s->phi);
  r->GetVector(&s->phi_total);
  r->GetVector(&s->venue_counts);
  r->GetVector(&s->venue_counts_total);
  s->accumulated_samples = r->Get<int32_t>();
  r->GetVector(&s->acc_phi);
  GetRagged(r, &s->acc_x);
  GetRagged(r, &s->acc_y);
  r->GetVector(&s->acc_mu);
  GetRagged(r, &s->acc_z);
  r->GetVector(&s->acc_nu);
  r->GetVector(&s->acc_edge_distance);
  r->GetVector(&s->last_homes);
  r->GetVector(&s->home_change_per_sweep);
}

void PutResult(BinaryWriter* w, const core::MlpResult& result) {
  w->Put<uint64_t>(result.profiles.size());
  for (const core::LocationProfile& profile : result.profiles) {
    w->Put<uint64_t>(profile.entries().size());
    for (const auto& entry : profile.entries()) {
      w->Put(entry.first);
      w->Put(entry.second);
    }
  }
  w->PutVector(result.home);
  w->Put<uint64_t>(result.following.size());
  for (const core::FollowingExplanation& ex : result.following) {
    w->Put(ex.x);
    w->Put(ex.y);
    w->Put(ex.noise_prob);
  }
  w->Put<uint64_t>(result.tweeting.size());
  for (const core::TweetExplanation& ex : result.tweeting) {
    w->Put(ex.z);
    w->Put(ex.noise_prob);
  }
  w->Put(result.alpha);
  w->Put(result.beta);
  w->PutVector(result.home_change_per_sweep);
}

void GetResult(BinaryReader* r, core::MlpResult* result) {
  uint64_t num_profiles = r->Get<uint64_t>();
  result->profiles.clear();
  for (uint64_t u = 0; u < num_profiles && !r->failed(); ++u) {
    uint64_t num_entries = r->Get<uint64_t>();
    std::vector<std::pair<geo::CityId, double>> entries;
    for (uint64_t l = 0; l < num_entries && !r->failed(); ++l) {
      geo::CityId city = r->Get<geo::CityId>();
      double p = r->Get<double>();
      entries.emplace_back(city, p);
    }
    result->profiles.emplace_back(std::move(entries));
  }
  r->GetVector(&result->home);
  uint64_t num_following = r->Get<uint64_t>();
  result->following.clear();
  for (uint64_t s = 0; s < num_following && !r->failed(); ++s) {
    core::FollowingExplanation ex;
    ex.x = r->Get<geo::CityId>();
    ex.y = r->Get<geo::CityId>();
    ex.noise_prob = r->Get<double>();
    result->following.push_back(ex);
  }
  uint64_t num_tweeting = r->Get<uint64_t>();
  result->tweeting.clear();
  for (uint64_t k = 0; k < num_tweeting && !r->failed(); ++k) {
    core::TweetExplanation ex;
    ex.z = r->Get<geo::CityId>();
    ex.noise_prob = r->Get<double>();
    result->tweeting.push_back(ex);
  }
  result->alpha = r->Get<double>();
  result->beta = r->Get<double>();
  r->GetVector(&result->home_change_per_sweep);
}

}  // namespace

ModelSnapshot MakeModelSnapshot(const core::ModelInput& input,
                                const core::FitCheckpoint& checkpoint,
                                const core::MlpResult& result) {
  ModelSnapshot snapshot;
  snapshot.checkpoint = checkpoint;
  snapshot.result = result;
  // The candidate universe is a pure function of (input, config); the
  // stored layout is its ACTIVE view under the checkpoint's activation
  // mask — rebuilt through the same CandidateSpace the sampler's arena was
  // laid out over, so the stored offsets can never drift from the flat ϕ
  // buffer they index.
  core::CandidateSpace space =
      core::CandidateSpace::Build(input, checkpoint.config);
  // The checkpoint came out of a fit over this same universe; a mismatch
  // means the caller paired a checkpoint with foreign data, and writing it
  // out would persist a corrupt-by-construction file (fully-active layout
  // indexing compacted-size arena buffers) — fail loudly here instead.
  Status restored = space.RestoreActivation(checkpoint.activation);
  MLP_CHECK_MSG(restored.ok(),
                "checkpoint activation does not match the candidate universe "
                "derived from this input/config");
  const core::SuffStatsLayout& layout = space.layout();
  snapshot.phi_offset = layout.phi_offset;
  snapshot.candidates.reserve(layout.phi_size());
  for (graph::UserId u = 0; u < space.num_users(); ++u) {
    const core::CandidateView& view = space.view(u);
    snapshot.candidates.insert(snapshot.candidates.end(), view.candidates,
                               view.candidates + view.size());
  }
  snapshot.num_locations = layout.num_locations;
  snapshot.num_venues = layout.num_venues;
  return snapshot;
}

namespace {

Status SaveModelSnapshotAtVersion(const std::string& path,
                                  const ModelSnapshot& snapshot,
                                  uint32_t version) {
  BinaryWriter payload;
  PutConfig(&payload, snapshot.checkpoint.config, version);
  payload.Put(snapshot.checkpoint.fingerprint);
  payload.Put<uint8_t>(snapshot.checkpoint.complete);
  payload.Put(snapshot.checkpoint.progress.round);
  payload.Put(snapshot.checkpoint.progress.burn_in_done);
  payload.Put(snapshot.checkpoint.progress.sampling_done);
  payload.Put(snapshot.checkpoint.progress.alpha);
  payload.Put(snapshot.checkpoint.progress.beta);
  PutSamplerState(&payload, snapshot.checkpoint.sampler);
  PutRng(&payload, snapshot.checkpoint.master_rng);
  payload.Put<uint64_t>(snapshot.checkpoint.shard_rngs.size());
  for (const Pcg32State& s : snapshot.checkpoint.shard_rngs) {
    PutRng(&payload, s);
  }
  if (version >= 2) {
    PutActivation(&payload, snapshot.checkpoint.activation);
  }
  payload.PutVector(snapshot.phi_offset);
  payload.PutVector(snapshot.candidates);
  payload.Put(snapshot.num_locations);
  payload.Put(snapshot.num_venues);
  PutResult(&payload, snapshot.result);

  // v2 folds the (un-checksummed, pre-checksum) header words into the
  // checksum: a flipped version byte must read as corruption, not as an
  // instruction to reinterpret the payload under the other version's
  // layout. v1 keeps its historical payload-only checksum.
  Fnv1a64 checksum;
  if (version >= 2) {
    checksum.Value<uint32_t>(version);
    checksum.Value<uint32_t>(kEndianMarker);
  }
  checksum.Bytes(payload.buffer().data(), payload.buffer().size());

  BinaryWriter header;
  for (char c : kMagic) header.Put(c);
  header.Put(version);
  header.Put(kEndianMarker);
  header.Put<uint64_t>(payload.buffer().size());
  header.Put<uint64_t>(checksum.hash);

  // Write a sibling temp file and rename it over `path`: a save that fails
  // or crashes midway leaves the previous snapshot intact instead of a
  // truncated one. (No fsync — this guards against partial writes, not
  // power loss.)
  const std::string tmp = path + ".tmp";
  std::error_code ec;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return Status::IOError("cannot open " + tmp + " for writing");
    }
    out.write(header.buffer().data(),
              static_cast<std::streamsize>(header.buffer().size()));
    out.write(payload.buffer().data(),
              static_cast<std::streamsize>(payload.buffer().size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::filesystem::remove(tmp, ec);
      return Status::IOError("short write to " + tmp);
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    const std::string reason = ec.message();
    std::filesystem::remove(tmp, ec);
    return Status::IOError("cannot replace " + path + ": " + reason);
  }
  return Status::OK();
}

}  // namespace

Status SaveModelSnapshot(const std::string& path,
                         const ModelSnapshot& snapshot) {
  return SaveModelSnapshotAtVersion(path, snapshot, kModelSnapshotVersion);
}

Status SaveModelSnapshotV1(const std::string& path,
                           const ModelSnapshot& snapshot) {
  const core::CandidateActivation& a = snapshot.checkpoint.activation;
  const bool mask_trivial =
      a.active.empty() ||
      std::all_of(a.active.begin(), a.active.end(),
                  [](uint8_t v) { return v != 0; });
  const bool streaks_trivial =
      a.cold_streak.empty() ||
      std::all_of(a.cold_streak.begin(), a.cold_streak.end(),
                  [](int32_t c) { return c == 0; });
  if (!mask_trivial || !streaks_trivial || a.layout_version != 0 ||
      !a.history.empty() || snapshot.checkpoint.config.prune_floor != 0.0 ||
      snapshot.checkpoint.config.prune_patience !=
          core::MlpConfig().prune_patience) {
    return Status::InvalidArgument(
        "snapshot carries candidate-pruning state the v1 format cannot "
        "express — save as v" +
        std::to_string(kModelSnapshotVersion) + " instead");
  }
  return SaveModelSnapshotAtVersion(path, snapshot, 1);
}

Result<SnapshotHeaderInfo> ParseSnapshotHeader(const uint8_t* data,
                                               size_t size) {
  static_assert(kModelSnapshotHeaderSize ==
                    sizeof(kMagic) + sizeof(uint32_t) * 2 +
                        sizeof(uint64_t) * 2,
                "header constant out of sync with the writer");
  if (size < kModelSnapshotHeaderSize) {
    return Status::IOError("snapshot truncated");
  }
  BinaryReader header(data, kModelSnapshotHeaderSize);
  char magic[8];
  for (char& c : magic) c = header.Get<char>();
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not an MLP model snapshot");
  }
  SnapshotHeaderInfo info;
  info.version = header.Get<uint32_t>();
  if (info.version < kMinModelSnapshotVersion ||
      info.version > kModelSnapshotVersion) {
    return Status::InvalidArgument(
        "snapshot version " + std::to_string(info.version) +
        " unsupported (this build reads versions " +
        std::to_string(kMinModelSnapshotVersion) + ".." +
        std::to_string(kModelSnapshotVersion) + ")");
  }
  if (header.Get<uint32_t>() != kEndianMarker) {
    return Status::InvalidArgument(
        "snapshot written on an incompatible-endianness machine");
  }
  info.payload_size = header.Get<uint64_t>();
  if (info.payload_size > size - kModelSnapshotHeaderSize) {
    return Status::IOError("snapshot payload size mismatch");
  }
  info.core_end = kModelSnapshotHeaderSize + info.payload_size;
  return info;
}

Result<ModelSnapshot> LoadModelSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    return Status::NotFound("cannot open snapshot " + path);
  }
  const std::streamsize file_size = in.tellg();
  in.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(file_size));
  if (file_size > 0) {
    in.read(reinterpret_cast<char*>(bytes.data()), file_size);
  }
  if (!in.good()) {
    return Status::IOError("cannot read snapshot " + path);
  }

  Result<SnapshotHeaderInfo> info =
      ParseSnapshotHeader(bytes.data(), bytes.size());
  if (!info.ok()) {
    Status status = info.status();
    return Status(status.code(), status.message() + ": " + path);
  }
  const uint32_t version = info->version;
  const uint64_t payload_size = info->payload_size;
  // Bytes past core_end are NOT part of the snapshot: that region holds
  // the optional appended serve section (its own magic + checksum, mapped
  // by serve::ReadModel::MapServeSection), which this loader ignores.
  constexpr size_t kHeaderSize = kModelSnapshotHeaderSize;
  BinaryReader header(bytes.data(), kHeaderSize);
  for (size_t i = 0; i < sizeof(kMagic) + sizeof(uint32_t) * 2; ++i) {
    header.Get<char>();
  }
  header.Get<uint64_t>();  // payload_size, already validated
  const uint64_t checksum = header.Get<uint64_t>();
  const uint8_t* payload_bytes = bytes.data() + kHeaderSize;
  Fnv1a64 expected;
  if (version >= 2) {
    expected.Value<uint32_t>(version);
    expected.Value<uint32_t>(kEndianMarker);
  }
  expected.Bytes(payload_bytes, payload_size);
  if (expected.hash != checksum) {
    return Status::IOError("snapshot checksum mismatch (corrupt): " + path);
  }

  BinaryReader r(payload_bytes, payload_size);
  ModelSnapshot snapshot;
  snapshot.version = version;
  int32_t merge_cadence = 1;
  snapshot.checkpoint.config = GetConfig(&r, version, &merge_cadence);
  if (!r.failed() && merge_cadence != 1) {
    // The sweep program it recorded (merges every N sweeps) no longer
    // exists, so the checkpoint can neither resume nor be described.
    return Status::InvalidArgument(
        "snapshot was fit with the retired --sync-every " +
        std::to_string(merge_cadence) +
        " (every sweep merges now; refit it): " + path);
  }
  snapshot.checkpoint.fingerprint = r.Get<uint64_t>();
  snapshot.checkpoint.complete = r.Get<uint8_t>() != 0;
  snapshot.checkpoint.progress.round = r.Get<int32_t>();
  snapshot.checkpoint.progress.burn_in_done = r.Get<int32_t>();
  snapshot.checkpoint.progress.sampling_done = r.Get<int32_t>();
  snapshot.checkpoint.progress.alpha = r.Get<double>();
  snapshot.checkpoint.progress.beta = r.Get<double>();
  GetSamplerState(&r, &snapshot.checkpoint.sampler);
  snapshot.checkpoint.master_rng = GetRng(&r);
  uint64_t num_shard_rngs = r.Get<uint64_t>();
  for (uint64_t k = 0; k < num_shard_rngs && !r.failed(); ++k) {
    snapshot.checkpoint.shard_rngs.push_back(GetRng(&r));
  }
  if (version >= 2) {
    GetActivation(&r, &snapshot.checkpoint.activation);
  }
  // version 1: activation stays default-constructed — empty mask, i.e.
  // fully active, which is exactly the state those fits ran with.
  r.GetVector(&snapshot.phi_offset);
  r.GetVector(&snapshot.candidates);
  snapshot.num_locations = r.Get<int32_t>();
  snapshot.num_venues = r.Get<int32_t>();
  GetResult(&r, &snapshot.result);

  if (r.failed() || !r.AtEnd()) {
    return Status::IOError("snapshot payload malformed: " + path);
  }
  return snapshot;
}

}  // namespace io
}  // namespace mlp
