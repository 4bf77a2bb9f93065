#include "serve/read_model.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/hash.h"
#include "core/priors.h"
#include "core/suff_stats.h"
#include "serve/json.h"

namespace mlp {
namespace serve {

namespace {

uint64_t EdgeKey(graph::UserId src, graph::UserId dst) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
         static_cast<uint32_t>(dst);
}

// ---- serve section (out-of-core backing) ----
// Appended after the snapshot's checksummed core payload; byte layout in
// src/io/README.md. Everything the HTTP surface needs at query time lives
// in 64-byte-aligned arrays so the mapper can point straight into the
// file: the two JSON blobs, their CSR offsets, and the sorted key table
// with its parallel edge ids — the same views a built model holds.
constexpr char kServeMagic[8] = {'M', 'L', 'P', 'S', 'E', 'R', 'V', 'E'};
constexpr uint32_t kServeEndianMarker = 0x01020304u;
constexpr uint64_t kServeAlign = 64;
// magic + version + endian + header checksum, then 18 8-byte fields.
constexpr uint64_t kServeChecksumStart = 24;
constexpr uint64_t kServeHeaderBytes = kServeChecksumStart + 18 * 8;

// Field slots (8 bytes each) after the checksum, in file order.
enum ServeField : int {
  kFieldNumUsers = 0,
  kFieldNumEdges,
  kFieldNumEdgeKeys,
  kFieldTotalProfileEntries,
  kFieldAlpha,
  kFieldBeta,
  kFieldLayoutVersion,
  kFieldActiveSlots,
  kFieldFitComplete,
  kFieldFileSize,
  kFieldUserOffsetsOff,
  kFieldEdgeOffsetsOff,
  kFieldEdgeKeysOff,
  kFieldEdgeIdsOff,
  kFieldUserJsonOff,
  kFieldUserJsonSize,
  kFieldEdgeJsonOff,
  kFieldEdgeJsonSize,
};

uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }

uint64_t ReadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

double ReadF64(const uint8_t* p) {
  double v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// `{"city_id":N,"name":"<escaped full name>"` (object left open) for every
// gazetteer city: the rendered responses repeat a few hundred cities
// millions of times, so each is escaped and formatted once per Build.
std::vector<std::string> CityFragments(const geo::Gazetteer* gazetteer) {
  std::vector<std::string> fragments;
  for (geo::CityId id = 0; gazetteer != nullptr && id < gazetteer->size();
       ++id) {
    fragments.push_back("{\"city_id\":" + std::to_string(id) + ",\"name\":\"" +
                        JsonEscape(gazetteer->FullName(id)) + '"');
  }
  return fragments;
}

// Appends the city object for `id`, left open so a profile entry can add
// its "p"; ids outside the gazetteer render with an empty name.
void AppendOpenCity(const std::vector<std::string>& fragments, geo::CityId id,
                    std::string* out) {
  if (id >= 0 && static_cast<size_t>(id) < fragments.size()) {
    *out += fragments[id];
  } else {
    *out += "{\"city_id\":";
    AppendJsonInt(out, id);
    *out += ",\"name\":\"\"";
  }
}

}  // namespace

Result<ReadModel> ReadModel::Build(const io::ModelSnapshot& snapshot,
                                   const graph::SocialGraph& graph,
                                   const geo::Gazetteer* gazetteer,
                                   const ReadModelOptions& options) {
  const core::MlpResult& result = snapshot.result;
  const int num_users = graph.num_users();
  if (static_cast<int>(result.home.size()) != num_users ||
      static_cast<int>(result.profiles.size()) != num_users) {
    return Status::InvalidArgument(
        "snapshot result covers " + std::to_string(result.home.size()) +
        " users but the dataset has " + std::to_string(num_users) +
        " — wrong data directory?");
  }
  if (static_cast<int>(result.following.size()) != graph.num_following()) {
    return Status::InvalidArgument(
        "snapshot explains " + std::to_string(result.following.size()) +
        " following relationships but the dataset has " +
        std::to_string(graph.num_following()));
  }
  if (snapshot.phi_offset.size() != static_cast<size_t>(num_users) + 1 ||
      snapshot.candidates.size() !=
          static_cast<size_t>(snapshot.phi_offset.back())) {
    return Status::InvalidArgument(
        "snapshot candidate layout is inconsistent with its user count");
  }
  const core::SamplerState& sampler = snapshot.checkpoint.sampler;
  const bool have_arena =
      sampler.phi.size() == snapshot.candidates.size() &&
      sampler.phi_total.size() == static_cast<size_t>(num_users);

  ReadModel model;
  model.gazetteer_ = gazetteer;
  model.alpha_ = result.alpha;
  model.beta_ = result.beta;
  model.fit_complete_ = snapshot.checkpoint.complete;
  model.active_slots_ = snapshot.phi_offset.back();
  model.layout_version_ = snapshot.checkpoint.activation.layout_version;

  // Profile entries served per user: the posterior top-K, verbatim.
  auto profile_size = [&](graph::UserId u) {
    int64_t keep = static_cast<int64_t>(result.profiles[u].entries().size());
    return options.top_k > 0 ? std::min<int64_t>(keep, options.top_k) : keep;
  };
  for (graph::UserId u = 0; u < num_users; ++u) {
    model.total_profile_entries_ += profile_size(u);
  }

  // ϕ_u[city] / ϕ_u total against the stored (compacted) candidate layout:
  // the fraction of u's location-based relationship assignments sitting on
  // `city` in the final chain state — the sufficient-statistics view of how
  // much evidence backs an explanation endpoint.
  auto support = [&](graph::UserId u, geo::CityId city) -> double {
    if (!have_arena || city == geo::kInvalidCity) return 0.0;
    const int64_t begin = snapshot.phi_offset[u];
    const int count = static_cast<int>(snapshot.phi_offset[u + 1] - begin);
    const int slot =
        core::FindCandidateSlot(snapshot.candidates.data() + begin, count, city);
    if (slot < 0) return 0.0;
    const double total = sampler.phi_total[u];
    return total > 0.0 ? sampler.phi[begin + slot] / total : 0.0;
  };

  // ---- pre-rendered JSON bodies ----
  // The model is immutable, so every answer body is known now: point
  // queries become substring copies and batch responses a concatenation.
  // Each helper appends `key` (a literal with its own punctuation), then
  // the value, to `body` — one entity, which `emit` then appends to its
  // blob and closes with a CSR offset.
  const std::vector<std::string> cities = CityFragments(gazetteer);
  std::string body;
  auto put_int = [&body](const char* key, int64_t v) {
    body += key;
    AppendJsonInt(&body, v);
  };
  auto put_double = [&body](const char* key, double v) {
    body += key;
    AppendJsonDouble(&body, v);
  };
  auto put_city = [&body, &cities](const char* key, geo::CityId id) {
    body += key;
    if (id == geo::kInvalidCity) {
      body += "null";
    } else {
      AppendOpenCity(cities, id, &body);
      body += '}';
    }
  };
  auto emit = [&body](std::vector<char>* blob, std::vector<int64_t>* offsets) {
    blob->insert(blob->end(), body.begin(), body.end());
    offsets->push_back(static_cast<int64_t>(blob->size()));
    body.clear();
  };

  // Reserved ~10% over typical body sizes (5k-user world: ~100 B per user
  // + ~64 B per profile entry, ~263 B per edge) so blobs are not regrown.
  std::vector<char>& users = model.owned_user_json_;
  users.reserve(static_cast<size_t>(num_users) * 110 +
                static_cast<size_t>(model.total_profile_entries_) * 70);
  model.owned_user_offsets_.reserve(num_users + 1);
  model.owned_user_offsets_.push_back(0);
  for (graph::UserId u = 0; u < num_users; ++u) {
    put_int("{\"user\":", u);
    put_city(",\"home\":", result.home[u]);
    body += ",\"profile\":[";
    const auto& entries = result.profiles[u].entries();
    for (int64_t i = 0, keep = profile_size(u); i < keep; ++i) {
      if (i > 0) body += ',';
      AppendOpenCity(cities, entries[i].first, &body);
      put_double(",\"p\":", entries[i].second);
      body += '}';
    }
    put_int("],\"friends\":", static_cast<int64_t>(graph.OutEdges(u).size()));
    put_int(",\"followers\":", static_cast<int64_t>(graph.InEdges(u).size()));
    put_int(",\"tweets\":", static_cast<int64_t>(graph.TweetEdges(u).size()));
    body += '}';
    emit(&users, &model.owned_user_offsets_);
  }

  const int num_edges = graph.num_following();
  std::vector<char>& edges = model.owned_edge_json_;
  edges.reserve(static_cast<size_t>(num_edges) * 300);
  model.owned_edge_offsets_.reserve(num_edges + 1);
  model.owned_edge_offsets_.push_back(0);
  std::vector<std::pair<uint64_t, int64_t>> keyed;
  keyed.reserve(num_edges);
  for (graph::EdgeId s = 0; s < num_edges; ++s) {
    const graph::FollowingEdge& edge = graph.following(s);
    const core::FollowingExplanation& ex = result.following[s];
    double distance = 0.0;
    if (gazetteer != nullptr && ex.x != geo::kInvalidCity &&
        ex.y != geo::kInvalidCity) {
      distance = gazetteer->DistanceMiles(ex.x, ex.y);
    }
    put_int("{\"src\":", edge.follower);
    put_int(",\"dst\":", edge.friend_user);
    put_int(",\"edge\":", s);
    put_city(",\"explanation\":{\"x\":", ex.x);
    put_city(",\"y\":", ex.y);
    put_double(",\"noise_prob\":", ex.noise_prob);
    put_double(",\"location_based_prob\":", 1.0 - ex.noise_prob);
    put_double(",\"x_support\":", support(edge.follower, ex.x));
    put_double(",\"y_support\":", support(edge.friend_user, ex.y));
    put_double(",\"distance_miles\":", distance);
    body += "}}";
    emit(&edges, &model.owned_edge_offsets_);
    keyed.emplace_back(EdgeKey(edge.follower, edge.friend_user), s);
  }

  // Sorted key table: FindEdge binary-searches it. Sorting (key, id)
  // pairs puts a duplicated (src, dst)'s lowest edge id first; that one
  // is kept.
  std::sort(keyed.begin(), keyed.end());
  for (const auto& [key, id] : keyed) {
    if (!model.owned_edge_keys_.empty() &&
        model.owned_edge_keys_.back() == key) {
      continue;
    }
    model.owned_edge_keys_.push_back(key);
    model.owned_edge_ids_.push_back(id);
  }

  model.num_users_ = num_users;
  model.num_edges_ = num_edges;
  model.num_edge_keys_ = static_cast<int64_t>(model.owned_edge_keys_.size());
  model.user_offsets_ = model.owned_user_offsets_.data();
  model.edge_offsets_ = model.owned_edge_offsets_.data();
  model.edge_keys_ = model.owned_edge_keys_.data();
  model.edge_ids_ = model.owned_edge_ids_.data();
  model.user_json_ = std::string_view(users.data(), users.size());
  model.edge_json_ = std::string_view(edges.data(), edges.size());
  return model;
}

graph::EdgeId ReadModel::FindEdge(graph::UserId src, graph::UserId dst) const {
  const uint64_t key = EdgeKey(src, dst);
  const uint64_t* end = edge_keys_ + num_edge_keys_;
  const uint64_t* it = std::lower_bound(edge_keys_, end, key);
  if (it == end || *it != key) return -1;
  return static_cast<graph::EdgeId>(edge_ids_[it - edge_keys_]);
}

double ReadModel::mean_profile_entries() const {
  const int n = num_users();
  return n == 0 ? 0.0 : static_cast<double>(total_profile_entries_) / n;
}

bool ReadModel::ExampleEdge(graph::UserId* src, graph::UserId* dst) const {
  if (num_edge_keys_ == 0) return false;
  *src = static_cast<graph::UserId>(edge_keys_[0] >> 32);
  *dst = static_cast<graph::UserId>(static_cast<uint32_t>(edge_keys_[0]));
  return true;
}

int64_t ReadModel::AccountedBytes() const {
  using core::VectorBytes;
  return VectorBytes(owned_user_json_) + VectorBytes(owned_edge_json_) +
         VectorBytes(owned_user_offsets_) + VectorBytes(owned_edge_offsets_) +
         VectorBytes(owned_edge_keys_) + VectorBytes(owned_edge_ids_);
}

Status ReadModel::AppendServeSection(const std::string& snapshot_path) const {
  if (mmap_backed()) {
    return Status::FailedPrecondition(
        "cannot re-pack from an mmap-backed model — build from the snapshot");
  }
  // Validate the target is a well-formed snapshot and find where its
  // checksummed core payload ends; everything after that is ours.
  uint64_t core_end = 0;
  {
    std::ifstream in(snapshot_path, std::ios::binary | std::ios::ate);
    if (!in.is_open()) {
      return Status::NotFound("cannot open snapshot " + snapshot_path);
    }
    const uint64_t file_size = static_cast<uint64_t>(in.tellg());
    in.seekg(0);
    uint8_t header[io::kModelSnapshotHeaderSize] = {};
    in.read(reinterpret_cast<char*>(header), sizeof(header));
    if (!in.good()) {
      return Status::IOError("cannot read snapshot header: " + snapshot_path);
    }
    Result<io::SnapshotHeaderInfo> info =
        io::ParseSnapshotHeader(header, file_size);
    if (!info.ok()) {
      return Status(info.status().code(),
                    info.status().message() + ": " + snapshot_path);
    }
    core_end = info->core_end;
  }
  // Drop any existing section so re-packing is idempotent.
  std::error_code ec;
  std::filesystem::resize_file(snapshot_path, core_end, ec);
  if (ec) {
    return Status::IOError("cannot truncate " + snapshot_path + ": " +
                           ec.message());
  }

  const uint64_t section_start = AlignUp(core_end, kServeAlign);
  uint64_t cursor = section_start + kServeHeaderBytes;
  auto place = [&cursor](uint64_t bytes) {
    cursor = AlignUp(cursor, kServeAlign);
    const uint64_t offset = cursor;
    cursor += bytes;
    return offset;
  };
  const uint64_t num_users_u64 = static_cast<uint64_t>(num_users_);
  const uint64_t num_edges_u64 = static_cast<uint64_t>(num_edges_);
  const uint64_t num_keys_u64 = static_cast<uint64_t>(num_edge_keys_);
  const uint64_t user_offsets_off = place((num_users_u64 + 1) * 8);
  const uint64_t edge_offsets_off = place((num_edges_u64 + 1) * 8);
  const uint64_t edge_keys_off = place(num_keys_u64 * 8);
  const uint64_t edge_ids_off = place(num_keys_u64 * 8);
  const uint64_t user_json_off = place(user_json_.size());
  const uint64_t edge_json_off = place(edge_json_.size());
  const uint64_t file_size = cursor;

  uint64_t fields[18] = {};
  fields[kFieldNumUsers] = num_users_u64;
  fields[kFieldNumEdges] = num_edges_u64;
  fields[kFieldNumEdgeKeys] = num_keys_u64;
  fields[kFieldTotalProfileEntries] =
      static_cast<uint64_t>(total_profile_entries_);
  std::memcpy(&fields[kFieldAlpha], &alpha_, sizeof(double));
  std::memcpy(&fields[kFieldBeta], &beta_, sizeof(double));
  fields[kFieldLayoutVersion] = layout_version_;
  fields[kFieldActiveSlots] = static_cast<uint64_t>(active_slots_);
  fields[kFieldFitComplete] = fit_complete_ ? 1 : 0;
  fields[kFieldFileSize] = file_size;
  fields[kFieldUserOffsetsOff] = user_offsets_off;
  fields[kFieldEdgeOffsetsOff] = edge_offsets_off;
  fields[kFieldEdgeKeysOff] = edge_keys_off;
  fields[kFieldEdgeIdsOff] = edge_ids_off;
  fields[kFieldUserJsonOff] = user_json_off;
  fields[kFieldUserJsonSize] = user_json_.size();
  fields[kFieldEdgeJsonOff] = edge_json_off;
  fields[kFieldEdgeJsonSize] = edge_json_.size();

  Fnv1a64 checksum;
  checksum.Bytes(fields, sizeof(fields));

  std::string header;
  header.append(kServeMagic, sizeof(kServeMagic));
  const uint32_t version = kServeSectionVersion;
  header.append(reinterpret_cast<const char*>(&version), sizeof(version));
  header.append(reinterpret_cast<const char*>(&kServeEndianMarker),
                sizeof(kServeEndianMarker));
  header.append(reinterpret_cast<const char*>(&checksum.hash),
                sizeof(checksum.hash));
  header.append(reinterpret_cast<const char*>(fields), sizeof(fields));

  std::ofstream out(snapshot_path,
                    std::ios::binary | std::ios::in | std::ios::out);
  if (!out.is_open()) {
    return Status::IOError("cannot open " + snapshot_path + " for packing");
  }
  out.seekp(static_cast<std::streamoff>(core_end));
  uint64_t written = core_end;
  auto pad_to = [&out, &written](uint64_t offset) {
    static const char zeros[kServeAlign] = {};
    while (written < offset) {
      const uint64_t n = std::min<uint64_t>(offset - written, sizeof(zeros));
      out.write(zeros, static_cast<std::streamsize>(n));
      written += n;
    }
  };
  auto write_bytes = [&out, &written](const void* p, uint64_t n) {
    out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    written += n;
  };
  pad_to(section_start);
  write_bytes(header.data(), header.size());
  pad_to(user_offsets_off);
  write_bytes(user_offsets_, (num_users_u64 + 1) * 8);
  pad_to(edge_offsets_off);
  write_bytes(edge_offsets_, (num_edges_u64 + 1) * 8);
  pad_to(edge_keys_off);
  write_bytes(edge_keys_, num_keys_u64 * 8);
  pad_to(edge_ids_off);
  write_bytes(edge_ids_, num_keys_u64 * 8);
  pad_to(user_json_off);
  write_bytes(user_json_.data(), user_json_.size());
  pad_to(edge_json_off);
  write_bytes(edge_json_.data(), edge_json_.size());
  out.flush();
  if (!out.good() || written != file_size) {
    return Status::IOError("short write packing serve section into " +
                           snapshot_path);
  }
  return Status::OK();
}

Result<ReadModel> ReadModel::MapServeSection(const std::string& snapshot_path,
                                             const geo::Gazetteer* gazetteer) {
  Result<io::MmapFile> mapped = io::MmapFile::Open(snapshot_path);
  if (!mapped.ok()) return mapped.status();
  const uint8_t* data = mapped->data();
  const uint64_t size = mapped->size();
  Result<io::SnapshotHeaderInfo> core = io::ParseSnapshotHeader(data, size);
  if (!core.ok()) {
    return Status(core.status().code(),
                  core.status().message() + ": " + snapshot_path);
  }
  const uint64_t section_start = AlignUp(core->core_end, kServeAlign);
  if (size < section_start + kServeHeaderBytes ||
      std::memcmp(data + section_start, kServeMagic, sizeof(kServeMagic)) !=
          0) {
    return Status::NotFound("snapshot has no serve section (run `mlpctl "
                            "pack` to append one): " +
                            snapshot_path);
  }
  const uint8_t* section = data + section_start;
  uint32_t version;
  std::memcpy(&version, section + 8, sizeof(version));
  if (version != kServeSectionVersion) {
    return Status::InvalidArgument(
        "serve section version " + std::to_string(version) +
        " unsupported (this build serves v" +
        std::to_string(kServeSectionVersion) +
        "; re-run `mlpctl pack`): " + snapshot_path);
  }
  uint32_t endian;
  std::memcpy(&endian, section + 12, sizeof(endian));
  if (endian != kServeEndianMarker) {
    return Status::InvalidArgument(
        "serve section written on an incompatible-endianness machine: " +
        snapshot_path);
  }
  const uint64_t stored_checksum = ReadU64(section + 16);
  Fnv1a64 checksum;
  checksum.Bytes(section + kServeChecksumStart,
                 kServeHeaderBytes - kServeChecksumStart);
  if (checksum.hash != stored_checksum) {
    return Status::IOError("serve section header checksum mismatch: " +
                           snapshot_path);
  }
  auto field = [section](int i) {
    return ReadU64(section + kServeChecksumStart + i * 8);
  };
  if (field(kFieldFileSize) != size) {
    return Status::IOError("serve section truncated (expected " +
                           std::to_string(field(kFieldFileSize)) +
                           " bytes, file has " + std::to_string(size) +
                           "): " + snapshot_path);
  }
  const uint64_t num_users = field(kFieldNumUsers);
  const uint64_t num_edges = field(kFieldNumEdges);
  const uint64_t num_keys = field(kFieldNumEdgeKeys);
  auto in_bounds = [size](uint64_t off, uint64_t bytes) {
    return off % kServeAlign == 0 && off <= size && bytes <= size - off;
  };
  if (!in_bounds(field(kFieldUserOffsetsOff), (num_users + 1) * 8) ||
      !in_bounds(field(kFieldEdgeOffsetsOff), (num_edges + 1) * 8) ||
      !in_bounds(field(kFieldEdgeKeysOff), num_keys * 8) ||
      !in_bounds(field(kFieldEdgeIdsOff), num_keys * 8) ||
      !in_bounds(field(kFieldUserJsonOff), field(kFieldUserJsonSize)) ||
      !in_bounds(field(kFieldEdgeJsonOff), field(kFieldEdgeJsonSize))) {
    return Status::IOError("serve section layout out of bounds: " +
                           snapshot_path);
  }

  ReadModel model;
  model.gazetteer_ = gazetteer;
  model.num_users_ = static_cast<int64_t>(num_users);
  model.num_edges_ = static_cast<int64_t>(num_edges);
  model.num_edge_keys_ = static_cast<int64_t>(num_keys);
  model.total_profile_entries_ =
      static_cast<int64_t>(field(kFieldTotalProfileEntries));
  model.alpha_ = ReadF64(section + kServeChecksumStart + kFieldAlpha * 8);
  model.beta_ = ReadF64(section + kServeChecksumStart + kFieldBeta * 8);
  model.layout_version_ = field(kFieldLayoutVersion);
  model.active_slots_ = static_cast<int64_t>(field(kFieldActiveSlots));
  model.fit_complete_ = field(kFieldFitComplete) != 0;
  model.user_offsets_ =
      reinterpret_cast<const int64_t*>(data + field(kFieldUserOffsetsOff));
  model.edge_offsets_ =
      reinterpret_cast<const int64_t*>(data + field(kFieldEdgeOffsetsOff));
  model.edge_keys_ =
      reinterpret_cast<const uint64_t*>(data + field(kFieldEdgeKeysOff));
  model.edge_ids_ =
      reinterpret_cast<const int64_t*>(data + field(kFieldEdgeIdsOff));
  model.user_json_ = std::string_view(
      reinterpret_cast<const char*>(data + field(kFieldUserJsonOff)),
      field(kFieldUserJsonSize));
  model.edge_json_ = std::string_view(
      reinterpret_cast<const char*>(data + field(kFieldEdgeJsonOff)),
      field(kFieldEdgeJsonSize));
  // Cheap coherence probe (touches two pages): the CSR ends must agree
  // with the blob sizes the header promises. Interior offsets are checked
  // per lookup, by Slice().
  if (model.user_offsets_[num_users] !=
          static_cast<int64_t>(field(kFieldUserJsonSize)) ||
      model.edge_offsets_[num_edges] !=
          static_cast<int64_t>(field(kFieldEdgeJsonSize))) {
    return Status::IOError("serve section offsets disagree with blobs: " +
                           snapshot_path);
  }
  model.mapped_ = std::move(*mapped);
  return model;
}

}  // namespace serve
}  // namespace mlp
