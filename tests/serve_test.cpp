// Tests for the online query subsystem (src/serve/): JSON round-trips,
// snapshot → ReadModel bodies against a reference renderer (v1 and
// v2/pruned formats), the edge key table, heap/mmap parity, and full HTTP
// round trips against a ModelServer on an ephemeral port — including the
// acceptance contract that served posteriors are byte-consistent with
// MlpResult.

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/model.h"
#include "io/model_snapshot.h"
#include "obs/trace.h"
#include "serve/http_server.h"
#include "serve/json.h"
#include "serve/model_server.h"
#include "serve/read_model.h"
#include "synth/world_generator.h"

namespace mlp {
namespace serve {
namespace {

// ------------------------------------------------------------------- json

TEST(JsonTest, WriterEmitsValidNestedDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("Austin \"ATX\", TX\n");
  w.Key("ids");
  w.BeginArray();
  w.Int(1);
  w.Int(2);
  w.EndArray();
  w.Key("nested");
  w.BeginObject();
  w.Key("p");
  w.Double(0.25);
  w.Key("flag");
  w.Bool(true);
  w.Key("none");
  w.Null();
  w.EndObject();
  w.EndObject();
  const std::string text = w.str();
  EXPECT_EQ(text,
            "{\"name\":\"Austin \\\"ATX\\\", TX\\n\",\"ids\":[1,2],"
            "\"nested\":{\"p\":0.25,\"flag\":true,\"none\":null}}");
  Result<JsonValue> parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("name")->string_value, "Austin \"ATX\", TX\n");
  EXPECT_EQ(parsed->Find("ids")->items.size(), 2u);
  EXPECT_EQ(parsed->Find("nested")->Find("p")->AsDouble(), 0.25);
}

TEST(JsonTest, DoubleRenderingRoundTripsExactly) {
  for (double v : {0.1, 1.0 / 3.0, 1e-17, 123456789.123456789, -0.0,
                   0.9999999999999999}) {
    std::string text = JsonDouble(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

/// Reference for AppendJsonDouble, written with snprintf/strtod: the fewest
/// of 15/16/17 significant digits, in %g form, that strtod reads back.
std::string ReferenceJsonDouble(double v) {
  for (int precision : {15, 16, 17}) {
    std::string text = StringPrintf("%.*g", precision, v);
    if (std::strtod(text.c_str(), nullptr) == v) return text;
  }
  return StringPrintf("%.17g", v);
}

TEST(JsonTest, DoubleRenderingMatchesPrintfReference) {
  // Not the shortest round-trip form (that would be 1e-04, 1e+05): packed
  // sections keep their bytes only while this %g form holds.
  EXPECT_EQ(JsonDouble(0.0001), "0.0001");
  EXPECT_EQ(JsonDouble(100000.0), "100000");
  EXPECT_EQ(JsonDouble(1e15), "1e+15");
  for (double v : {0.0, -0.0, 1e-5, 0.0001, 100000.0, 1e15, 1e16, 1e17,
                   5e-324, DBL_MIN, DBL_MAX, -DBL_MAX,
                   std::numeric_limits<double>::quiet_NaN(),
                   -std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(JsonDouble(v), ReferenceJsonDouble(v)) << v;
  }

  // Seeded sweep over the value shapes the read model serves: count
  // ratios, uniform posteriors, exp(-x) tails, plus arbitrary bit patterns.
  std::mt19937_64 rng(20121);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  int mismatches = 0;
  auto check = [&](double v) {
    std::string text;
    AppendJsonDouble(&text, v);
    if (text != ReferenceJsonDouble(v) && ++mismatches <= 5) {
      ADD_FAILURE() << text << " vs " << ReferenceJsonDouble(v);
    }
  };
  constexpr int kPerShape = 250000;
  for (int i = 0; i < kPerShape; ++i) {
    const uint64_t n = 1 + rng() % 100000;
    check(static_cast<double>(rng() % (n + 1)) / static_cast<double>(n));
    check(uniform(rng));
    check(std::exp(-uniform(rng) * 745.0));
    const uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    check(v);
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(JsonTest, ParserHandlesEscapesAndNumbers) {
  Result<JsonValue> v = ParseJson(" { \"a\" : [ -1.5e2 , \"\\u0041\" ] } ");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_object());
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 2u);
  EXPECT_EQ(a->items[0].AsDouble(), -150.0);
  EXPECT_EQ(a->items[1].string_value, "A");
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,2,]").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  // Nesting bomb stays bounded instead of overflowing the stack.
  EXPECT_FALSE(ParseJson(std::string(5000, '[')).ok());
}

// -------------------------------------------------- fit/snapshot fixtures

synth::SyntheticWorld TestWorld(int num_users, uint64_t seed) {
  synth::WorldConfig config;
  config.num_users = num_users;
  config.seed = seed;
  Result<synth::SyntheticWorld> world = synth::GenerateWorld(config);
  EXPECT_TRUE(world.ok());
  return std::move(*world);
}

struct FitHarness {
  explicit FitHarness(const synth::SyntheticWorld& world) {
    input.gazetteer = world.gazetteer.get();
    input.graph = world.graph.get();
    input.distances = world.distances.get();
    referents = world.vocab->ReferentTable();
    input.venue_referents = &referents;
    input.observed_home.reserve(world.graph->num_users());
    for (graph::UserId u = 0; u < world.graph->num_users(); ++u) {
      input.observed_home.push_back(world.graph->user(u).registered_city);
    }
  }
  core::ModelInput input;
  std::vector<std::vector<geo::CityId>> referents;
};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Fits a small model and returns its snapshot (written+reloaded when
/// `path` is non-empty, so the on-disk format is part of the loop).
io::ModelSnapshot FitSnapshot(const synth::SyntheticWorld& world,
                              const core::MlpConfig& config,
                              const std::string& path) {
  FitHarness harness(world);
  core::FitCheckpoint checkpoint;
  core::FitOptions opts;
  opts.checkpoint_out = &checkpoint;
  Result<core::MlpResult> result = core::MlpModel(config).Fit(harness.input, opts);
  EXPECT_TRUE(result.ok());
  io::ModelSnapshot snapshot =
      io::MakeModelSnapshot(harness.input, checkpoint, *result);
  if (!path.empty()) {
    EXPECT_TRUE(io::SaveModelSnapshot(path, snapshot).ok());
    Result<io::ModelSnapshot> loaded = io::LoadModelSnapshot(path);
    EXPECT_TRUE(loaded.ok());
    return std::move(*loaded);
  }
  return snapshot;
}

core::MlpConfig SmallConfig() {
  core::MlpConfig config;
  config.burn_in_iterations = 3;
  config.sampling_iterations = 3;
  config.seed = 99;
  return config;
}

// ---------------------------------------------------------- read model

TEST(ReadModelTest, RejectsMismatchedGraph) {
  synth::SyntheticWorld world = TestWorld(220, 7);
  synth::SyntheticWorld other = TestWorld(150, 11);
  io::ModelSnapshot snapshot = FitSnapshot(world, SmallConfig(), "");
  Result<ReadModel> model =
      ReadModel::Build(snapshot, *other.graph, other.gazetteer.get());
  EXPECT_FALSE(model.ok());
}

// ------------------------------------------------ reference renderer

// Reference renderer for ReadModel's bodies: a JsonWriter per entity over
// answers read straight from (snapshot, graph, gazetteer), names through
// Gazetteer::FullName, ints through std::to_string and doubles through
// ReferenceJsonDouble. It shares no formatter, city table or lookup with
// Build, so it pins the served bytes. Doubles round-trip, so byte
// equality also means every served value equals the fit's to the bit.

/// One (city, probability) line of a reference profile.
struct ProfileEntry {
  geo::CityId city = geo::kInvalidCity;
  double prob = 0.0;
};

/// The fields of one /v1/user body.
struct UserAnswer {
  graph::UserId user = graph::kInvalidUser;
  geo::CityId home = geo::kInvalidCity;
  std::vector<ProfileEntry> entries;
  int entry_count = 0;
  int32_t num_friends = 0;    // out-degree (accounts this user follows)
  int32_t num_followers = 0;  // in-degree
  int32_t num_tweets = 0;     // tweeting relationships
};

/// The fields of one /v1/edge body.
struct EdgeAnswer {
  graph::UserId src = graph::kInvalidUser;
  graph::UserId dst = graph::kInvalidUser;
  graph::EdgeId edge = -1;
  geo::CityId x = geo::kInvalidCity;
  geo::CityId y = geo::kInvalidCity;
  double noise_prob = 0.0;
  double x_support = 0.0;
  double y_support = 0.0;
  double distance_miles = 0.0;
};

/// The top-K of result.profiles, with degrees from the graph.
UserAnswer ReferenceUser(const io::ModelSnapshot& snapshot,
                         const graph::SocialGraph& graph, graph::UserId u,
                         int top_k) {
  UserAnswer answer;
  answer.user = u;
  answer.home = snapshot.result.home[u];
  for (const auto& [city, prob] : snapshot.result.profiles[u].entries()) {
    if (top_k > 0 && answer.entry_count == top_k) break;
    answer.entries.push_back({city, prob});
    ++answer.entry_count;
  }
  answer.num_friends = static_cast<int32_t>(graph.OutEdges(u).size());
  answer.num_followers = static_cast<int32_t>(graph.InEdges(u).size());
  answer.num_tweets = static_cast<int32_t>(graph.TweetEdges(u).size());
  return answer;
}

/// ϕ_u[city] / ϕ_u total, finding `city` by a linear scan of u's stored
/// candidates; 0 without an arena, for an invalid city or a non-candidate.
double ReferenceSupport(const io::ModelSnapshot& snapshot, graph::UserId u,
                        geo::CityId city) {
  const core::SamplerState& sampler = snapshot.checkpoint.sampler;
  if (sampler.phi.size() != snapshot.candidates.size() ||
      sampler.phi_total.size() != snapshot.result.home.size() ||
      city == geo::kInvalidCity) {
    return 0.0;
  }
  for (int64_t i = snapshot.phi_offset[u]; i < snapshot.phi_offset[u + 1];
       ++i) {
    if (snapshot.candidates[i] != city) continue;
    const double total = sampler.phi_total[u];
    return total > 0.0 ? sampler.phi[i] / total : 0.0;
  }
  return 0.0;
}

/// Edge `s`'s stored explanation with recomputed support and distance.
EdgeAnswer ReferenceEdge(const io::ModelSnapshot& snapshot,
                         const graph::SocialGraph& graph,
                         const geo::Gazetteer* gazetteer, graph::EdgeId s) {
  const graph::FollowingEdge& edge = graph.following(s);
  const core::FollowingExplanation& ex = snapshot.result.following[s];
  EdgeAnswer answer;
  answer.src = edge.follower;
  answer.dst = edge.friend_user;
  answer.edge = s;
  answer.x = ex.x;
  answer.y = ex.y;
  answer.noise_prob = ex.noise_prob;
  answer.x_support = ReferenceSupport(snapshot, edge.follower, ex.x);
  answer.y_support = ReferenceSupport(snapshot, edge.friend_user, ex.y);
  if (gazetteer != nullptr && ex.x != geo::kInvalidCity &&
      ex.y != geo::kInvalidCity) {
    answer.distance_miles = gazetteer->DistanceMiles(ex.x, ex.y);
  }
  return answer;
}

void ReferenceDouble(double v, JsonWriter* w) {
  w->Raw(ReferenceJsonDouble(v));
}

std::string ReferenceCityName(const geo::Gazetteer* gazetteer,
                              geo::CityId id) {
  if (gazetteer == nullptr || id < 0 || id >= gazetteer->size()) return "";
  return gazetteer->FullName(id);
}

void WriteCity(const geo::Gazetteer* gazetteer, const char* key,
               geo::CityId id, JsonWriter* w) {
  w->Key(key);
  if (id == geo::kInvalidCity) {
    w->Null();
    return;
  }
  w->BeginObject();
  w->Key("city_id");
  w->Raw(std::to_string(id));
  w->Key("name");
  w->String(ReferenceCityName(gazetteer, id));
  w->EndObject();
}

std::string WriteUserJson(const geo::Gazetteer* gazetteer,
                          const UserAnswer& answer) {
  JsonWriter w;
  w.BeginObject();
  w.Key("user");
  w.Raw(std::to_string(answer.user));
  WriteCity(gazetteer, "home", answer.home, &w);
  w.Key("profile");
  w.BeginArray();
  for (int i = 0; i < answer.entry_count; ++i) {
    const ProfileEntry& entry = answer.entries[i];
    w.BeginObject();
    w.Key("city_id");
    w.Raw(std::to_string(entry.city));
    w.Key("name");
    w.String(ReferenceCityName(gazetteer, entry.city));
    w.Key("p");
    ReferenceDouble(entry.prob, &w);
    w.EndObject();
  }
  w.EndArray();
  w.Key("friends");
  w.Raw(std::to_string(answer.num_friends));
  w.Key("followers");
  w.Raw(std::to_string(answer.num_followers));
  w.Key("tweets");
  w.Raw(std::to_string(answer.num_tweets));
  w.EndObject();
  return w.str();
}

std::string WriteEdgeJson(const geo::Gazetteer* gazetteer,
                          const EdgeAnswer& answer) {
  JsonWriter w;
  w.BeginObject();
  w.Key("src");
  w.Raw(std::to_string(answer.src));
  w.Key("dst");
  w.Raw(std::to_string(answer.dst));
  w.Key("edge");
  w.Raw(std::to_string(answer.edge));
  w.Key("explanation");
  w.BeginObject();
  WriteCity(gazetteer, "x", answer.x, &w);
  WriteCity(gazetteer, "y", answer.y, &w);
  w.Key("noise_prob");
  ReferenceDouble(answer.noise_prob, &w);
  w.Key("location_based_prob");
  ReferenceDouble(1.0 - answer.noise_prob, &w);
  w.Key("x_support");
  ReferenceDouble(answer.x_support, &w);
  w.Key("y_support");
  ReferenceDouble(answer.y_support, &w);
  w.Key("distance_miles");
  ReferenceDouble(answer.distance_miles, &w);
  w.EndObject();
  w.EndObject();
  return w.str();
}

/// Every UserJson/EdgeJson body equals the reference renderer's bytes.
void ExpectReferenceRender(const io::ModelSnapshot& snapshot,
                           const graph::SocialGraph& graph,
                           const geo::Gazetteer* gazetteer, int top_k) {
  ReadModelOptions options;
  options.top_k = top_k;
  Result<ReadModel> model =
      ReadModel::Build(snapshot, graph, gazetteer, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_EQ(model->num_users(), graph.num_users());
  ASSERT_EQ(model->num_edges(), graph.num_following());
  for (graph::UserId u = 0; u < model->num_users(); ++u) {
    ASSERT_EQ(model->UserJson(u),
              WriteUserJson(gazetteer, ReferenceUser(snapshot, graph, u,
                                                     top_k)))
        << "user " << u << " top_k " << top_k;
  }
  for (graph::EdgeId s = 0; s < model->num_edges(); ++s) {
    ASSERT_EQ(model->EdgeJson(s),
              WriteEdgeJson(gazetteer,
                            ReferenceEdge(snapshot, graph, gazetteer, s)))
        << "edge " << s << " top_k " << top_k;
  }
}

TEST(ReadModelTest, RenderedBodiesMatchReferenceRenderer) {
  synth::SyntheticWorld world = TestWorld(220, 7);
  io::ModelSnapshot snapshot = FitSnapshot(world, SmallConfig(), "");
  // Unassigned cities render as null; make sure some bodies carry them.
  ASSERT_GE(snapshot.result.following.size(), 2u);
  snapshot.result.home[0] = geo::kInvalidCity;
  snapshot.result.following[0].x = geo::kInvalidCity;
  snapshot.result.following[1].y = geo::kInvalidCity;
  for (int top_k : {10, 0, -1}) {
    ExpectReferenceRender(snapshot, *world.graph, world.gazetteer.get(),
                          top_k);
  }
  // Without a gazetteer names are empty and distances 0.
  ExpectReferenceRender(snapshot, *world.graph, nullptr, 10);
}

// Served homes and posteriors equal MlpResult's for every snapshot
// format: the reference renders them straight from the loaded result.

TEST(ReadModelTest, V2SnapshotServedHomesMatchMlpResult) {
  synth::SyntheticWorld world = TestWorld(220, 7);
  io::ModelSnapshot snapshot =
      FitSnapshot(world, SmallConfig(), TempPath("serve_v2.snap"));
  ExpectReferenceRender(snapshot, *world.graph, world.gazetteer.get(), 5);
}

TEST(ReadModelTest, PrunedV2SnapshotServedHomesMatchMlpResult) {
  synth::SyntheticWorld world = TestWorld(220, 8);
  core::MlpConfig config = SmallConfig();
  config.burn_in_iterations = 6;
  config.prune_floor = 0.2;  // aggressive, so pruning definitely fires
  config.prune_patience = 1;
  io::ModelSnapshot snapshot =
      FitSnapshot(world, config, TempPath("serve_v2_pruned.snap"));
  // The point of this fixture is a snapshot whose arena is compacted.
  ASSERT_FALSE(snapshot.checkpoint.activation.history.empty())
      << "pruning never fired — floor/patience need retuning";
  ExpectReferenceRender(snapshot, *world.graph, world.gazetteer.get(), 10);
}

TEST(ReadModelTest, V1SnapshotServedHomesMatchMlpResult) {
  synth::SyntheticWorld world = TestWorld(220, 9);
  io::ModelSnapshot snapshot = FitSnapshot(world, SmallConfig(), "");
  const std::string path = TempPath("serve_v1.snap");
  ASSERT_TRUE(io::SaveModelSnapshotV1(path, snapshot).ok());
  Result<io::ModelSnapshot> loaded = io::LoadModelSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  // The reference reads the loaded result, so first pin it to the fit's.
  ASSERT_EQ(loaded->result.home, snapshot.result.home);
  for (size_t u = 0; u < snapshot.result.profiles.size(); ++u) {
    ASSERT_EQ(loaded->result.profiles[u].entries(),
              snapshot.result.profiles[u].entries())
        << "user " << u;
  }
  ExpectReferenceRender(*loaded, *world.graph, world.gazetteer.get(), 10);
}

/// Asserts FindEdge against a map oracle: every (src, dst) of `graph`
/// resolves to its lowest edge id; absent pairs, negative ids and ids
/// ≥ num_users resolve to -1.
void ExpectFindEdgeOracle(const ReadModel& model,
                          const graph::SocialGraph& graph) {
  std::map<std::pair<graph::UserId, graph::UserId>, graph::EdgeId> lowest;
  for (graph::EdgeId s = graph.num_following() - 1; s >= 0; --s) {
    const graph::FollowingEdge& edge = graph.following(s);
    lowest[{edge.follower, edge.friend_user}] = s;
  }
  for (graph::EdgeId s = 0; s < graph.num_following(); ++s) {
    const graph::FollowingEdge& edge = graph.following(s);
    ASSERT_EQ(model.FindEdge(edge.follower, edge.friend_user),
              (lowest[{edge.follower, edge.friend_user}]))
        << "edge " << s;
  }
  const graph::UserId n = graph.num_users();
  for (graph::UserId u = 0; u < n; ++u) {
    EXPECT_EQ(model.FindEdge(u, u), -1);  // self-follows never exist
    for (graph::UserId v : {0, n / 2, n - 1}) {
      if (lowest.count({u, v}) == 0) EXPECT_EQ(model.FindEdge(u, v), -1);
    }
  }
  for (graph::UserId bad : {-1, -7, n, n + 1, 10 * n}) {
    EXPECT_EQ(model.FindEdge(bad, 0), -1);
    EXPECT_EQ(model.FindEdge(0, bad), -1);
    EXPECT_EQ(model.FindEdge(bad, bad), -1);
  }
}

TEST(ReadModelTest, FindEdgeResolvesLowestEdgeIdOnBothBackings) {
  synth::SyntheticWorld world = TestWorld(220, 7);
  const std::string path = TempPath("serve_dup_edges.snap");
  io::ModelSnapshot snapshot = FitSnapshot(world, SmallConfig(), "");

  // The world's graph plus duplicated (src, dst) pairs appended at higher
  // ids, each explained like the edge it repeats.
  const graph::SocialGraph& base = *world.graph;
  graph::SocialGraph graph(base.num_venues());
  for (graph::UserId u = 0; u < base.num_users(); ++u) {
    graph.AddUser(base.user(u));
  }
  for (graph::EdgeId s = 0; s < base.num_following(); ++s) {
    const graph::FollowingEdge& edge = base.following(s);
    ASSERT_TRUE(graph.AddFollowing(edge.follower, edge.friend_user).ok());
  }
  for (graph::EdgeId s : {base.num_following() / 2, 0,
                          base.num_following() / 2}) {
    const graph::FollowingEdge& edge = base.following(s);
    ASSERT_TRUE(graph.AddFollowing(edge.follower, edge.friend_user).ok());
    snapshot.result.following.push_back(snapshot.result.following[s]);
  }
  graph.Finalize();

  Result<ReadModel> mem =
      ReadModel::Build(snapshot, graph, world.gazetteer.get());
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  ExpectFindEdgeOracle(*mem, graph);

  ASSERT_TRUE(io::SaveModelSnapshot(path, snapshot).ok());
  ASSERT_TRUE(mem->AppendServeSection(path).ok());
  Result<ReadModel> mapped =
      ReadModel::MapServeSection(path, world.gazetteer.get());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectFindEdgeOracle(*mapped, graph);
}

// ------------------------------------------------------ mmap-backed parity

/// Packs the snapshot at `path` with a serve section rendered from the
/// in-memory ReadModel, maps it back, and asserts the mapped serving
/// surface (UserJson / EdgeJson / FindEdge / statsz metadata) is
/// byte-identical to the in-memory one — the out-of-core contract.
void ExpectMmapParity(const std::string& path,
                      const synth::SyntheticWorld& world,
                      const io::ModelSnapshot& snapshot) {
  Result<ReadModel> mem =
      ReadModel::Build(snapshot, *world.graph, world.gazetteer.get());
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  Status packed = mem->AppendServeSection(path);
  ASSERT_TRUE(packed.ok()) << packed.ToString();
  // Packing must not disturb the core payload: the classic loader still
  // accepts the file (it tolerates the trailing section).
  EXPECT_TRUE(io::LoadModelSnapshot(path).ok());

  Result<ReadModel> mapped =
      ReadModel::MapServeSection(path, world.gazetteer.get());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->mmap_backed());
  EXPECT_FALSE(mem->mmap_backed());
  // Only a heap-built model is packed; a mapped one refuses to re-pack.
  EXPECT_EQ(mapped->AppendServeSection(path).code(),
            StatusCode::kFailedPrecondition);

  // /statsz metadata parity.
  ASSERT_EQ(mapped->num_users(), mem->num_users());
  ASSERT_EQ(mapped->num_edges(), mem->num_edges());
  EXPECT_EQ(mapped->alpha(), mem->alpha());
  EXPECT_EQ(mapped->beta(), mem->beta());
  EXPECT_EQ(mapped->fit_complete(), mem->fit_complete());
  EXPECT_EQ(mapped->active_candidate_slots(), mem->active_candidate_slots());
  EXPECT_EQ(mapped->candidate_layout_version(),
            mem->candidate_layout_version());
  EXPECT_EQ(mapped->mean_profile_entries(), mem->mean_profile_entries());

  // Rendered responses, byte for byte, across every user and edge.
  for (graph::UserId u = 0; u < mem->num_users(); ++u) {
    ASSERT_EQ(mapped->UserJson(u), mem->UserJson(u)) << "user " << u;
  }
  for (graph::EdgeId s = 0; s < mem->num_edges(); ++s) {
    ASSERT_EQ(mapped->EdgeJson(s), mem->EdgeJson(s)) << "edge " << s;
  }
  EXPECT_EQ(mapped->UserJson(-1), std::string_view());
  EXPECT_EQ(mapped->UserJson(mem->num_users()), std::string_view());
  EXPECT_EQ(mapped->EdgeJson(mem->num_edges()), std::string_view());

  // Edge-index agreement, present and absent keys alike.
  for (graph::EdgeId s = 0; s < mem->num_edges(); ++s) {
    const graph::FollowingEdge& edge = world.graph->following(s);
    EXPECT_EQ(mapped->FindEdge(edge.follower, edge.friend_user),
              mem->FindEdge(edge.follower, edge.friend_user))
        << "edge " << s;
  }
  const graph::UserId absent = mem->num_users() + 7;
  EXPECT_EQ(mapped->FindEdge(0, absent), -1);
  EXPECT_EQ(mapped->FindEdge(0, absent), mem->FindEdge(0, absent));

  graph::UserId src = graph::kInvalidUser;
  graph::UserId dst = graph::kInvalidUser;
  if (mapped->ExampleEdge(&src, &dst)) {
    EXPECT_EQ(mapped->FindEdge(src, dst), mem->FindEdge(src, dst));
  }
}

TEST(ReadModelMmapTest, V2PackedSnapshotServesByteIdenticalResponses) {
  synth::SyntheticWorld world = TestWorld(220, 7);
  const std::string path = TempPath("mmap_v2.snap");
  io::ModelSnapshot snapshot = FitSnapshot(world, SmallConfig(), path);
  ExpectMmapParity(path, world, snapshot);
}

TEST(ReadModelMmapTest, V1PackedSnapshotServesByteIdenticalResponses) {
  synth::SyntheticWorld world = TestWorld(220, 9);
  io::ModelSnapshot snapshot = FitSnapshot(world, SmallConfig(), "");
  const std::string path = TempPath("mmap_v1.snap");
  ASSERT_TRUE(io::SaveModelSnapshotV1(path, snapshot).ok());
  Result<io::ModelSnapshot> loaded = io::LoadModelSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  ExpectMmapParity(path, world, *loaded);
}

TEST(ReadModelMmapTest, PrunedSnapshotServesByteIdenticalResponses) {
  synth::SyntheticWorld world = TestWorld(220, 8);
  core::MlpConfig config = SmallConfig();
  config.burn_in_iterations = 6;
  config.prune_floor = 0.2;
  config.prune_patience = 1;
  const std::string path = TempPath("mmap_pruned.snap");
  io::ModelSnapshot snapshot = FitSnapshot(world, config, path);
  ASSERT_FALSE(snapshot.checkpoint.activation.history.empty())
      << "pruning never fired — floor/patience need retuning";
  ExpectMmapParity(path, world, snapshot);
}

TEST(ReadModelMmapTest, RepackingIsIdempotent) {
  synth::SyntheticWorld world = TestWorld(150, 12);
  const std::string path = TempPath("mmap_repack.snap");
  io::ModelSnapshot snapshot = FitSnapshot(world, SmallConfig(), path);
  Result<ReadModel> mem =
      ReadModel::Build(snapshot, *world.graph, world.gazetteer.get());
  ASSERT_TRUE(mem.ok());
  ASSERT_TRUE(mem->AppendServeSection(path).ok());
  // A second pack replaces the section in place instead of stacking a
  // new one after it.
  ASSERT_TRUE(mem->AppendServeSection(path).ok());
  Result<ReadModel> mapped =
      ReadModel::MapServeSection(path, world.gazetteer.get());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->UserJson(0), mem->UserJson(0));
}

TEST(ReadModelMmapTest, UnpackedSnapshotReportsMissingSection) {
  synth::SyntheticWorld world = TestWorld(150, 13);
  const std::string path = TempPath("mmap_unpacked.snap");
  FitSnapshot(world, SmallConfig(), path);
  Result<ReadModel> mapped =
      ReadModel::MapServeSection(path, world.gazetteer.get());
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().ToString().find("pack"), std::string::npos)
      << mapped.status().ToString();
}

TEST(ReadModelMmapTest, CorruptInteriorOffsetsAre404sNotCrashes) {
  synth::SyntheticWorld world = TestWorld(150, 14);
  const std::string path = TempPath("mmap_corrupt.snap");
  io::ModelSnapshot snapshot = FitSnapshot(world, SmallConfig(), path);
  Result<ReadModel> mem =
      ReadModel::Build(snapshot, *world.graph, world.gazetteer.get());
  ASSERT_TRUE(mem.ok());
  ASSERT_TRUE(mem->AppendServeSection(path).ok());

  // Point one interior user offset and one interior edge offset past
  // their blobs. The header checksum covers the header, not the arrays,
  // so the section still maps. Header field slots 10 and 11 hold the file
  // offsets of the user and edge CSR arrays (src/io/README.md).
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const size_t section = bytes.rfind("MLPSERVE");
  ASSERT_NE(section, std::string::npos);
  auto field = [&](int i) {
    uint64_t v;
    std::memcpy(&v, bytes.data() + section + 24 + 8 * i, sizeof(v));
    return v;
  };
  const graph::UserId bad_user = mem->num_users() / 2;
  const graph::EdgeId bad_edge = mem->num_edges() / 2;
  const int64_t past = static_cast<int64_t>(bytes.size());
  std::memcpy(&bytes[field(10) + 8 * bad_user], &past, sizeof(past));
  std::memcpy(&bytes[field(11) + 8 * bad_edge], &past, sizeof(past));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  Result<ReadModel> mapped =
      ReadModel::MapServeSection(path, world.gazetteer.get());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ModelServer server(std::move(*mapped), ServeOptions{});
  HttpRequest request;
  request.method = "GET";
  std::string batch = "{\"users\":[";
  for (graph::UserId u = 0; u < mem->num_users(); ++u) {
    request.target = "/v1/user/" + std::to_string(u);
    // The corrupt offset ends user bad_user - 1 and begins bad_user.
    const bool corrupt = u == bad_user - 1 || u == bad_user;
    EXPECT_EQ(server.Handle(request).status, corrupt ? 404 : 200) << u;
    batch += (u > 0 ? "," : "") + std::to_string(u);
  }
  for (graph::EdgeId s = 0; s < mem->num_edges(); ++s) {
    const graph::FollowingEdge& edge = world.graph->following(s);
    request.target = "/v1/edge/" + std::to_string(edge.follower) + "/" +
                     std::to_string(edge.friend_user);
    const graph::EdgeId id = mem->FindEdge(edge.follower, edge.friend_user);
    const bool corrupt = id == bad_edge - 1 || id == bad_edge;
    EXPECT_EQ(server.Handle(request).status, corrupt ? 404 : 200) << s;
  }
  request.method = "POST";
  request.target = "/v1/batch";
  request.body = batch + "]}";
  HttpResponse response = server.Handle(request);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find(",null,null,"), std::string::npos);
}

// ------------------------------------------------------- http round trips

class ModelServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new synth::SyntheticWorld(TestWorld(220, 7));
    snapshot_ = new io::ModelSnapshot(
        FitSnapshot(*world_, SmallConfig(), TempPath("serve_http.snap")));
  }
  static void TearDownTestSuite() {
    delete snapshot_;
    delete world_;
    snapshot_ = nullptr;
    world_ = nullptr;
  }

  /// Starts a fresh server on an ephemeral port with explicit options
  /// (port is forced to 0).
  std::unique_ptr<ModelServer> StartServerWithOptions(ServeOptions options) {
    Result<ReadModel> model = ReadModel::Build(*snapshot_, *world_->graph,
                                               world_->gazetteer.get());
    EXPECT_TRUE(model.ok());
    options.port = 0;
    auto server =
        std::make_unique<ModelServer>(std::move(*model), options);
    EXPECT_TRUE(server->Start().ok());
    EXPECT_GT(server->port(), 0);
    return server;
  }

  /// Starts a fresh server on an ephemeral port.
  std::unique_ptr<ModelServer> StartServer(int threads = 4) {
    ServeOptions options;
    options.threads = threads;
    return StartServerWithOptions(options);
  }

  static synth::SyntheticWorld* world_;
  static io::ModelSnapshot* snapshot_;
};

synth::SyntheticWorld* ModelServerTest::world_ = nullptr;
io::ModelSnapshot* ModelServerTest::snapshot_ = nullptr;

TEST_F(ModelServerTest, HealthzAndStatsz) {
  auto server = StartServer();
  Result<HttpResponse> health =
      HttpFetch("127.0.0.1", server->port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  Result<JsonValue> parsed = ParseJson(health->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("status")->string_value, "ok");

  Result<HttpResponse> stats =
      HttpFetch("127.0.0.1", server->port(), "GET", "/statsz");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, 200);
  Result<JsonValue> stats_json = ParseJson(stats->body);
  ASSERT_TRUE(stats_json.ok());
  EXPECT_NE(stats_json->Find("users"), nullptr);

  // CSV rendering shares io::TablePrinter::ToCsv.
  Result<HttpResponse> csv =
      HttpFetch("127.0.0.1", server->port(), "GET", "/statsz?format=csv");
  ASSERT_TRUE(csv.ok());
  EXPECT_EQ(csv->status, 200);
  EXPECT_EQ(csv->body.rfind("stat,value\n", 0), 0u) << csv->body;

  // The pool queue depth is part of the operator surface in every format.
  EXPECT_NE(stats_json->Find("conn_queue_depth"), nullptr);
  EXPECT_NE(csv->body.find("conn_queue_depth,"), std::string::npos);
}

TEST_F(ModelServerTest, MetricszServesPrometheusExposition) {
  auto server = StartServer();
  // Prime the latency histogram with a couple of requests first.
  ASSERT_TRUE(
      HttpFetch("127.0.0.1", server->port(), "GET", "/v1/user/0").ok());
  ASSERT_TRUE(HttpFetch("127.0.0.1", server->port(), "GET", "/healthz").ok());

  Result<HttpResponse> metrics =
      HttpFetch("127.0.0.1", server->port(), "GET", "/metricsz");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->status, 200);
  const std::string& body = metrics->body;

  // Request-latency histogram: TYPE line, cumulative le buckets including
  // +Inf, sum and count — and the count covers the requests above.
  EXPECT_NE(body.find("# TYPE serve_request_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(body.find("serve_request_latency_us_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(body.find("serve_request_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(body.find("serve_request_latency_us_sum"), std::string::npos);
  EXPECT_NE(body.find("serve_request_latency_us_count"), std::string::npos);

  // Queue depth, model generation.
  EXPECT_NE(body.find("# TYPE serve_conn_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(body.find("serve_model_generation 1"), std::string::npos);

  // The process-wide registry rides along (requests counter at minimum).
  EXPECT_NE(body.find("# TYPE serve_requests_total counter"),
            std::string::npos);

  // Every line is "# ..." commentary or "name[{labels}] value" — a cheap
  // exposition-format well-formedness pass.
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    EXPECT_NE(value.find_first_of("0123456789"), std::string::npos) << line;
  }
}

TEST_F(ModelServerTest, ServedUserJsonIsByteConsistentWithMlpResult) {
  auto server = StartServer();
  Result<HttpClient> connected = HttpClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  HttpClient client = std::move(connected).ValueOrDie();
  for (graph::UserId u = 0; u < 25; ++u) {
    Result<HttpResponse> response =
        client.RoundTrip("GET", "/v1/user/" + std::to_string(u));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, 200);
    Result<JsonValue> parsed = ParseJson(response->body);
    ASSERT_TRUE(parsed.ok());
    // Argmax home parity.
    const JsonValue* home = parsed->Find("home");
    ASSERT_NE(home, nullptr);
    if (snapshot_->result.home[u] == geo::kInvalidCity) {
      EXPECT_EQ(home->type, JsonValue::Type::kNull);
    } else {
      EXPECT_EQ(home->Find("city_id")->AsInt(-1), snapshot_->result.home[u]);
    }
    // Posterior parity to the last bit: the JSON doubles parse back to
    // exactly the MlpResult values.
    const JsonValue* profile = parsed->Find("profile");
    ASSERT_NE(profile, nullptr);
    const auto& entries = snapshot_->result.profiles[u].entries();
    size_t expected = std::min<size_t>(entries.size(), 10);
    ASSERT_EQ(profile->items.size(), expected);
    for (size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(profile->items[i].Find("city_id")->AsInt(-1),
                entries[i].first);
      EXPECT_EQ(profile->items[i].Find("p")->AsDouble(), entries[i].second);
    }
  }
}

TEST_F(ModelServerTest, EdgeEndpointServesExplanations) {
  auto server = StartServer();
  ASSERT_GT(world_->graph->num_following(), 0);
  const graph::FollowingEdge& edge = world_->graph->following(0);
  Result<HttpResponse> response = HttpFetch(
      "127.0.0.1", server->port(), "GET",
      "/v1/edge/" + std::to_string(edge.follower) + "/" +
          std::to_string(edge.friend_user));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  Result<JsonValue> parsed = ParseJson(response->body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* explanation = parsed->Find("explanation");
  ASSERT_NE(explanation, nullptr);
  EXPECT_EQ(explanation->Find("noise_prob")->AsDouble(),
            snapshot_->result.following[0].noise_prob);
  EXPECT_NE(explanation->Find("x_support"), nullptr);
  EXPECT_NE(explanation->Find("distance_miles"), nullptr);

  // Errors: absent edge and malformed ids.
  Result<HttpResponse> missing = HttpFetch(
      "127.0.0.1", server->port(), "GET",
      "/v1/edge/" + std::to_string(edge.follower) + "/" +
          std::to_string(edge.follower));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  Result<HttpResponse> bad =
      HttpFetch("127.0.0.1", server->port(), "GET", "/v1/edge/x/y");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);
}

TEST_F(ModelServerTest, BatchEndpointMatchesPointQueries) {
  auto server = StartServer();
  const graph::FollowingEdge& edge = world_->graph->following(0);
  std::string body = "{\"users\":[0,1,999999],\"edges\":[[" +
                     std::to_string(edge.follower) + "," +
                     std::to_string(edge.friend_user) + "]]}";
  Result<HttpResponse> batch =
      HttpFetch("127.0.0.1", server->port(), "POST", "/v1/batch", body);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->status, 200) << batch->body;
  Result<JsonValue> parsed = ParseJson(batch->body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* users = parsed->Find("users");
  ASSERT_NE(users, nullptr);
  ASSERT_EQ(users->items.size(), 3u);
  EXPECT_EQ(users->items[2].type, JsonValue::Type::kNull);  // 999999
  const JsonValue* edges = parsed->Find("edges");
  ASSERT_EQ(edges->items.size(), 1u);

  // The batch user objects are rendered by the same code path as the
  // point endpoint, so the point body appears verbatim inside the batch
  // body (byte-consistency across endpoints).
  Result<HttpResponse> point =
      HttpFetch("127.0.0.1", server->port(), "GET", "/v1/user/0");
  ASSERT_TRUE(point.ok());
  EXPECT_NE(batch->body.find(point->body), std::string::npos)
      << point->body << "\nnot found in\n"
      << batch->body;

  Result<HttpResponse> rejected =
      HttpFetch("127.0.0.1", server->port(), "POST", "/v1/batch", "{nope");
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status, 400);

  // A large batch: 1,500 users and 600 edges, with out-of-range users and
  // absent edges mixed in. The body is exactly the point bodies joined in
  // request order, null where the point query 404s.
  const int num_users = world_->graph->num_users();
  const int num_edges = world_->graph->num_following();
  auto point_body = [&](const std::string& target) {
    HttpRequest request;
    request.method = "GET";
    request.target = target;
    HttpResponse response = server->Handle(request);
    EXPECT_TRUE(response.status == 200 || response.status == 404)
        << target << " " << response.status;
    return response.status == 200 ? response.body : std::string("null");
  };
  std::string request = "{\"users\":[";
  std::string expected = "{\"users\":[";
  for (int i = 0; i < 1500; ++i) {
    // Every 7th id lies past the last user (some far past it).
    const int64_t user = i % 7 == 3 ? num_users + i : (i * 37) % num_users;
    if (i > 0) {
      request += ',';
      expected += ',';
    }
    request += std::to_string(user);
    expected += point_body("/v1/user/" + std::to_string(user));
  }
  request += "],\"edges\":[";
  expected += "],\"edges\":[";
  int absent = 0;
  for (int i = 0; i < 600; ++i) {
    const graph::FollowingEdge& e = world_->graph->following(
        (i * 13) % num_edges);
    // Every 5th pair is a self-follow, which never exists.
    const graph::UserId src = e.follower;
    const graph::UserId dst = i % 5 == 1 ? e.follower : e.friend_user;
    if (i > 0) {
      request += ',';
      expected += ',';
    }
    request += "[" + std::to_string(src) + "," + std::to_string(dst) + "]";
    const std::string body = point_body("/v1/edge/" + std::to_string(src) +
                                        "/" + std::to_string(dst));
    absent += body == "null";
    expected += body;
  }
  request += "]}";
  expected += "]}";
  EXPECT_EQ(absent, 120);
  Result<HttpResponse> large =
      HttpFetch("127.0.0.1", server->port(), "POST", "/v1/batch", request);
  ASSERT_TRUE(large.ok()) << large.status().ToString();
  ASSERT_EQ(large->status, 200) << large->body;
  EXPECT_EQ(large->body, expected);
}

TEST_F(ModelServerTest, UnknownEndpointsAnd404s) {
  auto server = StartServer();
  Result<HttpResponse> nope =
      HttpFetch("127.0.0.1", server->port(), "GET", "/v2/everything");
  ASSERT_TRUE(nope.ok());
  EXPECT_EQ(nope->status, 404);
  Result<HttpResponse> no_user =
      HttpFetch("127.0.0.1", server->port(), "GET", "/v1/user/123456789");
  ASSERT_TRUE(no_user.ok());
  EXPECT_EQ(no_user->status, 404);
  Result<HttpResponse> bad_id =
      HttpFetch("127.0.0.1", server->port(), "GET", "/v1/user/abc");
  ASSERT_TRUE(bad_id.ok());
  EXPECT_EQ(bad_id->status, 400);
  // Ids past int32 must 404, not alias-wrap onto a valid user (2^32 -> 0).
  Result<HttpResponse> wrapped =
      HttpFetch("127.0.0.1", server->port(), "GET", "/v1/user/4294967296");
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(wrapped->status, 404);
  Result<HttpResponse> wrapped_edge = HttpFetch(
      "127.0.0.1", server->port(), "GET", "/v1/edge/4294967296/4294967297");
  ASSERT_TRUE(wrapped_edge.ok());
  EXPECT_EQ(wrapped_edge->status, 404);
  Result<HttpResponse> wrong_method =
      HttpFetch("127.0.0.1", server->port(), "POST", "/v1/user/1", "{}");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);
}

// ----------------------------------------- request tracing (ISSUE 9)

TEST_F(ModelServerTest, MetricszExposesPerEndpointAndStageSeries) {
  auto server = StartServer();
  // A user and an edge query prime their endpoint histograms.
  const graph::FollowingEdge& edge = world_->graph->following(0);
  ASSERT_TRUE(
      HttpFetch("127.0.0.1", server->port(), "GET", "/v1/user/1").ok());
  ASSERT_TRUE(HttpFetch("127.0.0.1", server->port(), "GET",
                        "/v1/edge/" + std::to_string(edge.follower) + "/" +
                            std::to_string(edge.friend_user))
                  .ok());
  Result<HttpResponse> metrics =
      HttpFetch("127.0.0.1", server->port(), "GET", "/metricsz");
  ASSERT_TRUE(metrics.ok());
  const std::string& body = metrics->body;
  EXPECT_NE(body.find("# TYPE serve_user_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE serve_edge_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE serve_stage_render_ns counter"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE serve_stage_write_ns counter"),
            std::string::npos);
  EXPECT_NE(body.find("serve_seconds_since_last_swap"), std::string::npos);
  // Satellite: the scrape refreshes the process RSS gauges in place.
  EXPECT_NE(body.find("mem_process_rss_bytes"), std::string::npos);
  EXPECT_NE(body.find("mem_process_peak_rss_bytes"), std::string::npos);
}

TEST_F(ModelServerTest, StatuszDashboardReportsLatencyAndModelState) {
  auto server = StartServer();
  ASSERT_TRUE(
      HttpFetch("127.0.0.1", server->port(), "GET", "/v1/user/2").ok());
  Result<HttpResponse> statusz =
      HttpFetch("127.0.0.1", server->port(), "GET", "/statusz");
  ASSERT_TRUE(statusz.ok()) << statusz.status().ToString();
  EXPECT_EQ(statusz->status, 200);
  // The test client does not surface response headers; the HTML doctype
  // in the body is the content-type witness.
  const std::string& body = statusz->body;
  EXPECT_EQ(body.rfind("<!DOCTYPE html>", 0), 0u);
  EXPECT_NE(body.find("model_generation"), std::string::npos);
  EXPECT_NE(body.find("seconds_since_last_swap"), std::string::npos);
  EXPECT_NE(body.find("vm_rss_bytes"), std::string::npos);
  EXPECT_NE(body.find("<th>p99</th>"), std::string::npos);
  EXPECT_NE(body.find("<td>user</td>"), std::string::npos);
  EXPECT_NE(body.find("qps"), std::string::npos);
}

TEST_F(ModelServerTest, SlowzCapturesStageBreakdownsAndHonorsCapacity) {
  ServeOptions options;
  options.threads = 2;
  options.slow_request_us = 1;  // everything is "slow"
  auto server = StartServerWithOptions(options);
  // More slow requests than the ring holds, so retention must be bounded.
  constexpr int kCapacity = ModelServer::kSlowRingCapacity;
  for (int i = 0; i < kCapacity + 2; ++i) {
    ASSERT_TRUE(HttpFetch("127.0.0.1", server->port(), "GET",
                          "/v1/user/" + std::to_string(i))
                    .ok());
  }
  // An extra round trip gives the last on_complete hook time to land
  // before the scrape reads the ring.
  ASSERT_TRUE(HttpFetch("127.0.0.1", server->port(), "GET", "/healthz").ok());
  Result<HttpResponse> slowz =
      HttpFetch("127.0.0.1", server->port(), "GET", "/debug/slowz");
  ASSERT_TRUE(slowz.ok());
  ASSERT_EQ(slowz->status, 200);
  Result<JsonValue> parsed = ParseJson(slowz->body);
  ASSERT_TRUE(parsed.ok()) << slowz->body;
  EXPECT_EQ(parsed->Find("threshold_us")->AsInt(-1), 1);
  EXPECT_EQ(parsed->Find("capacity")->AsInt(-1), kCapacity);
  const JsonValue* requests = parsed->Find("requests");
  ASSERT_NE(requests, nullptr);
  ASSERT_GE(requests->items.size(), 1u);
  // ring capacity bounds retention
  ASSERT_LE(requests->items.size(), static_cast<size_t>(kCapacity));
  EXPECT_GE(parsed->Find("total_captured")->AsInt(-1),
            static_cast<int64_t>(requests->items.size()));
  for (const JsonValue& record : requests->items) {
    EXPECT_GT(record.Find("id")->AsInt(-1), 0);
    EXPECT_GE(record.Find("total_us")->AsInt(-1), 0);
    EXPECT_FALSE(record.Find("target")->string_value.empty());
    const JsonValue* stages = record.Find("stages");
    ASSERT_NE(stages, nullptr);
    EXPECT_NE(stages->Find("parse_us"), nullptr);
    EXPECT_NE(stages->Find("render_us"), nullptr);
    EXPECT_NE(stages->Find("write_us"), nullptr);
  }
}

TEST_F(ModelServerTest, AccessLogLinesCorrelateWithSlowRingIds) {
  const std::string log_path = TempPath("serve_access_test.log");
  std::remove(log_path.c_str());
  ServeOptions options;
  options.threads = 2;
  options.access_log = true;
  options.access_log_path = log_path;
  options.slow_request_us = 1;
  auto server = StartServerWithOptions(options);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(HttpFetch("127.0.0.1", server->port(), "GET",
                          "/v1/user/" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(HttpFetch("127.0.0.1", server->port(), "GET", "/healthz").ok());
  Result<HttpResponse> slowz =
      HttpFetch("127.0.0.1", server->port(), "GET", "/debug/slowz");
  ASSERT_TRUE(slowz.ok());
  Result<JsonValue> parsed = ParseJson(slowz->body);
  ASSERT_TRUE(parsed.ok());
  std::set<int64_t> slow_ids;
  for (const JsonValue& record : parsed->Find("requests")->items) {
    slow_ids.insert(record.Find("id")->AsInt(-1));
  }
  ASSERT_FALSE(slow_ids.empty());
  // Stop joins the worker pool and closes the log: every completion hook
  // has run and every line is flushed by the time we read the file.
  server->Stop();

  std::ifstream log(log_path);
  ASSERT_TRUE(log.good());
  std::set<int64_t> logged_ids;
  std::string line;
  int64_t lines = 0;
  while (std::getline(log, line)) {
    if (line.empty()) continue;
    ++lines;
    Result<JsonValue> entry = ParseJson(line);
    ASSERT_TRUE(entry.ok()) << line;
    logged_ids.insert(entry->Find("id")->AsInt(-1));
    EXPECT_GE(entry->Find("total_us")->AsInt(-1), 0) << line;
    EXPECT_GT(entry->Find("status")->AsInt(-1), 0) << line;
    EXPECT_FALSE(entry->Find("method")->string_value.empty()) << line;
    EXPECT_NE(entry->Find("render_us"), nullptr) << line;
  }
  EXPECT_GE(lines, 7);  // 5 user + healthz + slowz
  for (int64_t id : slow_ids) {
    EXPECT_TRUE(logged_ids.count(id))
        << "slow-ring id " << id << " missing from the access log";
  }
  std::remove(log_path.c_str());
}

TEST_F(ModelServerTest, DisabledObsStillServesAndAssignsRequestIds) {
  obs::SetEnabled(false);
  auto server = StartServer(2);
  Result<HttpResponse> user =
      HttpFetch("127.0.0.1", server->port(), "GET", "/v1/user/0");
  ASSERT_TRUE(user.ok());
  EXPECT_EQ(user->status, 200);
  Result<HttpResponse> statusz =
      HttpFetch("127.0.0.1", server->port(), "GET", "/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_EQ(statusz->status, 200);
  // Staleness runs on a raw steady clock, so it survives the obs switch.
  EXPECT_NE(statusz->body.find("seconds_since_last_swap"), std::string::npos);
  obs::SetEnabled(true);
}

// ------------------------------------- one metrics source (the registry)

/// The value on the `name` series line of a /metricsz body; -1 if absent.
int64_t MetricValue(const std::string& body, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const size_t at = body.find(key);
  if (at == std::string::npos) return -1;
  return std::atoll(body.c_str() + at + key.size());
}

/// The value cell of the /statusz row `key`; -1 if absent.
int64_t StatuszValue(const std::string& body, const std::string& key) {
  const std::string cell = "<tr><td>" + key + "</td><td>";
  const size_t at = body.find(cell);
  if (at == std::string::npos) return -1;
  return std::atoll(body.c_str() + at + cell.size());
}

/// Sends a fixed request mix through a live server and checks that
/// /statsz, /statusz and /metricsz move by exactly the mix. Counts are
/// process-wide, so every check is a delta. One keep-alive connection
/// keeps it exact: a request is counted when it completes, before the
/// connection reads the next one.
void ExpectPagesAgreeOnRequestMix(const synth::SyntheticWorld& world,
                                  ModelServer& server) {
  Result<HttpClient> connected = HttpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  HttpClient client = std::move(connected).ValueOrDie();
  auto get = [&](const std::string& method, const std::string& target,
                 const std::string& body = "") {
    Result<HttpResponse> response = client.RoundTrip(method, target, body);
    EXPECT_TRUE(response.ok()) << target;
    return response.ok() ? *response : HttpResponse{};
  };
  auto stat = [](const HttpResponse& statsz, const char* key) {
    Result<JsonValue> parsed = ParseJson(statsz.body);
    const JsonValue* value = parsed.ok() ? parsed->Find(key) : nullptr;
    EXPECT_NE(value, nullptr) << key;
    return value != nullptr ? std::atoll(value->string_value.c_str()) : -1;
  };
  auto metric_errors = [](const HttpResponse& metricsz) {
    int64_t sum = 0;
    for (const char* endpoint : {"user", "edge", "batch", "other"}) {
      const int64_t value = MetricValue(
          metricsz.body, StringPrintf("serve_%s_errors_total", endpoint));
      EXPECT_GE(value, 0) << endpoint;
      sum += value;
    }
    return sum;
  };

  const HttpResponse statusz_before = get("GET", "/statusz");
  const HttpResponse stats_before = get("GET", "/statsz");
  const HttpResponse metrics_before = get("GET", "/metricsz");

  const graph::FollowingEdge& edge = world.graph->following(0);
  EXPECT_EQ(get("GET", "/v1/user/0").status, 200);
  EXPECT_EQ(get("GET", "/v1/user/1").status, 200);
  EXPECT_EQ(get("GET", "/v1/user/999999999").status, 404);
  EXPECT_EQ(get("GET", "/v1/edge/abc/1").status, 400);
  EXPECT_EQ(get("POST", "/v1/batch",
                "{\"users\":[0,1],\"edges\":[[" +
                    std::to_string(edge.follower) + "," +
                    std::to_string(edge.friend_user) + "]]}")
                .status,
            200);
  EXPECT_EQ(get("POST", "/v1/user/0", "{}").status, 405);
  EXPECT_EQ(get("GET", "/no/such/page").status, 404);

  const HttpResponse stats_after = get("GET", "/statsz");
  const HttpResponse metrics_after = get("GET", "/metricsz");
  const HttpResponse statusz_after = get("GET", "/statusz");

  auto stats_delta = [&](const char* key) {
    return stat(stats_after, key) - stat(stats_before, key);
  };
  // The 7 mix requests, plus the /statsz and /metricsz scrapes before them
  // (each counted once it has been answered).
  EXPECT_EQ(stats_delta("requests_served"), 7 + 2);
  EXPECT_EQ(stats_delta("user_queries"), 4);  // 2x 200, 404, 405
  EXPECT_EQ(stats_delta("edge_queries"), 1);
  EXPECT_EQ(stats_delta("batch_lookups"), 3);
  const int64_t errors = stats_delta("errors");
  EXPECT_EQ(errors, 4);  // user 404, edge 400, user 405, unknown path 404

  EXPECT_EQ(StatuszValue(statusz_after.body, "errors") -
                StatuszValue(statusz_before.body, "errors"),
            errors);
  EXPECT_EQ(metric_errors(metrics_after) - metric_errors(metrics_before),
            errors);
  // /metricsz's request counter moves with /statsz's: the previous
  // /metricsz scrape, the 7 mix requests and the /statsz scrape.
  EXPECT_EQ(MetricValue(metrics_after.body, "serve_requests_total") -
                MetricValue(metrics_before.body, "serve_requests_total"),
            1 + 7 + 1);
}

TEST_F(ModelServerTest, PagesAgreeOnRequestMix) {
  auto server = StartServer(2);
  ExpectPagesAgreeOnRequestMix(*world_, *server);
}

TEST_F(ModelServerTest, PagesAgreeOnRequestMixWithObsDisabled) {
  obs::SetEnabled(false);
  auto server = StartServer(2);
  ExpectPagesAgreeOnRequestMix(*world_, *server);
  obs::SetEnabled(true);
}

TEST_F(ModelServerTest, GracefulStopRefusesNewConnections) {
  auto server = StartServer(2);
  int port = server->port();
  Result<HttpResponse> before = HttpFetch("127.0.0.1", port, "GET", "/healthz");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->status, 200);
  server->Stop();
  EXPECT_FALSE(server->running());
  // Either the connect is refused or the (OS-buffered) connection yields
  // no response — both count as "not serving".
  Result<HttpResponse> after = HttpFetch("127.0.0.1", port, "GET", "/healthz");
  EXPECT_FALSE(after.ok());
  // Stop is idempotent; a second call must not hang or crash.
  server->Stop();
}

}  // namespace
}  // namespace serve
}  // namespace mlp
