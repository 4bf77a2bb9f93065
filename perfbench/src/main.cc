// The pipeline benchmark. One process runs one workload:
//
//   perfbench --workload {build|serve} --seed N --seconds S --trace {0|1}
//             [--commit C] [--source-digest D]
//
// Every workload runs every layer (io, core/engine, serve, stream) at least
// once; the workload decides which one is timed and carries the load. Live
// ingest runs a few batches after either window, so the stream layer is
// traced on both but timed on neither. With
// --trace 0 the end-to-end metrics are measured with spans off; with
// --trace 1 the same window runs half untraced and half traced, spans are
// written as Chrome trace_event JSON, and the per-layer metrics are
// reported. The last stdout line is the result object; see
// perfbench/README.md for the metric definitions.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "io/model_snapshot.h"
#include "obs/fit_profile.h"
#include "obs/metrics.h"
#include "pipeline.h"
#include "provenance.h"
#include "serve/json.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace serve = mlp::serve;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit;
  std::string source_digest;
};

// Results, spans and per-run scratch space, under the checkout's build tree.
constexpr char kOutDir[] = ".bench_build/perfbench/out";

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// False for figures printed in the report but left out of the result
  /// object, because no bound can hold them on a shared box or they read
  /// 0 on every workload (see README.md).
  bool listed = true;
};

double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

double Seconds(int64_t from_ns) {
  return static_cast<double>(NowNs() - from_ns) / 1e9;
}

// What a workload hands back for reporting.
struct Outcome {
  std::vector<double> setup_s;
  std::vector<double> op_ms;          // the workload's unit of work
  std::vector<double> op_ms_traced;   // the same, in the traced half
  double throughput = 0.0;            // units of work per second
  std::vector<double> query_us;       // read latencies
  double query_p95_us = 0.0;
  double query_p99_us = 0.0;
  bool query_tail_supported = false;
  std::vector<double> query_us_traced;
  std::vector<double> late_us;        // open-loop generator lateness
  double rss_mb = 0.0;
  Quality quality;
  // Serve-front per-layer inputs, gathered around the workload's main
  // HTTP traffic.
  std::map<std::string, uint64_t> stage_before, stage_after;
  int64_t http_requests = 0;
  double cache_hits = 0.0, cache_misses = 0.0;
  double handle_ns = 0.0, lookup_ns = 0.0;
  // Live ingest per-layer inputs.
  LiveStats live;
  std::vector<double> daemon_visible_ms;
  std::vector<double> traced_visible_ms;  // batches whose stages were traced
  std::map<std::string, uint64_t> ingest_before, ingest_after;
  mlp::obs::Histogram::Snapshot apply_before, apply_after, swap_before,
      swap_after;
};

class Runner {
 public:
  Runner(const Args& args, Context* ctx) : args_(args), ctx_(*ctx) {}

  bool Run(Outcome* out) {
    if (args_.workload == "build") return Build(out);
    if (args_.workload == "serve") return Serve(out);
    return false;
  }

 private:
  bool tracing() const { return args_.trace != 0; }
  std::string Path(const std::string& name) const {
    return (fs::path(ctx_.work_dir) / name).string();
  }
  template <typename T>
  bool Ok(const mlp::Result<T>& r, const std::string& what) {
    ctx_.tally->Record(r.ok(), what + ": " +
                                   (r.ok() ? "" : r.status().ToString()));
    return r.ok();
  }

  // Runs the serve front's main traffic bracket: registry stage counters
  // and the cache tallies from /metricsz before and after.
  void OpenServeBracket(serve::ModelServer& server, Outcome* out) {
    out->stage_before = RegistryCounters("serve_stage_");
    const std::string text = Metricsz(server);
    out->cache_hits = -ScrapeMetric(text, "serve_cache_hits");
    out->cache_misses = -ScrapeMetric(text, "serve_cache_misses");
  }
  void CloseServeBracket(serve::ModelServer& server, Outcome* out) {
    out->stage_after = RegistryCounters("serve_stage_");
    const std::string text = Metricsz(server);
    out->cache_hits += ScrapeMetric(text, "serve_cache_hits");
    out->cache_misses += ScrapeMetric(text, "serve_cache_misses");
  }
  static std::string Metricsz(serve::ModelServer& server) {
    serve::HttpRequest request;
    request.method = "GET";
    request.target = "/metricsz";
    return server.Handle(request).body;
  }

  // Live ingest on `server` from `state`: in a traced run the stage
  // sequence is first driven here with spans, then handed to the daemon;
  // otherwise the daemon alone. Registry and histogram deltas bracket it.
  void LivePhases(const World& world, serve::ModelServer& server,
                  LiveState& state, Outcome* out) {
    const int batches = ctx_.sizes.epilogue_batches;
    mlp::obs::Registry& registry = mlp::obs::Registry::Global();
    mlp::obs::Histogram* apply = registry.GetHistogram(
        mlp::obs::kIngestApplyNs, mlp::obs::IngestApplyNsBounds());
    mlp::obs::Histogram* swap = registry.GetHistogram(
        mlp::obs::kIngestSwapNs, mlp::obs::IngestSwapNsBounds());
    out->ingest_before = RegistryCounters("ingest_");
    if (tracing()) {
      ctx_.spans->set_enabled(true);
      RunLive(ctx_, world, server, state, /*daemon=*/false, batches,
              &out->live);
      ctx_.spans->set_enabled(false);
    }
    out->apply_before = apply->GetSnapshot();
    out->swap_before = swap->GetSnapshot();
    const size_t first_daemon = out->live.visible_ms.size();
    RunLive(ctx_, world, server, state, /*daemon=*/true, batches, &out->live);
    out->apply_after = apply->GetSnapshot();
    out->swap_after = swap->GetSnapshot();
    out->ingest_after = RegistryCounters("ingest_");
    out->traced_visible_ms.assign(out->live.visible_ms.begin(),
                                  out->live.visible_ms.begin() + first_daemon);
    out->daemon_visible_ms.assign(out->live.visible_ms.begin() + first_daemon,
                                  out->live.visible_ms.end());
    if (tracing()) ctx_.spans->set_enabled(true);
  }

  // An open loop's tail: the median over its slices, which needs at
  // least three of them. The serve mix sends 10% batches, which take
  // several times as long as point requests, so a p90 would sit on the
  // boundary between the two and jump with each slice's batch share; the
  // p95 lies inside the batch mode.
  static void SetOpenLoopTail(const std::vector<double>& p95_slices,
                              const std::vector<double>& p99_slices,
                              Outcome* out) {
    out->query_p95_us = Median(p95_slices);
    out->query_p99_us = Median(p99_slices);
    out->query_tail_supported = p99_slices.size() >= 3;
  }

  LiveState StateFrom(const Built& built, int base_users) {
    LiveState state;
    state.input = built.input;
    state.base_users = base_users;
    state.next_user = base_users;
    return state;
  }

  // build: repeated offline builds of one dataset. After every build the
  // packed model answers a pass of serve-mix HTTP, checked against the heap
  // model, so the read-side figures sample the whole window rather than
  // one instant of a shared host. The model then absorbs a few live
  // batches so every layer runs.
  bool Build(Outcome* out) {
    std::unique_ptr<World> world;
    for (int rep = 0; rep < ctx_.sizes.build_setup_reps; ++rep) {
      world.reset();
      const int64_t t0 = NowNs();
      auto made = MakeWorld(ctx_, Path("data"));
      if (!Ok(made, "setup")) return false;
      world = std::move(made).ValueOrDie();
      out->setup_s.push_back(Seconds(t0));
    }
    TrimHeap();

    // The timed builds; a traced run times half the window with spans on.
    // The first build's section is served from a copy, since every later
    // build rewrites model.snap in place.
    const RequestMix mix(*world->synth.graph, ctx_.sizes.zipf_s,
                         ctx_.sizes.batch_ids, ctx_.seed);
    std::unique_ptr<serve::ModelServer> server;
    std::unique_ptr<Built> last;
    std::vector<mlp::geo::CityId> first_home;
    std::vector<double> peaks, p95_slices, p99_slices;
    uint64_t passes = 0;
    const double untraced_s = tracing() ? args_.seconds / 2 : args_.seconds;
    const int min_builds = tracing() ? 2 : 3;
    for (int phase = 0; phase < (tracing() ? 2 : 1); ++phase) {
      ctx_.spans->set_enabled(phase == 1);
      const int64_t phase_start = NowNs();
      int builds = 0;
      while (builds < min_builds || Seconds(phase_start) < untraced_s) {
        last.reset();
        TrimHeap();
        ResetPeakRss();
        auto built = BuildModel(ctx_, *world, Path("model.snap"));
        if (!Ok(built, "build")) return false;
        last = std::move(built).ValueOrDie();
        peaks.push_back(PeakRssMb());
        (phase == 1 ? out->op_ms_traced : out->op_ms).push_back(last->total_ms);
        ++builds;
        CheckPacked(ctx_, *world, *last);
        const Quality q = Evaluate(*world, last->result);
        if (first_home.empty()) {
          first_home = last->result.home;
          out->quality = q;
        }
        ctx_.tally->Record(last->result.home == first_home &&
                               q.home_acc_pct == out->quality.home_acc_pct &&
                               q.rel_acc_pct == out->quality.rel_acc_pct,
                           "fit is not deterministic for a fixed (seed, W)");
        if (!server) {
          const std::string served = Path("served.snap");
          std::error_code ec;
          fs::copy_file(last->snapshot_path, served,
                        fs::copy_options::overwrite_existing, ec);
          ctx_.tally->Record(!ec, "copy " + served + ": " + ec.message());
          if (ec) return false;
          auto mapped = serve::ReadModel::MapServeSection(
              served, world->synth.gazetteer.get());
          if (!Ok(mapped, "map serve section")) return false;
          server = StartServer(ctx_, std::move(mapped).ValueOrDie());
          if (!server) return false;
          // Warm-up: page in the mapping and fill the response cache.
          ClosedLoop(ctx_, server->port(), mix, &last->model, 0.3, 0xa0);
        }
        if (phase == 0) {
          Traffic pass = OpenLoop(ctx_, server->port(), mix, &last->model,
                                  ctx_.sizes.client_connections,
                                  ctx_.sizes.serve_rate,
                                  ctx_.sizes.build_query_s, false,
                                  0xb0000 + 4 * passes++);
          out->query_us.insert(out->query_us.end(), pass.latency_us.begin(),
                               pass.latency_us.end());
          p95_slices.insert(p95_slices.end(), pass.p95_slices_us.begin(),
                            pass.p95_slices_us.end());
          p99_slices.insert(p99_slices.end(), pass.p99_slices_us.begin(),
                            pass.p99_slices_us.end());
        }
      }
    }
    out->throughput =
        static_cast<double>(ctx_.sizes.users) * 1e3 / Median(out->op_ms);
    out->rss_mb = Median(peaks);
    SetOpenLoopTail(p95_slices, p99_slices, out);

    // One more pass, bracketed for the serve front's per-layer figures.
    OpenServeBracket(*server, out);
    Traffic traffic =
        OpenLoop(ctx_, server->port(), mix, &last->model,
                 ctx_.sizes.client_connections, ctx_.sizes.serve_rate,
                 ctx_.sizes.build_query_s, false, 0x5e7e);
    CloseServeBracket(*server, out);
    out->http_requests = traffic.requests;
    out->late_us = traffic.late_us;
    out->handle_ns = ReplayHandleNs(*server, traffic.replay);
    out->lookup_ns = ReplayLookupNs(*server->model(), traffic.replay);

    LiveState state = StateFrom(*last, last->data->graph.num_users());
    state.checkpoint = std::move(last->checkpoint);
    state.result = std::move(last->result);
    LivePhases(*world, *server, state, out);
    server->Stop();
    return true;
  }

  // serve: HTTP against the packed 16 MB-cache ModelServer over the mapped
  // section; fit and render run only in setup.
  bool Serve(Outcome* out) {
    std::unique_ptr<World> world;
    std::unique_ptr<serve::ModelServer> server;
    std::string snapshot;
    for (int rep = 0; rep < ctx_.sizes.setup_reps; ++rep) {
      server.reset();
      world.reset();
      TrimHeap();
      const int64_t t0 = NowNs();
      auto made = MakeWorld(ctx_, Path("data"));
      if (!Ok(made, "setup")) return false;
      world = std::move(made).ValueOrDie();
      snapshot = Path("model.snap");
      {
        auto built = BuildModel(ctx_, *world, snapshot);
        if (!Ok(built, "setup build")) return false;
        out->quality = Evaluate(*world, (*built)->result);
      }
      TrimHeap();
      auto mapped = serve::ReadModel::MapServeSection(
          snapshot, world->synth.gazetteer.get());
      if (!Ok(mapped, "map serve section")) return false;
      server = StartServer(ctx_, std::move(mapped).ValueOrDie());
      if (!server) return false;
      out->setup_s.push_back(Seconds(t0));
    }
    ctx_.spans->set_enabled(false);

    const RequestMix mix(*world->synth.graph, ctx_.sizes.zipf_s,
                         ctx_.sizes.batch_ids, ctx_.seed);
    const std::shared_ptr<const serve::ReadModel> reference = server->model();
    // Warm-up: page in the mapping and fill the response cache.
    ClosedLoop(ctx_, server->port(), mix, reference.get(), 0.3, 0xa0);
    ResetPeakRss();
    std::vector<double> closed_us;
    double closed_requests = 0.0, closed_seconds = 0.0;
    std::vector<Request> replay;
    for (int phase = 0; phase < (tracing() ? 2 : 1); ++phase) {
      const double share = tracing() ? 0.5 : 1.0;
      const bool traced = phase == 1;
      ctx_.spans->set_enabled(traced);
      if (traced || !tracing()) OpenServeBracket(*server, out);
      Traffic closed = ClosedLoop(ctx_, server->port(), mix, reference.get(),
                                  0.4 * args_.seconds * share, 0xc0 + phase);
      Traffic open = OpenLoop(ctx_, server->port(), mix, reference.get(),
                              ctx_.sizes.client_connections,
                              ctx_.sizes.serve_rate,
                              0.6 * args_.seconds * share, false, 0x0e + phase);
      if (traced || !tracing()) {
        CloseServeBracket(*server, out);
        out->http_requests = closed.requests + open.requests;
        replay = closed.replay;
      }
      if (traced) {
        out->query_us_traced = open.latency_us;
        continue;
      }
      closed_us = closed.latency_us;
      closed_requests = static_cast<double>(closed.requests);
      closed_seconds = closed.seconds;
      out->query_us = open.latency_us;
      SetOpenLoopTail(open.p95_slices_us, open.p99_slices_us, out);
      out->late_us = open.late_us;
    }
    out->rss_mb = PeakRssMb();
    for (double us : closed_us) out->op_ms.push_back(us / 1e3);
    out->throughput = closed_seconds > 0 ? closed_requests / closed_seconds : 0;
    out->handle_ns = ReplayHandleNs(*server, replay);
    out->lookup_ns = ReplayLookupNs(*reference, replay);

    // Live batches so the stream layer runs: the fit state comes back from
    // the snapshot the section was packed behind.
    auto data = mlp::io::LoadDataset(world->data_dir,
                                     world->synth.vocab->size());
    auto loaded = mlp::io::LoadModelSnapshot(snapshot);
    if (!Ok(data, "load dataset") || !Ok(loaded, "load snapshot")) {
      return false;
    }
    LiveState state;
    state.graph =
        std::make_unique<mlp::graph::SocialGraph>(std::move(data->graph));
    state.input = world->Input(state.graph.get());
    state.checkpoint = std::move(loaded->checkpoint);
    state.result = std::move(loaded->result);
    state.base_users = state.next_user = state.graph->num_users();
    LivePhases(*world, *server, state, out);
    server->Stop();
    return true;
  }

  const Args& args_;
  Context& ctx_;
};

// ---------------------------------------------------------------- report

std::vector<Metric> EndToEnd(const Outcome& o, Tally& tally) {
  if (!o.query_tail_supported) {
    tally.Fail("too few query samples for a p99 (" +
               std::to_string(o.query_us.size()) + ")");
  }
  if (o.op_ms.empty()) tally.Fail("no unit of work completed");
  return {
      {"setup_s", Median(o.setup_s), "s"},
      {"op_p50_ms", Median(o.op_ms), "ms"},
      {"throughput_per_s", o.throughput, "1/s"},
      {"query_p50_us", Median(o.query_us), "us"},
      {"query_p95_us", o.query_p95_us, "us"},
      {"query_p99_us", o.query_p99_us, "us", false},
      {"rss_mb", o.rss_mb, "MB"},
      {"home_acc_100mi_pct", o.quality.home_acc_pct, "%"},
      {"rel_acc_100mi_pct", o.quality.rel_acc_pct, "%"},
  };
}

double Delta(const std::map<std::string, uint64_t>& before,
             const std::map<std::string, uint64_t>& after,
             const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0.0;
  auto b = before.find(name);
  return static_cast<double>(a->second -
                             (b == before.end() ? 0 : b->second));
}

std::vector<Metric> PerLayer(const Context& ctx, const SpanRecorder& spans,
                             const Outcome& o) {
  auto span_ms = [&](const char* name) {
    return Median(spans.DurationsMs(name));
  };
  const double fits = std::max(ctx.fits, 1);
  auto per_fit = [&](const std::string& name) {
    auto it = ctx.fit_counters.find(name);
    return it == ctx.fit_counters.end() ? 0.0
                                        : static_cast<double>(it->second) /
                                              fits;
  };
  const double fit_ms = span_ms("core.fit");
  const double sweep_ns = per_fit(mlp::obs::kFitSweepNs);
  const double sweeps = per_fit(mlp::obs::kFitSweepsTotal);
  const double proposed = per_fit(mlp::obs::kFitMhProposedTotal);

  const double requests = std::max<double>(o.http_requests, 1.0);
  auto per_request = [&](const char* name) {
    return Delta(o.stage_before, o.stage_after, name) / requests;
  };
  const double lookups = o.cache_hits + o.cache_misses;

  const double batches = std::max(o.live.batches, 1);
  auto per_batch = [&](const char* name) {
    return Delta(o.ingest_before, o.ingest_after, name) / batches;
  };
  const double load_ms = span_ms("stream.load_delta");
  const double apply_ms = span_ms("stream.apply_delta");
  const double copy_ms = span_ms("stream.snapshot_copy");
  const double render_ms = span_ms("serve.ingest_render");
  const double swap_ms = span_ms("stream.swap");
  const double merge_ns = per_batch(mlp::obs::kIngestMergeNs);
  const double migrate_ns = per_batch(mlp::obs::kIngestMigrateNs);
  const double resample_ns = per_batch(mlp::obs::kIngestResampleNs);
  const double daemon_batches = std::max<double>(
      static_cast<double>(o.apply_after.count - o.apply_before.count), 1.0);
  const double daemon_apply_ms =
      static_cast<double>(o.apply_after.sum - o.apply_before.sum) / 1e6 /
      daemon_batches;
  const double daemon_swap_ms =
      static_cast<double>(o.swap_after.sum - o.swap_before.sum) / 1e6 /
      daemon_batches;
  // The daemon's histograms give per-batch means, so the wait outside its
  // stages is taken against its mean time to visible too.
  const double poll_wait_ms =
      std::max(0.0, Mean(o.daemon_visible_ms) - load_ms - daemon_apply_ms -
                        daemon_swap_ms);
  // The traced batches ran the stages without the daemon's poll; the
  // daemon's own wait is added to both sides.
  const double stage_sum_ms = load_ms + apply_ms + copy_ms + render_ms +
                              swap_ms + poll_wait_ms;
  const double traced_visible_ms =
      Median(o.traced_visible_ms) + poll_wait_ms;

  const double build_stages_ms =
      span_ms("io.load_dataset") + fit_ms + span_ms("io.snapshot_save") +
      span_ms("serve.readmodel_build") + span_ms("serve.append_section");
  const double build_ms = span_ms("pipeline.build");

  const double untraced = Median(o.op_ms);
  const double traced = Median(o.op_ms_traced.empty() ? o.query_us_traced
                                                      : o.op_ms_traced);
  const double untraced_ref =
      o.op_ms_traced.empty() ? Median(o.query_us) : untraced;

  return {
      {"io_dataset_load_ms", span_ms("io.load_dataset"), "ms"},
      {"io_snapshot_save_ms", span_ms("io.snapshot_save"), "ms"},
      {"io_snapshot_bytes", static_cast<double>(ctx.snapshot_bytes), "bytes"},
      {"fit_ms", fit_ms, "ms"},
      {"fit_prep_ms", fit_ms - sweep_ns / 1e6, "ms"},
      {"fit_sweep_ns", sweep_ns, "ns"},
      {"fit_shard_kernel_ns", per_fit(mlp::obs::kFitShardKernelNs), "ns"},
      {"fit_delta_fold_ns", per_fit(mlp::obs::kFitDeltaFoldNs), "ns"},
      {"fit_barrier_wait_ns", per_fit(mlp::obs::kFitBarrierWaitNs), "ns"},
      {"fit_delta_merge_ns", per_fit(mlp::obs::kFitDeltaMergeNs), "ns"},
      {"fit_replica_refresh_ns", per_fit(mlp::obs::kFitReplicaRefreshNs),
       "ns"},
      {"fit_alias_rebuild_ns", per_fit(mlp::obs::kFitAliasRebuildNs), "ns"},
      {"fit_sweeps_total", sweeps, "count"},
      {"fit_relationships_per_s",
       sweep_ns > 0 ? static_cast<double>(ctx.fit_edges) * sweeps /
                          (sweep_ns / 1e9)
                    : 0.0,
       "1/s"},
      {"fit_mh_accept_ppm",
       proposed > 0 ? 1e6 * per_fit(mlp::obs::kFitMhAcceptedTotal) / proposed
                    : 0.0,
       "ppm"},
      {"pack_render_ms", span_ms("serve.readmodel_build"), "ms"},
      {"pack_write_ms", span_ms("serve.append_section"), "ms"},
      {"pack_section_bytes", static_cast<double>(ctx.section_bytes), "bytes"},
      {"ingest_render_ms", render_ms, "ms"},
      {"serve_handle_ns", o.handle_ns, "ns"},
      {"serve_lookup_ns", o.lookup_ns, "ns"},
      {"serve_stage_parse_ns", per_request("serve_stage_parse_ns"), "ns"},
      {"serve_stage_cache_lookup_ns",
       per_request("serve_stage_cache_lookup_ns"), "ns"},
      {"serve_stage_batch_queue_wait_ns",
       per_request("serve_stage_batch_queue_wait_ns"), "ns", false},
      {"serve_stage_render_ns", per_request("serve_stage_render_ns"), "ns"},
      {"serve_stage_write_ns", per_request("serve_stage_write_ns"), "ns"},
      {"serve_cache_hit_ratio", lookups > 0 ? o.cache_hits / lookups : 0.0,
       "ratio"},
      {"loadgen_late_p99_us", Percentile(o.late_us, 99.0), "us"},
      {"ingest_batches", static_cast<double>(o.live.batches), "count"},
      {"ingest_load_ms", load_ms, "ms"},
      {"ingest_merge_ns", merge_ns, "ns"},
      {"ingest_migrate_ns", migrate_ns, "ns"},
      {"ingest_resample_ns", resample_ns, "ns"},
      {"ingest_apply_ms", apply_ms, "ms"},
      {"ingest_apply_other_ms",
       apply_ms - (merge_ns + migrate_ns + resample_ns) / 1e6, "ms"},
      {"ingest_snapshot_copy_ms", copy_ms, "ms"},
      {"ingest_swap_ms", swap_ms, "ms"},
      {"ingest_poll_wait_ms", poll_wait_ms, "ms"},
      {"ingest_shards_touched_pct",
       o.live.self_driven > 0
           ? o.live.shards_touched_pct_sum / o.live.self_driven
           : 0.0,
       "%"},
      {"build_stage_coverage_pct",
       build_ms > 0 ? 100.0 * build_stages_ms / build_ms : 0.0, "%"},
      {"ingest_stage_coverage_pct",
       traced_visible_ms > 0 ? 100.0 * stage_sum_ms / traced_visible_ms : 0.0,
       "%"},
      {"trace_overhead_pct",
       untraced_ref > 0 ? 100.0 * (traced / untraced_ref - 1.0) : 0.0, "%"},
  };
}

std::string ResultJson(const Tally& tally, const std::vector<Metric>& metrics,
                       bool correct) {
  serve::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct);
  w.Key("attempted");
  w.Int(static_cast<int64_t>(std::max<uint64_t>(tally.attempted(), 1)));
  w.Key("failed");
  w.Int(static_cast<int64_t>(tally.failed()));
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& m : metrics) {
    if (!m.listed) continue;
    w.Key(m.name);
    w.BeginObject();
    w.Key("value");
    w.Double(std::isfinite(m.value) ? m.value : 0.0);
    w.Key("unit");
    w.String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return std::move(w).Take();
}

void PrintSelfTimes(const SpanRecorder& spans) {
  std::printf("\n%-28s %8s %12s %12s\n", "span (layer.call)", "count",
              "total ms", "self ms");
  for (const auto& [name, t] : spans.Totals()) {
    std::printf("%-28s %8lld %12.3f %12.3f\n", name.c_str(),
                static_cast<long long>(t.count), t.total_ms, t.self_ms);
  }
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--commit") {
      args->commit = value;
    } else if (key == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) &&
         (args->workload == "build" || args->workload == "serve") &&
         args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload {build|serve} --seed N "
                 "--seconds S --trace {0|1}\n");
    return 2;
  }
  Tally tally;
  const uint64_t run_id =
      (args.seed * 0x9e3779b97f4a7c15ULL) ^ static_cast<uint64_t>(NowNs());
  SpanRecorder spans(run_id);
  // A traced run records set-up and the workload's other layers too;
  // Runner switches spans off for the untraced half of the window.
  spans.set_enabled(args.trace != 0);
  Context ctx;
  ctx.seed = args.seed;
  ctx.spans = &spans;
  ctx.tally = &tally;
  const std::string tag = args.workload + "-" + std::to_string(args.seed) +
                          "-trace" + std::to_string(args.trace);
  ctx.work_dir = (fs::path(kOutDir) / ("work-" + tag)).string();
  std::error_code ec;
  fs::remove_all(ctx.work_dir, ec);
  fs::create_directories(ctx.work_dir, ec);

  Provenance provenance = CollectProvenance(args.commit, args.source_digest);
  const Sizes& s = ctx.sizes;
  provenance.run = {
      {"workload", args.workload},
      {"seed", std::to_string(args.seed)},
      {"seconds", std::to_string(args.seconds)},
      {"trace", std::to_string(args.trace)},
      {"users", std::to_string(s.users)},
      {"setup_reps", std::to_string(args.workload == "build"
                                         ? s.build_setup_reps
                                         : s.setup_reps)},
      {"fit", "W=" + std::to_string(s.fit_workers) + ", " +
                  std::to_string(s.burn_in_sweeps) + " burn-in + " +
                  std::to_string(s.sampling_sweeps) + " sampling sweeps"},
      {"server_threads", std::to_string(s.server_threads)},
      {"client_connections", std::to_string(s.client_connections)},
      {"serve_rate_per_s", std::to_string(s.serve_rate)},
      {"live_rate_per_s", std::to_string(s.live_rate)},
      {"delta_users_per_batch", std::to_string(s.delta_users)},
  };
  std::printf("provenance %s\n", provenance.ToJson().c_str());
  if (!provenance.comparable) {
    std::printf("WARNING: %s build — timings are not comparable with an "
                "optimized build\n",
                provenance.sanitizer.empty() ? provenance.build_type.c_str()
                                             : "sanitizer");
  }

  Outcome outcome;
  Runner runner(args, &ctx);
  const bool ran = runner.Run(&outcome);
  spans.set_enabled(false);
  if (!ran) tally.Fail("workload " + args.workload + " did not complete");

  std::vector<Metric> metrics;
  if (ran) {
    metrics = args.trace != 0 ? PerLayer(ctx, spans, outcome)
                              : EndToEnd(outcome, tally);
  }
  if (args.trace != 0) {
    PrintSelfTimes(spans);
    const std::string trace_path =
        (fs::path(kOutDir) / ("trace-" + tag + ".json")).string();
    const bool written = spans.WriteChromeTrace(trace_path, provenance.ToJson());
    tally.Record(written, "write " + trace_path);
    std::printf("spans -> %s\n", trace_path.c_str());
  }
  if (ran && args.trace == 0) {
    auto list = [](const std::vector<double>& v, size_t max) {
      std::string s;
      for (size_t i = 0; i < v.size() && i < max; ++i) {
        char value[32];
        std::snprintf(value, sizeof(value), "%s%.4g", i ? " " : "", v[i]);
        s += value;
      }
      return s + (v.size() > max ? " ..." : "");
    };
    const Summary query = Summarize(outcome.query_us);
    std::printf("samples: %zu set-ups; %zu units of work [%s] ms; %zu "
                "queries, p50 %.2f us, p%g %.2f us\n",
                outcome.setup_s.size(), outcome.op_ms.size(),
                list(outcome.op_ms, 16).c_str(), query.count, query.p50,
                query.tail_q, query.tail);
  }
  std::printf("\n%-34s %16s %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("operations: %llu attempted, %llu failed (error %.4f%%)\n",
              static_cast<unsigned long long>(tally.attempted()),
              static_cast<unsigned long long>(tally.failed()),
              tally.error_pct());
  for (const std::string& failure : tally.failures()) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  const bool correct = ran && tally.failed() == 0;
  const std::string result = ResultJson(tally, metrics, correct);
  {
    serve::JsonWriter w;
    w.BeginObject();
    w.Key("provenance");
    w.Raw(provenance.ToJson());
    w.Key("result");
    w.Raw(result);
    w.EndObject();
    std::FILE* f = std::fopen(
        (fs::path(kOutDir) / ("result-" + tag + ".json")).c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%s\n", w.str().c_str());
      std::fclose(f);
    }
  }
  fs::remove_all(ctx.work_dir, ec);
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
