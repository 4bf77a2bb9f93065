#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded span: a call into a layer, timed from outside.
struct SpanRecord {
  const char* name = "";  // static "<layer>.<call>", e.g. "io.load_dataset"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root span
  int tid = 0;
};

/// Per-name totals over the recorded spans. Self time is a span's duration
/// minus the part of it its child spans cover.
struct SpanTotals {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// In-memory span store for the traced run. Spans are kept until the end
/// of the run and written once as Chrome trace_event JSON. Recording is off
/// until set_enabled(true); a disabled recorder costs one branch per span.
class SpanRecorder {
 public:
  explicit SpanRecorder(uint64_t run_id) : run_id_(run_id) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  uint64_t NextId();
  void Add(const SpanRecord& record);

  std::vector<SpanRecord> Snapshot() const;
  /// Durations in milliseconds of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  std::map<std::string, SpanTotals> Totals() const;

  /// Writes {"traceEvents": [...], "otherData": <metadata_json>}; every
  /// event carries its span id, parent id and the run id in "args".
  bool WriteChromeTrace(const std::string& path,
                        const std::string& metadata_json) const;

 private:
  const uint64_t run_id_;
  bool enabled_ = false;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

/// RAII span. The parent defaults to the innermost open span on this
/// thread; work handed to another thread passes its parent explicitly.
class Span {
 public:
  Span(SpanRecorder* recorder, const char* name);
  Span(SpanRecorder* recorder, const char* name, uint64_t parent);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  uint64_t id() const { return record_.id; }

 private:
  SpanRecorder* recorder_;  // null when recording is off
  SpanRecord record_;
  uint64_t saved_current_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
