#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>

#include "stats.h"

namespace perfbench {

namespace {

thread_local uint64_t tls_current_span = 0;

int ThreadOrdinal() {
  static std::atomic<int> next{1};
  thread_local int ordinal = next.fetch_add(1);
  return ordinal;
}

}  // namespace

uint64_t SpanRecorder::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::Add(const SpanRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(record);
}

std::vector<SpanRecord> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SpanRecorder::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

std::map<std::string, SpanTotals> SpanRecorder::Totals() const {
  const std::vector<SpanRecord> spans = Snapshot();
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecord& s : spans) {
    // Covered = union of the children's intervals, clipped to the span
    // (children on other threads may overlap each other).
    std::vector<std::pair<int64_t, int64_t>> cover;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const int64_t b = std::max(c->start_ns, s.start_ns);
        const int64_t e = std::min(c->end_ns, s.end_ns);
        if (e > b) cover.emplace_back(b, e);
      }
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t run_begin = 0;
    int64_t run_end = -1;
    for (const auto& [b, e] : cover) {
      if (b > run_end) {
        if (run_end > run_begin) covered += run_end - run_begin;
        run_begin = b;
        run_end = e;
      } else {
        run_end = std::max(run_end, e);
      }
    }
    if (run_end > run_begin) covered += run_end - run_begin;
    SpanTotals& t = totals[s.name];
    const int64_t duration = s.end_ns - s.start_ns;
    ++t.count;
    t.total_ms += static_cast<double>(duration) / 1e6;
    t.self_ms += static_cast<double>(duration - covered) / 1e6;
  }
  return totals;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    const std::string& metadata_json) const {
  const std::vector<SpanRecord> spans = Snapshot();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                 "\"parent\":%llu,\"run\":\"%016llx\"}}",
                 i == 0 ? "" : ",", s.name, layer.c_str(), s.tid,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(run_id_));
  }
  std::fprintf(f, "\n],\"otherData\":%s}\n", metadata_json.c_str());
  return std::fclose(f) == 0;
}

Span::Span(SpanRecorder* recorder, const char* name)
    : Span(recorder, name, tls_current_span) {}

Span::Span(SpanRecorder* recorder, const char* name, uint64_t parent)
    : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                           : nullptr) {
  if (recorder_ == nullptr) return;
  record_.name = name;
  record_.id = recorder_->NextId();
  record_.parent = parent;
  record_.tid = ThreadOrdinal();
  saved_current_ = tls_current_span;
  tls_current_span = record_.id;
  record_.start_ns = NowNs();
}

Span::~Span() {
  if (recorder_ == nullptr) return;
  record_.end_ns = NowNs();
  tls_current_span = saved_current_;
  recorder_->Add(record_);
}

}  // namespace perfbench
