#include "obs/request_trace.h"

#include <atomic>

namespace mlp {
namespace obs {

namespace {
// Process-monotonic request id spring. Starts at 1 so 0 can mean "no
// request" in logs and tests.
std::atomic<uint64_t> g_next_request_id{1};
}  // namespace

const char* RequestStageName(RequestStage stage) {
  switch (stage) {
    case RequestStage::kParse:
      return "parse";
    case RequestStage::kRender:
      return "render";
    case RequestStage::kWrite:
      return "write";
  }
  return "unknown";
}

const char* RequestStageCounterName(RequestStage stage) {
  switch (stage) {
    case RequestStage::kParse:
      return kServeStageParseNs;
    case RequestStage::kRender:
      return kServeStageRenderNs;
    case RequestStage::kWrite:
      return kServeStageWriteNs;
  }
  return "serve_stage_unknown_ns";
}

RequestTrace::RequestTrace()
    : id_(g_next_request_id.fetch_add(1, std::memory_order_relaxed)),
      start_ns_(NowNs()) {}

int64_t RequestTrace::Finish() {
  if (finished_) return total_ns_;
  finished_ = true;
  const int64_t end_ns = NowNs();
  total_ns_ = (start_ns_ > 0 && end_ns > start_ns_) ? end_ns - start_ns_ : 0;
  return total_ns_;
}

}  // namespace obs
}  // namespace mlp
