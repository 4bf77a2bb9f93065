#ifndef MLP_OBS_RING_LOG_H_
#define MLP_OBS_RING_LOG_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/request_trace.h"

namespace mlp {
namespace obs {

/// A completed request trace, flattened for retention beyond the request's
/// lifetime. The strings are copied exactly once, when a record enters the
/// ring — i.e. only for requests that crossed the slow threshold.
struct RequestTraceRecord {
  uint64_t id = 0;
  int64_t start_ns = 0;
  int64_t total_ns = 0;
  int64_t stage_ns[kNumRequestStages] = {};
  const char* endpoint = "other";  // static strings (see RequestTrace)
  const char* outcome = "none";
  int status = 0;
  uint64_t generation = 0;
  std::string method;
  std::string target;
};

/// Flattens a finished trace plus its request line into a record.
RequestTraceRecord MakeRecord(const RequestTrace& trace,
                              const std::string& method,
                              const std::string& target);

/// Fixed-capacity ring of the last N slow-request records, behind
/// GET /debug/slowz. Lock-cheap by construction: the mutex is only taken
/// when a request actually crosses the slow threshold (rare by definition)
/// or when an operator scrapes the ring — the per-request fast path never
/// touches it.
class RingLog {
 public:
  explicit RingLog(size_t capacity = 64);

  RingLog(const RingLog&) = delete;
  RingLog& operator=(const RingLog&) = delete;

  void Push(RequestTraceRecord record);

  /// The retained records, oldest first.
  std::vector<RequestTraceRecord> Snapshot() const;

  size_t capacity() const { return capacity_; }
  /// Total records ever pushed (≥ retained count; the difference is how
  /// many slow requests aged out of the ring).
  uint64_t total_pushed() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<RequestTraceRecord> ring_;  // grows to capacity_, then wraps
  size_t next_ = 0;                       // overwrite cursor once full
  uint64_t pushed_ = 0;
};

}  // namespace obs
}  // namespace mlp

#endif  // MLP_OBS_RING_LOG_H_
