#ifndef PERFBENCH_PROVENANCE_H_
#define PERFBENCH_PROVENANCE_H_

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Where a result came from: code, compiler, build, machine, inputs.
struct Provenance {
  std::string commit;         // git commit, "unknown" outside a git checkout
  std::string source_digest;  // hash of the program's source files
  std::string compiler;
  std::string build_type;
  std::string sanitizer;      // empty for a plain build
  int nproc = 0;              // online CPUs
  int hardware_threads = 0;   // std::thread::hardware_concurrency
  std::string cpu_model;
  /// False for Debug and sanitizer builds: their timings say nothing about
  /// an optimized build and must not be compared against one.
  bool comparable = false;
  /// Workload, seed, sizes, rates and thread budget, in report order.
  std::vector<std::pair<std::string, std::string>> run;

  std::string ToJson() const;
};

Provenance CollectProvenance(const std::string& commit,
                             const std::string& source_digest);

}  // namespace perfbench

#endif  // PERFBENCH_PROVENANCE_H_
