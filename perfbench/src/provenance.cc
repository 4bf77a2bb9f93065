#include "provenance.h"

#include <unistd.h>

#include <fstream>
#include <thread>

#include "serve/json.h"

namespace perfbench {

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

Provenance CollectProvenance(const std::string& commit,
                             const std::string& source_digest) {
  Provenance p;
  p.commit = commit.empty() ? "unknown" : commit;
  p.source_digest = source_digest.empty() ? "unknown" : source_digest;
  p.compiler = Compiler();
  p.build_type = PERFBENCH_BUILD_TYPE;
  p.sanitizer = PERFBENCH_SANITIZE;
  p.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  p.hardware_threads = static_cast<int>(std::thread::hardware_concurrency());
  p.cpu_model = CpuModel();
  p.comparable = (p.build_type == "Release" ||
                  p.build_type == "RelWithDebInfo") &&
                 p.sanitizer.empty();
  return p;
}

std::string Provenance::ToJson() const {
  mlp::serve::JsonWriter w;
  w.BeginObject();
  w.Key("commit"); w.String(commit);
  w.Key("source_digest"); w.String(source_digest);
  w.Key("compiler"); w.String(compiler);
  w.Key("build_type"); w.String(build_type);
  w.Key("sanitizer"); w.String(sanitizer);
  w.Key("comparable"); w.Bool(comparable);
  w.Key("nproc"); w.Int(nproc);
  w.Key("hardware_threads"); w.Int(hardware_threads);
  w.Key("cpu_model"); w.String(cpu_model);
  for (const auto& [key, value] : run) {
    w.Key(key);
    w.String(value);
  }
  w.EndObject();
  return std::move(w).Take();
}

}  // namespace perfbench
