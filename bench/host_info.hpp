// The host line every committed BENCH_*.json carries: logical CPUs, CPU
// model and build type, so a row can be compared only with rows measured on
// like hardware.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#ifndef PSMR_BUILD_TYPE
#define PSMR_BUILD_TYPE "unknown"
#endif

namespace psmr::bench {

inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

/// Writes `  "host": {...},\n`; bench/CMakeLists defines PSMR_BUILD_TYPE.
inline void write_host_json(FILE* f) {
  std::fprintf(f, "  \"host\": {\"nproc\": %u, \"cpu\": \"%s\", \"build_type\": \"%s\"},\n",
               std::thread::hardware_concurrency(), cpu_model().c_str(), PSMR_BUILD_TYPE);
}

}  // namespace psmr::bench
