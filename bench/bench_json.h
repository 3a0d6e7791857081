// The one BENCH_*.json writer: every bench result carries the same
// `host` block, so a number in the trajectory can be read against the
// machine and build that produced it. The git revision is not recorded;
// a binary cannot know it without reconfiguring the build.
//
// ROOTSTRESS_BUILD_TYPE is a compile definition set in
// bench/CMakeLists.txt.
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "obs/json.h"
#include "util/parallel.h"

namespace rootstress::bench {

/// Hardware threads, at least 1.
inline int host_cores() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// cores, cpu (first `model name` of /proc/cpuinfo, empty when
/// unreadable), compiler, build type, and the lanes an auto-threaded
/// engine would use.
inline obs::JsonValue host_json() {
  std::string cpu;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t value = line.find_first_not_of(": \t", line.find(':'));
    if (value != std::string::npos) cpu = line.substr(value);
    break;
  }
  obs::JsonValue host = obs::JsonValue::object();
  host.set("cores", obs::JsonValue(host_cores()));
  host.set("cpu", obs::JsonValue(cpu));
  host.set("compiler", obs::JsonValue(__VERSION__));
  host.set("build_type", obs::JsonValue(ROOTSTRESS_BUILD_TYPE));
  host.set("lanes", obs::JsonValue(util::resolve_thread_count(0)));
  return host;
}

/// Adds the host block to `doc` and writes it to `path` as one line.
inline void write_bench_json(const std::string& path, obs::JsonValue doc) {
  doc.set("host", host_json());
  std::ofstream out(path);
  out << doc.dump() << "\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace rootstress::bench
