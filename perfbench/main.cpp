// perfbench — runs one workload of the repo benchmark.
//
//   perfbench --workload alg5-n6400|ds-n800|daemon-mix --seed N
//             --seconds S --trace 0|1 [--dr82d PATH] [--trace-dir DIR]
//             [--git-sha SHA] [--source-digest HEX] [--smoke]
//             [--inject-failure]
//
// Prints a metadata line, then the result line: one JSON object with
// `correct`, `attempted`, `failed` and `metrics`. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Exits 1 when any
// check fails. run.py builds this and is the entry point users call.

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "crypto/hash_backend.h"
#include "harness.h"

namespace perfbench {

void Report::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (failed_++ < 20) std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    os << (first ? "" : ", ") << "\"" << name
       << "\": {\"value\": " << number(metric.value) << ", \"unit\": \""
       << metric.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace perfbench

namespace {

using perfbench::Options;

bool parse(int argc, char** argv, Options& o, std::string& sha,
           std::string& digest) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (arg == "--inject-failure") {
      o.inject_failure = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value == "1";
    } else if (arg == "--dr82d") {
      o.dr82d = value;
    } else if (arg == "--trace-dir") {
      o.trace_dir = value;
    } else if (arg == "--git-sha") {
      sha = value;
    } else if (arg == "--source-digest") {
      digest = value;
    } else {
      return false;
    }
  }
  return o.workload == "alg5-n6400" || o.workload == "ds-n800" ||
         o.workload == "daemon-mix";
}

std::size_t cores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string sha = "unknown";
  std::string digest = "unknown";
  if (!parse(argc, argv, options, sha, digest)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload alg5-n6400|ds-n800|daemon-mix "
                 "--seed N --seconds S --trace 0|1 [--dr82d PATH]\n");
    return 2;
  }
  if (options.workload == "daemon-mix" && options.dr82d.empty()) {
    std::fprintf(stderr, "perfbench: daemon-mix needs --dr82d\n");
    return 2;
  }

  perfbench::Report report;
  const int rc = options.workload == "daemon-mix"
                     ? perfbench::run_daemon_mix(options, report)
                     : perfbench::run_sim_workload(options, report);
  if (rc != 0) return rc;
  if (options.trace) {
    report.set("failed_share",
               static_cast<double>(report.failed()) /
                   static_cast<double>(std::max<std::uint64_t>(
                       1, report.attempted())),
               "share");
  }
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"hash_backend\": \"%s\", \"cores\": %zu, \"git_sha\": \"%s\", "
      "\"source_digest\": \"%s\"}}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.trace ? 1 : 0, dr::crypto::hash_backend().name, cores(),
      sha.c_str(), digest.c_str());
  std::printf("%s\n", report.json().c_str());
  return report.failed() == 0 ? 0 : 1;
}
