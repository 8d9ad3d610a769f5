// Shared pieces of the perfbench binary: run options, the result report,
// small statistics helpers, and the traced simulator harness that both the
// sim workloads and daemon-mix's simulator references run through.
//
// The harness drives the program only through its public surfaces: the
// ba::Protocol registry, sim::Runner's constructor / install / run /
// destructor, util::AllocProbe and the proof functions. Tracing is a
// decorator around every installed sim::Process, so the runner itself is
// untouched and an untraced run executes exactly the code users run.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ba/registry.h"
#include "sim/runner.h"

// Declared here so the aliases below need no extra includes.
namespace dr::bounds {}
namespace dr::proof {}
namespace dr::svc {}

namespace perfbench {

namespace ba = dr::ba;
namespace bounds = dr::bounds;
namespace crypto = dr::crypto;
namespace proof = dr::proof;
namespace sim = dr::sim;
namespace svc = dr::svc;
using dr::ByteView;
using dr::Bytes;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The calling thread's CPU clock in seconds. On a VM with paravirtual
/// steal accounting it stops while the hypervisor holds the vCPU, so for
/// serial single-threaded work it is wall time without the host's share.
inline double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;           // small sizes for the benchmark's own tests
  bool inject_failure = false;  // corrupt one expected value (tests)
  std::string dr82d;            // path of the dr82d binary (daemon-mix)
  std::string trace_dir;        // where per-phase spans are written
};

/// What one invocation reports: the metrics of the requested mode, plus
/// the attempted/failed operation counts behind `correct`.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void attempt(bool ok, const std::string& what = {});
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Median (mean of the middle two for even sizes). Empty input: 0.
double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1]. Empty input: 0.
double percentile(std::vector<double> v, double q);
/// Peak resident set (VmHWM) of `pid` in MiB; "self" for this process.
double peak_rss_mb(const std::string& pid = "self");
/// Shortest round-trip decimal form of `v`.
std::string number(double v);

/// Per-phase spans of one traced run, aggregated over processes. Serial
/// stepping is strictly ordered, so the gaps between consecutive on_phase
/// calls partition Runner::run: a gap inside a phase is the runner
/// committing the previous process's sends; a gap across a phase boundary
/// is that commit plus delivery of the next phase's inboxes.
struct Ledger {
  struct Phase {
    double on_phase_ns = 0;
    double commit_ns = 0;
    double deliver_ns = 0;
    std::uint64_t calls = 0;
    std::uint64_t allocs = 0;  // heap blocks allocated inside on_phase
  };
  std::vector<Phase> phases;  // index = phase - 1
  double prologue_ns = 0;     // run() entry to the first on_phase
  double epilogue_ns = 0;     // last on_phase to run() returning

  Clock::time_point run_entry;
  Clock::time_point last_end;
  sim::PhaseNum last_phase = 0;
  bool started = false;

  void begin(std::size_t steps, Clock::time_point entry);
  void open(sim::PhaseNum phase, Clock::time_point start);
  void close(sim::PhaseNum phase, Clock::time_point start,
             Clock::time_point end, std::uint64_t allocs);
  void finish(Clock::time_point exit);

  double on_phase_ns() const;
  double commit_ns() const;
  double deliver_ns() const;
  std::uint64_t calls() const;
  std::uint64_t allocs() const;
  /// Per-phase spans as a JSON object (written out when a run ends).
  std::string json() const;
};

/// One instance: construction, run and teardown timed from outside.
struct InstanceRun {
  sim::RunResult result;
  double scheme_s = 0;    // sim::Runner construction (keys)
  double make_s = 0;      // protocol.make for every processor
  double run_s = 0;       // Runner::run
  double teardown_s = 0;  // Runner destructor (processes included)
  std::uint64_t run_allocs = 0;  // AllocProbe blocks over run()
  // Set-up, run and teardown again, on the thread's CPU clock.
  double setup_cpu_s = 0;
  double run_cpu_s = 0;
  double teardown_cpu_s = 0;

  double setup_s() const { return scheme_s + make_s; }
  double wall_s() const { return setup_s() + run_s + teardown_s; }
  double total_cpu_s() const { return setup_cpu_s + run_cpu_s + teardown_cpu_s; }
};

/// Per-layer samples, one entry per traced instance, plus the run times of
/// the untraced instances they alternate with; reported as medians.
struct StageSamples {
  /// Adds a traced instance. False when its stages do not sum to within 5%
  /// of its run wall time.
  bool add_traced(const InstanceRun& run, const Ledger& ledger);
  void add_untraced(const InstanceRun& run) { plain_run.push_back(run.run_s); }
  /// Reports the sim.*, ba.on_phase_*, ba.setup.make_ms,
  /// util.allocs_per_message.* and trace.* metrics.
  void report(Report& report) const;

  std::vector<double> prologue, on_phase, calls, commit, deliver, epilogue,
      teardown, scheme, make, allocs_ba, allocs_sim, coverage, traced_run,
      plain_run;
};

/// Mirrors ba::run_scenario (same RunConfig, same install order) with
/// timestamps around each step; a non-null `ledger` wraps every process
/// in the tracing decorator.
InstanceRun run_instance(const ba::Protocol& protocol,
                         const ba::BAConfig& config, std::uint64_t seed,
                         const std::vector<ba::ScenarioFault>& faults,
                         Ledger* ledger);

/// Paper-level equality the daemon must meet against the simulator: the
/// decisions and every counter both backends define (wire-only counters
/// excluded). Appends a reason to `why` on mismatch.
bool same_paper_outcome(const sim::RunResult& sim_run,
                        const std::vector<std::optional<sim::Value>>& got,
                        const sim::Metrics& got_metrics, std::string& why);

int run_sim_workload(const Options& options, Report& report);
int run_daemon_mix(const Options& options, Report& report);

}  // namespace perfbench
