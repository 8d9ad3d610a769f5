// daemon-mix: dr82d deployed as docs/SERVICE.md describes (a coordinator
// spawning 4 endpoint processes), driven by a closed loop of 4 callers
// that share one svc::Client connection. The run is a sequence of rounds,
// each the same fixed 32-operation mix, so the mix never depends on speed:
//   - 7/8 of operations submit dolev-strong n=4 t=1; every 4th submit
//     carries a scripted silent fault;
//   - 1/8 are verify_proofs batches of 16 that alternate between
//     first-seen proofs of a foreign-realm alg2 corpus (built and verified
//     offline before timing) and resubmissions of the previous batch.
// There are 80 rounds per requested second, split between 8 fresh
// deployments. Each timed figure is taken over a deployment's fastest
// tenth of rounds, then the median over deployments is reported: this
// workload is a chain of wake-ups across five processes, so a round
// during which the hypervisor holds a vCPU can take several times as
// long, and such rounds measure the host.
// Every decision is checked against the simulator running the same
// submit, and every verdict against the offline ground truth.

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <thread>

#include "proof/transferable.h"
#include "svc/client.h"
#include "harness.h"

namespace perfbench {

namespace {

constexpr std::size_t kEndpoints = 4;
constexpr std::size_t kCallers = 4;
constexpr std::size_t kBatch = 16;
/// Operations per round: 28 submits (7 faulty) and 4 verify batches (2
/// first-seen, 2 resubmitted).
constexpr std::size_t kRoundOps = 32;
/// Rounds per requested second. The count is fixed, not timed, so the
/// daemon's instance tables (and peak_rss_mb) never depend on speed; a
/// round takes about 11 ms on a quiet 4-core x86 VM with SHA-NI.
constexpr double kRoundsPerSecond = 80;
/// Deployments spawned and stopped in set-up, before the measured ones;
/// setup_s is over the fastest quarter of all spawns.
constexpr std::size_t kSetups = 13;
/// Fresh deployments the rounds are split between. How the scheduler
/// places a deployment's processes moves its speed by up to 30%, so each
/// timed figure is the median over deployments of that deployment's
/// fastest tenth of rounds.
constexpr std::size_t kDeployments = 8;

/// Indices of the fastest `share` of `times` (at least one).
std::vector<std::size_t> fastest(const std::vector<double>& times,
                                 double share) {
  std::vector<std::size_t> order(times.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return times[a] < times[b]; });
  const auto keep = static_cast<std::size_t>(
      std::ceil(share * static_cast<double>(times.size())));
  order.resize(std::clamp<std::size_t>(keep, 1, order.size()));
  return order;
}

/// Median of `values` over the indices in `pick`.
double median_of(const std::vector<double>& values,
                 const std::vector<std::size_t>& pick) {
  std::vector<double> v;
  for (const std::size_t i : pick) v.push_back(values[i]);
  return median(v);
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A dr82d coordinator child process (which spawns the endpoints).
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  /// Spawns the coordinator and waits until all endpoints report ready.
  /// Returns the spawn-to-ready time in seconds, or a negative value.
  double start(const std::string& binary) {
    int out[2];
    if (::pipe(out) != 0) return -1;
    const Clock::time_point begin = Clock::now();
    const std::string endpoints = std::to_string(kEndpoints);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      const char* argv[] = {binary.c_str(), "coord",   "--listen",
                            "127.0.0.1:0",  "--endpoints", endpoints.c_str(),
                            "--spawn",      nullptr};
      ::execv(binary.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(out[1]);
    out_fd_ = out[0];
    if (pid_ < 0) return -1;

    // "dr82d: coordinator on 127.0.0.1:PORT, 4 endpoints"
    std::string line;
    while (line.find('\n') == std::string::npos) {
      pollfd pfd{out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 10000) <= 0) return -1;
      char buf[256];
      const ssize_t got = ::read(out_fd_, buf, sizeof(buf));
      if (got <= 0) return -1;
      line.append(buf, static_cast<std::size_t>(got));
    }
    const std::size_t colon = line.find("127.0.0.1:");
    if (colon == std::string::npos) return -1;
    port_ = static_cast<std::uint16_t>(
        std::strtoul(line.c_str() + colon + 10, nullptr, 10));
    if (!client_.connect("127.0.0.1", port_, std::chrono::seconds(10))) {
      return -1;
    }
    const std::string ready =
        "dr82_endpoints_ready " + std::to_string(kEndpoints) + "\n";
    for (int i = 0; i < 20000; ++i) {
      const auto text = client_.metrics(std::chrono::seconds(5));
      if (!text.has_value()) return -1;
      if (text->find(ready) != std::string::npos) {
        return seconds_between(begin, Clock::now());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return -1;
  }

  svc::Client& client() { return client_; }

  /// The coordinator's pid followed by its endpoint children's.
  std::vector<pid_t> pids() const {
    std::vector<pid_t> out{pid_};
    DIR* dir = ::opendir("/proc");
    if (dir == nullptr) return out;
    while (const dirent* entry = ::readdir(dir)) {
      const long pid = std::strtol(entry->d_name, nullptr, 10);
      if (pid <= 0) continue;
      std::ifstream stat("/proc/" + std::string(entry->d_name) + "/stat");
      std::string content((std::istreambuf_iterator<char>(stat)),
                          std::istreambuf_iterator<char>());
      // pid (comm) state ppid ...: comm may hold spaces, so parse after ')'.
      const std::size_t close = content.rfind(')');
      if (close == std::string::npos) continue;
      std::istringstream rest(content.substr(close + 1));
      std::string state;
      long ppid = 0;
      rest >> state >> ppid;
      if (ppid == pid_) out.push_back(static_cast<pid_t>(pid));
    }
    ::closedir(dir);
    return out;
  }

  /// Clean shutdown through the client, then reaps; kills on timeout.
  /// The coordinator's stdout pipe closes last, after every writer exited.
  void stop() {
    if (pid_ > 0) reap();
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

 private:
  void reap() {
    const std::vector<pid_t> all = pids();
    (void)client_.shutdown_server();
    client_.close();
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 1500 && !reaped; ++i) {
      reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      for (const pid_t p : all) ::kill(p, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  svc::Client client_;
};

/// Same behaviour as the daemon's scripted silent fault: never sends,
/// never decides.
class Silent final : public sim::Process {
 public:
  void on_phase(sim::Context&) override {}
  std::optional<sim::Value> decision() const override { return std::nullopt; }
};

struct Submit {
  svc::SubmitRequest req;
  std::optional<sim::ProcId> silent;
  // Filled by the caller that ran it.
  std::optional<svc::DecisionResponse> resp;
  double latency_ms = 0;
  double submit_us = 0;
};

struct Verify {
  std::size_t batch = 0;  // corpus slice [batch*16, batch*16+16)
  bool cold = true;
  std::optional<std::vector<std::uint8_t>> verdicts;
  double latency_ms = 0;
};

struct Corpus {
  std::vector<Bytes> proofs;
  std::vector<std::uint8_t> truth;  // offline verdict per proof
  double ns_per_signature = 0;
};

/// First-seen proofs for the verify batches: possession proofs of alg2
/// runs (n=9, t=4) in realms no daemon instance uses; the last proof of
/// every batch has its value flipped, so the truth holds rejections too.
Corpus build_corpus(std::uint64_t seed, std::size_t count) {
  const ba::Protocol& alg2 = *ba::find_protocol("alg2");
  const ba::BAConfig config{9, 4, 0, 1};
  Corpus corpus;
  for (std::uint64_t run = 0; corpus.proofs.size() < count; ++run) {
    const std::uint64_t realm_seed = mix64(seed ^ 0xa1a2a3a4ULL) + run;
    const sim::RunResult r = ba::run_scenario(alg2, config, realm_seed);
    const proof::Realm realm{.scheme = sim::SchemeKind::kHmac,
                             .n = config.n,
                             .t = config.t,
                             .transmitter = config.transmitter,
                             .seed = realm_seed};
    for (sim::ProcId p = 0; p < config.n && corpus.proofs.size() < count;
         ++p) {
      if (r.evidence[p].empty()) continue;
      auto proof = proof::from_evidence(
          realm, p, ByteView{r.evidence[p].data(), r.evidence[p].size()});
      if (!proof.has_value()) continue;
      if (corpus.proofs.size() % kBatch == kBatch - 1) {
        proof->evidence.sv.value ^= 1;
      }
      corpus.proofs.push_back(proof::encode_transferable(*proof));
    }
  }
  std::size_t signatures = 0;
  double chain_s = 0;
  for (const Bytes& bytes : corpus.proofs) {
    const auto proof =
        proof::decode_transferable(ByteView{bytes.data(), bytes.size()});
    if (!proof.has_value()) {
      corpus.truth.push_back(0xff);  // no daemon verdict can match
      continue;
    }
    const proof::OfflineVerifier offline(proof->realm);
    corpus.truth.push_back(
        static_cast<std::uint8_t>(proof::verify_offline(*proof, offline)));
    const Clock::time_point a = Clock::now();
    (void)ba::verify_chain(proof->evidence.sv, offline.verifier(), nullptr);
    chain_s += seconds_between(a, Clock::now());
    signatures += proof->evidence.sv.chain.size();
  }
  corpus.ns_per_signature = chain_s * 1e9 / static_cast<double>(signatures);
  return corpus;
}

double prom_value(const std::string& text, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

}  // namespace

int run_daemon_mix(const Options& options, Report& report) {
  const std::size_t rounds =
      options.smoke ? 2
                    : std::max<std::size_t>(
                          10, static_cast<std::size_t>(options.seconds *
                                                       kRoundsPerSecond));
  const std::size_t ops = kRoundOps * rounds;
  const ba::Protocol& ds = *ba::find_protocol("dolev-strong");

  // The fixed operation sequence, a pure function of the seed.
  std::vector<Submit> submits;
  std::vector<Verify> verifies;
  std::vector<std::pair<bool, std::size_t>> plan;  // (is_verify, index)
  for (std::size_t g = 0; g < ops; ++g) {
    const std::uint64_t h = mix64(options.seed * 0x100000001b3ULL + g);
    if (g % 8 == 7) {
      const std::size_t v = verifies.size();
      plan.emplace_back(true, v);
      Verify verify;
      verify.batch = v / 2;
      verify.cold = v % 2 == 0;
      verifies.push_back(std::move(verify));
      continue;
    }
    Submit s;
    s.req.protocol = ds.name;
    s.req.config = {kEndpoints, 1, 0, h % 2};
    s.req.seed = h;
    if (submits.size() % 4 == 3) {
      s.silent = static_cast<sim::ProcId>(1 + (h >> 8) % (kEndpoints - 1));
      dr::chaos::ScriptedFault fault;
      fault.kind = dr::chaos::ScriptedKind::kSilent;
      fault.id = *s.silent;
      s.req.scripted.push_back(fault);
    }
    plan.emplace_back(false, submits.size());
    submits.push_back(std::move(s));
  }
  Corpus corpus = build_corpus(options.seed, (verifies.size() / 2) * kBatch);
  if (options.inject_failure) corpus.truth[0] ^= 1;

  // Set-up: spawn and stop the deployment several times.
  std::vector<double> setups;
  const auto spawn = [&](Daemon& daemon) {
    const double s = daemon.start(options.dr82d);
    if (s < 0) {
      std::fprintf(stderr, "perfbench: dr82d did not come up\n");
      return false;
    }
    setups.push_back(s);
    return true;
  };
  for (std::size_t i = 0; i < kSetups; ++i) {
    Daemon daemon;
    if (!spawn(daemon)) return 1;
  }

  // The closed loop: kCallers threads per round share the client; each
  // takes the next operation and waits for its reply before taking more.
  // Round r runs on deployment r * deployments / rounds.
  const std::size_t deployments = std::min(kDeployments, rounds);
  const auto timeout = std::chrono::seconds(60);
  std::vector<std::atomic<bool>> cold_done(verifies.size() / 2 + 1);
  std::vector<double> round_wall;
  std::optional<std::string> dump;
  double rss_coord = 0, rss_total = 0;
  for (std::size_t d = 0; d < deployments; ++d) {
    Daemon daemon;
    if (!spawn(daemon)) return 1;
    svc::Client& client = daemon.client();
    const auto verify_one = [&](Verify& v) {
      // A resubmission is only warm once its first-seen batch is done; both
      // are in the same round, so on the same deployment.
      if (!v.cold) cold_done[v.batch].wait(false);
      const auto first = corpus.proofs.begin() +
                         static_cast<std::ptrdiff_t>(v.batch * kBatch);
      const std::vector<Bytes> batch(first, first + kBatch);
      const Clock::time_point a = Clock::now();
      v.verdicts = client.verify_proofs(batch, timeout);
      v.latency_ms = seconds_between(a, Clock::now()) * 1e3;
      if (v.cold) {
        cold_done[v.batch] = true;
        cold_done[v.batch].notify_all();
      }
    };
    for (std::size_t r = d * rounds / deployments;
         r < (d + 1) * rounds / deployments; ++r) {
      std::atomic<std::size_t> next{r * kRoundOps};
      const std::size_t end = (r + 1) * kRoundOps;
      const Clock::time_point begin = Clock::now();
      std::vector<std::thread> callers;
      for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&] {
          for (std::size_t g; (g = next.fetch_add(1)) < end;) {
            const auto [is_verify, index] = plan[g];
            if (is_verify) {
              verify_one(verifies[index]);
              continue;
            }
            Submit& s = submits[index];
            const Clock::time_point a = Clock::now();
            const std::uint64_t id = client.submit(s.req);
            const Clock::time_point b = Clock::now();
            if (id != 0) s.resp = client.wait(id, timeout);
            s.submit_us = seconds_between(a, b) * 1e6;
            s.latency_ms = seconds_between(a, Clock::now()) * 1e3;
          }
        });
      }
      for (std::thread& t : callers) t.join();
      round_wall.push_back(seconds_between(begin, Clock::now()));
    }
    if (d + 1 < deployments) continue;
    // The last deployment's dump and memory stand for all of them: each
    // ran the same number of rounds.
    dump = client.metrics(std::chrono::seconds(10));
    const std::vector<pid_t> pids = daemon.pids();
    rss_coord = peak_rss_mb(std::to_string(pids.front()));
    for (const pid_t pid : pids) rss_total += peak_rss_mb(std::to_string(pid));
  }
  report.attempt(dump.has_value(), "no metrics dump");

  // Correctness, after timing: every decision against the simulator
  // running the same submit (traced references alternate with untraced
  // ones in groups of four, so both see faulty submits), every verdict
  // against the offline truth.
  StageSamples stages;
  std::vector<double> decide, decide_clean, decide_faulty, submit_us, verify,
      cold_ms, warm_ms, ref_wall;
  double messages = 0, signatures = 0, payload = 0, frames = 0, wire = 0,
         stale = 0, stragglers = 0, send_errors = 0, hits = 0, misses = 0;
  std::vector<double> round_messages(rounds, 0);
  std::vector<std::vector<double>> round_decide(rounds), round_verify(rounds);
  std::vector<double> round_submits(rounds, 0);
  for (std::size_t g = 0; g < ops; ++g) {
    const auto [is_verify, index] = plan[g];
    if (is_verify) {
      const Verify& v = verifies[index];
      bool ok = v.verdicts.has_value() && v.verdicts->size() == kBatch;
      for (std::size_t i = 0; ok && i < kBatch; ++i) {
        ok = (*v.verdicts)[i] == corpus.truth[v.batch * kBatch + i];
      }
      report.attempt(ok, "verify verdicts differ from the offline truth");
      verify.push_back(v.latency_ms);
      round_verify[g / kRoundOps].push_back(v.latency_ms);
      (v.cold ? cold_ms : warm_ms).push_back(v.latency_ms);
      continue;
    }
    const Submit& s = submits[index];
    std::vector<ba::ScenarioFault> faults;
    if (s.silent.has_value()) {
      faults.push_back({*s.silent, [](sim::ProcId, const ba::BAConfig&) {
                          return std::make_unique<Silent>();
                        }});
    }
    const bool traced = options.trace && (index / 4) % 2 == 0;
    Ledger ledger;
    const InstanceRun ref = run_instance(ds, s.req.config, s.req.seed, faults,
                                         traced ? &ledger : nullptr);
    std::string why;
    bool ok = s.resp.has_value() && s.resp->ok && !s.resp->watchdog_fired;
    ok = ok && same_paper_outcome(ref.result, s.resp->decisions,
                                  s.resp->metrics, why);
    ok = ok && s.resp->scripted_faulty == ref.result.faulty &&
         s.resp->perturbed.empty();
    report.attempt(ok, "daemon differs from the simulator: " + why);
    if (!s.resp.has_value()) continue;

    const sim::Metrics& m = s.resp->metrics;
    decide.push_back(s.latency_ms);
    round_decide[g / kRoundOps].push_back(s.latency_ms);
    (s.silent.has_value() ? decide_faulty : decide_clean)
        .push_back(s.latency_ms);
    submit_us.push_back(s.submit_us);
    round_messages[g / kRoundOps] +=
        static_cast<double>(m.messages_by_correct());
    round_submits[g / kRoundOps] += 1;
    messages += static_cast<double>(m.messages_by_correct());
    signatures += static_cast<double>(m.signatures_by_correct());
    payload += static_cast<double>(m.bytes_by_correct());
    frames += static_cast<double>(m.frames_sent());
    wire += static_cast<double>(m.wire_bytes_by_correct());
    hits += static_cast<double>(m.chain_cache_hits());
    misses += static_cast<double>(m.chain_cache_misses());
    stale += static_cast<double>(s.resp->sync.stale_frames);
    stragglers += static_cast<double>(s.resp->sync.stragglers);
    send_errors += static_cast<double>(s.resp->sync.send_errors);
    if (traced) {
      report.attempt(stages.add_traced(ref, ledger),
                     "stages do not sum to the run wall time");
    } else {
      stages.add_untraced(ref);
      ref_wall.push_back(ref.wall_s() * 1e3);
    }
  }

  // The timed figures come from the fastest tenth of rounds; the tails
  // are per-layer, over every operation of the run.
  std::vector<double> ns_per_message, instances_per_s, decide_p50, verify_p50;
  for (std::size_t r = 0; r < rounds; ++r) {
    ns_per_message.push_back(round_wall[r] * 1e9 /
                             std::max(1.0, round_messages[r]));
    instances_per_s.push_back(round_submits[r] / round_wall[r]);
    decide_p50.push_back(median(round_decide[r]));
    verify_p50.push_back(median(round_verify[r]));
  }
  const double instances = std::max<double>(1, static_cast<double>(decide.size()));

  if (!options.trace) {
    // Per deployment: the figures over its fastest tenth of rounds.
    std::vector<double> wall_q, ns_q, ips_q, decide_q, verify_q;
    for (std::size_t d = 0; d < deployments; ++d) {
      const std::size_t first = d * rounds / deployments;
      const std::vector<double> walls(
          round_wall.begin() + static_cast<std::ptrdiff_t>(first),
          round_wall.begin() +
              static_cast<std::ptrdiff_t>((d + 1) * rounds / deployments));
      std::vector<std::size_t> quiet = fastest(walls, 0.1);
      for (std::size_t& i : quiet) i += first;
      wall_q.push_back(median_of(round_wall, quiet));
      ns_q.push_back(median_of(ns_per_message, quiet));
      ips_q.push_back(median_of(instances_per_s, quiet));
      decide_q.push_back(median_of(decide_p50, quiet));
      verify_q.push_back(median_of(verify_p50, quiet));
    }
    report.set("setup_s", median_of(setups, fastest(setups, 0.25)), "s");
    report.set("wall_s", median(wall_q), "s");
    report.set("ns_per_message", median(ns_q), "ns");
    report.set("instances_per_s", median(ips_q), "1/s");
    report.set("decide_p50_ms", median(decide_q), "ms");
    report.set("verify_p50_ms", median(verify_q), "ms");
    report.set("peak_rss_mb", rss_total, "MB");
    return 0;
  }

  report.set("decide_p99_ms", percentile(decide, 0.99), "ms");
  report.set("verify_p99_ms", percentile(verify, 0.99), "ms");

  const std::string text = dump.value_or("");
  const double stripe_hits = prom_value(text, "dr82_verify_stripe_hits_total");
  const double stripe_misses =
      prom_value(text, "dr82_verify_stripe_misses_total");
  const double completed = prom_value(text, "dr82_instances_completed_total");
  stages.report(report);
  report.set("crypto.cache_hits", hits, "count");
  report.set("crypto.cache_misses", misses, "count");
  report.set("crypto.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
             "ratio");
  report.set("crypto.ns_per_signature", corpus.ns_per_signature, "ns");
  report.set("ba.messages", messages / instances, "count");
  report.set("ba.signatures", signatures / instances, "count");
  report.set("ba.payload_bytes", payload / instances, "bytes");
  report.set("proof.verify_cold_ms", median(cold_ms), "ms");
  report.set("proof.verify_warm_ms", median(warm_ms), "ms");
  report.set("proof.extracted_per_instance",
             completed > 0
                 ? prom_value(text, "dr82_proof_extracted_total") / completed
                 : 0,
             "count");
  report.set("svc.sim_equiv_ms", median(ref_wall), "ms");
  report.set("net.frames_per_instance", frames / instances, "count");
  report.set("net.wire_bytes_per_instance", wire / instances, "bytes");
  report.set("net.stale_frames", stale, "count");
  report.set("net.stragglers", stragglers, "count");
  report.set("net.send_errors", send_errors, "count");
  report.set("svc.submit_share", median(submit_us) / 1e3 / median(decide),
             "ratio");
  report.set("svc.decide_faulty_ratio",
             median(decide_faulty) / median(decide_clean), "ratio");
  report.set("svc.stripe_hit_ratio",
             stripe_hits + stripe_misses > 0
                 ? stripe_hits / (stripe_hits + stripe_misses)
                 : 0,
             "ratio");
  report.set("svc.coord_rss_mb", rss_coord, "MB");
  return 0;
}

}  // namespace perfbench
