// The serial simulator workloads (alg5-n6400, ds-n800) and the traced
// harness they share with daemon-mix's simulator references.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "ba/evidence.h"
#include "ba/signed_value.h"
#include "bounds/formulas.h"
#include "harness.h"
#include "proof/transferable.h"
#include "util/alloc_stats.h"

namespace perfbench {

namespace {

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// The tracing decorator: timestamps and allocation-counts each on_phase
/// call of the wrapped process and forwards everything else untouched.
class TracedProcess final : public sim::Process {
 public:
  TracedProcess(std::unique_ptr<sim::Process> inner, Ledger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  void on_phase(sim::Context& ctx) override {
    const Clock::time_point start = Clock::now();
    ledger_->open(ctx.phase(), start);
    probe_.reset();
    inner_->on_phase(ctx);
    const std::uint64_t allocs = probe_.blocks();
    ledger_->close(ctx.phase(), start, Clock::now(), allocs);
  }
  std::optional<sim::Value> decision() const override {
    return inner_->decision();
  }
  std::optional<Bytes> evidence() const override {
    return inner_->evidence();
  }

 private:
  std::unique_ptr<sim::Process> inner_;
  Ledger* ledger_;
  dr::util::AllocProbe probe_;
};

}  // namespace

void Ledger::begin(std::size_t steps, Clock::time_point entry) {
  phases.assign(steps, Phase{});
  run_entry = entry;
  started = false;
}

void Ledger::open(sim::PhaseNum phase, Clock::time_point start) {
  if (!started) {
    prologue_ns = ns_between(run_entry, start);
    started = true;
  } else if (phase == last_phase) {
    phases[phase - 1].commit_ns += ns_between(last_end, start);
  } else {
    phases[phase - 1].deliver_ns += ns_between(last_end, start);
  }
}

void Ledger::close(sim::PhaseNum phase, Clock::time_point start,
                   Clock::time_point end, std::uint64_t allocs) {
  Phase& span = phases[phase - 1];
  span.on_phase_ns += ns_between(start, end);
  ++span.calls;
  span.allocs += allocs;
  last_end = end;
  last_phase = phase;
}

void Ledger::finish(Clock::time_point exit) {
  epilogue_ns = ns_between(started ? last_end : run_entry, exit);
}

double Ledger::on_phase_ns() const {
  double sum = 0;
  for (const Phase& p : phases) sum += p.on_phase_ns;
  return sum;
}
double Ledger::commit_ns() const {
  double sum = 0;
  for (const Phase& p : phases) sum += p.commit_ns;
  return sum;
}
double Ledger::deliver_ns() const {
  double sum = 0;
  for (const Phase& p : phases) sum += p.deliver_ns;
  return sum;
}
std::uint64_t Ledger::calls() const {
  std::uint64_t sum = 0;
  for (const Phase& p : phases) sum += p.calls;
  return sum;
}
std::uint64_t Ledger::allocs() const {
  std::uint64_t sum = 0;
  for (const Phase& p : phases) sum += p.allocs;
  return sum;
}

std::string Ledger::json() const {
  std::ostringstream os;
  os << "{\"prologue_ns\": " << number(prologue_ns)
     << ", \"epilogue_ns\": " << number(epilogue_ns) << ", \"phases\": [";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Phase& p = phases[i];
    os << (i == 0 ? "" : ", ") << "{\"phase\": " << i + 1
       << ", \"on_phase_ns\": " << number(p.on_phase_ns)
       << ", \"commit_ns\": " << number(p.commit_ns)
       << ", \"deliver_ns\": " << number(p.deliver_ns)
       << ", \"calls\": " << p.calls << ", \"allocs\": " << p.allocs << "}";
  }
  os << "]}";
  return os.str();
}

InstanceRun run_instance(const ba::Protocol& protocol,
                         const ba::BAConfig& config, std::uint64_t seed,
                         const std::vector<ba::ScenarioFault>& faults,
                         Ledger* ledger) {
  const auto wrap = [ledger](std::unique_ptr<sim::Process> process)
      -> std::unique_ptr<sim::Process> {
    if (ledger == nullptr) return process;
    return std::make_unique<TracedProcess>(std::move(process), ledger);
  };
  const sim::RunConfig run_config{.n = config.n,
                                  .t = config.t,
                                  .transmitter = config.transmitter,
                                  .value = config.value,
                                  .seed = seed};
  const sim::PhaseNum steps = protocol.steps(config);

  InstanceRun out;
  const double c0 = thread_cpu_s();
  const Clock::time_point t0 = Clock::now();
  auto runner = std::make_unique<sim::Runner>(run_config);
  const Clock::time_point t1 = Clock::now();
  for (const ba::ScenarioFault& fault : faults) runner->mark_faulty(fault.id);
  for (sim::ProcId p = 0; p < config.n; ++p) {
    if (!runner->is_faulty(p)) runner->install(p, wrap(protocol.make(p, config)));
  }
  for (const ba::ScenarioFault& fault : faults) {
    runner->install(fault.id, wrap(fault.make(fault.id, config)));
  }
  const Clock::time_point t2 = Clock::now();
  const double c2 = thread_cpu_s();
  // The ledger's clock starts where run_s does, so its stages partition
  // exactly the interval run_s measures.
  if (ledger != nullptr) ledger->begin(steps, t2);
  dr::util::AllocProbe probe;
  out.result = runner->run(steps);
  const Clock::time_point t3 = Clock::now();
  const double c3 = thread_cpu_s();
  out.run_allocs = probe.blocks();
  if (ledger != nullptr) ledger->finish(t3);
  runner.reset();
  const Clock::time_point t4 = Clock::now();
  const double c4 = thread_cpu_s();

  out.scheme_s = seconds_between(t0, t1);
  out.make_s = seconds_between(t1, t2);
  out.run_s = seconds_between(t2, t3);
  out.teardown_s = seconds_between(t3, t4);
  out.setup_cpu_s = c2 - c0;
  out.run_cpu_s = c3 - c2;
  out.teardown_cpu_s = c4 - c3;
  return out;
}

bool StageSamples::add_traced(const InstanceRun& run, const Ledger& ledger) {
  const double run_ns = run.run_s * 1e9;
  const double stages = ledger.prologue_ns + ledger.on_phase_ns() +
                        ledger.commit_ns() + ledger.deliver_ns() +
                        ledger.epilogue_ns;
  const double messages = std::max<double>(
      1, static_cast<double>(run.result.metrics.messages_by_correct()));
  prologue.push_back(ledger.prologue_ns / 1e6);
  on_phase.push_back(ledger.on_phase_ns() / 1e6);
  calls.push_back(static_cast<double>(ledger.calls()));
  commit.push_back(ledger.commit_ns() / 1e6);
  deliver.push_back(ledger.deliver_ns() / 1e6);
  epilogue.push_back(ledger.epilogue_ns / 1e6);
  teardown.push_back(run.teardown_s * 1e3);
  scheme.push_back(run.scheme_s * 1e3);
  make.push_back(run.make_s * 1e3);
  allocs_ba.push_back(static_cast<double>(ledger.allocs()) / messages);
  allocs_sim.push_back(
      static_cast<double>(run.run_allocs - ledger.allocs()) / messages);
  coverage.push_back(stages / run_ns);
  traced_run.push_back(run.run_s);
  return std::abs(stages - run_ns) <= 0.05 * run_ns;
}

void StageSamples::report(Report& report) const {
  report.set("sim.prologue_ms", median(prologue), "ms");
  report.set("ba.on_phase_ms", median(on_phase), "ms");
  report.set("ba.on_phase_calls", median(calls), "count");
  report.set("sim.commit_ms", median(commit), "ms");
  report.set("sim.deliver_ms", median(deliver), "ms");
  report.set("sim.epilogue_ms", median(epilogue), "ms");
  report.set("sim.teardown_ms", median(teardown), "ms");
  report.set("sim.setup.scheme_ms", median(scheme), "ms");
  report.set("ba.setup.make_ms", median(make), "ms");
  report.set("util.allocs_per_message.ba", median(allocs_ba), "count");
  report.set("util.allocs_per_message.sim", median(allocs_sim), "count");
  report.set("trace.overhead_ratio", median(traced_run) / median(plain_run),
             "ratio");
  report.set("trace.stage_coverage", median(coverage), "ratio");
}

namespace {

bool same_counters(const sim::Metrics& a, const sim::Metrics& b,
                   std::string& why) {
  const auto check = [&why](const char* name, std::size_t x, std::size_t y) {
    if (x == y) return true;
    why += std::string(name) + " " + std::to_string(x) + " != " +
           std::to_string(y) + "; ";
    return false;
  };
  bool ok = check("messages_by_correct", a.messages_by_correct(),
                  b.messages_by_correct());
  ok &= check("signatures_by_correct", a.signatures_by_correct(),
              b.signatures_by_correct());
  ok &= check("messages_total", a.messages_total(), b.messages_total());
  ok &= check("bytes_by_correct", a.bytes_by_correct(), b.bytes_by_correct());
  ok &= check("max_payload_by_correct", a.max_payload_by_correct(),
              b.max_payload_by_correct());
  ok &= check("last_active_phase", a.last_active_phase(),
              b.last_active_phase());
  ok &= check("chain_cache_hits", a.chain_cache_hits(), b.chain_cache_hits());
  ok &= check("chain_cache_misses", a.chain_cache_misses(),
              b.chain_cache_misses());
  ok &= check("n", a.n(), b.n());
  if (a.per_phase() != b.per_phase()) {
    why += "per_phase differs; ";
    ok = false;
  }
  for (sim::ProcId p = 0; ok && p < a.n(); ++p) {
    ok &= check("sent_by", a.sent_by(p), b.sent_by(p));
    ok &= check("received_from_correct", a.received_from_correct(p),
                b.received_from_correct(p));
    ok &= check("signatures_exchanged", a.signatures_exchanged(p),
                b.signatures_exchanged(p));
  }
  return ok;
}

/// Byte-for-byte equality of two runs' decisions, evidence, faulty set,
/// phases and every Metrics field.
bool identical(const sim::RunResult& a, const sim::RunResult& b) {
  return a.decisions == b.decisions && a.evidence == b.evidence &&
         a.faulty == b.faulty && a.phases_run == b.phases_run &&
         a.metrics == b.metrics;
}

}  // namespace

bool same_paper_outcome(const sim::RunResult& sim_run,
                        const std::vector<std::optional<sim::Value>>& got,
                        const sim::Metrics& got_metrics, std::string& why) {
  bool ok = true;
  if (sim_run.decisions != got) {
    why += "decisions differ; ";
    ok = false;
  }
  return same_counters(sim_run.metrics, got_metrics, why) && ok;
}

namespace {

struct SimWorkload {
  ba::Protocol protocol;
  ba::BAConfig config;
  /// Exact paper counts of the failure-free run (messages and signatures
  /// by correct processors), pinned per size.
  std::size_t messages = 0;
  std::size_t signatures = 0;
};

SimWorkload sim_workload(const Options& options) {
  SimWorkload w;
  if (options.workload == "alg5-n6400") {
    w.protocol = ba::make_alg5_protocol(7);
    w.config = {options.smoke ? std::size_t{200} : std::size_t{6400}, 8, 0, 1};
    // Lemma 5's bound is asymptotic, so the counts are pinned as measured;
    // the checks below hold them against Theorems 1 and 2.
    w.messages = options.smoke ? 5804 : 103260;
    w.signatures = options.smoke ? 84956 : 1254338;
  } else {
    w.protocol = *ba::find_protocol("dolev-strong");
    w.config = {options.smoke ? std::size_t{50} : std::size_t{800}, 8, 0, 1};
    // Failure-free Dolev-Strong broadcast: the transmitter's n-1 one-
    // signature messages, then every other processor relays its two-
    // signature chain to the n-2 others and back to the transmitter.
    w.messages = bounds::naive_exchange_messages(w.config.n);
    w.signatures = bounds::dolev_strong_broadcast_message_bound(w.config.n);
  }
  if (options.inject_failure) ++w.messages;
  return w;
}

/// The paper-level checks of one failure-free run. Appends what failed.
bool check_run(const SimWorkload& w, const sim::RunResult& r,
               std::string& why) {
  const std::size_t n = w.config.n;
  const std::size_t t = w.config.t;
  const sim::Metrics& m = r.metrics;
  bool ok = true;
  const auto need = [&](bool cond, const std::string& what) {
    if (!cond) {
      why += what + "; ";
      ok = false;
    }
  };
  const sim::AgreementCheck ba_check = sim::check_byzantine_agreement(
      r, w.config.transmitter, w.config.value);
  need(ba_check.agreement, "agreement violated");
  need(ba_check.validity, "validity violated");
  need(m.messages_by_correct() == w.messages,
       "messages " + std::to_string(m.messages_by_correct()) + " != pinned " +
           std::to_string(w.messages));
  need(m.signatures_by_correct() == w.signatures,
       "signatures " + std::to_string(m.signatures_by_correct()) +
           " != pinned " + std::to_string(w.signatures));
  need(static_cast<double>(m.messages_by_correct()) >=
           bounds::theorem2_message_lower_bound(n, t),
       "below Theorem 2's message bound");
  need(m.signatures_by_correct() >=
           bounds::theorem1_signature_lower_bound_exact(n, t),
       "below Theorem 1's signature bound");
  const sim::PhaseNum steps = w.protocol.steps(w.config);
  need(r.phases_run == steps, "phases_run != protocol steps");
  need(m.last_active_phase() + 1 <= steps, "sent in the processing step");
  if (w.protocol.name == "dolev-strong") {
    need(m.messages_by_correct() <=
             bounds::dolev_strong_broadcast_message_bound(n),
         "above the Dolev-Strong message bound");
    need(m.last_active_phase() <= t + 1, "Dolev-Strong ran past t+1 phases");
  }
  return ok;
}

/// Third-party verification of one run's decisions: every correct
/// processor's evidence wrapped as a transferable proof, encoded, then
/// decoded and verified offline against a verifier rebuilt from the realm,
/// in batches the size of daemon-mix's verify_proofs batches.
constexpr std::size_t kVerifyBatch = 16;

struct VerifyPass {
  std::vector<double> batch_ms;  // one fresh cache per batch, CPU clock
  std::size_t proofs = 0;
  std::size_t rejected = 0;
  double cold_ms = 0;  // all proofs, one shared cache, first pass
  double warm_ms = 0;  // the same proofs again through that cache
  double ns_per_signature = 0;  // uncached chain verification
};

VerifyPass verify_decisions(const SimWorkload& w, std::uint64_t seed,
                            const sim::RunResult& r, bool detailed) {
  const proof::Realm realm{.scheme = sim::SchemeKind::kHmac,
                           .n = w.config.n,
                           .t = w.config.t,
                           .transmitter = w.config.transmitter,
                           .seed = seed};
  const proof::OfflineVerifier offline(realm);
  std::vector<Bytes> encoded;
  for (sim::ProcId p = 0; p < r.evidence.size(); ++p) {
    if (r.faulty[p] || r.evidence[p].empty()) continue;
    const auto proof = proof::from_evidence(
        realm, p, ByteView{r.evidence[p].data(), r.evidence[p].size()});
    if (proof.has_value()) encoded.push_back(proof::encode_transferable(*proof));
  }

  VerifyPass out;
  out.proofs = encoded.size();
  std::vector<proof::Transferable> decoded;
  decoded.reserve(encoded.size());
  for (std::size_t i = 0; i < encoded.size(); i += kVerifyBatch) {
    const std::size_t end = std::min(encoded.size(), i + kVerifyBatch);
    const double a = thread_cpu_s();
    crypto::VerifyCache cache;
    for (std::size_t j = i; j < end; ++j) {
      auto proof = proof::decode_transferable(
          ByteView{encoded[j].data(), encoded[j].size()});
      if (!proof.has_value() ||
          proof::verify_offline(*proof, offline, &cache) !=
              proof::Verdict::kOk) {
        ++out.rejected;
        continue;
      }
      decoded.push_back(std::move(*proof));
    }
    out.batch_ms.push_back((thread_cpu_s() - a) * 1e3);
  }
  if (!detailed) return out;

  crypto::VerifyCache shared;
  for (double* total : {&out.cold_ms, &out.warm_ms}) {
    const Clock::time_point a = Clock::now();
    for (const proof::Transferable& p : decoded) {
      if (proof::verify_offline(p, offline, &shared) != proof::Verdict::kOk) {
        ++out.rejected;
      }
    }
    *total = seconds_between(a, Clock::now()) * 1e3;
  }
  std::size_t signatures = 0;
  const Clock::time_point a = Clock::now();
  for (const proof::Transferable& p : decoded) {
    if (!ba::verify_chain(p.evidence.sv, offline.verifier(), nullptr)) {
      ++out.rejected;
    }
    signatures += p.evidence.sv.chain.size();
  }
  if (signatures != 0) {
    out.ns_per_signature =
        seconds_between(a, Clock::now()) * 1e9 / static_cast<double>(signatures);
  }
  return out;
}

void write_trace(const Options& options, const std::string& body) {
  if (options.trace_dir.empty()) return;
  const std::string path = options.trace_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << body << "\n";
}

}  // namespace

int run_sim_workload(const Options& options, Report& report) {
  const SimWorkload w = sim_workload(options);
  const std::uint64_t seed = options.seed;
  const double messages = static_cast<double>(w.messages);
  const auto checked = [&](const sim::RunResult& r, const char* label) {
    std::string why;
    const bool ok = check_run(w, r, why);
    report.attempt(ok, ok ? "" : std::string(label) + ": " + why);
    return ok;
  };

  // Warm-up instance, untimed: first-touch page faults and lazy statics
  // are a one-off per process, not a per-instance cost.
  checked(run_instance(w.protocol, w.config, seed, {}, nullptr).result,
          "warm-up");

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  constexpr std::size_t kMinInstances = 3;

  if (!options.trace) {
    // Timed on the thread's CPU clock: the simulator runs serially on this
    // one thread, and the clock leaves out what the host took.
    std::vector<double> setup, wall, ns_per_message, decide, verify;
    while (setup.size() < kMinInstances || Clock::now() < deadline) {
      const InstanceRun run =
          run_instance(w.protocol, w.config, seed, {}, nullptr);
      checked(run.result, "instance");
      const VerifyPass pass = verify_decisions(w, seed, run.result, false);
      report.attempt(pass.rejected == 0 && pass.proofs != 0,
                     "honest decision proofs rejected");
      setup.push_back(run.setup_cpu_s);
      wall.push_back(run.total_cpu_s());
      ns_per_message.push_back(run.run_cpu_s * 1e9 / messages);
      decide.push_back((run.setup_cpu_s + run.run_cpu_s) * 1e3);
      verify.insert(verify.end(), pass.batch_ms.begin(), pass.batch_ms.end());
    }
    report.set("setup_s", median(setup), "s");
    report.set("wall_s", median(wall), "s");
    report.set("ns_per_message", median(ns_per_message), "ns");
    report.set("instances_per_s", 1.0 / median(wall), "1/s");
    report.set("decide_p50_ms", median(decide), "ms");
    report.set("verify_p50_ms", median(verify), "ms");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    return 0;
  }

  // Traced: the first traced run must be bit-identical to an untraced
  // ba::run_scenario of the same scenario; then traced and untraced
  // instances alternate so their wall-time ratio is the tracing overhead.
  const sim::RunResult reference =
      ba::run_scenario(w.protocol, w.config, seed);
  checked(reference, "run_scenario reference");

  StageSamples stages;
  std::vector<double> plain_wall, decide, verify, cold, warm, ns_per_sig;
  std::size_t extracted = 0;
  sim::Metrics metrics;
  std::string spans;
  while (stages.traced_run.size() < 2 || Clock::now() < deadline) {
    Ledger ledger;
    const InstanceRun traced =
        run_instance(w.protocol, w.config, seed, {}, &ledger);
    checked(traced.result, "traced instance");
    if (stages.traced_run.empty()) {
      report.attempt(identical(traced.result, reference),
                     "traced run differs from ba::run_scenario");
      spans = ledger.json();
    }
    report.attempt(stages.add_traced(traced, ledger),
                   "stages do not sum to the run wall time");
    metrics = traced.result.metrics;

    const VerifyPass pass = verify_decisions(w, seed, traced.result, true);
    report.attempt(pass.rejected == 0 && pass.proofs != 0,
                   "honest decision proofs rejected");
    extracted = pass.proofs;
    verify.insert(verify.end(), pass.batch_ms.begin(), pass.batch_ms.end());
    cold.push_back(pass.cold_ms);
    warm.push_back(pass.warm_ms);
    ns_per_sig.push_back(pass.ns_per_signature);

    const InstanceRun plain =
        run_instance(w.protocol, w.config, seed, {}, nullptr);
    checked(plain.result, "untraced instance");
    stages.add_untraced(plain);
    plain_wall.push_back(plain.wall_s() * 1e3);
    decide.push_back((plain.setup_s() + plain.run_s) * 1e3);
  }
  write_trace(options, "{\"workload\": \"" + options.workload +
                           "\", \"seed\": " + std::to_string(seed) +
                           ", \"first_traced_run\": " + spans + "}");

  const double hits = static_cast<double>(metrics.chain_cache_hits());
  const double misses = static_cast<double>(metrics.chain_cache_misses());
  stages.report(report);
  report.set("decide_p99_ms", percentile(decide, 0.99), "ms");
  report.set("verify_p99_ms", percentile(verify, 0.99), "ms");
  report.set("crypto.cache_hits", hits, "count");
  report.set("crypto.cache_misses", misses, "count");
  report.set("crypto.hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  report.set("crypto.ns_per_signature", median(ns_per_sig), "ns");
  report.set("ba.messages", static_cast<double>(metrics.messages_by_correct()),
             "count");
  report.set("ba.signatures",
             static_cast<double>(metrics.signatures_by_correct()), "count");
  report.set("ba.payload_bytes",
             static_cast<double>(metrics.bytes_by_correct()), "bytes");
  report.set("proof.verify_cold_ms", median(cold), "ms");
  report.set("proof.verify_warm_ms", median(warm), "ms");
  report.set("proof.extracted_per_instance", static_cast<double>(extracted),
             "count");
  report.set("svc.sim_equiv_ms", median(plain_wall), "ms");
  // No wire and no daemon on this workload: the net and svc layers are
  // not exercised, and their counters read zero.
  for (const char* name : {"net.frames_per_instance", "net.stale_frames",
                           "net.stragglers", "net.send_errors"}) {
    report.set(name, 0, "count");
  }
  report.set("net.wire_bytes_per_instance", 0, "bytes");
  report.set("svc.submit_share", 0, "ratio");
  report.set("svc.decide_faulty_ratio", 0, "ratio");
  report.set("svc.stripe_hit_ratio", 0, "ratio");
  report.set("svc.coord_rss_mb", 0, "MB");
  return 0;
}

}  // namespace perfbench
