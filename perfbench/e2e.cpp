// Full-stack benchmark of the Snooze simulator.
//
// Boots a real core::SnoozeSystem (client -> EP -> GL -> GM -> LC on net/rpc
// on sim), drives it with an open-loop Poisson VM workload in simulated time,
// and reports the host cost of one simulated second next to the simulated
// cloud's own outcomes (submission latency, energy, powered-on hosts).
//
// One invocation runs one workload:
//
//   perfbench_e2e --workload steady-10k --seed 7 --seconds 10 --trace 0
//
// --trace 0 builds and runs the workload several times (five or ten, or three
// times each of six input draws); every repeat of a draw must produce the
// same fingerprint (trace hash + simulated metrics). Host times are scaled by
// a yardstick kernel sampled between slices (see Yardstick).
// --trace 1 runs it once untraced and once traced: the traced run records
// spans around each set-up call and each Engine::run_until slice (with the
// per-layer counter deltas of that slice), times shadow ACO solves at each
// reconfiguration instant, and writes the spans out when it ends.
//
// Everything measured comes from public counters and from timing this file's
// own calls into public functions; nothing in the simulator is instrumented.
// The last line of stdout is one JSON object with every metric, its unit,
// the correctness checks and the fingerprint.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "consolidation/aco.hpp"
#include "core/snooze.hpp"
#include "util/args.hpp"
#include "workload/arrival.hpp"
#include "workload/vm_generator.hpp"

using namespace snooze;
using namespace snooze::core;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Host speed yardstick
// ---------------------------------------------------------------------------

/// A fixed reference kernel that measures how fast the shared host runs right
/// now. On a shared host the same deterministic simulated work takes 20-40%
/// more or less wall time from one minute to the next, at times 2.5 times as
/// much (the process stays on the CPU, so CPU time swings alike). The benchmark samples the yardstick
/// between timed slices, at the same slices in every repeat, and scales each
/// slice's host time by kNominalSeconds / (the yardstick's time next to it):
/// the host times it reports are those of a host on which the yardstick
/// takes kNominalSeconds. The kernel is the benchmark's own code and never
/// changes with the simulator. It mixes random reads over 8 MB, hash-map
/// updates and std::function calls, like the simulator's own work; in
/// side-by-side runs of every workload, scaling by it left a smaller
/// run-to-run spread than scaling by plain random reads over 32 MB or not
/// scaling at all.
class Yardstick {
 public:
  /// About the kernel's median time on the shared 4-core Intel Xeon
  /// (2.1 GHz) the benchmark was written on, so scaled times read close to
  /// wall times there.
  static constexpr double kNominalSeconds = 0.25e-3;

  Yardstick() : table_(std::size_t{1} << 20) {
    for (std::size_t i = 0; i < table_.size(); ++i) table_[i] = i * 0x9E3779B97F4A7C15ull;
    for (std::uint64_t k = 0; k <= kKeyMask; ++k) map_[k] = k;
  }

  /// Run the kernel once; its host seconds.
  double sample() {
    const auto t0 = Clock::now();
    std::uint64_t x = state_;
    for (int i = 0; i < 4000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      sink_ += table_[x & (table_.size() - 1)];
      map_[x & kKeyMask] += static_cast<std::uint64_t>(i);
      const std::function<void()> touch = [this, x] { sink_ ^= x; };
      touch();
    }
    state_ = x;
    asm volatile("" : : "r"(sink_) : "memory");  // keep the reads
    return seconds_since(t0);
  }

 private:
  static constexpr std::uint64_t kKeyMask = 0xFFFF;

  std::vector<std::uint64_t> table_;
  std::unordered_map<std::uint64_t, std::uint64_t> map_;
  std::uint64_t state_ = 0x2545F4914F6CDD1Dull;
  std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  std::size_t lcs = 0;
  std::size_t gms = 0;  ///< including the one elected GL
  bool energy_savings = false;
  bool aco = false;                     ///< periodic ACO reconfiguration
  sim::Time reconfiguration_period = 0.0;
  std::size_t residents = 0;            ///< long-lived VMs placed in set-up
  double rate = 0.0;                    ///< churn arrivals, VMs per simulated second
  sim::Time lifetime = 0.0;             ///< churn VM lifetime; also the warm-up length
  double demand_lo = 0.05, demand_hi = 0.25;  ///< per-dimension requested share
  bool fail_gl_midway = false;          ///< crash the acting GL halfway through timing
  /// Simulated seconds timed per repeat for each second of --seconds. Sized
  /// so that the repeats take about --seconds of host time on the parent
  /// commit (steady-10k: about two thirds, as its set-ups already fill most
  /// of a run).
  double sim_s_per_budget_s = 1.0;
  sim::Time slice = 1.0;                ///< simulated length of one timed slice
  /// Timed slices between yardstick samples: the yardstick runs about every
  /// 20 ms of host time, or once per burst of periodic work.
  std::size_t yardstick_every = 8;
  /// Independent input draws per untraced run. Variant 0 draws its inputs
  /// from --seed itself, variant v from variant_seed(seed, v); more variants
  /// shrink the seed-to-seed spread of a workload whose cost follows its
  /// random VM population.
  std::size_t variants = 1;
  /// Untraced repeats of each variant: their fingerprints must agree, each
  /// slice counts at the median of them, and set-up time is the median over
  /// every repeat.
  std::size_t repeats = 5;
};

std::uint64_t variant_seed(std::uint64_t seed, std::size_t variant) {
  return seed + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(variant);
}

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "steady-10k";
    w.lcs = 10000;
    w.gms = 81;
    w.residents = 2500;
    w.rate = 10.0;
    w.lifetime = 30.0;
    w.sim_s_per_budget_s = 1.0;
    w.slice = 0.025;         // 1,200 slices, so p99 has 12 beyond it
    w.yardstick_every = 40;  // once per simulated second
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "churn-1k";
    w.lcs = 1000;
    w.gms = 9;
    w.energy_savings = true;
    w.rate = 20.0;
    w.lifetime = 120.0;
    w.fail_gl_midway = true;
    // The tail is the failover: 150-400 submissions wait ≈23 s (the rest of
    // the failover's victims ≈21 s). Keeping the timed phase near 10,000
    // submissions puts p99 among the ≈23 s ones on every seed; ten short
    // repeats keep the host time measured per run.
    w.sim_s_per_budget_s = 17.0;
    w.repeats = 10;
    w.slice = 0.5;
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "consolidate-144";
    w.lcs = 144;
    w.gms = 5;
    w.energy_savings = true;
    w.aco = true;
    w.reconfiguration_period = 30.0;
    w.rate = 1.0;
    w.lifetime = 500.0;
    w.demand_lo = 0.02;
    w.demand_hi = 0.15;
    // About 1% of submissions wait for a suspended LC to wake, so p99 flips
    // between the 2 s boot and the 12 s wake-up from seed to seed. Fewer than
    // 1,000 submissions per repeat make the tail p90, which is steady. ACO's
    // cost follows the number of VMs, which the Poisson arrivals vary by
    // about ±5% from seed to seed, so a run averages six input draws.
    w.sim_s_per_budget_s = 13.5;
    w.variants = 6;
    w.repeats = 3;
    w.yardstick_every = 30;  // once per reconfiguration period
    w.slice = 1.0;
    out.push_back(w);
  }
  return out;
}

/// Shrink a workload for smoke runs: fewer nodes, same shape.
Workload scaled(Workload w, double scale) {
  if (scale >= 1.0) return w;
  const auto shrink = [scale](std::size_t n, std::size_t floor) {
    return std::max(floor, static_cast<std::size_t>(std::lround(n * scale)));
  };
  w.lcs = shrink(w.lcs, 8);
  w.gms = shrink(w.gms, 3);
  w.residents = shrink(w.residents, w.residents > 0 ? 4 : 0);
  w.rate = std::max(w.rate * scale, 0.3);
  w.lifetime = std::max(20.0, w.lifetime * scale);
  return w;
}

// ---------------------------------------------------------------------------
// Host-side tracing (spans kept in memory, written out at the end)
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::string run_id;
  int parent = -1;
  double start_s = 0.0;  ///< host seconds since the process started timing
  double end_s = 0.0;
  std::vector<std::pair<std::string, double>> attrs;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int begin(std::string name, std::string run_id, int parent) {
    spans_.push_back(Span{std::move(name), std::move(run_id), parent, now(), 0.0, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_s = now(); }
  /// A span whose interval was timed by the caller.
  void add(std::string name, std::string run_id, int parent, double start_s,
           double end_s, std::vector<std::pair<std::string, double>> attrs) {
    spans_.push_back(
        Span{std::move(name), std::move(run_id), parent, start_s, end_s, std::move(attrs)});
  }
  [[nodiscard]] double now() const { return seconds_since(origin_); }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out.precision(12);  // microsecond resolution over long runs
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"run\":\"" << s.run_id
          << "\",\"name\":\"" << s.name << "\",\"start_s\":" << s.start_s
          << ",\"end_s\":" << s.end_s;
      for (const auto& [key, value] : s.attrs) out << ",\"" << key << "\":" << value;
      out << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Counters read from the system's public accounting
// ---------------------------------------------------------------------------

/// Every per-layer counter the benchmark reads, at one instant. Deltas of two
/// snapshots give the work a slice or a phase did.
struct Snapshot {
  std::map<std::string, double> v;

  [[nodiscard]] double operator[](const std::string& key) const {
    const auto it = v.find(key);
    return it == v.end() ? 0.0 : it->second;
  }
};

std::uint64_t registry(SnoozeSystem& system, const char* name) {
  const auto* c = system.telemetry().metrics().find_counter(name);
  return c == nullptr ? 0 : c->value();
}

/// The coordination service owns the first address the network hands out.
constexpr net::Address kCoordAddress = 1;

Snapshot snapshot(SnoozeSystem& system) {
  Snapshot s;
  auto& m = s.v;
  const auto& es = system.engine().stats();
  m["sim.scheduled"] = static_cast<double>(es.scheduled);
  m["sim.fired"] = static_cast<double>(es.fired);
  m["sim.cancelled"] = static_cast<double>(es.cancelled);
  m["sim.overflowed"] = static_cast<double>(es.overflowed);
  m["sim.resizes"] = static_cast<double>(es.resizes);
  m["sim.peak_pending"] = static_cast<double>(es.peak_pending);
  const auto& ns = system.network().stats();
  m["net.sent"] = static_cast<double>(ns.messages_sent);
  m["net.delivered"] = static_cast<double>(ns.messages_delivered);
  m["net.dropped"] = static_cast<double>(ns.messages_dropped);
  m["net.duplicated"] = static_cast<double>(ns.messages_duplicated);
  m["net.bytes"] = static_cast<double>(ns.bytes_sent);
  const auto coord = system.network().node_stats(kCoordAddress);
  m["coord.msgs"] = static_cast<double>(coord.messages_sent + coord.messages_delivered);
  const auto client = system.network().node_stats(system.client().address());
  m["client.msgs"] = static_cast<double>(client.messages_sent);
  for (const char* name :
       {"rpc.calls", "rpc.timeouts", "rpc.hedges", "rpc.retries", "coord.watch_events",
        "ep.gl_queries", "client.submissions", "gl.dispatches", "gl.dispatch_failures",
        "gm.placements_ok", "gm.placements_failed", "gm.summary_deltas",
        "gm.summary_snapshots", "gm.reconfigurations", "gm.suspends", "gm.wakeups",
        "lc.heartbeats", "lc.monitor_reports", "lc.starts_rejected", "lc.vms_started",
        "lc.migrations_started", "lc.migrations_done", "lc.migrations_failed"}) {
    m[name] = static_cast<double>(registry(system, name));
  }
  double summary_bytes = 0.0;
  for (const auto& gm : system.group_managers()) {
    summary_bytes += static_cast<double>(gm->counters().summary_bytes_sent);
  }
  m["gm.summary_bytes"] = summary_bytes;
  m["trace.records"] = static_cast<double>(system.trace().records().size());
  m["telemetry.spans"] = static_cast<double>(system.telemetry().spans().size());
  return s;
}

/// Counter deltas attached to each traced slice span.
std::vector<std::pair<std::string, double>> slice_attrs(const Snapshot& a,
                                                         const Snapshot& b) {
  std::vector<std::pair<std::string, double>> out;
  for (const char* key : {"sim.fired", "sim.scheduled", "sim.cancelled", "net.sent",
                          "net.bytes", "rpc.calls", "rpc.hedges", "coord.msgs",
                          "gl.dispatches", "lc.heartbeats", "lc.monitor_reports",
                          "lc.migrations_started", "trace.records", "telemetry.spans"}) {
    out.emplace_back(key, b[key] - a[key]);
  }
  return out;
}

/// Trace bytes appended in [from, to): the strings each record carries.
double trace_bytes(SnoozeSystem& system, std::size_t from, std::size_t to) {
  double bytes = 0.0;
  const auto& records = system.trace().records();
  for (std::size_t i = from; i < to && i < records.size(); ++i) {
    const auto& r = records[i];
    bytes += static_cast<double>(sizeof(r) + r.actor.size() + r.kind.size() + r.detail.size());
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Process memory
// ---------------------------------------------------------------------------

/// A "VmRSS"/"VmHWM" line of /proc/self/status, in bytes (0 if unavailable).
double proc_status_bytes(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) * 1024.0;  // kB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Statistics helpers
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of an ascending vector (q in [0,1]).
double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return nearest_rank(xs, 0.5);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The highest of p99/p90 that leaves at least 10 samples beyond it; p50
/// when even p90 does not.
std::pair<double, std::string> tail_percentile(std::size_t n) {
  if (n >= 1000) return {0.99, "p99"};
  if (n >= 100) return {0.90, "p90"};
  return {0.50, "p50"};
}

// ---------------------------------------------------------------------------
// One build + set-up + timed phase of a workload
// ---------------------------------------------------------------------------

/// Simulated outcomes of one repeat. Deterministic for a given seed.
struct Outcome {
  std::uint64_t trace_hash = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double submit_p50 = 0.0;
  double submit_tail = 0.0;
  std::string tail_name;
  double energy_kj_per_vm_h = 0.0;
  double hosts_on_mean = 0.0;

  [[nodiscard]] std::string fingerprint() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%016llx/%zu/%zu/%.9g/%.9g/%.9g/%.9g",
                  static_cast<unsigned long long>(trace_hash), attempted, failed,
                  submit_p50, submit_tail, energy_kj_per_vm_h, hosts_on_mean);
    return buf;
  }
};

/// Host-side measurements of one repeat.
struct HostCost {
  double setup_s = 0.0;
  double construct_s = 0.0;
  double stabilize_s = 0.0;
  double place_s = 0.0;
  double warmup_s = 0.0;
  double timed_wall_s = 0.0;  ///< summed run_until slices
  double timed_sim_s = 0.0;
  std::vector<double> slice_wall_s;  ///< host seconds of each timed slice, in order
  std::vector<double> slice_sim_s;   ///< simulated seconds of each timed slice
  /// Yardstick samples while timing: (index of the slice that follows, host
  /// seconds); the last one follows the last slice.
  std::vector<std::pair<std::size_t, double>> yardstick;
  std::vector<double> setup_yardstick;  ///< yardstick samples around set-up
  double rss_before = 0.0, rss_stable = 0.0, rss_warm = 0.0;
  std::size_t vms_after_warmup = 0;
};

struct ShadowSolves {
  std::vector<double> solve_ms;
  std::size_t rounds = 0;
  double instance_vms = 0.0;  ///< summed over rounds
};

struct Repeat {
  std::size_t variant = 0;
  Outcome outcome;
  HostCost cost;
  Snapshot before, after;     ///< counters at the start / end of timing
  ShadowSolves shadow;
  double trace_bytes = 0.0;   ///< trace record bytes appended while timing
  std::vector<std::string> failures;
};

class WorkloadRun {
 public:
  WorkloadRun(const Workload& w, std::uint64_t seed, sim::Time timed_sim_s,
              Yardstick& yardstick, Tracer* tracer, std::string run_id)
      : w_(w), seed_(seed), timed_sim_s_(timed_sim_s), yardstick_(yardstick),
        tracer_(tracer), run_id_(std::move(run_id)) {}

  Repeat run() {
    Repeat r;
    r.cost.rss_before = proc_status_bytes("VmRSS");
    const int root = span_begin("run", -1);
    setup(r);
    timed(r);
    const int check_span = span_begin("checks", root);
    check(r);
    span_end(check_span);
    span_end(root);
    return r;
  }

 private:
  // --- set-up ---------------------------------------------------------------

  void setup(Repeat& r) {
    r.cost.setup_yardstick.push_back(yardstick_.sample());
    double sampling_s = 0.0;  // yardstick time inside set-up, left out of it
    const auto t0 = Clock::now();
    const int setup_span = span_begin("setup", root_);

    const int construct_span = span_begin("setup.construct", setup_span);
    SystemSpec spec;
    spec.group_managers = w_.gms;
    spec.local_controllers = w_.lcs;
    spec.seed = 42;  // the program is fixed; --seed varies only its inputs
    spec.config.energy_savings = w_.energy_savings;
    if (w_.aco) {
      spec.config.consolidation = ConsolidationKind::kAco;
      spec.config.reconfiguration_period = w_.reconfiguration_period;
    }
    system_ = std::make_unique<SnoozeSystem>(spec);
    system_->start();
    span_end(construct_span);
    r.cost.construct_s = seconds_since(t0);

    const auto t1 = Clock::now();
    const int stabilize_span = span_begin("setup.stabilize", setup_span);
    if (!system_->run_until_stable(600.0)) r.failures.push_back("hierarchy did not stabilize");
    span_end(stabilize_span);
    r.cost.stabilize_s = seconds_since(t1);
    r.cost.rss_stable = proc_status_bytes("VmRSS");

    make_inputs();

    const auto t2 = Clock::now();
    const int place_span = span_begin("setup.place", setup_span);
    place_residents(r);
    span_end(place_span);
    r.cost.place_s = seconds_since(t2);

    // Warm-up: one churn VM lifetime, so the resident population and the
    // engine's queue are at steady state when timing starts.
    const auto t3 = Clock::now();
    const int warm_span = span_begin("setup.warmup", setup_span);
    const sim::Time warm_end = churn_start_ + w_.lifetime;
    for (sim::Time t = churn_start_; t < warm_end;) {
      const sim::Time next = std::min(warm_end, t + 10.0);
      run_slice(t, next);
      t = next;
      const auto s0 = Clock::now();
      r.cost.setup_yardstick.push_back(yardstick_.sample());
      sampling_s += seconds_since(s0);
    }
    span_end(warm_span);
    r.cost.warmup_s = seconds_since(t3) - sampling_s;
    r.cost.rss_warm = proc_status_bytes("VmRSS");
    r.cost.vms_after_warmup = system_->running_vm_count();
    r.cost.setup_s = seconds_since(t0) - sampling_s;
    span_end(setup_span);
    r.cost.setup_yardstick.push_back(yardstick_.sample());
  }

  /// The workload's inputs, all drawn from --seed: resident VMs, churn VM
  /// demands and utilisations, and churn arrival offsets.
  void make_inputs() {
    if (w_.rate > 0.0) {
      arrivals_ = workload::poisson_arrivals(workload::constant_rate(w_.rate), w_.rate,
                                             w_.lifetime + timed_sim_s_, seed_);
    }
    workload::UniformVmGenerator demands(w_.demand_lo, w_.demand_hi,
                                         seed_ ^ 0xD1B54A32D192ED03ull);
    util::Rng util_rng(seed_ ^ 0x94D049BB133111EBull);
    const auto make = [&](double lifetime) {
      TraceSpec trace;
      trace.kind = TraceSpec::Kind::kConstant;
      trace.a = util_rng.uniform(0.4, 0.8);
      return Input{demands.next().requested, lifetime, trace};
    };
    for (std::size_t i = 0; i < w_.residents; ++i) residents_.push_back(make(0.0));
    for (std::size_t i = 0; i < arrivals_.size(); ++i) churn_.push_back(make(w_.lifetime));
  }

  /// Submit the resident VMs back to back and run until each is answered;
  /// the churn clock starts at the next whole simulated second.
  void place_residents(Repeat& r) {
    auto& engine = system_->engine();
    const sim::Time start = std::ceil(engine.now());
    std::size_t done = 0;
    for (std::size_t i = 0; i < residents_.size(); ++i) {
      const sim::Time due = start + kResidentGap * static_cast<double>(i);
      engine.schedule_at(due, [this, i, &done] {
        submit(residents_[i], [this, &done](bool ok, sim::Time) {
          ++done;
          if (!ok) ++resident_failures_;
        });
      });
    }
    sim::Time t = start;
    while (done < residents_.size() && t < start + 600.0) {
      t += 1.0;
      engine.run_until(t);
    }
    if (done < residents_.size()) r.failures.push_back("resident placement did not finish");
    if (resident_failures_ > 0) {
      r.failures.push_back(std::to_string(resident_failures_) + " resident VMs refused");
    }
    churn_start_ = t;
    timed_start_ = churn_start_ + w_.lifetime;
    timed_end_ = timed_start_ + timed_sim_s_;
    for (sim::Time& at : arrivals_) at += churn_start_;
  }

  // --- timed phase ----------------------------------------------------------

  void timed(Repeat& r) {
    auto& engine = system_->engine();
    if (w_.fail_gl_midway) {
      engine.schedule_at(timed_start_ + timed_sim_s_ / 2.0, [this] { system_->fail_gl(); });
    }
    const int timed_span = span_begin("timed", root_);
    r.before = snapshot(*system_);
    const double energy0 = system_->total_energy();
    const double work0 = system_->total_work();
    measuring_ = true;

    const auto n = static_cast<std::size_t>(std::llround(timed_sim_s_ / w_.slice));
    double hosts_on_area = 0.0;
    Snapshot prev = tracer_ != nullptr ? r.before : Snapshot{};
    for (std::size_t i = 0; i < n; ++i) {
      if (i % w_.yardstick_every == 0) r.cost.yardstick.emplace_back(i, yardstick_.sample());
      const sim::Time a = timed_start_ + w_.slice * static_cast<double>(i);
      const sim::Time b = i + 1 == n ? timed_end_ : timed_start_ + w_.slice * static_cast<double>(i + 1);
      const double host_start = tracer_ != nullptr ? tracer_->now() : 0.0;
      const double wall = run_slice(a, b);
      r.cost.timed_wall_s += wall;
      r.cost.slice_wall_s.push_back(wall);
      r.cost.slice_sim_s.push_back(b - a);
      hosts_on_area += static_cast<double>(hosts_on()) * (b - a);
      if (tracer_ != nullptr) {
        Snapshot cur = snapshot(*system_);
        auto attrs = slice_attrs(prev, cur);
        attrs.emplace_back("sim_start", a);
        attrs.emplace_back("sim_end", b);
        tracer_->add("slice", run_id_, timed_span, host_start, host_start + wall,
                     std::move(attrs));
        prev = std::move(cur);
        if (w_.aco && std::floor(b / w_.reconfiguration_period) >
                          std::floor(a / w_.reconfiguration_period)) {
          shadow_solve(r.shadow, timed_span, b);
        }
      }
      if (i + 1 == n) r.cost.yardstick.emplace_back(n, yardstick_.sample());
    }
    r.cost.timed_sim_s = timed_end_ - timed_start_;
    measuring_ = false;
    r.after = snapshot(*system_);
    r.trace_bytes = trace_bytes(*system_, static_cast<std::size_t>(r.before["trace.records"]),
                                static_cast<std::size_t>(r.after["trace.records"]));
    const double energy_kj = (system_->total_energy() - energy0) / 1000.0;
    const double vm_h = (system_->total_work() - work0) / 3600.0;
    r.outcome.energy_kj_per_vm_h = ratio(energy_kj, vm_h);
    r.outcome.hosts_on_mean = hosts_on_area / r.cost.timed_sim_s;
    span_end(timed_span);

    // Untimed drain: let every submission made while timing get its answer.
    sim::Time t = timed_end_;
    while (timed_answered_ < timed_submitted_ && t < timed_end_ + 120.0) {
      t += 1.0;
      engine.run_until(t);
    }
    if (timed_answered_ < timed_submitted_) {
      r.failures.push_back(std::to_string(timed_submitted_ - timed_answered_) +
                           " submissions unanswered 120 s after timing");
    }

    std::vector<double> lat = latencies_;
    lat.insert(lat.end(), timed_failed_, std::numeric_limits<double>::infinity());
    std::sort(lat.begin(), lat.end());
    const auto [q, name] = tail_percentile(lat.size());
    r.outcome.attempted = timed_submitted_;
    r.outcome.failed = timed_failed_;
    r.outcome.submit_p50 = nearest_rank(lat, 0.5);
    r.outcome.submit_tail = nearest_rank(lat, q);
    r.outcome.tail_name = name;
    r.outcome.trace_hash = system_->trace().hash();
  }

  /// Run the engine over (a, b], first scheduling the churn arrivals due in
  /// it. Returns the host seconds spent inside Engine::run_until.
  double run_slice(sim::Time a, sim::Time b) {
    auto& engine = system_->engine();
    while (next_arrival_ < arrivals_.size() && arrivals_[next_arrival_] <= b) {
      const std::size_t i = next_arrival_++;
      const sim::Time due = std::max(arrivals_[i], a);
      engine.schedule_at(due, [this, i, due] {
        max_lateness_ = std::max(max_lateness_, std::abs(system_->engine().now() - due));
        const bool timed = measuring_;
        if (timed) ++timed_submitted_;
        submit(churn_[i], [this, timed](bool ok, sim::Time latency) {
          if (!timed) return;
          ++timed_answered_;
          if (ok) {
            latencies_.push_back(latency);
          } else {
            ++timed_failed_;
          }
        });
      });
    }
    const auto t0 = Clock::now();
    engine.run_until(b);
    return seconds_since(t0);
  }

  struct Input {
    hypervisor::ResourceVector requested;
    double lifetime = 0.0;
    TraceSpec trace;
  };

  /// Submit one VM; `done` gets the outcome and the submission latency.
  void submit(const Input& in, std::function<void(bool, sim::Time)> done) {
    const double lifetime = in.lifetime;
    VmDescriptor vm = system_->make_vm(in.requested, lifetime, in.trace);
    const VmId id = vm.id;
    system_->client().submit(
        vm, [this, id, lifetime, done = std::move(done)](
                bool ok, net::Address, sim::Time latency) {
          if (ok) {
            accepted_[id] = system_->engine().now() + (lifetime > 0.0 ? lifetime : 1e18);
          }
          done(ok, latency);
        });
  }

  std::size_t hosts_on() const {
    std::size_t n = 0;
    for (const auto& lc : system_->local_controllers()) {
      if (lc->alive() && lc->power_state() == energy::PowerState::kOn) ++n;
    }
    return n;
  }

  /// Time a shadow ACO solve per GM on the instance that GM would build now:
  /// its powered-on LCs and the VMs they host, with the GMs' own ACO knobs.
  /// The solves run on the host between slices and never touch the engine.
  void shadow_solve(ShadowSolves& out, int parent, sim::Time at) {
    const auto& config = system_->spec().config;
    std::unordered_map<net::Address, std::size_t> gm_index;
    for (std::size_t g = 0; g < system_->group_managers().size(); ++g) {
      const auto& gm = system_->group_managers()[g];
      if (gm->alive() && !gm->is_leader()) gm_index[gm->address()] = g;
    }
    std::vector<consolidation::Instance> instances(system_->group_managers().size());
    for (const auto& lc : system_->local_controllers()) {
      if (!lc->alive() || !lc->assigned() ||
          lc->power_state() != energy::PowerState::kOn) {
        continue;
      }
      const auto it = gm_index.find(lc->gm());
      if (it == gm_index.end()) continue;
      auto& inst = instances[it->second];
      inst.host_capacities.push_back(lc->host().capacity());
      for (const auto& [id, vm] : lc->host().vms()) inst.vm_demands.push_back(vm->spec().requested);
    }
    for (std::size_t g = 0; g < instances.size(); ++g) {
      const auto& inst = instances[g];
      if (inst.vm_demands.empty()) continue;
      consolidation::AcoParams params;
      params.ants = config.aco_ants;
      params.cycles = config.aco_cycles;
      params.threads = 1;
      params.seed = seed_ * 1000003ull + static_cast<std::uint64_t>(at) * 131ull + g;
      const double start = tracer_->now();
      const auto result = consolidation::AcoConsolidation(params).solve(inst);
      const double end = tracer_->now();
      out.solve_ms.push_back((end - start) * 1000.0);
      ++out.rounds;
      out.instance_vms += static_cast<double>(inst.vm_count());
      tracer_->add("consolidation.shadow_solve", run_id_, parent, start, end,
                   {{"sim_time", at},
                    {"gm", static_cast<double>(g)},
                    {"vms", static_cast<double>(inst.vm_count())},
                    {"hosts", static_cast<double>(inst.host_count())},
                    {"hosts_used", static_cast<double>(result.hosts_used)}});
    }
  }

  // --- correctness ----------------------------------------------------------

  void check(Repeat& r) {
    auto& sys = *system_;
    if (max_lateness_ != 0.0) {
      r.failures.push_back("open-loop generator ran late by " + std::to_string(max_lateness_) + " s");
    }
    std::size_t leaders = 0;
    for (const auto& gm : sys.group_managers()) {
      if (gm->alive() && gm->is_leader()) ++leaders;
      if (gm->stale_accepts() != 0) r.failures.push_back(gm->name() + " accepted stale commands");
    }
    if (leaders != 1) r.failures.push_back(std::to_string(leaders) + " group leaders at the end");
    std::string unassigned;
    std::map<VmId, int> hosted;
    for (const auto& lc : sys.local_controllers()) {
      if (lc->stale_accepts() != 0) r.failures.push_back(lc->name() + " accepted stale commands");
      if (!lc->alive()) continue;
      if (!lc->suspended() && !lc->assigned()) {
        unassigned += " " + lc->name() + "(" + energy::to_string(lc->power_state()) + ")";
      }
      for (const auto& [id, vm] : lc->host().vms()) {
        const auto state = vm->state();
        if (state == hypervisor::VmState::kBooting || state == hypervisor::VmState::kRunning ||
            state == hypervisor::VmState::kMigrating) {
          ++hosted[id];
        }
      }
    }
    if (!unassigned.empty()) r.failures.push_back("live LCs unassigned:" + unassigned);
    const auto& ns = sys.network().stats();
    if (ns.messages_delivered + ns.messages_dropped > ns.messages_sent + ns.messages_duplicated) {
      r.failures.push_back("network delivered or dropped more messages than were sent");
    }
    // Accepted VMs still within their lifetime (with slack for the boot time
    // between acceptance and the lifetime clock starting) must be hosted
    // exactly once; no VM may be hosted twice.
    const sim::Time now = sys.engine().now();
    std::size_t lost = 0;
    for (const auto& [id, ends] : accepted_) {
      if (ends <= now + 10.0) continue;
      const auto it = hosted.find(id);
      if (it == hosted.end()) ++lost;
    }
    std::size_t duplicated = 0;
    for (const auto& [id, count] : hosted) {
      if (count > 1) ++duplicated;
    }
    if (lost > 0) r.failures.push_back(std::to_string(lost) + " accepted VMs hosted nowhere");
    if (duplicated > 0) r.failures.push_back(std::to_string(duplicated) + " VMs hosted twice");
  }

  // --- spans ----------------------------------------------------------------

  int span_begin(const char* name, int parent) {
    if (tracer_ == nullptr) return -1;
    const int id = tracer_->begin(name, run_id_, parent);
    if (parent < 0) root_ = id;
    return id;
  }
  void span_end(int id) {
    if (tracer_ != nullptr && id >= 0) tracer_->end(id);
  }

  static constexpr double kResidentGap = 0.002;  ///< s between resident submissions

  const Workload& w_;
  std::uint64_t seed_;
  sim::Time timed_sim_s_;
  Yardstick& yardstick_;
  Tracer* tracer_;
  std::string run_id_;
  int root_ = -1;

  std::unique_ptr<SnoozeSystem> system_;
  std::vector<Input> residents_;
  std::vector<Input> churn_;
  std::vector<sim::Time> arrivals_;
  std::size_t next_arrival_ = 0;
  sim::Time churn_start_ = 0.0, timed_start_ = 0.0, timed_end_ = 0.0;

  bool measuring_ = false;
  std::size_t timed_submitted_ = 0, timed_answered_ = 0, timed_failed_ = 0;
  std::size_t resident_failures_ = 0;
  double max_lateness_ = 0.0;
  std::vector<double> latencies_;
  std::unordered_map<VmId, sim::Time> accepted_;  ///< id -> end of lifetime
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The yardstick's time next to timed slice `i`: the median of the five
/// samples nearest to it.
double local_yardstick(const HostCost& c, std::size_t i) {
  const auto& ys = c.yardstick;
  const auto after = std::upper_bound(ys.begin(), ys.end(), i,
                                      [](std::size_t x, const auto& y) { return x < y.first; });
  const std::size_t k = std::min<std::size_t>(5, ys.size());
  const auto j = static_cast<std::size_t>(after - ys.begin());
  std::size_t lo = j >= 3 ? j - 3 : 0;
  lo = std::min(lo, ys.size() - k);
  std::vector<double> near;
  for (std::size_t m = lo; m < lo + k; ++m) near.push_back(ys[m].second);
  return median(near);
}

/// Host seconds of timed slice `i`, scaled to the yardstick's nominal speed.
double scaled_slice_s(const HostCost& c, std::size_t i) {
  return c.slice_wall_s[i] * Yardstick::kNominalSeconds / local_yardstick(c, i);
}

/// Set-up seconds scaled to the yardstick's nominal speed.
double scaled_setup_s(const HostCost& c, double seconds) {
  return seconds * Yardstick::kNominalSeconds / median(c.setup_yardstick);
}

/// Host ms per simulated second of one repeat, scaled.
double wall_ms_per_sim_s(const HostCost& c) {
  double s = 0.0;
  for (std::size_t i = 0; i < c.slice_wall_s.size(); ++i) s += scaled_slice_s(c, i);
  return s * 1000.0 / c.timed_sim_s;
}

/// The end-to-end metrics, from the untraced repeats.
///
/// Host times are scaled to the yardstick's nominal speed, slice by slice.
/// Every repeat of a variant runs the same slices of the same deterministic
/// work (their fingerprints must match), so each slice counts at the median
/// of its repeats; the headline is their sum over the simulated seconds.
/// Simulated outcomes are the mean over the variants.
std::vector<Metric> end_to_end(const Workload& w, const std::vector<Repeat>& reps,
                               double excluded_rss_bytes) {
  std::vector<double> setup, slices;
  for (const Repeat& r : reps) setup.push_back(scaled_setup_s(r.cost, r.cost.setup_s));
  double host_s = 0.0, sim_s = 0.0;
  double p50 = 0.0, tail = 0.0, energy = 0.0, hosts = 0.0;
  double attempted = 0.0, failed = 0.0;
  for (std::size_t v = 0; v < w.variants; ++v) {
    std::vector<const Repeat*> mine;
    for (const Repeat& r : reps) {
      if (r.variant == v) mine.push_back(&r);
    }
    const HostCost& first = mine.front()->cost;
    for (std::size_t i = 0; i < first.slice_wall_s.size(); ++i) {
      std::vector<double> xs;
      for (const Repeat* r : mine) xs.push_back(scaled_slice_s(r->cost, i));
      const double slice_s = median(xs);
      host_s += slice_s;
      slices.push_back(slice_s * 1000.0 / first.slice_sim_s[i]);
    }
    sim_s += first.timed_sim_s;
    const Outcome& o = mine.front()->outcome;
    p50 += o.submit_p50;
    tail += o.submit_tail;
    energy += o.energy_kj_per_vm_h;
    hosts += o.hosts_on_mean;
    attempted += static_cast<double>(o.attempted);
    failed += static_cast<double>(o.failed);
  }
  std::sort(slices.begin(), slices.end());
  const auto n = static_cast<double>(w.variants);
  return {
      {"setup_s", median(setup), "s"},
      {"wall_ms_per_sim_s", host_s * 1000.0 / sim_s, "ms"},
      {"slice_ms_p50", nearest_rank(slices, 0.50), "ms"},
      {"slice_ms_p99", nearest_rank(slices, 0.99), "ms"},
      {"peak_rss_mb", (proc_status_bytes("VmHWM") - excluded_rss_bytes) / 1e6, "MB"},
      {"submit_p50_sim_s", p50 / n, "s"},
      {"submit_tail_sim_s", tail / n, "s"},
      {"submit_ok_ratio", 1.0 - ratio(failed, attempted), "ratio"},
      {"energy_kj_per_vm_h", energy / n, "kJ/VM-h"},
      {"hosts_on_mean", hosts / n, "count"},
  };
}

/// The per-layer metrics, from the traced repeat (`t`) and the untraced
/// first repeat (`u`, which also owns the process-memory readings).
std::vector<Metric> per_layer(const Workload& w, const Repeat& u, const Repeat& t) {
  const auto d = [&t](const char* key) { return t.after[key] - t.before[key]; };
  const double sim_s = t.cost.timed_sim_s;
  const auto per_s = [sim_s](double x) { return x / sim_s; };
  // Shadow solves run between the traced slices and are scaled by the traced
  // repeat's median yardstick sample.
  std::vector<double> traced_samples;
  for (const auto& [slice, seconds] : t.cost.yardstick) traced_samples.push_back(seconds);
  const double solve_scale = Yardstick::kNominalSeconds / median(traced_samples);
  std::vector<double> solves;
  for (const double ms : t.shadow.solve_ms) solves.push_back(ms * solve_scale);
  std::sort(solves.begin(), solves.end());
  const double senders = static_cast<double>(w.gms > 1 ? w.gms - 1 : 1);
  const double periods = sim_s / SnoozeConfig{}.gm_summary_period;
  const double rounds = static_cast<double>(t.shadow.rounds);
  std::vector<double> yardstick_samples;
  for (const auto& [slice, seconds] : u.cost.yardstick) yardstick_samples.push_back(seconds);
  return {
      {"sim.host_ns_per_event", ratio(wall_ms_per_sim_s(u.cost) * sim_s * 1e6, d("sim.fired")),
       "ns"},
      {"sim.events_per_sim_s", per_s(d("sim.fired")), "1/s"},
      {"sim.cancel_ratio", ratio(d("sim.cancelled"), d("sim.scheduled")), "ratio"},
      {"sim.overflow_ratio", ratio(d("sim.overflowed"), d("sim.scheduled")), "ratio"},
      {"sim.resizes", d("sim.resizes"), "count"},
      {"sim.peak_pending", t.after["sim.peak_pending"], "count"},
      {"net.msgs_per_sim_s", per_s(d("net.sent")), "1/s"},
      {"net.bytes_per_lc_s", per_s(d("net.bytes")) / static_cast<double>(w.lcs), "B/s"},
      {"net.drop_ratio", ratio(d("net.dropped"), d("net.sent")), "ratio"},
      {"rpc.calls_per_sim_s", per_s(d("rpc.calls")), "1/s"},
      {"rpc.timeout_ratio", ratio(d("rpc.timeouts"), d("rpc.calls")), "ratio"},
      {"rpc.hedge_ratio", ratio(d("rpc.hedges"), d("rpc.calls")), "ratio"},
      {"rpc.retry_ratio", ratio(d("rpc.retries"), d("rpc.calls")), "ratio"},
      {"coord.msgs_per_sim_s", per_s(d("coord.msgs")), "1/s"},
      {"coord.watch_events", d("coord.watch_events"), "count"},
      {"client.attempts_per_submit", ratio(d("client.msgs"), d("client.submissions")), "ratio"},
      {"client.submit_fail_ratio", ratio(static_cast<double>(t.outcome.failed),
                                         static_cast<double>(t.outcome.attempted)), "ratio"},
      {"ep.gl_queries", d("ep.gl_queries"), "count"},
      {"gl.dispatches", d("gl.dispatches"), "count"},
      {"gl.dispatch_failure_ratio", ratio(d("gl.dispatch_failures"), d("gl.dispatches")), "ratio"},
      {"gm.placement_failure_ratio",
       ratio(d("gm.placements_failed"), d("gm.placements_ok") + d("gm.placements_failed")),
       "ratio"},
      {"gm.summary_bytes_per_gm_period", ratio(d("gm.summary_bytes"), senders * periods), "B"},
      {"gm.summary_snapshot_ratio",
       ratio(d("gm.summary_snapshots"), d("gm.summary_snapshots") + d("gm.summary_deltas")),
       "ratio"},
      {"lc.heartbeats_per_sim_s", per_s(d("lc.heartbeats")), "1/s"},
      {"lc.monitor_reports_per_sim_s", per_s(d("lc.monitor_reports")), "1/s"},
      {"lc.start_reject_ratio",
       ratio(d("lc.starts_rejected"), d("lc.starts_rejected") + d("lc.vms_started")), "ratio"},
      {"consolidation.rounds", rounds, "count"},
      {"consolidation.accept_ratio", ratio(d("gm.reconfigurations"), rounds), "ratio"},
      {"consolidation.instance_vms", ratio(t.shadow.instance_vms, rounds), "count"},
      {"consolidation.solve_ms_p50", nearest_rank(solves, 0.50), "ms"},
      {"consolidation.solve_ms_p99", nearest_rank(solves, 0.99), "ms"},
      {"consolidation.solve_ms_total_per_sim_s",
       per_s(std::accumulate(solves.begin(), solves.end(), 0.0)), "ms"},
      {"hypervisor.migrations", d("lc.migrations_started"), "count"},
      {"hypervisor.migration_failure_ratio",
       ratio(d("lc.migrations_failed"), d("lc.migrations_started")), "ratio"},
      {"energy.suspends", d("gm.suspends"), "count"},
      {"energy.wakeups", d("gm.wakeups"), "count"},
      {"trace.records_per_sim_s", per_s(d("trace.records")), "1/s"},
      {"trace.bytes_per_sim_s", per_s(t.trace_bytes), "B/s"},
      {"telemetry.spans_per_sim_s", per_s(d("telemetry.spans")), "1/s"},
      {"mem.rss_bytes_per_lc",
       ratio(u.cost.rss_stable - u.cost.rss_before, static_cast<double>(w.lcs)), "B"},
      {"mem.rss_bytes_per_vm",
       ratio(u.cost.rss_warm - u.cost.rss_stable, static_cast<double>(u.cost.vms_after_warmup)),
       "B"},
      {"setup.construct_s", scaled_setup_s(t.cost, t.cost.construct_s), "s"},
      {"setup.stabilize_s", scaled_setup_s(t.cost, t.cost.stabilize_s), "s"},
      {"setup.place_s", scaled_setup_s(t.cost, t.cost.place_s), "s"},
      {"setup.warmup_s", scaled_setup_s(t.cost, t.cost.warmup_s), "s"},
      {"bench.tracing_overhead_ms_per_sim_s",
       wall_ms_per_sim_s(t.cost) - wall_ms_per_sim_s(u.cost), "ms"},
      {"bench.raw_wall_ms_per_sim_s", u.cost.timed_wall_s * 1000.0 / u.cost.timed_sim_s, "ms"},
      {"bench.yardstick_ms", median(yardstick_samples) * 1000.0, "ms"},
  };
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double x) {
  if (!std::isfinite(x)) return x > 0 ? "1e308" : "-1e308";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::string name = args.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const double seconds = args.get_double("seconds", 10.0);
  const bool traced = args.get_int("trace", 0) != 0;
  const double scale = args.get_double("scale", 1.0);
  const std::string spans_path = args.get("spans", "");
  // Self-test of the determinism check: perturb the second fingerprint.
  const bool corrupt = args.get_bool("corrupt-fingerprint", false);
  // Probe: the same workload with periodic consolidation switched off.
  const bool aco_off = args.get_bool("aco-off", false);

  std::optional<Workload> chosen;
  for (const Workload& w : workloads()) {
    if (w.name == name) chosen = scaled(w, scale);
  }
  if (!chosen) {
    std::fprintf(stderr, "unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  Workload w = *chosen;
  if (aco_off) w.aco = false;
  const sim::Time timed_sim_s = std::max(10.0, seconds * w.sim_s_per_budget_s);

  // The yardstick's own memory is left out of peak_rss_mb.
  const double rss_before_yardstick = proc_status_bytes("VmRSS");
  Yardstick yardstick;
  const double yardstick_bytes = proc_status_bytes("VmRSS") - rss_before_yardstick;

  const auto origin = Clock::now();
  Tracer tracer(origin);
  std::vector<Repeat> reps;
  std::vector<std::string> failures;
  // Untraced runs take the variants in turn, so the repeats of one variant
  // lie as far apart in time as the run allows.
  const std::size_t variants = traced ? 1 : w.variants;
  const std::size_t runs = traced ? 2 : w.variants * w.repeats;
  for (std::size_t i = 0; i < runs; ++i) {
    const bool trace_this = traced && i == 1;
    const std::size_t variant = i % variants;
    std::string run_id = w.name + "/seed" + std::to_string(seed) + "/" +
                         (trace_this ? "traced" : "run" + std::to_string(i));
    if (variants > 1) run_id += "/variant" + std::to_string(variant);
    WorkloadRun run(w, variant_seed(seed, variant), timed_sim_s, yardstick,
                    trace_this ? &tracer : nullptr, run_id);
    reps.push_back(run.run());
    reps.back().variant = variant;
    for (const std::string& f : reps.back().failures) failures.push_back(run_id + ": " + f);
    const HostCost& c = reps.back().cost;
    std::fprintf(stderr,
                 "[%s] setup %.2f s (construct %.2f, stabilize %.2f, place %.2f, warm-up %.2f), "
                 "timed %.2f s for %.0f sim s, fingerprint %s\n",
                 run_id.c_str(), c.setup_s, c.construct_s, c.stabilize_s, c.place_s, c.warmup_s,
                 c.timed_wall_s, c.timed_sim_s, reps.back().outcome.fingerprint().c_str());
  }
  // Every run must match the first run of its variant.
  std::vector<std::string> prints;
  for (const Repeat& r : reps) prints.push_back(r.outcome.fingerprint());
  if (corrupt && prints.size() > variants) prints[variants] += "-corrupted";
  for (std::size_t i = variants; i < prints.size(); ++i) {
    const std::size_t first = i % variants;
    if (prints[i] != prints[first]) {
      failures.push_back("fingerprint of run " + std::to_string(i) + " (" + prints[i] +
                         ") differs from run " + std::to_string(first) + " (" +
                         prints[first] + ")");
    }
  }

  std::vector<Metric> metrics;
  if (traced) {
    metrics = per_layer(w, reps[0], reps[1]);
    if (!spans_path.empty() && !tracer.write(spans_path)) {
      failures.push_back("could not write spans to " + spans_path);
    }
  } else {
    metrics = end_to_end(w, reps, yardstick_bytes);
  }

  const Outcome& o = reps.front().outcome;
  std::size_t attempted = 0, failed = 0;
  for (const Repeat& r : reps) {
    attempted += r.outcome.attempted;
    failed += r.outcome.failed;
  }
  for (const Metric& m : metrics) {
    std::printf("%-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (std::size_t v = 0; v < variants; ++v) {
    std::printf("submit tail is %s of %zu submissions per run of variant %zu\n",
                reps[v].outcome.tail_name.c_str(), reps[v].outcome.attempted, v);
  }
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());

  std::ostringstream json;
  json << "{\"workload\":" << json_string(w.name) << ",\"seed\":" << seed
       << ",\"correct\":" << (failures.empty() ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"tail_percentile\":" << json_string(o.tail_name)
       << ",\"tail_samples\":" << o.attempted << ",\"fingerprints\":[";
  for (std::size_t i = 0; i < prints.size(); ++i) json << (i ? "," : "") << json_string(prints[i]);
  json << "],\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) json << (i ? "," : "") << json_string(failures[i]);
  json << "],\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? "," : "") << json_string(metrics[i].name) << ":{\"value\":"
         << json_number(metrics[i].value) << ",\"unit\":" << json_string(metrics[i].unit) << "}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return failures.empty() ? 0 : 1;
}
