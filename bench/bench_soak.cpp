// Experiment E15 — 24-hour chaos soak with long-horizon operations.
//
// Paper claim: the system is *autonomous* — it "dynamically adapts the
// framework to its changing environment" without operator intervention. The
// soak exercises that claim at operational timescales: a full virtual day of
// diurnal + flash-crowd load, a continuous low-rate chaos schedule, the
// GL-driven autoscaler powering nodes against demand, and one complete
// rolling upgrade of every LC and GM riding over the traffic.
//
// Gates (all must pass for exit code 0):
//   invariants      zero violations at any sample, zero stale-epoch accepts,
//                   hierarchy reconverged, every pet VM hosted exactly once
//   ops             the upgrade terminates (done or rolled back, never hung)
//                   and the autoscaler completes >= 1 up and >= 1 down cycle
//   flap rate       SLO alert transitions per hour stay under a budget — a
//                   stable deployment pages rarely, a flapping one constantly
//   energy drift    cumulative J per VM-hour moves < drift budget between
//                   mid-run and run end (the meter and the workload agree at
//                   steady state; unbounded drift means a leak in one of them)
//   bounded memory  every retained-state proxy (sim-trace ring, time-series
//                   ring, span ring, GL submission books, engine event queue)
//                   is flat: its second-half high-water mark must not exceed
//                   the ring bound, and the unbounded proxies must not grow
//                   past a small factor of their first-half peak
//
// The run is a pure function of --seed: two invocations with identical
// arguments produce identical traces, checkpoints, and JSON.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chaos/injector.hpp"
#include "chaos/invariants.hpp"
#include "chaos/schedule.hpp"
#include "core/snooze.hpp"
#include "obs/health_monitor.hpp"
#include "obs/incident.hpp"
#include "ops/autoscaler.hpp"
#include "ops/upgrade.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "workload/arrival.hpp"

using namespace snooze;
using namespace snooze::core;

namespace {

/// One memory checkpoint: retained-state sizes sampled on the virtual clock.
struct Checkpoint {
  double t = 0.0;
  std::size_t trace_records = 0;
  std::size_t ts_rows = 0;
  std::size_t spans = 0;
  std::size_t book = 0;      ///< sum of GM submission books
  std::size_t pending = 0;   ///< engine event queue depth
  std::size_t vms = 0;       ///< running VMs (workload shape, not a proxy)
  std::size_t hosts_on = 0;
  double energy_per_vm_h = -1.0;
};

std::size_t fleet_book_size(SnoozeSystem& system) {
  std::size_t total = 0;
  for (const auto& gm : system.group_managers()) {
    if (const GroupLeader* gl = gm->leader()) total += gl->submission_book_size();
  }
  return total;
}

std::size_t running_vms(SnoozeSystem& system) {
  std::size_t total = 0;
  for (const auto& lc : system.local_controllers()) total += lc->vm_count();
  return total;
}

std::size_t hosts_on(SnoozeSystem& system) {
  std::size_t total = 0;
  for (const auto& lc : system.local_controllers()) {
    if (lc->power_state() == energy::PowerState::kOn) ++total;
  }
  return total;
}

double energy_per_vm_hour(SnoozeSystem& system) {
  const double vm_hours = system.total_work() / 3600.0;
  return vm_hours > 0.0 ? system.total_energy() / vm_hours : -1.0;
}

/// Max of one proxy over a checkpoint range [lo, hi).
template <typename Field>
std::size_t peak(const std::vector<Checkpoint>& cps, std::size_t lo, std::size_t hi,
                 Field field) {
  std::size_t m = 0;
  for (std::size_t i = lo; i < hi && i < cps.size(); ++i) {
    m = std::max(m, field(cps[i]));
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const double hours = args.get_double("hours", 24.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::string json_path = args.get("json", "");
  const double max_flaps_per_hour = args.get_double("max-flaps-per-hour", 12.0);
  const double max_energy_drift = args.get_double("max-energy-drift", 0.25);
  const double horizon = hours * 3600.0;

  bench::print_header(
      "E15: long-horizon chaos soak — diurnal load, autoscaling, rolling upgrade",
      "the framework runs autonomously: it adapts to demand and faults "
      "without intervention, indefinitely");

  SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = 3;
  spec.local_controllers = 16;
  spec.seed = seed;
  // Soak SLO budget: chaos deliberately injects failovers near the default
  // 9.5 s MTTR budget, and the MTTR SLI is a cumulative mean — one bruised
  // episode would latch the alert for the rest of the day. The soak measures
  // *stability*, not a single failover, so it runs with a relaxed budget.
  spec.config.slo.failover_mttr_max_s = 15.0;
  SnoozeSystem system(spec);
  system.trace().set_max_records(65536);           // sim-trace ring
  system.telemetry().spans().set_max_spans(8192);  // span ring
  system.start();
  if (!system.run_until_stable(300.0)) {
    std::fprintf(stderr, "hierarchy failed to stabilize\n");
    return 1;
  }
  const double t0 = system.engine().now();

  chaos::InvariantChecker checker(system, {});
  checker.start();

  // Continuous low-rate chaos across the whole day: expected ~40 faults at
  // 24 h. The schedule is derived from the seed and heals every window
  // within the horizon.
  chaos::ChaosSpec chaos_spec;
  chaos_spec.duration = horizon;
  chaos_spec.fault_rate = 0.0005;
  const chaos::FaultSchedule schedule =
      chaos::generate_schedule(chaos_spec, {3, 16, 2}, seed);
  chaos::ChaosInjector injector(system, schedule, &checker);
  injector.start();

  obs::HealthMonitor monitor(system);
  monitor.start();

  ops::AutoscalerConfig as_cfg;
  as_cfg.check_period = 15.0;
  as_cfg.scale_up_threshold = 0.55;
  as_cfg.scale_down_threshold = 0.25;
  as_cfg.up_stable_checks = 2;
  as_cfg.down_stable_checks = 4;
  as_cfg.cooldown = 120.0;
  as_cfg.min_on_lcs = 6;
  as_cfg.min_headroom_lcs = 2;
  as_cfg.max_step = 4;
  ops::Autoscaler autoscaler(system, as_cfg);
  autoscaler.start();

  // One full-fleet rolling upgrade, scheduled the way an operator would:
  // into the demand trough (the diurnal curve below peaks at horizon/8 and
  // bottoms at 3/8), where evacuation targets have slack.
  ops::UpgradeConfig up_cfg;
  // Waves of 2: evacuation is per-GM (a GM migrates only onto its own
  // powered-on, non-draining LCs), so a wide wave can drain most of one GM's
  // set at once and leave its VMs with nowhere local to go.
  up_cfg.wave_size = 2;  // 8 LC waves + 3 GM waves
  // Near the peak a first-fit target can fill between plan and adopt; each
  // failed attempt costs a full ~30 s pre-copy, so the drain budget allows
  // several re-plans before force-restarting.
  up_cfg.drain_timeout = 360.0;
  ops::RollingUpgrade upgrade(system, &monitor, up_cfg);
  system.engine().schedule(0.30 * horizon, [&upgrade] { upgrade.start(); });

  // Pet VMs: a small long-running fleet registered with the invariant
  // checker — exactly-once hosting must survive the entire day (modulo hosts
  // the chaos schedule deliberately crashes, which excuse their VMs).
  for (std::size_t i = 0; i < 8; ++i) {
    system.engine().schedule(1.0 + static_cast<double>(i), [&system, &checker] {
      const VmDescriptor vm = system.make_vm({0.1, 0.1, 0.1});
      const VmId id = vm.id;
      system.client().submit(vm, [&checker, id](bool ok, net::Address, sim::Time) {
        if (ok) checker.note_accepted(id);
      });
    });
  }

  // Cattle workload: non-homogeneous Poisson arrivals over a diurnal curve
  // (two full cycles regardless of --hours) with three flash crowds, each VM
  // living a finite 1200 s, so demand genuinely rises and recedes and the
  // autoscaler has something to chase.
  const double period = horizon / 2.0;
  const workload::RateFn rate = workload::with_flash_crowds(
      workload::diurnal_rate(0.02, 0.015, period),
      {{0.25 * horizon, 0.04, 600.0},
       {0.55 * horizon, 0.04, 600.0},
       {0.80 * horizon, 0.04, 600.0}});
  const std::vector<sim::Time> arrivals =
      workload::poisson_arrivals(rate, 0.08, horizon, seed);
  for (const sim::Time at : arrivals) {
    system.engine().schedule(at, [&system] {
      system.client().submit(system.make_vm({0.15, 0.15, 0.15}, 1200.0),
                             [](bool, net::Address, sim::Time) {});
    });
  }

  // Memory checkpoints every 10 virtual minutes.
  const double checkpoint_period = 600.0;
  const auto n_checkpoints = static_cast<std::size_t>(horizon / checkpoint_period);
  std::vector<Checkpoint> cps;
  cps.reserve(n_checkpoints);
  double energy_mid = -1.0;
  for (std::size_t k = 1; k <= n_checkpoints; ++k) {
    const double at = checkpoint_period * static_cast<double>(k);
    system.engine().schedule(at, [&system, &monitor, &cps, &energy_mid, t0, horizon] {
      Checkpoint cp;
      cp.t = system.engine().now() - t0;
      cp.trace_records = system.trace().records().size();
      cp.ts_rows = monitor.store().row_count();
      cp.spans = system.telemetry().spans().size();
      cp.book = fleet_book_size(system);
      cp.pending = system.engine().pending_events();
      cp.vms = running_vms(system);
      cp.hosts_on = hosts_on(system);
      cp.energy_per_vm_h = energy_per_vm_hour(system);
      cps.push_back(cp);
      if (energy_mid < 0.0 && cp.t >= horizon / 2.0) energy_mid = cp.energy_per_vm_h;
    });
  }

  std::printf("running %.1f virtual hours: %zu arrivals, %zu chaos actions, "
              "upgrade at t+%.0fs, seed %llu\n",
              hours, arrivals.size(), schedule.actions.size(), 0.30 * horizon,
              static_cast<unsigned long long>(seed));

  system.engine().run_until(t0 + horizon);
  injector.heal_all_remaining();
  autoscaler.stop();
  const bool converged = checker.final_check(300.0);
  monitor.sample_now();

  // --- results --------------------------------------------------------------
  std::uint64_t stale_accepts = 0;
  for (const auto& gm : system.group_managers()) stale_accepts += gm->stale_accepts();
  for (const auto& lc : system.local_controllers()) stale_accepts += lc->stale_accepts();

  const double energy_end = energy_per_vm_hour(system);
  const double energy_drift =
      (energy_mid > 0.0 && energy_end > 0.0)
          ? std::fabs(energy_end - energy_mid) / energy_mid
          : -1.0;
  const double flaps_per_hour =
      static_cast<double>(monitor.slo().total_transitions()) / hours;

  // Checkpoint table (every ~2 h so a 24 h run stays readable).
  util::Table table({"t h", "trace", "ts rows", "spans", "book", "pending",
                     "vms", "hosts on", "J/VM-h"});
  const std::size_t stride = std::max<std::size_t>(1, cps.size() / 12);
  for (std::size_t i = 0; i < cps.size(); i += stride) {
    const Checkpoint& cp = cps[i];
    table.add_row({util::Table::num(cp.t / 3600.0, 1), std::to_string(cp.trace_records),
                   std::to_string(cp.ts_rows), std::to_string(cp.spans),
                   std::to_string(cp.book), std::to_string(cp.pending),
                   std::to_string(cp.vms), std::to_string(cp.hosts_on),
                   util::Table::num(cp.energy_per_vm_h, 0)});
  }
  table.print();

  const std::size_t half = cps.size() / 2;
  const auto first_max = [&](auto field) { return peak(cps, 0, half, field); };
  const auto second_max = [&](auto field) { return peak(cps, half, cps.size(), field); };

  std::printf("\nworkload: %llu accepted, %llu refused, %zu running at end\n",
              static_cast<unsigned long long>(system.client().succeeded()),
              static_cast<unsigned long long>(system.client().failed()),
              running_vms(system));
  std::printf("chaos: %zu faults injected, %llu stale accepts, trace ring dropped %llu\n",
              injector.faults_injected(),
              static_cast<unsigned long long>(stale_accepts),
              static_cast<unsigned long long>(system.trace().dropped()));
  for (const std::string& v : checker.violations()) {
    std::printf("violation: %s\n", v.c_str());
  }
  std::printf("ops: upgrade %s (%llu/%zu waves, %llu nodes, %llu pauses, "
              "%llu forced drains), autoscaler %llu up / %llu down\n",
              upgrade.state() == ops::UpgradeState::kDone         ? "done"
              : upgrade.state() == ops::UpgradeState::kRolledBack ? "rolled back"
                                                                  : "HUNG",
              static_cast<unsigned long long>(upgrade.waves_completed()),
              upgrade.wave_count(),
              static_cast<unsigned long long>(upgrade.nodes_upgraded()),
              static_cast<unsigned long long>(upgrade.pauses()),
              static_cast<unsigned long long>(upgrade.forced_drains()),
              static_cast<unsigned long long>(autoscaler.scale_ups()),
              static_cast<unsigned long long>(autoscaler.scale_downs()));
  std::printf("slo: %llu fired / %llu cleared, %llu transitions (%.2f/h), "
              "%llu failover episodes, %llu scan gaps\n",
              static_cast<unsigned long long>(monitor.alerts_fired()),
              static_cast<unsigned long long>(monitor.alerts_cleared()),
              static_cast<unsigned long long>(monitor.slo().total_transitions()),
              flaps_per_hour,
              static_cast<unsigned long long>(monitor.failover_episodes()),
              static_cast<unsigned long long>(monitor.scan_gaps()));
  std::printf("energy: %.0f J/VM-h mid-run, %.0f at end (drift %.1f%%)\n\n",
              energy_mid, energy_end, 100.0 * energy_drift);

  // --- incident digest -------------------------------------------------------
  // Offline pass over the retained trace tail: every episode the day produced,
  // and — the gate — every invariant breach must sit in an episode with at
  // least one root-cause hypothesis. A breach nobody can attribute means the
  // evidence chain has a hole.
  obs::AddressNames names;
  for (const auto& gm : system.group_managers()) names[gm->address()] = gm->name();
  for (const auto& lc : system.local_controllers()) names[lc->address()] = lc->name();
  const obs::IncidentReport incidents = obs::analyze_incidents(
      system.trace().records(), &system.telemetry().spans(),
      system.engine().now(), names);
  std::size_t incident_hypotheses = 0;
  std::size_t unattributed_breaches = 0;
  for (const auto& ep : incidents.episodes) {
    incident_hypotheses += ep.hypotheses.size();
    for (const auto& e : ep.evidence) {
      if (e.kind == "invariant.violation" && ep.hypotheses.empty()) {
        ++unattributed_breaches;
      }
    }
  }
  std::printf("incidents: %zu episodes, %zu hypotheses, %zu unattributed "
              "invariant breaches\n",
              incidents.episodes.size(), incident_hypotheses,
              unattributed_breaches);
  if (!incidents.episodes.empty()) {
    std::printf("%s\n", incidents.table().c_str());
  }

  bool ok = true;
  auto gate = [&ok](bool pass, const char* what, double value, double limit) {
    std::printf("gate %-26s %12.2f vs %10.2f : %s\n", what, value, limit,
                pass ? "ok" : "FAIL");
    ok = ok && pass;
  };
  gate(checker.ok(), "invariant_violations==0",
       static_cast<double>(checker.violations().size()), 0.0);
  gate(converged, "converged", converged ? 1.0 : 0.0, 1.0);
  gate(stale_accepts == 0, "stale_accepts==0", static_cast<double>(stale_accepts), 0.0);
  gate(upgrade.finished(), "upgrade_terminated",
       upgrade.finished() ? 1.0 : 0.0, 1.0);
  gate(autoscaler.scale_ups() >= 1 && autoscaler.scale_downs() >= 1,
       "autoscale_cycle",
       static_cast<double>(std::min(autoscaler.scale_ups(), autoscaler.scale_downs())),
       1.0);
  gate(flaps_per_hour <= max_flaps_per_hour, "flaps_per_hour<=", flaps_per_hour,
       max_flaps_per_hour);
  gate(energy_drift >= 0.0 && energy_drift <= max_energy_drift, "energy_drift<=",
       energy_drift, max_energy_drift);
  // Ring-bounded proxies stay under their structural caps for the whole run;
  // the unbounded ones (submission books, event queue) must not creep — the
  // second-half peak is allowed a small factor over the first half.
  const auto trace_peak = second_max([](const Checkpoint& c) { return c.trace_records; });
  const auto rows_peak = second_max([](const Checkpoint& c) { return c.ts_rows; });
  const auto spans_peak = second_max([](const Checkpoint& c) { return c.spans; });
  const auto book_1 = first_max([](const Checkpoint& c) { return c.book; });
  const auto book_2 = second_max([](const Checkpoint& c) { return c.book; });
  const auto pend_1 = first_max([](const Checkpoint& c) { return c.pending; });
  const auto pend_2 = second_max([](const Checkpoint& c) { return c.pending; });
  gate(trace_peak <= 2 * 65536, "rss_trace<=2*cap", static_cast<double>(trace_peak),
       2.0 * 65536);
  gate(rows_peak <= monitor.store().max_rows(), "rss_ts_rows<=cap",
       static_cast<double>(rows_peak),
       static_cast<double>(monitor.store().max_rows()));
  gate(spans_peak <= 2 * 8192, "rss_spans<=2*cap", static_cast<double>(spans_peak),
       2.0 * 8192);
  gate(book_2 <= book_1 + book_1 / 2 + 64, "rss_book_flat",
       static_cast<double>(book_2), static_cast<double>(book_1 + book_1 / 2 + 64));
  gate(pend_2 <= pend_1 + pend_1 / 2 + 64, "rss_pending_flat",
       static_cast<double>(pend_2), static_cast<double>(pend_1 + pend_1 / 2 + 64));
  gate(unattributed_breaches == 0, "incident_unattributed==0",
       static_cast<double>(unattributed_breaches), 0.0);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    out << "{\n  \"benchmark\": \"soak\",\n  \"seed\": " << seed
        << ",\n  \"virtual_hours\": " << hours << ",\n";
    out << "  \"workload\": {\"arrivals\": " << arrivals.size()
        << ", \"accepted\": " << system.client().succeeded()
        << ", \"refused\": " << system.client().failed() << "},\n";
    out << "  \"chaos\": {\"faults\": " << injector.faults_injected()
        << ", \"violations\": " << checker.violations().size()
        << ", \"stale_accepts\": " << stale_accepts
        << ", \"converged\": " << (converged ? "true" : "false") << "},\n";
    out << "  \"ops\": {\"upgrade\": \""
        << (upgrade.state() == ops::UpgradeState::kDone         ? "done"
            : upgrade.state() == ops::UpgradeState::kRolledBack ? "rolled_back"
                                                                : "hung")
        << "\", \"waves\": " << upgrade.waves_completed()
        << ", \"nodes\": " << upgrade.nodes_upgraded()
        << ", \"pauses\": " << upgrade.pauses()
        << ", \"forced_drains\": " << upgrade.forced_drains()
        << ", \"scale_ups\": " << autoscaler.scale_ups()
        << ", \"scale_downs\": " << autoscaler.scale_downs() << "},\n";
    out << "  \"slo\": {\"alerts_fired\": " << monitor.alerts_fired()
        << ", \"alerts_cleared\": " << monitor.alerts_cleared()
        << ", \"transitions\": " << monitor.slo().total_transitions()
        << ", \"flaps_per_hour\": " << flaps_per_hour
        << ", \"failover_episodes\": " << monitor.failover_episodes() << "},\n";
    out << "  \"energy\": {\"j_per_vm_hour_mid\": " << energy_mid
        << ", \"j_per_vm_hour_end\": " << energy_end
        << ", \"drift\": " << energy_drift << "},\n";
    out << "  \"memory\": {\"trace_peak\": " << trace_peak
        << ", \"ts_rows_peak\": " << rows_peak << ", \"spans_peak\": " << spans_peak
        << ", \"book_peak_h1\": " << book_1 << ", \"book_peak_h2\": " << book_2
        << ", \"pending_peak_h1\": " << pend_1
        << ", \"pending_peak_h2\": " << pend_2 << "},\n";
    out << "  \"incidents\": {\"episodes\": " << incidents.episodes.size()
        << ", \"hypotheses\": " << incident_hypotheses
        << ", \"unattributed_breaches\": " << unattributed_breaches << "},\n";
    out << "  \"gates\": {\"max_flaps_per_hour\": " << max_flaps_per_hour
        << ", \"max_energy_drift\": " << max_energy_drift << "},\n";
    out << "  \"ok\": " << (ok ? "true" : "false") << "\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  return ok ? 0 : 1;
}
