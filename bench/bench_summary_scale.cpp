// Summary-protocol scaling benchmark: the batched delta stream against what
// a full per-period summary would cost on the same 3 GM / 200 LC deployment.
//
// A full summary re-lists every VM location each gm_summary_period, so the
// GM -> GL byte rate grows with the VM population even when nothing changes.
// The delta stream's steady state is a near-empty acknowledged header per GM
// per period — O(churn), not O(VMs). The acceptance bar for the protocol:
// steady-state summary bytes per LC-period at least 5x below the full
// baseline. The full protocol is no longer implemented; its baseline is
// computed from the same run (full_summary_bytes below), so both figures
// describe the identical fleet state.
//
//   bench_summary_scale [--quick] [--json=BENCH_scale.json] [--min-ratio=R]
//                       [--max-delta-bytes=B]
//
// --quick            shorter measurement window for CI smoke
// --json             write machine-readable results to this path
// --min-ratio        exit non-zero if full/delta bytes-per-LC-period < R
//                    (CI regression gate for the 5x acceptance bar)
// --max-delta-bytes  exit non-zero if the delta stream's steady-state bytes
//                    per LC-period exceed this ceiling (catches a stream
//                    stuck re-snapshotting instead of converging to deltas)
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/snooze.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace snooze;
using namespace snooze::core;

namespace {

struct Measurement {
  double full_bytes_per_lc_period = 0.0;
  double bytes_per_lc_period = 0.0;
  std::uint64_t snapshots = 0;
  std::uint64_t deltas = 0;
  std::uint64_t nacks = 0;
  std::size_t vms_running = 0;
  bool ok = false;
};

/// Bytes one summary period of the full-summary protocol would put on the
/// wire right now: every alive, non-draining, non-leader GM sends a 72-byte
/// header plus 16 bytes per VM on its powered-on LCs.
std::size_t full_summary_bytes(SnoozeSystem& system) {
  std::size_t bytes = 0;
  for (const auto& gm : system.group_managers()) {
    if (!gm->alive() || gm->draining() || gm->is_leader()) continue;
    std::size_t vms = 0;
    for (const LcInfo& lc : gm->lc_infos()) {
      if (lc.powered_on) vms += lc.vm_count;
    }
    bytes += 72 + 16 * vms;
  }
  return bytes;
}

Measurement measure(std::uint64_t seed, double window) {
  SystemSpec spec;
  spec.entry_points = 1;
  spec.group_managers = 3;
  spec.local_controllers = 200;
  spec.seed = seed;
  SnoozeSystem system(spec);
  system.start();
  Measurement m;
  if (!system.run_until_stable(300.0)) {
    std::fprintf(stderr, "FATAL: deployment failed to stabilize\n");
    return m;
  }

  // Populate half the fleet with long-lived VMs so a full summary would
  // carry a realistic location list, then let placements settle: the
  // measurement window is churn-free steady state — the delta stream's best
  // case and the full stream's unchanged cost.
  std::vector<VmDescriptor> vms;
  for (std::size_t i = 0; i < 100; ++i) {
    TraceSpec trace;
    trace.kind = TraceSpec::Kind::kConstant;
    trace.a = 0.5;
    vms.push_back(system.make_vm({0.2, 0.2, 0.2}, 0.0, trace));
  }
  system.client().submit_all(vms, 0.1);
  system.engine().run_until(system.engine().now() + 60.0);

  std::uint64_t bytes0 = 0;
  for (const auto& gm : system.group_managers()) {
    bytes0 += gm->counters().summary_bytes_sent;
  }
  const double t0 = system.engine().now();
  const double period = spec.config.gm_summary_period;
  const auto periods = static_cast<std::size_t>(window / period);
  std::size_t full_bytes = 0;
  for (std::size_t k = 1; k <= periods; ++k) {
    system.engine().run_until(t0 + static_cast<double>(k) * period);
    full_bytes += full_summary_bytes(system);
  }

  std::uint64_t bytes = 0;
  for (const auto& gm : system.group_managers()) {
    bytes += gm->counters().summary_bytes_sent;
    m.snapshots += gm->counters().summary_snapshots_sent;
    m.deltas += gm->counters().summary_deltas_sent;
    m.nacks += gm->counters().summary_nacks;
  }
  bytes -= bytes0;
  const double lc_periods =
      static_cast<double>(periods) * static_cast<double>(spec.local_controllers);
  m.bytes_per_lc_period = static_cast<double>(bytes) / lc_periods;
  m.full_bytes_per_lc_period = static_cast<double>(full_bytes) / lc_periods;
  m.vms_running = system.running_vm_count();
  m.ok = true;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const double min_ratio = args.get_double("min-ratio", 0.0);
  const double max_delta_bytes = args.get_double("max-delta-bytes", 0.0);
  const std::string json_path = args.get("json", "");
  const double window = quick ? 120.0 : 600.0;

  bench::print_header(
      "summary-protocol scaling: batched deltas vs a full-summary baseline",
      "GL ingest must be O(GMs + churn), not O(total VMs), on the way to "
      "100k LCs");
  std::printf("3 GMs / 200 LCs / 100 VMs, %.0f virtual seconds steady state\n\n",
              window);

  const Measurement m = measure(seed, window);
  if (!m.ok) return 2;

  util::Table table({"protocol", "B per LC-period", "snapshots", "deltas", "nacks"});
  table.add_row({"full (computed)", util::Table::num(m.full_bytes_per_lc_period, 2), "-",
                 "-", "-"});
  table.add_row({"delta", util::Table::num(m.bytes_per_lc_period, 2),
                 std::to_string(m.snapshots), std::to_string(m.deltas),
                 std::to_string(m.nacks)});
  table.print();

  const double ratio = m.bytes_per_lc_period > 0.0
                           ? m.full_bytes_per_lc_period / m.bytes_per_lc_period
                           : 0.0;
  std::printf("\nsteady-state bytes per LC-period: %.2f -> %.2f (%.1fx reduction)\n",
              m.full_bytes_per_lc_period, m.bytes_per_lc_period, ratio);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"benchmark\": \"summary_scale\",\n"
        << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"window_virtual_s\": " << window << ",\n"
        << "  \"gms\": 3,\n  \"lcs\": 200,\n"
        << "  \"vms_running\": " << m.vms_running << ",\n"
        << "  \"full_bytes_per_lc_period\": " << m.full_bytes_per_lc_period << ",\n"
        << "  \"delta_bytes_per_lc_period\": " << m.bytes_per_lc_period << ",\n"
        << "  \"delta_snapshots\": " << m.snapshots << ",\n"
        << "  \"delta_deltas\": " << m.deltas << ",\n"
        << "  \"delta_nacks\": " << m.nacks << ",\n"
        << "  \"reduction_ratio\": " << ratio << "\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (min_ratio > 0.0 && ratio < min_ratio) {
    std::fprintf(stderr,
                 "FAIL: %.1fx bytes-per-LC-period reduction is below the %.1fx "
                 "floor\n",
                 ratio, min_ratio);
    return 1;
  }
  if (max_delta_bytes > 0.0 && m.bytes_per_lc_period > max_delta_bytes) {
    std::fprintf(stderr,
                 "FAIL: delta stream spends %.2f bytes per LC-period, above the "
                 "%.2f ceiling — the stream is not converging to empty deltas\n",
                 m.bytes_per_lc_period, max_delta_bytes);
    return 1;
  }
  return 0;
}
