#include "consolidation/aco.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace snooze::consolidation {

namespace {

/// One ant's walk: fill hosts in index order, choosing the next VM among the
/// feasible ones by the probabilistic decision rule. `tau_alpha` is the
/// host-major tau^alpha of this cycle (`tau_alpha[host * n + vm]`).
///
/// Candidates come from the ascending list of still-unassigned VMs, so the
/// feasible list and its weights are in VM index order and weighted_index
/// sums them in that order. The fit test, residual and L1 arithmetic are
/// those of ResourceVector::fits_within, operator- and l1_norm, written out
/// with the same operations in the same order.
Placement construct_solution(const Instance& instance,
                             const std::vector<double>& tau_alpha,
                             const AcoParams& params, util::Rng& rng) {
  const std::size_t n = instance.vm_count();
  Placement placement(n);
  std::vector<std::size_t> unassigned(n);
  std::iota(unassigned.begin(), unassigned.end(), std::size_t{0});

  std::vector<double> weights;
  std::vector<std::size_t> feasible;  // positions in `unassigned`

  for (std::size_t host = 0; host < instance.host_count() && !unassigned.empty();
       ++host) {
    const ResourceVector& capacity = instance.host_capacities[host];
    double r0 = capacity[0];
    double r1 = capacity[1];
    double r2 = capacity[2];
    const double* host_tau = tau_alpha.data() + host * n;
    for (;;) {
      feasible.clear();
      weights.clear();
      for (std::size_t i = 0; i < unassigned.size(); ++i) {
        const std::size_t vm = unassigned[i];
        const ResourceVector& d = instance.vm_demands[vm];
        if (d[0] > r0 + 1e-9 || d[1] > r1 + 1e-9 || d[2] > r2 + 1e-9) continue;
        feasible.push_back(i);
        const double l1 =
            0.0 + std::abs(r0 - d[0]) + std::abs(r1 - d[1]) + std::abs(r2 - d[2]);
        const double eta = 1.0 / (1.0 + l1);
        double w = host_tau[vm] * std::pow(eta, params.beta);
        if (!std::isfinite(w) || w <= 0.0) w = 1e-12;
        weights.push_back(w);
      }
      if (feasible.empty()) break;
      const std::size_t pick = rng.weighted_index(weights);
      const std::size_t at = feasible[pick < feasible.size() ? pick : 0];
      const std::size_t vm = unassigned[at];
      unassigned.erase(unassigned.begin() + static_cast<std::ptrdiff_t>(at));
      placement.assign(vm, static_cast<HostIndex>(host));
      const ResourceVector& d = instance.vm_demands[vm];
      r0 -= d[0];
      r1 -= d[1];
      r2 -= d[2];
    }
  }
  return placement;
}

/// Secondary quality used to break host-count ties: total squared residual
/// of used hosts (lower = tighter packing).
double packing_slack(const Instance& instance, const Placement& placement) {
  const auto loads = placement.loads(instance);
  double slack = 0.0;
  for (std::size_t h = 0; h < loads.size(); ++h) {
    if (loads[h] == ResourceVector{}) continue;
    const ResourceVector residual = instance.host_capacities[h] - loads[h];
    slack += residual.dot(residual);
  }
  return slack;
}

}  // namespace

double aco_heuristic(const ResourceVector& residual, const ResourceVector& d) {
  // Residual after hypothetically placing d; smaller leftover = better fit.
  const ResourceVector after = residual - d;
  return 1.0 / (1.0 + after.l1_norm());
}

AcoConsolidation::AcoConsolidation(AcoParams params) : params_(params) {}

AcoResult AcoConsolidation::solve(const Instance& instance) const {
  const auto wall_start = std::chrono::steady_clock::now();

  AcoResult result;
  const std::size_t n = instance.vm_count();
  result.placement = Placement(n);
  if (n == 0) {
    result.feasible = true;
    return result;
  }

  // Pheromone matrix over (VM, host) pairs, host-major: tau[host * n + vm].
  // tau^alpha only changes when tau does, so it is taken once per cycle and
  // the ants (possibly on several threads) only read it.
  std::vector<double> tau(instance.host_count() * n, params_.tau0);
  std::vector<double> tau_alpha(tau.size());

  util::Rng master(params_.seed);
  std::size_t best_hosts = instance.host_count() + 1;
  double best_score = std::numeric_limits<double>::infinity();
  double best_slack = std::numeric_limits<double>::infinity();
  bool have_best = false;

  std::unique_ptr<util::ThreadPool> pool;
  if (params_.threads > 1) pool = std::make_unique<util::ThreadPool>(params_.threads);

  for (std::size_t cycle = 0; cycle < params_.cycles; ++cycle) {
    // Pre-fork one RNG per ant so results do not depend on thread count.
    std::vector<util::Rng> rngs;
    rngs.reserve(params_.ants);
    for (std::size_t a = 0; a < params_.ants; ++a) rngs.push_back(master.fork());

    for (std::size_t i = 0; i < tau.size(); ++i) {
      tau_alpha[i] = std::pow(tau[i], params_.alpha);
    }
    std::vector<Placement> solutions(params_.ants);
    auto run_ant = [&](std::size_t a) {
      solutions[a] = construct_solution(instance, tau_alpha, params_, rngs[a]);
    };
    if (pool) {
      pool->parallel_for(params_.ants, run_ant);
    } else {
      for (std::size_t a = 0; a < params_.ants; ++a) run_ant(a);
    }

    // Compare local solutions; keep the lowest score (hosts used, plus the
    // weighted interference penalty when the instance carries profiles).
    // Only an ant that can win pays for the slack tie-break and host count.
    for (auto& solution : solutions) {
      if (!solution.complete()) continue;  // instance not packable by this walk
      const double solution_score = score(instance, solution);
      if (have_best && !(solution_score <= best_score)) continue;
      const double slack = packing_slack(instance, solution);
      if (!have_best || solution_score < best_score || slack < best_slack) {
        best_hosts = solution.hosts_used();
        best_score = solution_score;
        best_slack = slack;
        result.placement = std::move(solution);
        have_best = true;
      }
    }

    // Pheromone update: evaporation everywhere, reinforcement on the pairs
    // of the best-so-far solution (elitist global update).
    const double keep = 1.0 - params_.rho;
    for (double& t : tau) t *= keep;
    if (have_best) {
      const double deposit =
          params_.rho * params_.q / static_cast<double>(std::max<std::size_t>(1, best_hosts));
      for (std::size_t vm = 0; vm < n; ++vm) {
        const HostIndex h = result.placement.host_of(vm);
        if (h != kUnassigned) tau[static_cast<std::size_t>(h) * n + vm] += deposit;
      }
    }
    result.best_per_cycle.push_back(have_best ? best_hosts : 0);
  }

  result.hosts_used = have_best ? best_hosts : 0;
  result.feasible = have_best && result.placement.feasible(instance);
  result.runtime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return result;
}

}  // namespace snooze::consolidation
