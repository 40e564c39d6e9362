// Consolidation invariant property tests.
//
// Every packing algorithm in the repository — the greedy family, the
// centralized ACO and the distributed (sharded) ACO — must produce a
// placement that assigns every VM exactly once without exceeding any host
// capacity, on any instance that is packable at all (one host per VM makes
// that trivially true here). The migration plans derived from any pair of
// such placements must apply cleanly: each move's source matches the current
// placement, and the applied result is exactly the target.
//
// 50 seeded random instances of varying size and demand skew; failures
// report the seed, so any regression reproduces with a one-line repro.
//
// AcoConsolidation::solve is also checked differentially against a reference
// copy of the straightforward ant walk (per-VM pheromone rows, tau^alpha at
// every step, a scan over all VMs at every step): the two must agree bit for
// bit on every placement, host count and per-cycle best.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "consolidation/aco.hpp"
#include "consolidation/distributed_aco.hpp"
#include "consolidation/greedy.hpp"
#include "consolidation/instance.hpp"
#include "consolidation/migration_plan.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace snooze;
using consolidation::Instance;
using consolidation::kUnassigned;
using consolidation::Placement;

/// Random homogeneous instance; skews the demand band by seed so the suite
/// covers loose (many tiny VMs per host) and tight (near-half-host VMs,
/// two-per-host at best) packings.
Instance make_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t n_vms = rng.uniform_int<std::size_t>(10, 60);
  const double lo = rng.uniform(0.02, 0.15);
  const double hi = rng.uniform(lo + 0.05, 0.48);
  std::vector<consolidation::ResourceVector> demands;
  demands.reserve(n_vms);
  for (std::size_t i = 0; i < n_vms; ++i) {
    demands.emplace_back(rng.uniform(lo, hi), rng.uniform(lo, hi),
                         rng.uniform(lo, hi));
  }
  return Instance::homogeneous(std::move(demands), n_vms);
}

/// Full structural check: complete, every assignment in range, feasible.
void expect_valid(const Placement& placement, const Instance& instance,
                  const char* solver) {
  ASSERT_EQ(placement.vm_count(), instance.vm_count()) << solver;
  for (std::size_t vm = 0; vm < placement.vm_count(); ++vm) {
    const auto host = placement.host_of(vm);
    ASSERT_NE(host, kUnassigned) << solver << ": vm " << vm << " unplaced";
    ASSERT_LT(static_cast<std::size_t>(host), instance.host_count())
        << solver << ": vm " << vm << " on out-of-range host " << host;
  }
  EXPECT_TRUE(placement.complete()) << solver;
  EXPECT_TRUE(placement.feasible(instance)) << solver << ": capacity exceeded";
  EXPECT_GE(placement.hosts_used(), instance.lower_bound_hosts()) << solver;
}

/// Apply `plan` to a copy of `current`, checking each move's precondition.
Placement apply_plan(const consolidation::MigrationPlan& plan,
                     const Placement& current) {
  Placement applied = current;
  for (const auto& m : plan.migrations) {
    EXPECT_EQ(applied.host_of(m.vm), m.from)
        << "migration source does not match the current placement for vm "
        << m.vm;
    EXPECT_NE(m.from, m.to) << "no-op migration for vm " << m.vm;
    applied.assign(m.vm, m.to);
  }
  return applied;
}

TEST(ConsolidationProperty, AllSolversProduceFeasiblePlacements) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Instance instance = make_instance(seed);

    const Placement ff = consolidation::first_fit(instance);
    const Placement ffd = consolidation::first_fit_decreasing(instance);
    const Placement bfd = consolidation::best_fit_decreasing(instance);
    const Placement dot = consolidation::dot_product_fit(instance);
    expect_valid(ff, instance, "first_fit");
    expect_valid(ffd, instance, "first_fit_decreasing");
    expect_valid(bfd, instance, "best_fit_decreasing");
    expect_valid(dot, instance, "dot_product_fit");

    consolidation::AcoParams aco_params;
    aco_params.ants = 4;
    aco_params.cycles = 3;
    aco_params.seed = seed;
    const auto aco = consolidation::AcoConsolidation(aco_params).solve(instance);
    EXPECT_TRUE(aco.feasible) << "aco declared its own result infeasible";
    expect_valid(aco.placement, instance, "aco");
    EXPECT_EQ(aco.hosts_used, aco.placement.hosts_used()) << "aco";

    consolidation::DistributedAcoParams daco_params;
    daco_params.shards = 2;
    daco_params.colony = aco_params;
    const auto daco =
        consolidation::DistributedAcoConsolidation(daco_params).solve(instance);
    EXPECT_TRUE(daco.feasible) << "distributed aco declared itself infeasible";
    expect_valid(daco.placement, instance, "distributed_aco");

    // ACO never uses more hosts than the instance has.
    EXPECT_LE(aco.hosts_used, instance.host_count());
  }
}

TEST(ConsolidationProperty, MigrationPlansApplyCleanly) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Instance instance = make_instance(seed);

    // A typical reconfiguration: the system is running the quick greedy
    // placement and the optimizer proposes a tighter one.
    const Placement current = consolidation::first_fit(instance);
    consolidation::AcoParams params;
    params.ants = 4;
    params.cycles = 3;
    params.seed = seed;
    const Placement target =
        consolidation::AcoConsolidation(params).solve(instance).placement;

    const auto plan = consolidation::diff_placements(current, target);
    const Placement applied = apply_plan(plan, current);
    EXPECT_EQ(applied, target) << "applying the plan must yield the target";
    EXPECT_TRUE(applied.feasible(instance));

    // A placement diffed against itself must be a no-op plan.
    EXPECT_TRUE(consolidation::diff_placements(current, current).empty());
  }
}

// --- Reference ACO: the straightforward walk the optimized solver must match --

namespace reference {

using consolidation::AcoParams;
using consolidation::AcoResult;
using consolidation::HostIndex;
using consolidation::ResourceVector;

/// One ant's walk: fill hosts in index order, choosing the next VM among the
/// feasible ones by the probabilistic decision rule.
Placement construct_solution(const Instance& instance,
                             const std::vector<std::vector<double>>& tau,
                             const AcoParams& params, util::Rng& rng) {
  const std::size_t n = instance.vm_count();
  Placement placement(n);
  std::vector<bool> assigned(n, false);
  std::size_t remaining = n;

  std::vector<double> weights;
  std::vector<std::size_t> feasible;

  for (std::size_t host = 0; host < instance.host_count() && remaining > 0; ++host) {
    ResourceVector residual = instance.host_capacities[host];
    for (;;) {
      feasible.clear();
      weights.clear();
      for (std::size_t vm = 0; vm < n; ++vm) {
        if (assigned[vm]) continue;
        if (!instance.vm_demands[vm].fits_within(residual)) continue;
        feasible.push_back(vm);
        const double eta = consolidation::aco_heuristic(residual, instance.vm_demands[vm]);
        const double t = tau[vm][host];
        double w = std::pow(t, params.alpha) * std::pow(eta, params.beta);
        if (!std::isfinite(w) || w <= 0.0) w = 1e-12;
        weights.push_back(w);
      }
      if (feasible.empty()) break;
      const std::size_t pick = rng.weighted_index(weights);
      const std::size_t vm = feasible[pick < feasible.size() ? pick : 0];
      placement.assign(vm, static_cast<HostIndex>(host));
      residual -= instance.vm_demands[vm];
      assigned[vm] = true;
      --remaining;
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

AcoResult solve(const AcoParams& params_, const Instance& instance) {
  const auto wall_start = std::chrono::steady_clock::now();

  AcoResult result;
  const std::size_t n = instance.vm_count();
  result.placement = Placement(n);
  if (n == 0) {
    result.feasible = true;
    return result;
  }

  // Pheromone matrix over (VM, host) pairs.
  std::vector<std::vector<double>> tau(
      n, std::vector<double>(instance.host_count(), params_.tau0));

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

    std::vector<Placement> solutions(params_.ants);
    auto run_ant = [&](std::size_t a) {
      solutions[a] = construct_solution(instance, tau, params_, rngs[a]);
    };
    if (pool) {
      pool->parallel_for(params_.ants, run_ant);
    } else {
      for (std::size_t a = 0; a < params_.ants; ++a) run_ant(a);
    }

    // Compare local solutions; keep the lowest score (hosts used, plus the
    // weighted interference penalty when the instance carries profiles).
    for (auto& solution : solutions) {
      if (!solution.complete()) continue;  // instance not packable by this walk
      const std::size_t hosts = solution.hosts_used();
      const double solution_score = consolidation::score(instance, solution);
      const double slack = packing_slack(instance, solution);
      if (!have_best || solution_score < best_score ||
          (solution_score == best_score && slack < best_slack)) {
        best_hosts = hosts;
        best_score = solution_score;
        best_slack = slack;
        result.placement = std::move(solution);
        have_best = true;
      }
    }

    // Pheromone update: evaporation everywhere, reinforcement on the pairs
    // of the best-so-far solution (elitist global update).
    const double keep = 1.0 - params_.rho;
    for (auto& row : tau) {
      for (double& t : row) t *= keep;
    }
    if (have_best) {
      const double deposit =
          params_.rho * params_.q / static_cast<double>(std::max<std::size_t>(1, best_hosts));
      for (std::size_t vm = 0; vm < n; ++vm) {
        const HostIndex h = result.placement.host_of(vm);
        if (h != kUnassigned) tau[vm][static_cast<std::size_t>(h)] += deposit;
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

}  // namespace reference

/// Instance shapes of the differential grid.
enum class Shape { kHomogeneous, kHeterogeneous, kUndersized, kInterference };

constexpr Shape kShapes[] = {Shape::kHomogeneous, Shape::kHeterogeneous,
                             Shape::kUndersized, Shape::kInterference};

const char* shape_name(Shape shape) {
  switch (shape) {
    case Shape::kHomogeneous: return "homogeneous";
    case Shape::kHeterogeneous: return "heterogeneous";
    case Shape::kUndersized: return "undersized";
    case Shape::kInterference: return "interference";
  }
  return "?";
}

/// n VMs of `shape`. About one VM in eight is all-zero, one in eight is zero
/// in one dimension and one in eight asks for k/10 of every dimension. Homogeneous and interference instances get
/// n unit hosts (always packable); heterogeneous ones get 2n/3 + 1 hosts of
/// mixed sizes; undersized ones get n/3 + 1 hosts of capacity 0.6, below some
/// demands, so some VMs fit nowhere.
Instance make_grid_instance(Shape shape, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const double hi = shape == Shape::kUndersized ? 0.9 : 0.5;
  std::vector<consolidation::ResourceVector> demands;
  demands.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    consolidation::ResourceVector d{rng.uniform(0.01, hi), rng.uniform(0.01, hi),
                                    rng.uniform(0.01, hi)};
    const std::size_t kind = rng.uniform_int<std::size_t>(0, 7);
    if (kind == 0) d = {};
    if (kind == 1) d[rng.uniform_int<std::size_t>(0, 2)] = 0.0;
    if (kind == 2) {  // tenths: exact fits that hinge on the 1e-9 slack
      const double tenths = 0.1 * static_cast<double>(rng.uniform_int<int>(1, 5));
      d = {tenths, tenths, tenths};
    }
    demands.push_back(d);
  }
  Instance inst;
  switch (shape) {
    case Shape::kHomogeneous:
    case Shape::kInterference:
      inst = Instance::homogeneous(std::move(demands), n);
      break;
    case Shape::kHeterogeneous:
      inst.vm_demands = std::move(demands);
      for (std::size_t h = 0; h < 2 * n / 3 + 1; ++h) {
        inst.host_capacities.emplace_back(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                                          rng.uniform(0.5, 2.0));
      }
      break;
    case Shape::kUndersized:
      inst = Instance::homogeneous(std::move(demands), n / 3 + 1, {0.6, 0.6, 0.6});
      break;
  }
  if (shape == Shape::kInterference) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto intensity =
          static_cast<interference::CacheIntensity>(rng.uniform_int<int>(0, 3));
      inst.vm_profiles.push_back(
          {intensity, rng.uniform(0.0, 12.0), rng.uniform(0.0, 12.0)});
    }
    inst.host_topologies.assign(n, interference::TopologySpec::uniform(2));
    inst.interference_weight = 0.5;
  }
  return inst;
}

TEST(AcoDifferential, MatchesReferenceWalkBitForBit) {
  constexpr double kAlphas[] = {0.0, 0.5, 1.0, 2.0};
  constexpr double kBetas[] = {0.0, 1.0, 2.0, 3.5};
  constexpr double kRhos[] = {0.1, 1.0};
  // Small enough that tau^2 underflows to 0 and every weight of the first
  // cycle at alpha = 2 falls back to the 1e-12 guard.
  constexpr double kTinyTau0 = 1e-200;
  ASSERT_EQ(std::pow(kTinyTau0, 2.0), 0.0);

  std::size_t guarded = 0;
  std::size_t parallel = 0;
  std::size_t infeasible = 0;
  for (std::size_t n = 0; n <= 150; ++n) {
    for (std::size_t s = 0; s < std::size(kShapes); ++s) {
      const Shape shape = kShapes[s];
      const std::uint64_t seed = 1000 * (s + 1) + n;
      const Instance instance = make_grid_instance(shape, n, seed);

      consolidation::AcoParams params;
      params.alpha = kAlphas[n % 4];
      params.beta = kBetas[(n / 4) % 4];
      params.rho = kRhos[(n / 16 + s) % 2];
      params.tau0 = (n + s) % 3 == 0 ? kTinyTau0 : 1.0;
      params.ants = 1 + (n + s) % 3;
      params.cycles = 1 + (n / 3 + s) % 3;
      params.threads = (n / 2 + s) % 2 == 0 ? 1 : 4;
      params.seed = seed;
      SCOPED_TRACE("n=" + std::to_string(n) + " shape=" + shape_name(shape) +
                   " alpha=" + std::to_string(params.alpha) +
                   " beta=" + std::to_string(params.beta) +
                   " rho=" + std::to_string(params.rho) +
                   " tau0=" + std::to_string(params.tau0) +
                   " ants=" + std::to_string(params.ants) +
                   " cycles=" + std::to_string(params.cycles) +
                   " threads=" + std::to_string(params.threads));

      const auto want = reference::solve(params, instance);
      const auto got = consolidation::AcoConsolidation(params).solve(instance);
      EXPECT_EQ(got.placement, want.placement);
      EXPECT_EQ(got.hosts_used, want.hosts_used);
      EXPECT_EQ(got.feasible, want.feasible);
      EXPECT_EQ(got.best_per_cycle, want.best_per_cycle);

      if (params.tau0 == kTinyTau0 && params.alpha == 2.0 && n > 0) ++guarded;
      if (params.threads > 1) ++parallel;
      if (!want.feasible) ++infeasible;
    }
  }
  // The grid really reaches the corners it is meant to cover.
  EXPECT_GT(guarded, 0u);
  EXPECT_GT(parallel, 0u);
  EXPECT_GT(infeasible, 0u);
}

}  // namespace
