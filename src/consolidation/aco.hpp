// Ant Colony Optimization for VM consolidation (paper §III.A).
//
// Multiple artificial ants construct VM→host assignments probabilistically
// and simultaneously within multiple cycles. Ants communicate indirectly by
// depositing pheromone on (VM, host) pairs in a pheromone matrix. Within a
// cycle each ant fills hosts one at a time: among the still-unassigned VMs
// that fit into the current host it picks the next VM with probability
//
//     p(v, l) = tau[v][l]^alpha * eta(v, l)^beta / sum over feasible v'
//
// where tau is the pheromone concentration and eta a heuristic that favors
// VMs leaving the least residual capacity (better overall host utilization).
// At the end of each cycle the best-so-far solution (fewest hosts) is
// reinforced in the matrix and all pheromone evaporates by factor rho — the
// stochastic exploration / exploitation balance of classic ACO.
//
// The ants of one cycle are independent, so they run in parallel on a thread
// pool ("the algorithm is well suited for parallelization", §III.A); each
// ant owns a deterministically forked RNG stream, making the result
// reproducible for a given seed regardless of thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "consolidation/instance.hpp"

namespace snooze::consolidation {

struct AcoParams {
  std::size_t ants = 8;      ///< solutions constructed per cycle
  std::size_t cycles = 10;   ///< pheromone update rounds
  double alpha = 1.0;        ///< pheromone exponent
  double beta = 2.0;         ///< heuristic exponent
  double rho = 0.3;          ///< evaporation rate in (0,1]
  double tau0 = 1.0;         ///< initial pheromone level
  double q = 1.0;            ///< deposit scale: delta = q / hosts(best)
  std::uint64_t seed = 1;
  std::size_t threads = 1;   ///< worker threads for parallel ants (1 = serial)
};

struct AcoResult {
  Placement placement;
  std::size_t hosts_used = 0;
  bool feasible = false;
  double runtime_s = 0.0;  ///< wall-clock construction time (feeds the
                           ///< energy-of-computation accounting)
  std::vector<std::size_t> best_per_cycle;  ///< global-best after each cycle
};

class AcoConsolidation {
 public:
  explicit AcoConsolidation(AcoParams params = {});

  [[nodiscard]] const AcoParams& params() const { return params_; }

  /// Pack all VMs of `instance`. The result is feasible only if some ant
  /// completes a walk, i.e. places every VM. There is no greedy fallback, so
  /// an instance that first-fit packs can still come back infeasible when
  /// every ant's random walk strands a VM (likelier with few ants and
  /// cycles); `feasible` reports which case occurred.
  [[nodiscard]] AcoResult solve(const Instance& instance) const;

 private:
  AcoParams params_;
};

/// Heuristic desirability of adding demand `d` to a host with residual
/// capacity `residual` (before adding d). Higher = better fit.
double aco_heuristic(const ResourceVector& residual, const ResourceVector& d);

}  // namespace snooze::consolidation
