#include "consolidation/instance.hpp"

#include <algorithm>
#include <cmath>

namespace snooze::consolidation {

Instance Instance::homogeneous(std::vector<ResourceVector> demands, std::size_t hosts,
                               ResourceVector capacity) {
  Instance inst;
  inst.vm_demands = std::move(demands);
  inst.host_capacities.assign(hosts, capacity);
  return inst;
}

std::size_t Instance::lower_bound_hosts() const {
  if (vm_demands.empty()) return 0;
  ResourceVector total;
  for (const auto& d : vm_demands) total += d;
  ResourceVector biggest;
  for (const auto& c : host_capacities) {
    for (std::size_t d = 0; d < ResourceVector::kDims; ++d) {
      biggest[d] = std::max(biggest[d], c[d]);
    }
  }
  std::size_t bound = 1;
  for (std::size_t d = 0; d < ResourceVector::kDims; ++d) {
    if (biggest[d] <= 0.0) continue;
    bound = std::max(bound,
                     static_cast<std::size_t>(std::ceil(total[d] / biggest[d] - 1e-9)));
  }
  return bound;
}

bool Placement::complete() const {
  return std::none_of(assignment_.begin(), assignment_.end(),
                      [](HostIndex h) { return h == kUnassigned; });
}

std::size_t Placement::hosts_used() const {
  HostIndex top = kUnassigned;
  for (HostIndex h : assignment_) top = std::max(top, h);
  std::vector<char> seen(static_cast<std::size_t>(top + 1), 0);
  std::size_t used = 0;
  for (HostIndex h : assignment_) {
    if (h < 0 || seen[static_cast<std::size_t>(h)]) continue;
    seen[static_cast<std::size_t>(h)] = 1;
    ++used;
  }
  return used;
}

std::vector<ResourceVector> Placement::loads(const Instance& instance) const {
  std::vector<ResourceVector> out(instance.host_count());
  for (std::size_t vm = 0; vm < assignment_.size(); ++vm) {
    const HostIndex h = assignment_[vm];
    if (h != kUnassigned) out[static_cast<std::size_t>(h)] += instance.vm_demands[vm];
  }
  return out;
}

bool Placement::feasible(const Instance& instance) const {
  if (assignment_.size() != instance.vm_count()) return false;
  if (!complete()) return false;
  for (HostIndex h : assignment_) {
    if (h < 0 || static_cast<std::size_t>(h) >= instance.host_count()) return false;
  }
  const auto host_loads = loads(instance);
  for (std::size_t h = 0; h < host_loads.size(); ++h) {
    if (!host_loads[h].fits_within(instance.host_capacities[h])) return false;
  }
  return true;
}

double interference_cost(const Instance& instance, const Placement& placement) {
  if (!instance.interference_aware()) return 0.0;
  double cost = 0.0;
  for (std::size_t h = 0; h < instance.host_count(); ++h) {
    const interference::TopologySpec& topo =
        h < instance.host_topologies.size() ? instance.host_topologies[h]
                                            : interference::TopologySpec{};
    if (topo.flat()) continue;
    // Profiled VMs on this host, in index order (the hypervisor's arrival
    // order stand-in), greedily pinned to the least-pressured socket.
    const std::size_t sockets = topo.sockets.size();
    std::vector<std::vector<interference::MemProfile>> per_socket(sockets);
    std::vector<interference::SocketPressure> pressure(sockets);
    for (std::size_t vm = 0; vm < placement.vm_count(); ++vm) {
      if (placement.host_of(vm) != static_cast<HostIndex>(h)) continue;
      if (vm >= instance.vm_profiles.size() || !instance.vm_profiles[vm].present()) {
        continue;
      }
      std::size_t best = 0;
      double best_demand = std::numeric_limits<double>::infinity();
      for (std::size_t s = 0; s < sockets; ++s) {
        const auto& sock = topo.sockets[s];
        const double demand =
            pressure[s].llc_demand_mb / std::max(sock.llc_mb, 1e-9) +
            pressure[s].bw_demand_gbps / std::max(sock.mem_bw_gbps, 1e-9);
        if (demand < best_demand) {
          best_demand = demand;
          best = s;
        }
      }
      per_socket[best].push_back(instance.vm_profiles[vm]);
      pressure[best] += instance.vm_profiles[vm];
    }
    for (std::size_t s = 0; s < sockets; ++s) {
      for (std::size_t i = 0; i < per_socket[s].size(); ++i) {
        interference::SocketPressure neighbors;
        for (std::size_t j = 0; j < per_socket[s].size(); ++j) {
          if (j != i) neighbors += per_socket[s][j];
        }
        cost += 1.0 - interference::degradation_multiplier(per_socket[s][i], neighbors,
                                                           topo.sockets[s]);
      }
    }
  }
  return cost;
}

double score(const Instance& instance, const Placement& placement) {
  return static_cast<double>(placement.hosts_used()) +
         instance.interference_weight * interference_cost(instance, placement);
}

}  // namespace snooze::consolidation
