#ifndef SQPR_MODEL_CLUSTER_H_
#define SQPR_MODEL_CLUSTER_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/ids.h"

namespace sqpr {

/// Per-host resources of §II-B: computational budget ζ_h and NIC
/// bandwidth β_h (outgoing; the paper's (III.6b) also bounds incoming
/// traffic by the same NIC figure, which we keep as a separate knob).
struct HostSpec {
  double cpu = 1.0;          // ζ_h, CPU units
  double nic_out_mbps = 0.0; // β_h
  double nic_in_mbps = 0.0;  // incoming bound used by (III.6b)
  std::string name;
  /// Memory budget in MB (§VII extension). Unlimited by default, so
  /// memory only participates in planning when explicitly configured.
  double mem_mb = std::numeric_limits<double>::infinity();
};

/// The DSPS host set with pairwise link capacities κ_hm.
///
/// Links default to a uniform full-bisection capacity (the paper's
/// simulation uses 1 Gbps everywhere); individual links can be overridden
/// to model heterogeneous topologies.
class Cluster {
 public:
  /// Uniform cluster: `num_hosts` identical hosts, all links at
  /// `link_mbps`.
  Cluster(int num_hosts, const HostSpec& host, double link_mbps);

  /// Heterogeneous cluster from explicit specs; links start uniform.
  Cluster(std::vector<HostSpec> hosts, double link_mbps);

  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  const HostSpec& host(HostId h) const { return hosts_[h]; }

  /// κ_hm; h == m returns +inf conceptually but self-links are never used
  /// by the planner, so we return 0 to catch accidental self-flows.
  double link_mbps(HostId from, HostId to) const;

  /// Overrides the capacity of one directed link.
  void SetLink(HostId from, HostId to, double mbps);

  /// Replaces one host's resource budgets in place. The planning service
  /// models host failure/rejoin by swapping a host's spec for an
  /// all-zero one and back — committed state indexed by HostId stays
  /// stable, while every §III capacity constraint immediately forbids
  /// new work on the failed host.
  void SetHostSpec(HostId h, const HostSpec& spec);

  /// Scales every host's CPU budget (fig. 5(b) resource sweeps).
  void ScaleCpu(double factor);
  /// Scales every NIC and link capacity.
  void ScaleBandwidth(double factor);

  double TotalCpu() const;
  double TotalNicOut() const;
  double TotalLinkCapacity() const;

 private:
  std::vector<HostSpec> hosts_;
  double default_link_mbps_;
  // Sparse overrides keyed by from * num_hosts + to.
  std::vector<std::pair<int64_t, double>> link_overrides_;
};

}  // namespace sqpr

#endif  // SQPR_MODEL_CLUSTER_H_
