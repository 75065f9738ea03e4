#include "model/cluster.h"

#include <algorithm>

#include "common/logging.h"

namespace sqpr {

Cluster::Cluster(int num_hosts, const HostSpec& host, double link_mbps)
    : default_link_mbps_(link_mbps) {
  SQPR_CHECK(num_hosts > 0);
  hosts_.resize(num_hosts, host);
  for (int h = 0; h < num_hosts; ++h) {
    if (hosts_[h].name.empty()) hosts_[h].name = "host" + std::to_string(h);
  }
}

Cluster::Cluster(std::vector<HostSpec> hosts, double link_mbps)
    : hosts_(std::move(hosts)), default_link_mbps_(link_mbps) {
  SQPR_CHECK(!hosts_.empty());
}

double Cluster::link_mbps(HostId from, HostId to) const {
  if (from == to) return 0.0;
  const int64_t key = static_cast<int64_t>(from) * num_hosts() + to;
  for (const auto& [k, v] : link_overrides_) {
    if (k == key) return v;
  }
  return default_link_mbps_;
}

void Cluster::SetLink(HostId from, HostId to, double mbps) {
  const int64_t key = static_cast<int64_t>(from) * num_hosts() + to;
  for (auto& [k, v] : link_overrides_) {
    if (k == key) {
      v = mbps;
      return;
    }
  }
  link_overrides_.emplace_back(key, mbps);
}

void Cluster::SetHostSpec(HostId h, const HostSpec& spec) {
  SQPR_CHECK(h >= 0 && h < num_hosts());
  hosts_[h] = spec;
  if (hosts_[h].name.empty()) hosts_[h].name = "host" + std::to_string(h);
}

void Cluster::ScaleCpu(double factor) {
  for (HostSpec& h : hosts_) h.cpu *= factor;
}

void Cluster::ScaleBandwidth(double factor) {
  for (HostSpec& h : hosts_) {
    h.nic_out_mbps *= factor;
    h.nic_in_mbps *= factor;
  }
  default_link_mbps_ *= factor;
  for (auto& [k, v] : link_overrides_) {
    (void)k;
    v *= factor;
  }
}

double Cluster::TotalCpu() const {
  double total = 0.0;
  for (const HostSpec& h : hosts_) total += h.cpu;
  return total;
}

double Cluster::TotalNicOut() const {
  double total = 0.0;
  for (const HostSpec& h : hosts_) total += h.nic_out_mbps;
  return total;
}

double Cluster::TotalLinkCapacity() const {
  double total = 0.0;
  for (int h = 0; h < num_hosts(); ++h) {
    for (int m = 0; m < num_hosts(); ++m) {
      if (h != m) total += link_mbps(h, m);
    }
  }
  return total;
}

}  // namespace sqpr
