#include "plan/deployment.h"

#include <algorithm>

#include "common/logging.h"

namespace sqpr {

Deployment::Deployment(const Cluster* cluster, const Catalog* catalog)
    : cluster_(cluster), catalog_(catalog) {
  SQPR_CHECK(cluster != nullptr && catalog != nullptr);
  Clear();
}

void Deployment::Clear() {
  flows_by_stream_.clear();
  ops_by_host_.assign(cluster_->num_hosts(), {});
  serving_.clear();
  cpu_used_.assign(cluster_->num_hosts(), 0.0);
  mem_used_.assign(cluster_->num_hosts(), 0.0);
  nic_out_used_.assign(cluster_->num_hosts(), 0.0);
  nic_in_used_.assign(cluster_->num_hosts(), 0.0);
  link_used_.clear();
  RecordMutation(/*structural=*/true);
}

void Deployment::RecordMutation(bool structural) {
  ++version_;
  if (structural) ++structure_version_;
}

Status Deployment::AddFlow(HostId from, HostId to, StreamId s) {
  if (from == to) return Status::InvalidArgument("self-flow");
  if (HasFlow(from, to, s)) return Status::AlreadyExists("duplicate flow");
  const double rate = catalog_->stream(s).rate_mbps;
  flows_by_stream_[s].emplace_back(from, to);
  nic_out_used_[from] += rate;
  nic_in_used_[to] += rate;
  link_used_[{from, to}] += rate;
  RecordMutation(/*structural=*/true);
  return Status::OK();
}

Status Deployment::RemoveFlow(HostId from, HostId to, StreamId s) {
  auto it = flows_by_stream_.find(s);
  if (it == flows_by_stream_.end()) return Status::NotFound("no such flow");
  auto& flows = it->second;
  auto fit = std::find(flows.begin(), flows.end(), std::make_pair(from, to));
  if (fit == flows.end()) return Status::NotFound("no such flow");
  flows.erase(fit);
  if (flows.empty()) flows_by_stream_.erase(it);
  const double rate = catalog_->stream(s).rate_mbps;
  nic_out_used_[from] -= rate;
  nic_in_used_[to] -= rate;
  link_used_[{from, to}] -= rate;
  RecordMutation(/*structural=*/true);
  return Status::OK();
}

Status Deployment::PlaceOperator(HostId h, OperatorId o) {
  if (!ops_by_host_[h].insert(o).second) {
    return Status::AlreadyExists("operator already on host");
  }
  cpu_used_[h] += catalog_->op(o).cpu_cost;
  mem_used_[h] += catalog_->op(o).mem_mb;
  RecordMutation(/*structural=*/true);
  return Status::OK();
}

Status Deployment::RemoveOperator(HostId h, OperatorId o) {
  if (ops_by_host_[h].erase(o) == 0) {
    return Status::NotFound("operator not on host");
  }
  cpu_used_[h] -= catalog_->op(o).cpu_cost;
  mem_used_[h] -= catalog_->op(o).mem_mb;
  RecordMutation(/*structural=*/true);
  return Status::OK();
}

Status Deployment::SetServing(StreamId s, HostId h) {
  auto it = serving_.find(s);
  if (it != serving_.end()) {
    if (it->second == h) return Status::OK();
    return Status::AlreadyExists("stream already served elsewhere");
  }
  serving_[s] = h;
  nic_out_used_[h] += catalog_->stream(s).rate_mbps;  // client delivery
  RecordMutation(/*structural=*/true);
  return Status::OK();
}

Status Deployment::ClearServing(StreamId s) {
  auto it = serving_.find(s);
  if (it == serving_.end()) return Status::NotFound("stream not served");
  nic_out_used_[it->second] -= catalog_->stream(s).rate_mbps;
  serving_.erase(it);
  RecordMutation(/*structural=*/true);
  return Status::OK();
}

size_t Deployment::ApproxSizeBytes() const {
  size_t bytes = 0;
  for (const auto& [s, flows] : flows_by_stream_) {
    (void)s;
    // Map node + vector payload.
    bytes += sizeof(StreamId) + 3 * sizeof(void*) +
             flows.size() * sizeof(std::pair<HostId, HostId>);
  }
  for (const auto& ops : ops_by_host_) {
    // std::set nodes are ~3 pointers + key each.
    bytes += ops.size() * (sizeof(OperatorId) + 3 * sizeof(void*));
  }
  bytes += serving_.size() *
           (sizeof(StreamId) + sizeof(HostId) + 3 * sizeof(void*));
  bytes += (cpu_used_.size() + mem_used_.size() + nic_out_used_.size() +
            nic_in_used_.size()) *
           sizeof(double);
  bytes += link_used_.size() *
           (sizeof(std::pair<HostId, HostId>) + sizeof(double) +
            3 * sizeof(void*));
  return bytes;
}

bool Deployment::HasFlow(HostId from, HostId to, StreamId s) const {
  auto it = flows_by_stream_.find(s);
  if (it == flows_by_stream_.end()) return false;
  return std::find(it->second.begin(), it->second.end(),
                   std::make_pair(from, to)) != it->second.end();
}

bool Deployment::RunsOperator(HostId h, OperatorId o) const {
  return ops_by_host_[h].count(o) > 0;
}

HostId Deployment::ServingHost(StreamId s) const {
  auto it = serving_.find(s);
  return it == serving_.end() ? kInvalidHost : it->second;
}

std::vector<StreamId> Deployment::ServedStreams() const {
  std::vector<StreamId> out;
  out.reserve(serving_.size());
  for (const auto& [s, h] : serving_) {
    (void)h;
    out.push_back(s);
  }
  return out;
}

const std::vector<std::pair<HostId, HostId>>& Deployment::FlowsOf(
    StreamId s) const {
  static const std::vector<std::pair<HostId, HostId>> kEmpty;
  auto it = flows_by_stream_.find(s);
  return it == flows_by_stream_.end() ? kEmpty : it->second;
}

const std::set<OperatorId>& Deployment::OperatorsOn(HostId h) const {
  return ops_by_host_[h];
}

std::vector<HostId> Deployment::HostsRunning(OperatorId o) const {
  std::vector<HostId> hosts;
  for (HostId h = 0; h < cluster_->num_hosts(); ++h) {
    if (ops_by_host_[h].count(o) > 0) hosts.push_back(h);
  }
  return hosts;
}

bool Deployment::CanAddFlow(HostId from, HostId to, StreamId s,
                            double tol) const {
  if (from == to) return false;
  const double rate = catalog_->stream(s).rate_mbps;
  if (nic_out_used_[from] + rate > cluster_->host(from).nic_out_mbps + tol) {
    return false;
  }
  if (nic_in_used_[to] + rate > cluster_->host(to).nic_in_mbps + tol) {
    return false;
  }
  return LinkUsed(from, to) + rate <= cluster_->link_mbps(from, to) + tol;
}

bool Deployment::CanPlaceOperator(HostId h, OperatorId o, double tol) const {
  return cpu_used_[h] + catalog_->op(o).cpu_cost <=
             cluster_->host(h).cpu + tol &&
         mem_used_[h] + catalog_->op(o).mem_mb <=
             cluster_->host(h).mem_mb + tol;
}

bool Deployment::CanServe(StreamId s, HostId h, double tol) const {
  return nic_out_used_[h] + catalog_->stream(s).rate_mbps <=
         cluster_->host(h).nic_out_mbps + tol;
}

double Deployment::LinkUsed(HostId from, HostId to) const {
  auto it = link_used_.find({from, to});
  return it == link_used_.end() ? 0.0 : it->second;
}

double Deployment::TotalNetworkUsed() const {
  double total = 0.0;
  for (const auto& [s, flows] : flows_by_stream_) {
    total += catalog_->stream(s).rate_mbps * flows.size();
  }
  return total;
}

double Deployment::TotalCpuUsed() const {
  double total = 0.0;
  for (double c : cpu_used_) total += c;
  return total;
}

double Deployment::MaxHostCpuUsed() const {
  double best = 0.0;
  for (double c : cpu_used_) best = std::max(best, c);
  return best;
}

int Deployment::num_flows() const {
  int count = 0;
  for (const auto& [s, flows] : flows_by_stream_) {
    (void)s;
    count += static_cast<int>(flows.size());
  }
  return count;
}

int Deployment::num_placed_operators() const {
  int count = 0;
  for (const auto& ops : ops_by_host_) count += static_cast<int>(ops.size());
  return count;
}

GroundedMap Deployment::GroundedAvailability() const {
  GroundedMap grounded;
  grounded.num_hosts = cluster_->num_hosts();
  // The single catalog-size read that defines this map's stride.
  grounded.num_streams = catalog_->num_streams();
  grounded.bits.assign(
      static_cast<size_t>(grounded.num_hosts) * grounded.num_streams, false);

  // Base streams are grounded at their source hosts.
  for (StreamId s = 0; s < grounded.num_streams; ++s) {
    const StreamInfo& info = catalog_->stream(s);
    if (info.is_base && info.source_host != kInvalidHost &&
        info.source_host < grounded.num_hosts) {
      grounded.set(info.source_host, s);
    }
  }

  // Least fixpoint over operator execution and flows. The iteration count
  // is bounded by the longest support chain; each pass is cheap at the
  // committed-state sizes involved.
  bool changed = true;
  while (changed) {
    changed = false;
    for (HostId h = 0; h < grounded.num_hosts; ++h) {
      for (OperatorId o : ops_by_host_[h]) {
        const OperatorInfo& op = catalog_->op(o);
        if (grounded.at(h, op.output)) continue;
        bool all_inputs = true;
        for (StreamId in : op.inputs) {
          if (!grounded.at(h, in)) {
            all_inputs = false;
            break;
          }
        }
        if (all_inputs) {
          grounded.set(h, op.output);
          changed = true;
        }
      }
    }
    for (const auto& [s, flows] : flows_by_stream_) {
      for (const auto& [from, to] : flows) {
        if (grounded.at(from, s) && !grounded.at(to, s)) {
          grounded.set(to, s);
          changed = true;
        }
      }
    }
  }
  return grounded;
}

void Deployment::RecomputeAggregates() {
  RecordMutation(/*structural=*/false);
  const int num_hosts = cluster_->num_hosts();
  cpu_used_.assign(num_hosts, 0.0);
  mem_used_.assign(num_hosts, 0.0);
  nic_out_used_.assign(num_hosts, 0.0);
  nic_in_used_.assign(num_hosts, 0.0);
  link_used_.clear();
  for (HostId h = 0; h < num_hosts; ++h) {
    for (OperatorId o : ops_by_host_[h]) {
      cpu_used_[h] += catalog_->op(o).cpu_cost;
      mem_used_[h] += catalog_->op(o).mem_mb;
    }
  }
  for (const auto& [s, flows] : flows_by_stream_) {
    const double rate = catalog_->stream(s).rate_mbps;
    for (const auto& [from, to] : flows) {
      nic_out_used_[from] += rate;
      nic_in_used_[to] += rate;
      link_used_[{from, to}] += rate;
    }
  }
  for (const auto& [s, h] : serving_) {
    nic_out_used_[h] += catalog_->stream(s).rate_mbps;
  }
}

Status Deployment::Validate(double tol) const {
  const int num_hosts = cluster_->num_hosts();
  const GroundedMap grounded = GroundedAvailability();

  // Causality of flows (subsumes acyclicity): a flow must leave a host
  // where the stream is grounded *without counting the flow's own cycle*.
  for (const auto& [s, flows] : flows_by_stream_) {
    for (const auto& [from, to] : flows) {
      (void)to;
      if (!grounded.at(from, s)) {
        return Status::Infeasible("flow of stream " +
                                  catalog_->stream(s).name + " leaves host " +
                                  std::to_string(from) +
                                  " where it is not grounded (acausal)");
      }
    }
  }

  // Operators need all inputs grounded at their host.
  for (HostId h = 0; h < num_hosts; ++h) {
    for (OperatorId o : ops_by_host_[h]) {
      for (StreamId in : catalog_->op(o).inputs) {
        if (!grounded.at(h, in)) {
          return Status::Infeasible(
              "operator " + std::to_string(o) + " on host " +
              std::to_string(h) + " is missing input " +
              catalog_->stream(in).name);
        }
      }
    }
  }

  // Served streams must be grounded at their server (III.4a with y).
  for (const auto& [s, h] : serving_) {
    if (!grounded.at(h, s)) {
      return Status::Infeasible("served stream " + catalog_->stream(s).name +
                                " not grounded at host " + std::to_string(h));
    }
  }

  // Resource budgets.
  for (HostId h = 0; h < num_hosts; ++h) {
    const HostSpec& spec = cluster_->host(h);
    if (cpu_used_[h] > spec.cpu + tol) {
      return Status::ResourceExhausted("CPU over budget on host " +
                                       std::to_string(h));
    }
    if (mem_used_[h] > spec.mem_mb + tol) {
      return Status::ResourceExhausted("memory over budget on host " +
                                       std::to_string(h));
    }
    if (nic_out_used_[h] > spec.nic_out_mbps + tol) {
      return Status::ResourceExhausted("outgoing NIC over budget on host " +
                                       std::to_string(h));
    }
    if (nic_in_used_[h] > spec.nic_in_mbps + tol) {
      return Status::ResourceExhausted("incoming NIC over budget on host " +
                                       std::to_string(h));
    }
  }
  for (const auto& [link, used] : link_used_) {
    if (used > cluster_->link_mbps(link.first, link.second) + tol) {
      return Status::ResourceExhausted(
          "link " + std::to_string(link.first) + "->" +
          std::to_string(link.second) + " over budget");
    }
  }
  return Status::OK();
}

std::string Deployment::Fingerprint() const {
  std::string out;
  for (const auto& [s, h] : serving_) {
    out += "serve " + std::to_string(s) + "@" + std::to_string(h) + "\n";
  }
  for (HostId h = 0; h < cluster_->num_hosts(); ++h) {
    for (OperatorId o : ops_by_host_[h]) {
      out += "op " + std::to_string(h) + ":" + std::to_string(o) + "\n";
    }
  }
  for (const auto& [s, flows] : flows_by_stream_) {
    // Flow lists are append-ordered; sort for canonical output.
    std::vector<std::pair<HostId, HostId>> sorted = flows;
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [from, to] : sorted) {
      out += "flow " + std::to_string(from) + ">" + std::to_string(to) + ":" +
             std::to_string(s) + "\n";
    }
  }
  return out;
}

DeploymentDelta DiffDeployments(const Deployment& base,
                                const Deployment& next) {
  DeploymentDelta delta;
  const Cluster& cluster = base.cluster();
  const int num_streams = base.catalog().num_streams();

  for (HostId h = 0; h < cluster.num_hosts(); ++h) {
    for (OperatorId o : next.OperatorsOn(h)) {
      if (!base.RunsOperator(h, o)) delta.ops_added.emplace_back(h, o);
    }
    for (OperatorId o : base.OperatorsOn(h)) {
      if (!next.RunsOperator(h, o)) delta.ops_removed.emplace_back(h, o);
    }
  }

  for (StreamId s = 0; s < num_streams; ++s) {
    for (const auto& [from, to] : next.FlowsOf(s)) {
      if (!base.HasFlow(from, to, s)) {
        delta.flows_added.emplace_back(from, to, s);
      }
    }
    for (const auto& [from, to] : base.FlowsOf(s)) {
      if (!next.HasFlow(from, to, s)) {
        delta.flows_removed.emplace_back(from, to, s);
      }
    }
    const HostId before = base.ServingHost(s);
    const HostId after = next.ServingHost(s);
    if (before != after) {
      delta.serving_changes.push_back({s, before, after});
    }
  }
  return delta;
}

}  // namespace sqpr
