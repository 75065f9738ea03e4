#ifndef SQPR_PLAN_DEPLOYMENT_H_
#define SQPR_PLAN_DEPLOYMENT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/status.h"
#include "model/catalog.h"
#include "model/cluster.h"
#include "model/ids.h"

namespace sqpr {

/// A host × stream availability snapshot (the derived y_hs of §III),
/// carrying its own stream-count stride. The catalog may grow after the
/// map is built, so a consumer must index the bitmap with the catalog
/// size *at build time*, never with a fresh Catalog::num_streams() read.
/// Streams interned after the snapshot are trivially not grounded
/// anywhere, which at() encodes by returning false for out-of-stride
/// ids.
struct GroundedMap {
  int num_hosts = 0;
  /// Catalog stream count when the map was built (the row stride).
  int num_streams = 0;
  std::vector<bool> bits;  // num_hosts x num_streams, row-major by host

  bool at(HostId h, StreamId s) const {
    return s < num_streams &&
           bits[static_cast<size_t>(h) * num_streams + s];
  }
  void set(HostId h, StreamId s) {
    bits[static_cast<size_t>(h) * num_streams + s] = true;
  }
};

/// The global allocation state of the DSPS — the committed values of the
/// paper's decision variables:
///   serving map            d_hs = 1  (host h answers requests for s)
///   flows                  x_hms = 1 (h sends stream s to m)
///   operator placements    z_ho = 1  (h executes operator o)
/// Availability (y_hs) is derived, not stored: a stream is available at a
/// host iff it is *grounded* there (see GroundedAvailability below).
///
/// Deployment is a value type: planners copy it, edit the copy while
/// solving, and commit by assignment — which is exactly how SQPR's
/// replanning "removes and re-adds" queries (§IV-B).
class Deployment {
 public:
  Deployment(const Cluster* cluster, const Catalog* catalog);

  /// Resets to the empty allocation (Algorithm 1 line 1).
  void Clear();

  // ---- Mutators (resource aggregates maintained incrementally). ----
  Status AddFlow(HostId from, HostId to, StreamId s);
  Status RemoveFlow(HostId from, HostId to, StreamId s);
  Status PlaceOperator(HostId h, OperatorId o);
  Status RemoveOperator(HostId h, OperatorId o);
  /// Marks host h as the (single) server of requested stream s; includes
  /// the client-delivery bandwidth of (III.6c).
  Status SetServing(StreamId s, HostId h);
  Status ClearServing(StreamId s);

  // ---- Lookups. ----
  bool HasFlow(HostId from, HostId to, StreamId s) const;
  bool RunsOperator(HostId h, OperatorId o) const;
  /// Host serving stream s, or kInvalidHost.
  HostId ServingHost(StreamId s) const;
  /// All streams currently served (the admitted queries).
  std::vector<StreamId> ServedStreams() const;
  /// All flows carrying stream s as (from, to) pairs.
  const std::vector<std::pair<HostId, HostId>>& FlowsOf(StreamId s) const;
  /// All operators placed on host h.
  const std::set<OperatorId>& OperatorsOn(HostId h) const;
  /// Hosts executing operator o (the paper's model allows an operator to
  /// be instantiated on several hosts for different queries' benefit).
  std::vector<HostId> HostsRunning(OperatorId o) const;

  // ---- Capacity headroom checks (used by the greedy planners). ----
  /// True when the flow fits the sender NIC, receiver NIC and link.
  bool CanAddFlow(HostId from, HostId to, StreamId s, double tol = 1e-9) const;
  /// True when host h has CPU headroom for operator o.
  bool CanPlaceOperator(HostId h, OperatorId o, double tol = 1e-9) const;
  /// True when host h has outgoing NIC headroom to deliver s to clients.
  bool CanServe(StreamId s, HostId h, double tol = 1e-9) const;

  // ---- Resource accounting. ----
  double CpuUsed(HostId h) const { return cpu_used_[h]; }
  double MemUsed(HostId h) const { return mem_used_[h]; }
  double NicOutUsed(HostId h) const { return nic_out_used_[h]; }
  double NicInUsed(HostId h) const { return nic_in_used_[h]; }
  double LinkUsed(HostId from, HostId to) const;
  double TotalNetworkUsed() const;  // objective O2 over committed flows
  double TotalCpuUsed() const;      // objective O3
  double MaxHostCpuUsed() const;    // objective O4

  /// Least-fixpoint availability: at(h, s) is true iff stream s can
  /// causally reach host h through base injection, local operator
  /// execution (all inputs grounded) or an incoming flow from a host
  /// where s is grounded. Acausal flow cycles are *not* grounded — this
  /// is the semantic content of the paper's acyclicity constraints
  /// (III.7). The catalog size is read once; consumers must index
  /// through GroundedMap::at (see its comment for why).
  GroundedMap GroundedAvailability() const;

  /// Rebuilds every resource ledger (CPU, memory, NIC, links) from the
  /// committed placements, flows and servings using the catalog's
  /// *current* costs and rates. Required after Catalog::UpdateBaseRate
  /// (§IV-B), which changes costs under committed state.
  void RecomputeAggregates();

  /// Full §III feasibility audit of the committed state:
  ///  * every flow leaves a host where the stream is grounded,
  ///  * every operator has all inputs grounded at its host,
  ///  * every served stream is grounded at its serving host,
  ///  * CPU (III.6d), link (III.6a), NIC in/out (III.6b/c) within budget.
  /// Returns OK or a description of the first violation.
  Status Validate(double tol = 1e-6) const;

  const Cluster& cluster() const { return *cluster_; }
  const Catalog& catalog() const { return *catalog_; }

  int num_flows() const;
  int num_placed_operators() const;

  /// Canonical textual dump of the committed decision variables
  /// (serving arcs, operator placements, flows) in fixed enumeration
  /// order. Two deployments over the same catalog/cluster are equal iff
  /// their fingerprints match — the replay-equality check behind the
  /// determinism contract (docs/ARCHITECTURE.md).
  std::string Fingerprint() const;

  // ---- Change tracking (proposal staleness & reuse-index deltas). ----

  /// Monotone change counter: every successful mutator call (including
  /// Clear and RecomputeAggregates) bumps it exactly once.
  uint64_t version() const { return version_; }

  /// Like version(), but counting only *structural* mutations — flows,
  /// placements, serving arcs, Clear — not ledger recomputes
  /// (RecomputeAggregates rewrites resource numbers under unchanged
  /// structure). Consumers that index structure-derived state off the
  /// deployment (the service's PlanCache: groundedness and serving)
  /// key their staleness checks on this, so rate installs neither
  /// defeat no-op skips nor hide structural fallout behind them.
  uint64_t structure_version() const { return structure_version_; }

  /// Rough heap footprint of the committed state (flows, placements,
  /// serving arcs, ledgers) — the bytes a full deployment copy moves.
  size_t ApproxSizeBytes() const;

  // ---- Checkpoint support (src/service/checkpoint.h). ----

  /// Streams carrying at least one committed flow, ascending — the
  /// checkpoint writer's enumeration of the flow table (FlowsOf gives
  /// each stream's per-flow insertion order, which the restore path
  /// replays verbatim).
  std::vector<StreamId> FlowStreams() const {
    std::vector<StreamId> out;
    out.reserve(flows_by_stream_.size());
    for (const auto& entry : flows_by_stream_) {
      if (!entry.second.empty()) out.push_back(entry.first);
    }
    return out;
  }

  /// Overwrites the change counters with checkpointed values, after a
  /// restore rebuilt the structure through the ordinary mutators (which
  /// counted from zero). Only relative consistency matters for the
  /// planner's commit gate; restoring the absolute values keeps audit
  /// records and version-keyed caches continuous across a crash.
  void RestoreVersions(uint64_t version, uint64_t structure_version) {
    version_ = version;
    structure_version_ = structure_version;
  }

 private:
  /// Bumps version_ (and structure_version_ for structural mutations)
  /// after one successful mutator call.
  void RecordMutation(bool structural);
  const Cluster* cluster_;
  const Catalog* catalog_;

  std::map<StreamId, std::vector<std::pair<HostId, HostId>>> flows_by_stream_;
  std::vector<std::set<OperatorId>> ops_by_host_;
  std::map<StreamId, HostId> serving_;

  std::vector<double> cpu_used_, mem_used_, nic_out_used_, nic_in_used_;
  std::map<std::pair<HostId, HostId>, double> link_used_;

  uint64_t version_ = 0;
  uint64_t structure_version_ = 0;
};

/// The difference between two deployments over the same cluster and
/// catalog, expressed as the mutator calls that turn `base` into `next`.
/// The planning service diffs the committed state around each admission
/// solve and feeds the delta to its plan-reuse cache (PlanCache), which
/// then updates in O(delta) instead of re-scanning the deployment.
struct DeploymentDelta {
  struct ServingChange {
    StreamId stream = kInvalidStream;
    /// kInvalidHost means the stream was unserved before (after).
    HostId before = kInvalidHost;
    HostId after = kInvalidHost;
  };

  std::vector<std::pair<HostId, OperatorId>> ops_added;
  std::vector<std::pair<HostId, OperatorId>> ops_removed;
  std::vector<std::tuple<HostId, HostId, StreamId>> flows_added;
  std::vector<std::tuple<HostId, HostId, StreamId>> flows_removed;
  std::vector<ServingChange> serving_changes;

  bool empty() const {
    return ops_added.empty() && ops_removed.empty() && flows_added.empty() &&
           flows_removed.empty() && serving_changes.empty();
  }
};

/// Computes the delta turning `base` into `next`. Both must be built
/// over the same cluster and catalog. Enumeration order is canonical
/// (hosts, then streams ascending), so equal inputs yield equal deltas.
DeploymentDelta DiffDeployments(const Deployment& base,
                                const Deployment& next);

}  // namespace sqpr

#endif  // SQPR_PLAN_DEPLOYMENT_H_
