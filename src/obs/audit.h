#ifndef SQPR_OBS_AUDIT_H_
#define SQPR_OBS_AUDIT_H_

// Decision audit journal (schema sqpr-audit-v1): every operational
// decision the planning service takes — admit, reject, re-plan, evict,
// drift, conflict resolution — appended in commit order
// as one JSONL record, so "why was query Q rejected at t=412?" is a
// grep, not a debugger session.
//
// Determinism contract. The service commits bit-identical deployments
// across worker counts (docs/ARCHITECTURE.md §4);
// the journal inherits that by splitting every record into two strata:
//
//  * canonical fields — virtual time, decision kind, query/host, the
//    commit-order round sequence number, and pre/post deployment
//    fingerprints. These depend only on the committed decision sequence,
//    so the canonical rendering (ToJsonl(/*canonical=*/true)) is
//    byte-identical across workers {0,1,4} — asserted by the replay
//    property suite and bench_service_churn.
//  * operational fields — wall-clock solve/commit latencies and the
//    round dispatch id ("wall": {...}), plus whole records marked
//    speculative (dispatches, conflicts, scheduler discards, watchdog
//    stalls). These describe how the service got to a decision — wall
//    time and speculation — not the decision itself, so the full
//    rendering carries them and the canonical rendering strips them.
//
// Thread safety: none — Append() is loop-thread-only, like every other
// commit-ordered structure in the service. Renders happen after the run
// (or between events on the loop thread).

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace sqpr {
namespace obs {

/// One audited decision. `kind` is a stable dotted reason code; the
/// full vocabulary is documented in docs/ARCHITECTURE.md §7:
///   admit.solve admit.cache admit.dedup reject.capacity reject.error
///   depart.served depart.unknown host.failure host.join
///   evict.host_failure evict.drift drift.report drift.measure
///   measure.tick rate.directive replan.enqueue replan.round
///   replan.admit replan.reject replan.fail close.admitted
///   close.pending journal.close
/// and (speculative) round.dispatch replan.discard replan.conflict
/// watchdog.stall.
struct AuditRecord {
  // ---- canonical ----
  int64_t t_ms = 0;          ///< virtual clock at the decision
  std::string kind;          ///< reason code (see above)
  int64_t query = -1;        ///< StreamId, -1 when not query-scoped
  int64_t host = -1;         ///< HostId, -1 when not host-scoped
  int64_t round = -1;        ///< commit-order round seq, -1 when n/a
  int64_t detail = -1;       ///< kind-specific count (evicted, queries…)
  int64_t aux = -1;          ///< secondary kind-specific value
  /// Stream lists for the close records (sorted admitted set, pending
  /// backlog in FIFO order); empty elsewhere.
  std::vector<int64_t> streams;
  /// Pre/post deployment state around the decision: ledger version,
  /// structure version and an FNV-1a hash of Deployment::Fingerprint().
  /// Rendered only when pre_fp != 0 (summary-level records set them;
  /// per-query sub-records skip the fingerprint cost).
  uint64_t pre_version = 0;
  uint64_t pre_structure = 0;
  uint64_t pre_fp = 0;
  uint64_t post_version = 0;
  uint64_t post_structure = 0;
  uint64_t post_fp = 0;
  // ---- operational (stripped by the canonical rendering) ----
  /// Whole-record marker: a speculation artifact (how a round was
  /// solved), not a committed decision.
  bool speculative = false;
  double solve_ms = -1.0;    ///< wall-clock solve latency, -1 = none
  double commit_ms = -1.0;   ///< wall-clock commit latency, -1 = none
  int64_t dispatch_id = -1;  ///< round dispatch id
};

/// Append-only decision journal. Canonical records are numbered by
/// their own sequence counter ("seq") and speculative records by a
/// separate one ("sseq"), so filtering speculation out never perforates
/// the canonical numbering — the invariant the byte-identity contract
/// rides on.
class AuditJournal {
 public:
  /// Appends one record, assigning its sequence number.
  void Append(AuditRecord record);

  size_t size() const { return records_.size(); }
  size_t canonical_size() const { return canonical_seq_; }
  const std::vector<AuditRecord>& records() const { return records_; }

  /// Renders the journal as JSONL: a schema header line followed by one
  /// record per line. `canonical` drops speculative records and the
  /// "wall" object — the rendering the determinism contract covers.
  std::string ToJsonl(bool canonical) const;

  Status WriteFile(const std::string& path, bool canonical) const;

  /// FNV-1a 64-bit — the deployment fingerprint hash the records carry.
  static uint64_t Fnv1a(const std::string& s);

 private:
  std::vector<AuditRecord> records_;
  /// Per-record sequence numbers, parallel to records_ (canonical and
  /// speculative records draw from separate counters).
  std::vector<int64_t> seqs_;
  int64_t canonical_seq_ = 0;
  int64_t speculative_seq_ = 0;
};

}  // namespace obs
}  // namespace sqpr

#endif  // SQPR_OBS_AUDIT_H_
