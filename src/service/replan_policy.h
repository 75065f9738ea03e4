#ifndef SQPR_SERVICE_REPLAN_POLICY_H_
#define SQPR_SERVICE_REPLAN_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "model/ids.h"

namespace sqpr {

namespace obs {
class AuditJournal;
}  // namespace obs

class VirtualClock;

/// Bounds on the §IV-B/§IV-C adaptive re-planning work the service is
/// willing to do per consumed event. The paper re-plans by removing and
/// re-admitting affected queries; each re-admission is a full reduced
/// MILP solve, so an unbounded drift report (or a failed host carrying
/// many queries) could stall the event loop. The policy batches all
/// pending candidates into *rounds* of at most `max_queries_per_round`
/// solves; one round is in flight at a time, dispatched at the end of one
/// event and committed at the end of the next (or at an earlier barrier),
/// so the remainder stays queued for later events and ticks.
struct ReplanPolicyOptions {
  int max_queries_per_round = 8;
  /// Worker-pool threads solving re-planning rounds off the event-loop
  /// thread. Every worker count — including 0 — runs the same
  /// speculative propose/commit round with the same logical dispatch
  /// and commit points; `workers` only decides *where* the round's
  /// solves run. With 0 they run synchronously on the loop thread at
  /// dispatch; with N >= 1 they run on a pool while the loop keeps
  /// consuming events (arrivals keep admitting — via the plan-cache
  /// fast path *and* via speculative cache-miss solves over the
  /// thread-safe catalog). Proposals commit on the loop thread in FIFO
  /// order either way, so the worker count never changes the committed
  /// deployments — only how much solve time overlaps event processing
  /// (see docs/ARCHITECTURE.md).
  int workers = 0;
  /// Cap the pool at the machine's hardware concurrency (minus nothing —
  /// the loop thread mostly blocks at the barrier while a round solves).
  /// Requesting more CPU-bound solver threads than cores buys no
  /// parallelism, only time-slicing: on a 1-core host, workers=4 made
  /// every in-flight solve ~4x slower wall-clock (the drift-trace p95
  /// blow-up the workers=4 Perfetto trace pinned on `milp/node` spans
  /// stretched by preemption, not on any lock). Deterministic to flip:
  /// the worker count never affects committed deployments, only solve
  /// overlap. Tests that *want* oversubscription (TSan interleaving
  /// coverage) set this to false.
  bool clamp_workers_to_cores = true;
};

/// Deduplicating FIFO of re-planning candidates. Candidates accumulate
/// from monitor drift reports, host-failure fallout and (optionally)
/// rejected-query retries after topology changes; enqueueing an already
/// pending query is a no-op, so a query implicated by several conditions
/// in one period is re-planned once (the §IV-B round semantics).
///
/// Round composition is pinned at *enqueue* time: candidates are cut
/// into groups of at most max_queries_per_round as they arrive, and a
/// later Discard shrinks its group without re-packing the others. The
/// groups decide which queries re-plan together — and therefore which
/// state each re-admission solves against — so a checkpoint carries the
/// group boundaries (ExportGroups) rather than the flat candidate order.
class ReplanScheduler {
 public:
  explicit ReplanScheduler(ReplanPolicyOptions options)
      : options_(options) {}

  /// Adds a candidate; returns false when it was already pending.
  bool Enqueue(StreamId query);

  /// Drops a pending candidate (e.g. the query departed while waiting).
  void Discard(StreamId query);

  /// Pops the oldest group (up to max_queries_per_round candidates, in
  /// enqueue order).
  std::vector<StreamId> NextRound();

  bool HasPending() const { return !pending_.empty(); }
  size_t pending() const { return pending_.size(); }
  const ReplanPolicyOptions& options() const { return options_; }

  /// Pending candidates in FIFO order (group by group) — the backlog
  /// the audit journal's close.pending record carries.
  std::vector<StreamId> PendingQueries() const;

  /// Checkpoint support (src/service/checkpoint.h). Round composition is
  /// pinned at enqueue time, so a faithful restore must preserve the
  /// *group boundaries*, not just the flat candidate order — otherwise a
  /// restored service would re-cut the backlog into different rounds
  /// than the uninterrupted run. Empty groups (fully Discarded) are
  /// dropped on export; they are unobservable, NextRound skips them.
  std::vector<std::vector<StreamId>> ExportGroups() const;

  /// Replaces the backlog with `groups`, rebuilding the pending set.
  /// No audit records are emitted: the enqueues were already audited in
  /// the run that produced the checkpoint.
  void ImportGroups(const std::vector<std::vector<StreamId>>& groups);

  /// Attaches a decision audit journal (null detaches). Enqueues happen
  /// at barrier points, so replan.enqueue records are canonical
  /// (worker-invariant); a discard depends on whether the departed query
  /// was still queued or already in flight, so its record is marked
  /// speculative. `clock` supplies the virtual time
  /// (loop-thread-owned, like the scheduler itself).
  void set_audit(obs::AuditJournal* audit, const VirtualClock* clock) {
    audit_ = audit;
    audit_clock_ = clock;
  }

 private:
  void Audit(const char* kind, StreamId query, bool speculative) const;

  ReplanPolicyOptions options_;
  obs::AuditJournal* audit_ = nullptr;
  const VirtualClock* audit_clock_ = nullptr;
  /// Groups in FIFO order; each inner deque is one future round, in
  /// enqueue order. Discard may leave a group empty — NextRound skips
  /// empty groups rather than merging neighbours.
  std::deque<std::deque<StreamId>> groups_;
  std::set<StreamId> pending_;
};

}  // namespace sqpr

#endif  // SQPR_SERVICE_REPLAN_POLICY_H_
