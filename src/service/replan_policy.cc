#include "service/replan_policy.h"

#include <algorithm>

#include "obs/audit.h"
#include "service/event_loop.h"

namespace sqpr {

void ReplanScheduler::Audit(const char* kind, StreamId query,
                            bool speculative) const {
  if (audit_ == nullptr) return;
  obs::AuditRecord r;
  r.t_ms = audit_clock_ != nullptr ? audit_clock_->now_ms() : 0;
  r.kind = kind;
  r.query = query;
  r.speculative = speculative;
  audit_->Append(std::move(r));
}

bool ReplanScheduler::Enqueue(StreamId query) {
  if (!pending_.insert(query).second) return false;
  const size_t limit =
      static_cast<size_t>(std::max(1, options_.max_queries_per_round));
  if (groups_.empty() || groups_.back().size() >= limit) {
    groups_.emplace_back();
  }
  groups_.back().push_back(query);
  // Canonical: enqueues come from barrier handlers (failure/drift
  // evictions, join retries), which commit the pending round first —
  // the pending set at that point is fixed by the trace.
  Audit("replan.enqueue", query, /*speculative=*/false);
  return true;
}

void ReplanScheduler::Discard(StreamId query) {
  if (pending_.erase(query) == 0) return;
  // Speculative: whether the departed query still sits here or was
  // already popped into the pending round is a scheduling detail;
  // the canonical record of the departure is the service's own.
  Audit("replan.discard", query, /*speculative=*/true);
  // Remove from its group without re-packing: round boundaries were
  // fixed at enqueue time and must survive discards (see header).
  for (auto group = groups_.begin(); group != groups_.end(); ++group) {
    auto it = std::find(group->begin(), group->end(), query);
    if (it == group->end()) continue;
    group->erase(it);
    if (group->empty()) groups_.erase(group);
    return;
  }
}

std::vector<StreamId> ReplanScheduler::NextRound() {
  std::vector<StreamId> round;
  if (groups_.empty()) return round;
  round.assign(groups_.front().begin(), groups_.front().end());
  groups_.pop_front();
  for (StreamId q : round) pending_.erase(q);
  return round;
}

std::vector<std::vector<StreamId>> ReplanScheduler::ExportGroups() const {
  std::vector<std::vector<StreamId>> out;
  out.reserve(groups_.size());
  for (const auto& group : groups_) {
    if (group.empty()) continue;
    out.emplace_back(group.begin(), group.end());
  }
  return out;
}

void ReplanScheduler::ImportGroups(
    const std::vector<std::vector<StreamId>>& groups) {
  groups_.clear();
  pending_.clear();
  for (const auto& group : groups) {
    std::deque<StreamId> restored;
    for (StreamId q : group) {
      if (!pending_.insert(q).second) continue;
      restored.push_back(q);
    }
    if (!restored.empty()) groups_.push_back(std::move(restored));
  }
}

std::vector<StreamId> ReplanScheduler::PendingQueries() const {
  std::vector<StreamId> out;
  out.reserve(pending_.size());
  for (const auto& group : groups_) {
    out.insert(out.end(), group.begin(), group.end());
  }
  return out;
}

}  // namespace sqpr
