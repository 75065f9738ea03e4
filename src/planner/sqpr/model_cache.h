#ifndef SQPR_PLANNER_SQPR_MODEL_CACHE_H_
#define SQPR_PLANNER_SQPR_MODEL_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "lp/simplex.h"
#include "milp/cuts.h"
#include "planner/sqpr/model_builder.h"

namespace sqpr {

/// Identity of one grounded SQPR solve *structure*. Two solves with equal
/// keys build bit-identical model skeletons (same variables, rows, terms,
/// objective coefficients and names): the skeleton depends only on the
/// relevant sets, the demand flags, the catalog's rates/costs and the
/// cluster specs — never on the committed deployment, which only moves
/// bounds (see SqprMip::Rebind). The epochs fold every mutable input into
/// the key, so a measured-rate install or a host failure/rejoin makes old
/// cache entries unreachable instead of stale.
struct SolveKey {
  std::vector<StreamId> streams;    // sorted, deduped
  std::vector<OperatorId> operators;
  /// (stream, must_serve) per demand, in demand order.
  std::vector<std::pair<StreamId, uint8_t>> demands;
  uint64_t rate_epoch = 0;  // Catalog::rate_epoch()
  uint64_t spec_epoch = 0;  // Cluster::spec_epoch()

  friend bool operator<(const SolveKey& a, const SolveKey& b) {
    return std::tie(a.rate_epoch, a.spec_epoch, a.streams, a.operators,
                    a.demands) < std::tie(b.rate_epoch, b.spec_epoch,
                                          b.streams, b.operators, b.demands);
  }
  friend bool operator==(const SolveKey& a, const SolveKey& b) {
    return a.rate_epoch == b.rate_epoch && a.spec_epoch == b.spec_epoch &&
           a.streams == b.streams && a.operators == b.operators &&
           a.demands == b.demands;
  }
};

/// Cross-round solve by-products for one SolveKey, reusable to warm-start
/// the next solve of the same structure:
///  * the root LP basis (and the presolve column signature it was
///    harvested under — reuse requires presolve to eliminate the same
///    columns, else the basis is discarded);
///  * pooled lazy cycle cuts (valid for every integral point of the
///    skeleton, so they can seed the next relaxation up front).
/// Immutable after construction; shared by pointer between the live
/// planner, speculative scratch planners and dispatch copies.
struct SolveArtifacts {
  std::vector<lp::BasisState> root_basis;
  std::vector<int> root_basis_columns;
  milp::CutPool cuts;
};

/// A bounded, thread-safe pool of built SqprMip models keyed by solve
/// structure. Checkout() hands out *exclusive* ownership (the entry is
/// removed from the pool), so a checked-out model can be Rebind()-ed and
/// solved without synchronisation; Return() puts it back for the next
/// round. Concurrent same-key checkouts simply miss and build fresh —
/// correct because a rebound cached model is bit-identical to a fresh
/// build, which also makes the whole cache performance-only: hit/miss
/// timing can never change a solve's result.
///
/// A checked-in model's base-deployment pointer may dangle (scratch
/// deployments die with their proposal); callers must Rebind() before
/// any other use, which is what re-targets the pointer.
class SqprSolveCache {
 public:
  explicit SqprSolveCache(size_t capacity = 16) : capacity_(capacity) {}

  SqprSolveCache(const SqprSolveCache&) = delete;
  SqprSolveCache& operator=(const SqprSolveCache&) = delete;

  /// Removes and returns the model cached for `key`; null on miss.
  std::unique_ptr<SqprMip> Checkout(const SolveKey& key);

  /// Re-inserts a model under `key`, evicting the least-recently-used
  /// entry past capacity.
  void Return(const SolveKey& key, std::unique_ptr<SqprMip> model);

  size_t size() const;

 private:
  struct Entry {
    std::unique_ptr<SqprMip> model;
    uint64_t last_used = 0;
  };

  mutable std::mutex mu_;
  const size_t capacity_;
  uint64_t tick_ = 0;
  std::map<SolveKey, Entry> entries_;
};

}  // namespace sqpr

#endif  // SQPR_PLANNER_SQPR_MODEL_CACHE_H_
