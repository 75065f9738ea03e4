#ifndef SQPR_TELEMETRY_RATE_MODEL_H_
#define SQPR_TELEMETRY_RATE_MODEL_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "model/ids.h"

namespace sqpr {

/// Ground-truth trajectory of one base stream's data rate — what the
/// stream *actually* does over virtual time, as opposed to the catalog's
/// estimate. Trajectories are what closed-loop traces script instead of
/// hand-authored measurements (§IV-C): the service's own periodic
/// measurements observe the trajectory, detect drift against the
/// estimates and trigger re-planning without any scripted
/// kMonitorReport events.
///
/// All times are relative to the directive's install time (the event
/// timestamp when it comes from a trace), so a saved trace replays
/// identically wherever it lands on the virtual clock.
struct RateTrajectory {
  enum class Kind : uint8_t {
    /// rate(t) = base_rate_mbps.
    kConstant,
    /// rate(t) = base before step_at_ms, base * step_factor after.
    kStep,
    /// Bounded multiplicative random walk: every period_ms the factor is
    /// multiplied by a seeded draw from [1 - volatility, 1 + volatility]
    /// and clamped to [min_factor, max_factor]; rate(t) = base * factor.
    kRandomWalk,
    /// Diurnal-style oscillation:
    /// rate(t) = base * (1 + amplitude * sin(2*pi*t/period_ms + phase)).
    kPeriodic,
  };

  Kind kind = Kind::kConstant;
  StreamId stream = kInvalidStream;
  /// Baseline rate in Mbps the trajectory shapes. Traces carry it
  /// explicitly (usually the catalog estimate at authoring time) so a
  /// saved trace is self-contained: replays do not depend on what the
  /// closed loop has since installed into the catalog. Must be > 0.
  double base_rate_mbps = 0.0;

  // kStep only.
  int64_t step_at_ms = 0;
  double step_factor = 1.0;

  // kRandomWalk and kPeriodic: the walk step / oscillation period.
  int64_t period_ms = 1000;

  // kRandomWalk only.
  double volatility = 0.1;
  double min_factor = 0.25;
  double max_factor = 4.0;

  // kPeriodic only. Amplitude is clamped to [0, 0.95] at install so the
  // true rate stays positive (UpdateBaseRate rejects rates <= 0).
  double amplitude = 0.5;
  double phase = 0.0;
};

const char* RateTrajectoryKindName(RateTrajectory::Kind kind);

/// The ground truth of the closed loop: a seeded, deterministic
/// collection of per-stream rate trajectories advanced on the virtual
/// clock. Every evaluation is a pure function of (seed, installed
/// trajectories, query time), so replays are bit-for-bit reproducible —
/// the random-walk state advances with virtual time only, never with
/// wall time or call count.
class RateModel {
 public:
  explicit RateModel(uint64_t seed = 0) : seed_(seed) {}

  /// Installs (or replaces) the trajectory for its stream with time
  /// origin `now_ms`. Out-of-range parameters are clamped; a
  /// non-positive base rate is rejected. Replacing a random walk resets
  /// its state — the walk stream is derived from (model seed, stream),
  /// so install *time* does not perturb other streams' draws.
  Status Install(RateTrajectory trajectory, int64_t now_ms);

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  bool Models(StreamId s) const { return entries_.count(s) > 0; }

  /// True rate of one modelled stream at t_ms. Random-walk state only
  /// advances forward: querying a walk at an earlier time than a
  /// previous query returns the state as of the later time (the service
  /// only ever moves forward on the virtual clock).
  Result<double> RateAt(StreamId s, int64_t t_ms);

  /// True rates of every modelled stream at t_ms.
  std::map<StreamId, double> RatesAt(int64_t t_ms);

  /// Checkpoint support (src/service/checkpoint.h): the installed
  /// trajectories and their install times, in stream-id order. Walk
  /// state is deliberately *not* exported — it is a pure function of
  /// (model seed, stream, install time, latest query time), the walk
  /// stream is seeded from (seed, stream) alone, and the service only
  /// queries forward in virtual time; so re-Install()ing these pairs
  /// into a model with the same seed reproduces every subsequent
  /// evaluation bit-for-bit.
  std::vector<std::pair<RateTrajectory, int64_t>> ExportTrajectories() const {
    std::vector<std::pair<RateTrajectory, int64_t>> out;
    out.reserve(entries_.size());
    for (const auto& [s, entry] : entries_) {
      out.emplace_back(entry.trajectory, entry.install_ms);
    }
    return out;
  }

 private:
  struct Entry {
    RateTrajectory trajectory;
    int64_t install_ms = 0;
    Rng walk_rng{0};
    int64_t walk_steps = 0;
    double walk_factor = 1.0;
  };

  double Eval(Entry* entry, int64_t t_ms);

  uint64_t seed_;
  std::map<StreamId, Entry> entries_;
};

}  // namespace sqpr

#endif  // SQPR_TELEMETRY_RATE_MODEL_H_
