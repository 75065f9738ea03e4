#ifndef SQPR_TELEMETRY_MEASUREMENT_ENGINE_H_
#define SQPR_TELEMETRY_MEASUREMENT_ENGINE_H_

#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "model/catalog.h"
#include "plan/deployment.h"
#include "sim/cluster_sim.h"
#include "telemetry/rate_model.h"

namespace sqpr {

/// How a self-measurement observes the committed deployment.
enum class MeasureMode : uint8_t {
  /// Ground truth: execute the deployment with real engine operators
  /// via ClusterSim under the rate model's true rates. Pays a full
  /// (scaled-down) simulation per measuring tick on the loop thread.
  kEngine,
  /// Analytic: derive the same observables from the committed
  /// deployment's ledgers — true base rates straight from the rate
  /// model, per-host CPU as each placed operator's committed cost
  /// scaled by the truth/estimate ratio of its input rates (the §II-B
  /// cost model is linear in the input rates, so the scaling is exact
  /// in the model). No simulation: O(placed operators) per measuring
  /// tick, orders of magnitude cheaper for large deployments.
  ///
  /// Equivalence contract vs kEngine at noise = 0: identical
  /// drifted-base-stream decisions away from tuple-quantisation error
  /// (the sim realises injection in whole tuples), and identical
  /// shortage decisions wherever realised utilisation tracks the linear
  /// model (an engine join's realised output rate is stochastic around
  /// it). tests/telemetry_test.cc pins the contract.
  kAnalytic,
};

const char* MeasureModeName(MeasureMode mode);

/// Configuration of the §IV-C self-measurement loop.
struct TelemetryOptions {
  /// Engine (simulate) or analytic (ledger-derived) measurements.
  MeasureMode mode = MeasureMode::kEngine;
  /// Self-measurement fires every `measure_period` kTick events (>= 1).
  int measure_period = 4;
  /// EWMA smoothing factor over successive measurements of the same
  /// quantity: smoothed = alpha * sample + (1 - alpha) * previous.
  /// 1.0 (default) = no smoothing, raw samples.
  double ewma_alpha = 1.0;
  /// Relative measurement noise: every sample (rate and CPU alike) is
  /// scaled by a seeded uniform factor in [1 - noise, 1 + noise] before
  /// smoothing. 0 (default) = exact measurements.
  double noise = 0.0;
  /// Seeds both the rate model's random-walk streams and the
  /// measurement-noise draws; replays with the same seed measure
  /// identically.
  uint64_t seed = 0;
  /// Per-measurement ClusterSim run over the committed deployment. The
  /// default is deliberately cheap (short horizon, scaled-down rates):
  /// a measurement happens on the loop thread at every measuring tick.
  SimConfig sim = DefaultSimConfig();

  static SimConfig DefaultSimConfig() {
    SimConfig config;
    config.rate_scale = 0.02;
    config.duration_ms = 500;
    config.window_ms = 500;
    return config;
  }
};

/// One §IV-C self-measurement: what the DISSP hosts would report after
/// sampling a reporting period under the current true rates.
struct Measurement {
  int64_t time_ms = 0;
  /// 0-based measurement sequence number (the sim-seed index): ties a
  /// measuring tick to its audit-journal record — measurements happen at
  /// deterministic logical points, so the index is replay-invariant.
  int64_t index = 0;
  /// Observed Mbps per base stream (noisy, EWMA-smoothed): realised
  /// injection rates from the simulation where the committed deployment
  /// uses the stream, the rate model's ground truth otherwise.
  std::map<StreamId, double> measured_base_rates;
  /// Per-host CPU as a fraction of budget, from executing the committed
  /// deployment under the true rates (noisy, EWMA-smoothed).
  std::vector<double> cpu_utilization;
  /// The raw simulation report the measurement was distilled from.
  /// Default-initialised (empty) in analytic mode, which runs no
  /// simulation.
  SimReport raw;
};

/// Serializable state of a MeasurementEngine (src/service/checkpoint.h).
/// The noise generator's raw words are carried because its draw count is
/// data-dependent (one draw per shaped sample, and the sample set
/// depends on the deployment) — unlike the rate model's walks it cannot
/// be replayed positionally. The rate model itself round-trips as its
/// trajectory directives; see RateModel::ExportTrajectories.
struct TelemetryCheckpoint {
  int64_t measurements = 0;
  std::array<uint64_t, 4> noise_rng_state = {0, 0, 0, 0};
  std::map<StreamId, double> rate_ewma;
  std::vector<double> cpu_ewma;
  std::vector<std::pair<RateTrajectory, int64_t>> trajectories;
};

/// The measurement half of the paper's closed control loop (§IV-C):
/// every measure_period ticks the planning service asks this engine to
/// measure its own committed deployment. The engine evaluates the
/// ground-truth RateModel at the virtual time, executes the deployment
/// under those rates via ClusterSim (base-rate overrides: sources inject
/// at the *true* rates while per-tuple costs stay derived from the
/// catalog *estimates* — exactly the gap a measurement should expose),
/// then applies seeded noise and EWMA smoothing. The output feeds the
/// same ResourceMonitor::Analyze + RunDriftCycle path a scripted
/// kMonitorReport event takes.
///
/// Measure() reads the committed deployment and the catalog, and is
/// only called at the monitor barrier — after the pending re-planning
/// round has committed. Determinism: measurements happen at
/// deterministic logical points, the sim is seeded per measurement
/// index, and noise draws advance once per sample in a fixed order, so
/// the whole closed loop replays bit for bit.
class MeasurementEngine {
 public:
  MeasurementEngine(const Catalog* catalog, TelemetryOptions options);

  RateModel& rate_model() { return rate_model_; }
  const RateModel& rate_model() const { return rate_model_; }
  const TelemetryOptions& options() const { return options_; }
  int64_t measurements() const { return measurements_; }

  /// Performs one self-measurement of `deployment` at virtual time
  /// `now_ms`. Advances the rate model (random walks), the noise stream
  /// and the EWMA state.
  Result<Measurement> Measure(const Deployment& deployment, int64_t now_ms);

  /// Checkpoint support (src/service/checkpoint.h).
  TelemetryCheckpoint ExportState() const;
  /// Reinstates exported state into an engine built with the *same*
  /// TelemetryOptions (in particular the same seed — the rate model's
  /// walk streams are derived from it and are not serialized). Returns
  /// the first trajectory re-install error, if any.
  Status RestoreState(const TelemetryCheckpoint& checkpoint);

 private:
  double Shape(double sample, double* ewma_state, bool first);

  /// Engine path: execute the deployment via ClusterSim under `truth`.
  Result<Measurement> MeasureEngine(const Deployment& deployment,
                                    int64_t now_ms,
                                    const std::map<StreamId, double>& truth);
  /// Analytic path: ledgers scaled by truth/estimate ratios.
  Measurement MeasureAnalytic(const Deployment& deployment, int64_t now_ms,
                              const std::map<StreamId, double>& truth);
  /// Applies noise + EWMA to raw rate/CPU samples in the fixed
  /// deterministic order both paths share.
  void ShapeMeasurement(const std::map<StreamId, double>& rate_samples,
                        const std::vector<double>& cpu_samples,
                        Measurement* m);

  const Catalog* catalog_;
  TelemetryOptions options_;
  RateModel rate_model_;
  Rng noise_rng_;
  int64_t measurements_ = 0;
  /// EWMA state, keyed like the outputs.
  std::map<StreamId, double> rate_ewma_;
  std::vector<double> cpu_ewma_;
};

}  // namespace sqpr

#endif  // SQPR_TELEMETRY_MEASUREMENT_ENGINE_H_
