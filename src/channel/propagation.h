#pragma once

#include <cstdint>
#include <memory>

#include "geometry/floorplan.h"
#include "geometry/vec2.h"

namespace wnet::channel {

/// A propagation model predicts path loss (dB, positive) between two points.
/// The paper's tool supports several models "with different complexity" and
/// uses the multi-wall model (log-distance + per-wall attenuation) for its
/// experiments; all three are provided here.
class PropagationModel {
 public:
  virtual ~PropagationModel() = default;

  /// Path loss in dB (positive; larger = worse) from `tx` to `rx`.
  [[nodiscard]] virtual double path_loss_db(geom::Vec2 tx, geom::Vec2 rx) const = 0;

  /// Batch evaluation: out[i] = path loss from `tx` to (xs[i], ys[i]).
  /// Bit-identical to calling path_loss_db per point — overrides route the
  /// distance computation through the pair-distance kernel (whose
  /// subtract/square/sum/sqrt sequence reproduces Vec2::dist exactly) and
  /// keep the transcendental tail scalar per point. The base implementation
  /// is a plain loop for models without a vectorized form.
  virtual void path_loss_batch(geom::Vec2 tx, const double* xs, const double* ys,
                               int n, double* out) const;
};

/// Free-space path loss: FSPL(d) = 20log10(d) + 20log10(f) - 147.55 dB.
class FreeSpaceModel final : public PropagationModel {
 public:
  /// `frequency_hz` e.g. 2.4e9 for the paper's 2.4 GHz networks.
  explicit FreeSpaceModel(double frequency_hz);

  [[nodiscard]] double path_loss_db(geom::Vec2 tx, geom::Vec2 rx) const override;

  void path_loss_batch(geom::Vec2 tx, const double* xs, const double* ys, int n,
                       double* out) const override;

  [[nodiscard]] double frequency_hz() const { return frequency_hz_; }

 private:
  double frequency_hz_;
};

/// Classical log-distance model:
///   PL(d) = PL(d0) + 10 n log10(d / d0)
/// with PL(d0) anchored to free space at the reference distance d0.
class LogDistanceModel final : public PropagationModel {
 public:
  LogDistanceModel(double frequency_hz, double exponent, double d0_m = 1.0);

  [[nodiscard]] double path_loss_db(geom::Vec2 tx, geom::Vec2 rx) const override;

  void path_loss_batch(geom::Vec2 tx, const double* xs, const double* ys, int n,
                       double* out) const override;

  [[nodiscard]] double exponent() const { return exponent_; }

 private:
  double pl_d0_db_;
  double exponent_;
  double d0_m_;
};

/// Multi-wall model: log-distance plus the summed attenuation of every wall
/// crossed by the straight-line link (COST-231 style). This is the model
/// used for all of the paper's experiments.
class MultiWallModel final : public PropagationModel {
 public:
  /// Keeps a reference to `plan`; the floor plan must outlive the model.
  MultiWallModel(double frequency_hz, double exponent, const geom::FloorPlan& plan,
                 double d0_m = 1.0);

  [[nodiscard]] double path_loss_db(geom::Vec2 tx, geom::Vec2 rx) const override;

  void path_loss_batch(geom::Vec2 tx, const double* xs, const double* ys, int n,
                       double* out) const override;

 private:
  LogDistanceModel base_;
  const geom::FloorPlan* plan_;
};

/// ITU-R P.1238 indoor model (single floor):
///   PL = 20 log10(f_MHz) + N log10(d) - 28 dB,
/// with the distance-power coefficient N ~ 30 for 2.4 GHz offices. One of
/// the "several models with different complexity" the paper's tool offers.
class ItuIndoorModel final : public PropagationModel {
 public:
  explicit ItuIndoorModel(double frequency_hz, double power_coefficient = 30.0);

  [[nodiscard]] double path_loss_db(geom::Vec2 tx, geom::Vec2 rx) const override;

  void path_loss_batch(geom::Vec2 tx, const double* xs, const double* ys, int n,
                       double* out) const override;

 private:
  double fixed_term_db_;
  double n_;
};

/// Log-normal shadowing decorator: adds a zero-mean Gaussian offset
/// (standard deviation `sigma_db`) to the base model's path loss. The
/// offset is a pure function of (seed, endpoint pair) — symmetric in tx/rx
/// and stable across calls — so one ShadowingModel instance is one frozen
/// fading realization and Monte-Carlo campaigns drawing many instances
/// with derived seeds are reproducible bit-for-bit.
class ShadowingModel final : public PropagationModel {
 public:
  /// Keeps a reference to `base`; it must outlive the decorator.
  ShadowingModel(const PropagationModel& base, double sigma_db, uint64_t seed);

  [[nodiscard]] double path_loss_db(geom::Vec2 tx, geom::Vec2 rx) const override;

  void path_loss_batch(geom::Vec2 tx, const double* xs, const double* ys, int n,
                       double* out) const override;

  /// The shadowing offset alone (dB, positive = deeper fade).
  [[nodiscard]] double shadowing_db(geom::Vec2 tx, geom::Vec2 rx) const;

  [[nodiscard]] double sigma_db() const { return sigma_db_; }

 private:
  const PropagationModel* base_;
  double sigma_db_;
  uint64_t seed_;
};

/// Two-ray ground-reflection model: free space up to the crossover distance
/// d_c = 4 pi h_t h_r / lambda, then PL = 40 log10(d) - 20 log10(h_t h_r)
/// (the classic d^4 regime). Relevant for outdoor/fixed-height deployments.
class TwoRayModel final : public PropagationModel {
 public:
  TwoRayModel(double frequency_hz, double tx_height_m = 1.5, double rx_height_m = 1.5);

  [[nodiscard]] double path_loss_db(geom::Vec2 tx, geom::Vec2 rx) const override;

  [[nodiscard]] double crossover_distance_m() const { return crossover_m_; }

 private:
  FreeSpaceModel fspl_;
  double heights_term_db_;
  double crossover_m_;
};

}  // namespace wnet::channel
