#include "channel/propagation.h"

#include <cmath>
#include <stdexcept>

#include "util/kernels.h"
#include "util/rng.h"

namespace wnet::channel {

namespace {

/// FSPL constant: 20log10(4*pi/c) = -147.55 dB with d in meters, f in Hz.
constexpr double kFsplConst = -147.55221677811664;

double fspl_db(double d_m, double f_hz) {
  // Clamp below 1 m: the far-field formula is meaningless at d -> 0 and a
  // floor keeps RSS finite for co-located template nodes.
  const double d = std::max(d_m, 1.0);
  return 20.0 * std::log10(d) + 20.0 * std::log10(f_hz) + kFsplConst;
}

}  // namespace

void PropagationModel::path_loss_batch(geom::Vec2 tx, const double* xs,
                                       const double* ys, int n, double* out) const {
  for (int i = 0; i < n; ++i) out[i] = path_loss_db(tx, {xs[i], ys[i]});
}

FreeSpaceModel::FreeSpaceModel(double frequency_hz) : frequency_hz_(frequency_hz) {
  if (frequency_hz <= 0) throw std::invalid_argument("FreeSpaceModel: frequency must be > 0");
}

double FreeSpaceModel::path_loss_db(geom::Vec2 tx, geom::Vec2 rx) const {
  return fspl_db(tx.dist(rx), frequency_hz_);
}

void FreeSpaceModel::path_loss_batch(geom::Vec2 tx, const double* xs,
                                     const double* ys, int n, double* out) const {
  // Distances via the batch kernel (bit-identical to Vec2::dist — squaring
  // absorbs the reversed subtraction direction exactly), log tail scalar.
  util::kernels::pair_distances(xs, ys, n, tx.x, tx.y, out);
  for (int i = 0; i < n; ++i) out[i] = fspl_db(out[i], frequency_hz_);
}

LogDistanceModel::LogDistanceModel(double frequency_hz, double exponent, double d0_m)
    : pl_d0_db_(fspl_db(d0_m, frequency_hz)), exponent_(exponent), d0_m_(d0_m) {
  if (frequency_hz <= 0) throw std::invalid_argument("LogDistanceModel: frequency must be > 0");
  if (exponent <= 0) throw std::invalid_argument("LogDistanceModel: exponent must be > 0");
  if (d0_m <= 0) throw std::invalid_argument("LogDistanceModel: d0 must be > 0");
}

double LogDistanceModel::path_loss_db(geom::Vec2 tx, geom::Vec2 rx) const {
  const double d = std::max(tx.dist(rx), d0_m_);
  return pl_d0_db_ + 10.0 * exponent_ * std::log10(d / d0_m_);
}

void LogDistanceModel::path_loss_batch(geom::Vec2 tx, const double* xs,
                                       const double* ys, int n, double* out) const {
  util::kernels::pair_distances(xs, ys, n, tx.x, tx.y, out);
  for (int i = 0; i < n; ++i) {
    const double d = std::max(out[i], d0_m_);
    out[i] = pl_d0_db_ + 10.0 * exponent_ * std::log10(d / d0_m_);
  }
}

MultiWallModel::MultiWallModel(double frequency_hz, double exponent,
                               const geom::FloorPlan& plan, double d0_m)
    : base_(frequency_hz, exponent, d0_m), plan_(&plan) {}

double MultiWallModel::path_loss_db(geom::Vec2 tx, geom::Vec2 rx) const {
  return base_.path_loss_db(tx, rx) + plan_->wall_loss_db(tx, rx);
}

void MultiWallModel::path_loss_batch(geom::Vec2 tx, const double* xs,
                                     const double* ys, int n, double* out) const {
  base_.path_loss_batch(tx, xs, ys, n, out);
  // wall_loss_db itself runs the wall-classify kernel over the plan.
  for (int i = 0; i < n; ++i) out[i] += plan_->wall_loss_db(tx, {xs[i], ys[i]});
}

namespace {

/// Position hash at millimeter resolution: links between the same physical
/// endpoints always map to the same fade, independent of float noise.
uint64_t point_key(geom::Vec2 p) {
  const auto qx = static_cast<uint64_t>(static_cast<int64_t>(std::llround(p.x * 1000.0)));
  const auto qy = static_cast<uint64_t>(static_cast<int64_t>(std::llround(p.y * 1000.0)));
  return util::splitmix64(qx ^ util::splitmix64(qy));
}

}  // namespace

ShadowingModel::ShadowingModel(const PropagationModel& base, double sigma_db, uint64_t seed)
    : base_(&base), sigma_db_(sigma_db), seed_(seed) {
  if (sigma_db < 0) throw std::invalid_argument("ShadowingModel: sigma must be >= 0");
}

double ShadowingModel::shadowing_db(geom::Vec2 tx, geom::Vec2 rx) const {
  if (sigma_db_ == 0.0) return 0.0;
  // Commutative endpoint combination makes the fade symmetric; Box-Muller
  // over splitmix-derived uniforms keeps it platform-deterministic (no
  // std::distribution implementation variance).
  const uint64_t a = point_key(tx);
  const uint64_t b = point_key(rx);
  const uint64_t pair = (a ^ b) + util::splitmix64(a + b);
  const uint64_t h1 = util::splitmix64(seed_ ^ pair);
  const uint64_t h2 = util::splitmix64(h1);
  constexpr double kScale = 1.0 / 9007199254740992.0;  // 2^-53
  const double u1 = (static_cast<double>(h1 >> 11) + 0.5) * kScale;  // (0, 1)
  const double u2 = static_cast<double>(h2 >> 11) * kScale;          // [0, 1)
  return sigma_db_ * std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double ShadowingModel::path_loss_db(geom::Vec2 tx, geom::Vec2 rx) const {
  return base_->path_loss_db(tx, rx) + shadowing_db(tx, rx);
}

void ShadowingModel::path_loss_batch(geom::Vec2 tx, const double* xs,
                                     const double* ys, int n, double* out) const {
  base_->path_loss_batch(tx, xs, ys, n, out);
  for (int i = 0; i < n; ++i) out[i] += shadowing_db(tx, {xs[i], ys[i]});
}

ItuIndoorModel::ItuIndoorModel(double frequency_hz, double power_coefficient)
    : fixed_term_db_(20.0 * std::log10(frequency_hz / 1e6) - 28.0), n_(power_coefficient) {
  if (frequency_hz <= 0) throw std::invalid_argument("ItuIndoorModel: frequency must be > 0");
  if (power_coefficient <= 0) {
    throw std::invalid_argument("ItuIndoorModel: power coefficient must be > 0");
  }
}

double ItuIndoorModel::path_loss_db(geom::Vec2 tx, geom::Vec2 rx) const {
  const double d = std::max(tx.dist(rx), 1.0);
  return fixed_term_db_ + n_ * std::log10(d);
}

void ItuIndoorModel::path_loss_batch(geom::Vec2 tx, const double* xs,
                                     const double* ys, int n, double* out) const {
  util::kernels::pair_distances(xs, ys, n, tx.x, tx.y, out);
  for (int i = 0; i < n; ++i) {
    const double d = std::max(out[i], 1.0);
    out[i] = fixed_term_db_ + n_ * std::log10(d);
  }
}

TwoRayModel::TwoRayModel(double frequency_hz, double tx_height_m, double rx_height_m)
    : fspl_(frequency_hz),
      heights_term_db_(20.0 * std::log10(tx_height_m * rx_height_m)),
      crossover_m_(4.0 * M_PI * tx_height_m * rx_height_m * frequency_hz / 299792458.0) {
  if (tx_height_m <= 0 || rx_height_m <= 0) {
    throw std::invalid_argument("TwoRayModel: antenna heights must be > 0");
  }
}

double TwoRayModel::path_loss_db(geom::Vec2 tx, geom::Vec2 rx) const {
  const double d = std::max(tx.dist(rx), 1.0);
  if (d <= crossover_m_) return fspl_.path_loss_db(tx, rx);
  return 40.0 * std::log10(d) - heights_term_db_;
}

}  // namespace wnet::channel
