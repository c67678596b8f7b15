#include "controls/staging.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace exadigit {

SpeedStagingController::SpeedStagingController(const Config& config, int initial_units)
    : config_(config), staged_(initial_units) {
  require(config_.min_units >= 0, "staging min_units must be non-negative");
  require(config_.max_units >= config_.min_units, "staging max_units < min_units");
  require(config_.up_threshold > config_.down_threshold,
          "staging up_threshold must exceed down_threshold");
  require(initial_units >= config_.min_units && initial_units <= config_.max_units,
          "staging initial unit count out of range");
}

int SpeedStagingController::update(double signal, double dt) {
  require(dt > 0.0, "staging update requires dt > 0");
  since_last_change_s_ += dt;
  if (since_last_change_s_ < config_.min_interval_s) return staged_;
  if (signal > config_.up_threshold && staged_ < config_.max_units) {
    ++staged_;
    since_last_change_s_ = 0.0;
  } else if (signal < config_.down_threshold && staged_ > config_.min_units) {
    --staged_;
    since_last_change_s_ = 0.0;
  }
  return staged_;
}

void SpeedStagingController::reset(int units) {
  staged_ = std::clamp(units, config_.min_units, config_.max_units);
  since_last_change_s_ = 1e18;
}

BandStagingController::BandStagingController(const Config& config, int initial_units)
    : config_(config), staged_(initial_units) {
  require(config_.min_units >= 0, "staging min_units must be non-negative");
  require(config_.max_units >= config_.min_units, "staging max_units < min_units");
  require(config_.band > 0.0, "staging band must be positive");
  require(initial_units >= config_.min_units && initial_units <= config_.max_units,
          "staging initial unit count out of range");
}

int BandStagingController::update(double value, double setpoint, double dt) {
  require(dt > 0.0, "staging update requires dt > 0");
  const bool was_primed = primed_;
  const double gradient = primed_ ? (value - last_value_) / dt : 0.0;
  last_value_ = value;
  primed_ = true;
  since_last_change_s_ += dt;
  // The first sample only primes the gradient estimate; acting on it would
  // stage equipment with no trend information.
  if (!was_primed) return staged_;
  if (since_last_change_s_ < config_.min_interval_s) return staged_;

  const bool hot = value > setpoint + config_.band;
  const bool cold = value < setpoint - config_.band;
  // Stage up unless the value already falls faster than the deadband, and
  // down unless it already rises faster than it.
  const bool rising_ok = !config_.use_gradient || gradient >= -kTrendDeadband;
  const bool falling_ok = !config_.use_gradient || gradient <= kTrendDeadband;
  if (hot && rising_ok && staged_ < config_.max_units) {
    ++staged_;
    since_last_change_s_ = 0.0;
  } else if (cold && falling_ok && staged_ > config_.min_units) {
    --staged_;
    since_last_change_s_ = 0.0;
  }
  return staged_;
}

void BandStagingController::reset(int units) {
  staged_ = std::clamp(units, config_.min_units, config_.max_units);
  since_last_change_s_ = 1e18;
  primed_ = false;
}

}  // namespace exadigit
