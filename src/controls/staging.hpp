#pragma once

/// @file staging.hpp
/// Discrete equipment staging with hysteresis and anti-short-cycling.
///
/// The central energy plant stages pumps, heat exchangers, and cooling
/// towers up/down (paper Section III-C5): HTWPs stage on the relative speed
/// of the running pumps, CTWPs on header pressure in concert with speed,
/// and cooling towers on header pressure plus the gradient of the HTW
/// supply temperature. These controllers share a pattern — a scalar signal,
/// up/down thresholds, a dwell time to prevent short cycling — captured by
/// SpeedStagingController and BandStagingController.

#include <cstddef>

namespace exadigit {

/// Stages N identical units based on how hard the running ones are working
/// (e.g. relative pump speed): above `up_threshold` for `min_interval_s`
/// stages one on; below `down_threshold` stages one off.
class SpeedStagingController {
 public:
  struct Config {
    int min_units = 1;
    int max_units = 4;
    double up_threshold = 0.92;
    double down_threshold = 0.45;
    double min_interval_s = 300.0;  ///< dwell between staging actions
  };

  SpeedStagingController(const Config& config, int initial_units);

  /// Advances by `dt` with the current load signal; returns staged count.
  int update(double signal, double dt);

  [[nodiscard]] int staged() const { return staged_; }
  void reset(int units);

 private:
  Config config_;
  int staged_;
  double since_last_change_s_ = 1e18;  ///< allow an immediate first action
};

/// Stages units on a process-variable band: stage up when `value` exceeds
/// setpoint + band, down when below setpoint - band. With the gradient rule
/// a hot value that is falling faster than kTrendDeadband holds the count,
/// and so does a cold value rising faster than it. Used for cooling-tower
/// cells on HTW supply temperature.
class BandStagingController {
 public:
  /// A trend slower than this (value units per second) is no trend. A plant
  /// settling slowly toward a hot steady state changes its HTWS by very
  /// little per step, and numerical noise can flip the sign of that change;
  /// staging must not follow it. 1e-5 K/s is 0.006 K over a 600 s staging
  /// interval, about 20 times the step-to-step HTWS noise an iterative
  /// hydraulic solve with a 1e-6 tolerance leaves.
  static constexpr double kTrendDeadband = 1e-5;

  struct Config {
    int min_units = 1;
    int max_units = 20;
    double band = 1.5;              ///< half-width around the setpoint
    double min_interval_s = 600.0;
    /// Hold the count while the signal moves back toward the band faster
    /// than kTrendDeadband (paper: CTs stage on header pressure *and* the
    /// HTWS gradient).
    bool use_gradient = true;
  };

  BandStagingController(const Config& config, int initial_units);

  /// Advances by `dt`; `value` is the process variable, `setpoint` its
  /// target. Returns the staged unit count.
  int update(double value, double setpoint, double dt);

  [[nodiscard]] int staged() const { return staged_; }
  void reset(int units);

 private:
  Config config_;
  int staged_;
  double since_last_change_s_ = 1e18;
  double last_value_ = 0.0;
  bool primed_ = false;
};

}  // namespace exadigit
