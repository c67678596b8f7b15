#include "power/conversion.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace exadigit {

namespace {

/// Two doubles, one per lane, and a lane mask (all ones where true).
using f64x2 = double __attribute__((vector_size(16)));
using i64x2 = std::int64_t __attribute__((vector_size(16)));

f64x2 splat(double v) { return f64x2{v, v}; }

/// Whether `curve` is one the packed kernel evaluates as the scalar does.
bool lane_curve_ok(const PiecewiseLinearCurve& curve) {
  return curve.size() >= 2 && curve.extrapolation() == Extrapolation::kClamp;
}

}  // namespace

ConversionChain::LaneCurve::LaneCurve(const PiecewiseLinearCurve& curve) {
  if (curve.size() < 2) return;  // the kernel never evaluates it
  const std::vector<double>& xs = curve.xs();
  const std::vector<double>& ys = curve.ys();
  segments.reserve(xs.size() - 1);
  for (std::size_t lo = 0; lo + 1 < xs.size(); ++lo) {
    segments.push_back(LaneSegment{xs[lo], xs[lo + 1] - xs[lo], ys[lo], ys[lo + 1] - ys[lo]});
  }
  x_first = xs.front();
  x_last = xs.back();
  y_first = ys.front();
  y_last = ys.back();
}

ConversionChain::ConversionChain(const PowerChainConfig& config)
    : config_(config),
      sivoc_lanes_(config.sivoc_efficiency),
      rectifier_lanes_(config.rectifier_efficiency) {
  require(!config_.rectifier_efficiency.empty(), "rectifier efficiency curve missing");
  require(!config_.sivoc_efficiency.empty(), "sivoc efficiency curve missing");
  require(config_.rectifiers_per_group > 0, "rectifiers_per_group must be positive");
  require(config_.blades_per_group > 0, "blades_per_group must be positive");
  const bool dc_feed = config_.feed == PowerFeed::kDC380;
  packed_ = lane_curve_ok(config_.sivoc_efficiency) &&
            (dc_feed || (config_.load_sharing == LoadSharingPolicy::kSharedBus &&
                         lane_curve_ok(config_.rectifier_efficiency)));
  sivoc_capacity_w_ = 2.0 * config_.blades_per_group * config_.sivoc_rated_w;
}

int ConversionChain::staged_for(double rectifier_output_w, int available) const {
  if (config_.load_sharing == LoadSharingPolicy::kSharedBus) return available;
  // Smart staging (paper what-if 1): "rectifiers are dynamically staged on
  // as needed, so that rectifiers are always operating at their peak
  // efficiency regions" — pick the unit count whose per-unit load sits
  // highest on the efficiency curve, never exceeding nameplate when more
  // units could carry the load.
  int best = available;
  double best_eta = -1.0;
  for (int n = 1; n <= available; ++n) {
    const double per_unit = rectifier_output_w / n;
    if (per_unit > config_.rectifier_rated_w && n < available) continue;
    const double eta = config_.rectifier_efficiency(per_unit);
    if (eta > best_eta + 1e-12) {
      best_eta = eta;
      best = n;
    }
  }
  return best;
}

ConversionResult ConversionChain::convert(double group_output_w,
                                          int failed_rectifiers) const {
  require(group_output_w >= 0.0, "conversion requires non-negative output power");
  require(failed_rectifiers >= 0 && failed_rectifiers < config_.rectifiers_per_group,
          "failed rectifier count must leave at least one survivor");
  ConversionResult r;
  r.output_w = group_output_w;
  if (group_output_w == 0.0) {
    r.staged_rectifiers = config_.rectifiers_per_group - failed_rectifiers;
    return r;
  }

  // SIVOC stage: one converter per node; a group feeds 2 nodes per blade.
  const double sivoc_count = 2.0 * config_.blades_per_group;
  const double sivoc_frac =
      std::clamp(group_output_w / (sivoc_count * config_.sivoc_rated_w), 0.0, 1.5);
  r.eta_sivoc = config_.sivoc_efficiency(sivoc_frac);
  r.rectifier_output_w = group_output_w / r.eta_sivoc;
  r.sivoc_loss_w = r.rectifier_output_w - group_output_w;

  // Rectifier stage (or direct DC feed).
  const int available = config_.rectifiers_per_group - failed_rectifiers;
  if (config_.feed == PowerFeed::kDC380) {
    r.eta_rectifier = config_.dc_feed_efficiency;
    r.staged_rectifiers = 0;
  } else {
    r.staged_rectifiers = staged_for(r.rectifier_output_w, available);
    const double per_unit_w = r.rectifier_output_w / r.staged_rectifiers;
    r.overloaded = per_unit_w > config_.rectifier_rated_w;
    r.eta_rectifier = config_.rectifier_efficiency(per_unit_w);
  }
  r.input_w = r.rectifier_output_w / r.eta_rectifier;
  r.rectifier_loss_w = r.input_w - r.rectifier_output_w;
  r.eta_chain = r.eta_rectifier * r.eta_sivoc;
  return r;
}

void ConversionChain::convert_batch(std::span<const double> group_outputs_w,
                                    std::span<GroupConversion> out) const {
  require(out.size() == group_outputs_w.size(), "conversion batch sizes differ");
  const std::size_t n = group_outputs_w.size();
  const bool dc_feed = config_.feed == PowerFeed::kDC380;
  // The curve at `x` per lane, as PiecewiseLinearCurve::operator()
  // computes it for a clamped curve of two knots or more.
  auto curve_at = [](const LaneCurve& c, f64x2 x) {
    // The segment is the count of interior knots <= x: the scan's stop.
    i64x2 segment = {0, 0};
    for (std::size_t k = 1; k < c.segments.size(); ++k) {
      segment -= splat(c.segments[k].x_lo) <= x;
    }
    const LaneSegment& a = c.segments[static_cast<std::size_t>(segment[0])];
    const LaneSegment& b = c.segments[static_cast<std::size_t>(segment[1])];
    const f64x2 t = (x - f64x2{a.x_lo, b.x_lo}) / f64x2{a.dx, b.dx};
    const f64x2 y = f64x2{a.y_lo, b.y_lo} + t * f64x2{a.dy, b.dy};
    return x <= splat(c.x_first) ? splat(c.y_first)
                                 : (x >= splat(c.x_last) ? splat(c.y_last) : y);
  };
  // exadigit-hot-begin(conversion-lanes)
  for (std::size_t i = 0; i < n; i += 2) {
    const bool pair = i + 1 < n;  // an odd tail repeats its load in lane 1
    const double g0 = group_outputs_w[i];
    const double g1 = pair ? group_outputs_w[i + 1] : g0;
    if (!packed_ || !(g0 >= 0.0 && g1 >= 0.0)) {
      out[i] = GroupConversion::of(convert(g0));
      if (pair) out[i + 1] = GroupConversion::of(convert(g1));
      continue;
    }
    const f64x2 g = {g0, g1};
    // convert(): the SIVOC stage, then the rectifier stage (or DC feed).
    f64x2 frac = g / splat(sivoc_capacity_w_);
    frac = frac < splat(0.0) ? splat(0.0) : (splat(1.5) < frac ? splat(1.5) : frac);
    const f64x2 eta_s = curve_at(sivoc_lanes_, frac);
    const f64x2 rect_out = g / eta_s;
    const f64x2 sivoc_loss = rect_out - g;
    f64x2 eta_r = splat(config_.dc_feed_efficiency);
    i64x2 overloaded = {0, 0};
    if (!dc_feed) {
      const f64x2 per_unit = rect_out / splat(static_cast<double>(config_.rectifiers_per_group));
      overloaded = per_unit > splat(config_.rectifier_rated_w);
      eta_r = curve_at(rectifier_lanes_, per_unit);
    }
    const f64x2 input = rect_out / eta_r;
    const f64x2 rect_loss = input - rect_out;
    // A zero load is lossless: convert() returns before either stage.
    const i64x2 zero = g == splat(0.0);
    const f64x2 none = splat(0.0);
    const f64x2 input_w = zero ? none : input;
    const f64x2 rect_loss_w = zero ? none : rect_loss;
    const f64x2 sivoc_loss_w = zero ? none : sivoc_loss;
    overloaded = zero ? i64x2{0, 0} : overloaded;
    out[i] = GroupConversion{g0, input_w[0], rect_loss_w[0], sivoc_loss_w[0], overloaded[0] != 0};
    if (pair) {
      out[i + 1] =
          GroupConversion{g1, input_w[1], rect_loss_w[1], sivoc_loss_w[1], overloaded[1] != 0};
    }
  }
  // exadigit-hot-end
}

double ConversionChain::system_efficiency(double group_output_w) const {
  return convert(group_output_w).eta_chain;
}

double ConversionChain::input_power_w(double group_output_w) const {
  return convert(group_output_w).input_w;
}

}  // namespace exadigit
