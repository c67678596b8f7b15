// ConversionChain::convert_batch against the scalar reference convert():
// every GroupConversion field must carry convert()'s bits.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "power/conversion.hpp"

namespace exadigit {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

PowerChainConfig frontier_chain() { return frontier_system_config().power; }

/// The SIVOC stage's full-load group output (the load at a fraction of 1).
double sivoc_capacity_w(const PowerChainConfig& cfg) {
  return 2.0 * cfg.blades_per_group * cfg.sivoc_rated_w;
}

/// Field-by-field byte comparison (the struct's padding is not compared).
bool same_bits(const GroupConversion& a, const GroupConversion& b) {
  return std::memcmp(&a.output_w, &b.output_w, sizeof a.output_w) == 0 &&
         std::memcmp(&a.input_w, &b.input_w, sizeof a.input_w) == 0 &&
         std::memcmp(&a.rectifier_loss_w, &b.rectifier_loss_w, sizeof a.rectifier_loss_w) ==
             0 &&
         std::memcmp(&a.sivoc_loss_w, &b.sivoc_loss_w, sizeof a.sivoc_loss_w) == 0 &&
         std::memcmp(&a.overloaded, &b.overloaded, sizeof a.overloaded) == 0;
}

/// Converts `loads` in one batch and expects every slot to equal
/// convert() of its load, bit for bit.
void expect_batch_matches(const ConversionChain& chain, const std::vector<double>& loads) {
  std::vector<GroupConversion> batch(loads.size());
  chain.convert_batch(loads, batch);
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const GroupConversion want = GroupConversion::of(chain.convert(loads[i]));
    EXPECT_TRUE(same_bits(batch[i], want))
        << "load " << loads[i] << " (slot " << i << " of " << loads.size() << "): input "
        << batch[i].input_w << " vs " << want.input_w << ", rectifier loss "
        << batch[i].rectifier_loss_w << " vs " << want.rectifier_loss_w << ", sivoc loss "
        << batch[i].sivoc_loss_w << " vs " << want.sivoc_loss_w;
  }
}

/// `x` and its `ulps` neighbours either side.
void add_with_neighbours(std::vector<double>& out, double x, int ulps = 1) {
  double below = x;
  double above = x;
  out.push_back(x);
  for (int i = 0; i < ulps; ++i) {
    below = std::nextafter(below, -kInf);
    above = std::nextafter(above, kInf);
    if (below >= 0.0) out.push_back(below);
    out.push_back(above);
  }
}

/// The smallest group load whose per-rectifier output reaches `per_unit_w`
/// on a shared bus (bisection over convert()).
double group_load_at_rectifier_knot(const ConversionChain& chain, double per_unit_w) {
  const double units = chain.config().rectifiers_per_group;
  double lo = 0.0;
  double hi = 4.0 * units * per_unit_w + 1.0;
  for (int i = 0; i < 200 && std::nextafter(lo, kInf) < hi; ++i) {
    const double mid = lo + (hi - lo) / 2.0;
    if (chain.convert(mid).rectifier_output_w / units >= per_unit_w) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

/// Loads at and around every knot of both curves, the clamps, the
/// overload threshold and the extremes a group load can take.
std::vector<double> edge_loads(const ConversionChain& chain) {
  const PowerChainConfig& cfg = chain.config();
  const double capacity = sivoc_capacity_w(cfg);
  std::vector<double> loads = {0.0,
                               -0.0,
                               std::numeric_limits<double>::denorm_min(),
                               std::numeric_limits<double>::min(),
                               1e-300,
                               1.0,
                               1e6,
                               1e300,
                               std::numeric_limits<double>::max(),
                               kInf};
  for (const double frac : cfg.sivoc_efficiency.xs()) {
    add_with_neighbours(loads, frac * capacity, 2);
  }
  add_with_neighbours(loads, 1.5 * capacity, 2);  // the fraction's upper clamp
  for (const double per_unit : cfg.rectifier_efficiency.xs()) {
    if (per_unit > 0.0) {
      add_with_neighbours(loads, group_load_at_rectifier_knot(chain, per_unit), 2);
    }
  }
  add_with_neighbours(loads, group_load_at_rectifier_knot(chain, cfg.rectifier_rated_w), 2);
  return loads;
}

std::vector<double> seeded_loads(std::size_t count, std::uint64_t seed, double hi) {
  Rng rng(seed);
  std::vector<double> loads(count);
  for (double& load : loads) load = rng.uniform(0.0, hi);
  return loads;
}

TEST(ConversionBatchTest, MatchesConvertOnSeededLoads) {
  ConversionChain chain(frontier_chain());
  // Up to 1.8 x the SIVOC capacity: past the fraction clamp and the
  // rectifier curve's last knot.
  const double hi = 1.8 * sivoc_capacity_w(chain.config());
  expect_batch_matches(chain, seeded_loads(100000, 20240118, hi));
}

TEST(ConversionBatchTest, MatchesConvertAtKnotsClampsAndExtremes) {
  ConversionChain chain(frontier_chain());
  const std::vector<double> loads = edge_loads(chain);
  expect_batch_matches(chain, loads);
  // Each load alone as well: lane 1 then repeats lane 0.
  for (const double load : loads) expect_batch_matches(chain, {load});
}

TEST(ConversionBatchTest, CoversOverloadAndTheClampedFraction) {
  ConversionChain chain(frontier_chain());
  const PowerChainConfig& cfg = chain.config();
  const double capacity = sivoc_capacity_w(cfg);
  std::vector<double> loads;
  for (double load = 0.0; load <= 2.0 * capacity; load += capacity / 64.0) {
    loads.push_back(load);
  }
  std::vector<GroupConversion> batch(loads.size());
  chain.convert_batch(loads, batch);
  bool overloaded = false;
  bool past_clamp = false;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    overloaded = overloaded || batch[i].overloaded;
    past_clamp = past_clamp || loads[i] > 1.5 * capacity;
  }
  EXPECT_TRUE(overloaded);
  EXPECT_TRUE(past_clamp);
  expect_batch_matches(chain, loads);
}

TEST(ConversionBatchTest, MatchesConvertAtEveryBatchLength) {
  ConversionChain chain(frontier_chain());
  const std::vector<double> pool = seeded_loads(592, 7, 1.6 * sivoc_capacity_w(chain.config()));
  for (const std::size_t length : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                   std::size_t{3}, std::size_t{591}, std::size_t{592}}) {
    expect_batch_matches(chain, std::vector<double>(pool.begin(), pool.begin() + length));
  }
}

TEST(ConversionBatchTest, RejectedLoadsThrowTheScalarError) {
  ConversionChain chain(frontier_chain());
  for (const double bad : {-1.0, -kInf, std::numeric_limits<double>::quiet_NaN()}) {
    std::string want;
    try {
      (void)chain.convert(bad);
    } catch (const ConfigError& e) {
      want = e.what();
    }
    ASSERT_FALSE(want.empty());
    // In either lane of a pair, and alone.
    for (const std::vector<double>& loads :
         {std::vector<double>{bad}, std::vector<double>{1000.0, bad},
          std::vector<double>{bad, 1000.0, 2000.0}}) {
      std::vector<GroupConversion> out(loads.size());
      try {
        chain.convert_batch(loads, out);
        ADD_FAILURE() << "load " << bad << " was accepted";
      } catch (const ConfigError& e) {
        EXPECT_EQ(std::string(e.what()), want);
      }
    }
  }
  std::vector<GroupConversion> out(1);
  EXPECT_THROW(chain.convert_batch(std::vector<double>{1.0, 2.0}, out), ConfigError);
}

/// Every configuration convert_batch packs or hands to convert() matches.
TEST(ConversionBatchTest, MatchesConvertInEveryConfiguration) {
  std::vector<PowerChainConfig> configs;
  PowerChainConfig dc = frontier_chain();
  dc.feed = PowerFeed::kDC380;
  configs.push_back(dc);
  PowerChainConfig smart = frontier_chain();
  smart.load_sharing = LoadSharingPolicy::kSmartStaging;
  configs.push_back(smart);
  PowerChainConfig one_knot = frontier_chain();
  one_knot.sivoc_efficiency = PiecewiseLinearCurve{{0.5, 0.97}};
  configs.push_back(one_knot);
  PowerChainConfig linear = frontier_chain();
  linear.rectifier_efficiency = PiecewiseLinearCurve(linear.rectifier_efficiency.xs(),
                                                     linear.rectifier_efficiency.ys(),
                                                     Extrapolation::kLinear);
  configs.push_back(linear);
  PowerChainConfig three_units = frontier_chain();  // not Frontier's rectifier count
  three_units.rectifiers_per_group = 3;
  configs.push_back(three_units);
  // Curves whose knots the edge loads hit exactly (the SIVOC knots are
  // binary fractions of the capacity; with a flat SIVOC curve the
  // rectifier's per-unit load is a quarter of the group's), with y values
  // far apart, so the two segments meeting at a knot round apart there;
  // zero efficiency at no load; and a SIVOC curve past the 1.5 clamp.
  PowerChainConfig rough_sivoc = frontier_chain();
  rough_sivoc.sivoc_efficiency =
      PiecewiseLinearCurve{{0.0, 0.0}, {0.25, 0.977}, {0.5, 0.123}, {0.75, 0.9},
                           {1.0, 0.2},  {1.5, 0.97},   {2.0, 0.31}};
  configs.push_back(rough_sivoc);
  PowerChainConfig rough_rectifier = frontier_chain();
  rough_rectifier.sivoc_efficiency = PiecewiseLinearCurve{{0.0, 1.0}, {1.5, 1.0}};
  rough_rectifier.rectifier_efficiency =
      PiecewiseLinearCurve{{0.0, 0.0},    {500.0, 0.977},  {1000.0, 0.123}, {2500.0, 0.9},
                           {5000.0, 0.2}, {12500.0, 0.97}, {14000.0, 0.31}};
  configs.push_back(rough_rectifier);
  for (const PowerChainConfig& cfg : configs) {
    ConversionChain chain(cfg);
    expect_batch_matches(chain, edge_loads(chain));
    expect_batch_matches(chain, seeded_loads(5000, 41, 1.8 * sivoc_capacity_w(cfg)));
  }
}

}  // namespace
}  // namespace exadigit
