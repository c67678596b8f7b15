/// Coupled runs whose descriptors push the plant's explicit-Euler volumes
/// past their stable step: a 60 s exchange quantum with a 60 s thermal
/// substep, and a CDU loop holding 0.1 m3. Each must run 6 h to physical
/// temperatures, because the plant splits a step into as many substeps as
/// its flows need (CoolingPlantModel::step).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "config/config_json.hpp"
#include "core/digital_twin.hpp"
#include "raps/workload.hpp"

namespace exadigit {
namespace {

/// Every recorded sample finite and below 100 C; returns the largest.
double expect_physical(const TimeSeries& series, const std::string& name) {
  EXPECT_FALSE(series.empty()) << name;
  double hottest = -1e300;
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double v = series.value(i);
    EXPECT_TRUE(std::isfinite(v) && v < 100.0)
        << name << " reads " << v << " C at " << series.time(i) << " s";
    hottest = std::max(hottest, v);
  }
  return hottest;
}

/// Six hours of a loaded Frontier, with a full-machine HPL run in the
/// middle, under the Frontier descriptor merge-patched with `delta`.
void run_probe(const char* delta) {
  const SystemConfig config = system_config_from_json(
      Json::merge_patch(frontier_descriptor_json(), Json::parse(delta)));
  const double horizon = 6.0 * units::kSecondsPerHour;
  DigitalTwin twin(config);
  twin.set_wetbulb_constant(18.0);
  WorkloadGenerator gen(config.workload, config, Rng(42));
  twin.submit_all(gen.generate(0.0, horizon));
  twin.submit(make_hpl_job(2.0 * units::kSecondsPerHour, 3600.0));
  ASSERT_NO_THROW(twin.run_until(horizon)) << delta;

  double htws = expect_physical(twin.htws_temp_series(), "HTWS");
  expect_physical(twin.pri_return_temp_series(), "primary return");
  double cdu = -1e300;
  for (std::size_t i = 0; i < twin.cdu_series().size(); ++i) {
    const CduSeries& s = twin.cdu_series()[i];
    const std::string tag = "CDU " + std::to_string(i);
    cdu = std::max(cdu, expect_physical(s.supply_temp_c, tag + " supply"));
    cdu = std::max(cdu, expect_physical(s.return_temp_c, tag + " return"));
  }
  // The plant did real work: the loops warmed above the 18 C wet bulb.
  EXPECT_GT(htws, 18.0);
  EXPECT_GT(cdu, 18.0);
}

TEST(PlantStabilityTest, SixtySecondQuantumAndSubstep) {
  run_probe(R"({"cooling": {"thermal_substep_s": 60}, "simulation": {"cooling_quantum_s": 60}})");
}

TEST(PlantStabilityTest, SmallCduVolume) {
  run_probe(R"({"cooling": {"cdu": {"secondary_volume_m3": 0.1}}})");
}

}  // namespace
}  // namespace exadigit
