#include "raps/power_model.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/error.hpp"
#include "raps/workload.hpp"

namespace exadigit {
namespace {

class PowerModelTest : public ::testing::Test {
 protected:
  SystemConfig config_ = frontier_system_config();
  RapsPowerModel model_{config_};

  static std::vector<int> node_range(int first, int count) {
    std::vector<int> nodes(static_cast<std::size_t>(count));
    std::iota(nodes.begin(), nodes.end(), first);
    return nodes;
  }

  /// Exact element-wise equality (EXPECT_EQ on doubles compares bits).
  static void expect_bit_equal(const std::vector<double>& got, const std::vector<double>& want,
                               const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << what << " " << i;
    }
  }
};

TEST_F(PowerModelTest, IdleSystemMatchesCalibration) {
  const PowerSample& s = model_.recompute(0.0, {});
  EXPECT_NEAR(s.system_power_w / 1e6, 7.27, 0.10);
  EXPECT_EQ(s.active_nodes, 0);
}

TEST_F(PowerModelTest, FullMachineAtPeakMatchesCalibration) {
  const JobRecord peak = make_constant_job(0.0, 1000.0, 9472, 1.0, 1.0);
  const auto nodes = node_range(0, 9472);
  RunningJobView view{&peak, &nodes, 0.0};
  const PowerSample& s = model_.recompute(0.0, std::span(&view, 1));
  EXPECT_NEAR(s.system_power_w / 1e6, 28.2, 0.15);
  EXPECT_EQ(s.active_nodes, 9472);
}

TEST_F(PowerModelTest, LossesDecomposeConsistently) {
  const JobRecord j = make_constant_job(0.0, 1000.0, 4000, 0.5, 0.5);
  const auto nodes = node_range(0, 4000);
  RunningJobView view{&j, &nodes, 0.0};
  const PowerSample& s = model_.recompute(0.0, std::span(&view, 1));
  EXPECT_GT(s.rectifier_loss_w, s.sivoc_loss_w);
  EXPECT_GT(s.eta_system, 0.90);
  EXPECT_LT(s.eta_system, 0.96);
  EXPECT_NEAR(s.loss_w(), s.rectifier_loss_w + s.sivoc_loss_w, 1e-9);
}

TEST_F(PowerModelTest, CduPowerMapsToAllocatedRacks) {
  // A job on the first CDU's racks (nodes 0..383) must heat only CDU 0.
  const JobRecord j = make_constant_job(0.0, 1000.0, 384, 0.9, 0.9);
  const auto nodes = node_range(0, 384);
  RunningJobView view{&j, &nodes, 0.0};
  model_.recompute(0.0, std::span(&view, 1));
  const auto& cdu = model_.cdu_wall_power_w();
  ASSERT_EQ(cdu.size(), 25u);
  EXPECT_GT(cdu[0], cdu[1] * 2.0);
  // All other CDUs sit at their idle floor.
  for (std::size_t i = 1; i < 24; ++i) {
    EXPECT_NEAR(cdu[i], cdu[1], cdu[1] * 1e-9);
  }
}

TEST_F(PowerModelTest, CduHeatAppliesCoolingEfficiency) {
  model_.recompute(0.0, {});
  const auto heat = model_.cdu_heat_w();
  const auto& wall = model_.cdu_wall_power_w();
  for (std::size_t i = 0; i < heat.size(); ++i) {
    EXPECT_NEAR(heat[i], wall[i] * config_.cooling.cooling_efficiency, 1e-9);
  }
}

TEST_F(PowerModelTest, SystemPowerSumsRacksPlusPumps) {
  model_.recompute(0.0, {});
  const double rack_sum = std::accumulate(model_.rack_wall_power_w().begin(),
                                          model_.rack_wall_power_w().end(), 0.0);
  EXPECT_NEAR(model_.sample().system_power_w, rack_sum + 217500.0, 1.0);
}

TEST_F(PowerModelTest, TraceDrivesTimeVaryingPower) {
  JobRecord j = make_constant_job(0.0, 1000.0, 1000, 0.0, 0.0);
  j.gpu_util_trace = {0.1, 0.9};
  const auto nodes = node_range(0, 1000);
  RunningJobView view{&j, &nodes, 0.0};
  const double p_early = model_.recompute(5.0, std::span(&view, 1)).system_power_w;
  const double p_late = model_.recompute(20.0, std::span(&view, 1)).system_power_w;
  EXPECT_GT(p_late, p_early + 1e6);
}

TEST_F(PowerModelTest, PartitionNodeConfigsApply) {
  const SystemConfig setonix = setonix_like_config();
  RapsPowerModel model(setonix);
  JobRecord cpu_job = make_constant_job(0.0, 100.0, 64, 1.0, 1.0);
  cpu_job.partition = "work";
  JobRecord gpu_job = make_constant_job(0.0, 100.0, 64, 1.0, 1.0);
  gpu_job.partition = "gpu";
  const auto cpu_nodes = node_range(0, 64);     // work partition range
  const auto gpu_nodes = node_range(1024, 64);  // gpu partition range
  RunningJobView cpu_view{&cpu_job, &cpu_nodes, 0.0};
  RunningJobView gpu_view{&gpu_job, &gpu_nodes, 0.0};
  const double p_cpu = model.recompute(0.0, std::span(&cpu_view, 1)).system_power_w;
  const double p_gpu = model.recompute(0.0, std::span(&gpu_view, 1)).system_power_w;
  // Same node count at full tilt: the GPU partition draws far more.
  EXPECT_GT(p_gpu, p_cpu + 64 * 1000.0);
}

TEST_F(PowerModelTest, UnknownPartitionThrows) {
  JobRecord j = make_constant_job(0.0, 100.0, 4, 0.5, 0.5);
  j.partition = "nope";
  const auto nodes = node_range(0, 4);
  RunningJobView view{&j, &nodes, 0.0};
  EXPECT_THROW(model_.recompute(0.0, std::span(&view, 1)), ConfigError);
}

/// The incremental interface (on_job_start / advance / on_job_stop) must
/// track the stateless full rebuild to accumulation-order rounding.
TEST_F(PowerModelTest, IncrementalAdvanceMatchesRecompute) {
  JobRecord a = make_constant_job(0.0, 1000.0, 500, 0.0, 0.0);
  a.gpu_util_trace = {0.2, 0.9, 0.4};
  JobRecord b = make_constant_job(0.0, 1000.0, 300, 0.6, 0.3);
  const auto nodes_a = node_range(0, 500);
  const auto nodes_b = node_range(1000, 300);

  RapsPowerModel incremental(config_);
  const int ha = incremental.on_job_start(a, nodes_a, 0.0);
  (void)incremental.on_job_start(b, nodes_b, 0.0);

  RapsPowerModel reference(config_);
  std::vector<RunningJobView> views{{&a, &nodes_a, 0.0}, {&b, &nodes_b, 0.0}};

  for (const double t : {0.0, 20.0, 40.0}) {
    const PowerSample& si = incremental.advance(t);
    const double p_inc = si.system_power_w;
    const int active = si.active_nodes;
    const PowerSample& sr = reference.recompute(t, views);
    EXPECT_NEAR(p_inc, sr.system_power_w, sr.system_power_w * 1e-9) << "t=" << t;
    EXPECT_EQ(active, sr.active_nodes);
  }

  // Stop one job: its nodes fall back to idle.
  incremental.on_job_stop(ha);
  const double p_stop = incremental.advance(60.0).system_power_w;
  std::vector<RunningJobView> only_b{{&b, &nodes_b, 0.0}};
  const PowerSample& sr = reference.recompute(60.0, only_b);
  EXPECT_NEAR(p_stop, sr.system_power_w, sr.system_power_w * 1e-9);
}

TEST_F(PowerModelTest, IncrementalStopRestoresIdleBaseline) {
  const double idle_w = model_.recompute(0.0, {}).system_power_w;
  JobRecord j = make_constant_job(0.0, 1000.0, 4000, 0.9, 0.9);
  const auto nodes = node_range(100, 4000);
  const int h = model_.on_job_start(j, nodes, 0.0);
  EXPECT_GT(model_.advance(15.0).system_power_w, idle_w * 1.5);
  model_.on_job_stop(h);
  const PowerSample& s = model_.advance(30.0);
  EXPECT_NEAR(s.system_power_w, idle_w, idle_w * 1e-9);
  EXPECT_EQ(s.active_nodes, 0);
}

TEST_F(PowerModelTest, IncrementalUnknownPartitionThrowsAtStart) {
  JobRecord j = make_constant_job(0.0, 100.0, 4, 0.5, 0.5);
  j.partition = "nope";
  const auto nodes = node_range(0, 4);
  EXPECT_THROW((void)model_.on_job_start(j, nodes, 0.0), ConfigError);
}

TEST_F(PowerModelTest, IncrementalInvalidStopHandleThrows) {
  EXPECT_THROW(model_.on_job_stop(0), ConfigError);
  JobRecord j = make_constant_job(0.0, 100.0, 16, 0.5, 0.5);
  const auto nodes = node_range(0, 16);
  const int h = model_.on_job_start(j, nodes, 0.0);
  model_.on_job_stop(h);
  EXPECT_THROW(model_.on_job_stop(h), ConfigError);  // double stop
}

/// Group loads follow occupancy, not history: after two jobs with distinct
/// varying traces share partial groups for several trace quanta and stop,
/// every group and rack is back at its construction value, bit for bit.
TEST_F(PowerModelTest, IncrementalChurnRestoresConstructionLoadsExactly) {
  const std::vector<double> groups0 = model_.group_output_w();
  const std::vector<double> racks0 = model_.rack_wall_power_w();
  JobRecord a = make_constant_job(0.0, 1000.0, 40, 0.0, 0.0);
  a.cpu_util_trace = {0.31, 0.77, 0.12, 0.95, 0.4};
  a.gpu_util_trace = {0.13, 0.87, 0.41, 0.66, 0.2};
  JobRecord b = make_constant_job(0.0, 1000.0, 30, 0.0, 0.0);
  b.cpu_util_trace = {0.9, 0.05, 0.63, 0.28, 0.5};
  b.gpu_util_trace = {0.91, 0.27, 0.58, 0.35, 0.7};
  const int ha = model_.on_job_start(a, node_range(3, 40), 0.0);   // nodes 3-42
  const int hb = model_.on_job_start(b, node_range(43, 30), 0.0);  // nodes 43-72
  const double q = config_.simulation.trace_quantum_s;
  for (int k = 0; k < 4; ++k) (void)model_.advance(k * q);
  model_.on_job_stop(ha);
  model_.on_job_stop(hb);
  const PowerSample& s = model_.advance(4 * q);
  EXPECT_EQ(s.active_nodes, 0);
  expect_bit_equal(model_.group_output_w(), groups0, "group");
  expect_bit_equal(model_.rack_wall_power_w(), racks0, "rack");
}

/// A job covering whole groups gives each of them the same exact load, also
/// the groups an earlier job churned through a varying trace, and the same
/// loads a model without that history computes.
TEST_F(PowerModelTest, IncrementalFullGroupsCarryEqualLoads) {
  JobRecord early = make_constant_job(0.0, 1000.0, 40, 0.0, 0.0);
  early.cpu_util_trace = {0.31, 0.77, 0.12, 0.95, 0.4};
  early.gpu_util_trace = {0.13, 0.87, 0.41, 0.66, 0.2};
  const double q = config_.simulation.trace_quantum_s;
  const int h = model_.on_job_start(early, node_range(3, 40), 0.0);  // groups 0-2
  for (int k = 0; k < 4; ++k) (void)model_.advance(k * q);
  model_.on_job_stop(h);

  JobRecord wide = make_constant_job(0.0, 1000.0, 64, 0.0, 0.0);
  wide.cpu_util_trace = {0.1, 0.2};
  wide.gpu_util_trace = {0.05, 0.15};
  const auto wide_nodes = node_range(0, 64);  // groups 0-3
  (void)model_.on_job_start(wide, wide_nodes, 4 * q);
  (void)model_.advance(5 * q);

  RapsPowerModel fresh(config_);
  (void)fresh.on_job_start(wide, wide_nodes, 4 * q);
  (void)fresh.advance(5 * q);
  const auto& groups = model_.group_output_w();
  for (std::size_t g = 0; g < 4; ++g) {
    EXPECT_EQ(groups[g], groups[0]) << "group " << g;
    EXPECT_EQ(groups[g], fresh.group_output_w()[g]) << "group " << g;
  }
  expect_bit_equal(model_.rack_wall_power_w(), fresh.rack_wall_power_w(), "rack");
}

/// Multi-partition machine: groups of the two partitions idle at different
/// powers. The incremental path tracks recompute() with one job in each
/// partition, and stopping both restores every idle group load exactly.
TEST_F(PowerModelTest, IncrementalMultiPartitionTracksRecompute) {
  const SystemConfig setonix = setonix_like_config();
  RapsPowerModel incremental(setonix);
  RapsPowerModel reference(setonix);
  const std::vector<double> groups0 = incremental.group_output_w();
  ASSERT_NE(groups0.front(), groups0.back());  // work vs gpu idle groups

  JobRecord cpu_job = make_constant_job(0.0, 1000.0, 90, 0.0, 0.0);
  cpu_job.partition = "work";
  cpu_job.cpu_util_trace = {0.25, 0.95, 0.6};
  JobRecord gpu_job = make_constant_job(0.0, 1000.0, 70, 0.0, 0.0);
  gpu_job.partition = "gpu";
  gpu_job.gpu_util_trace = {0.8, 0.15, 0.55};
  const auto cpu_nodes = node_range(5, 90);     // work partition, partial groups
  const auto gpu_nodes = node_range(1030, 70);  // gpu partition, partial groups
  const int hc = incremental.on_job_start(cpu_job, cpu_nodes, 0.0);
  const int hg = incremental.on_job_start(gpu_job, gpu_nodes, 0.0);
  const std::vector<RunningJobView> views{{&cpu_job, &cpu_nodes, 0.0},
                                          {&gpu_job, &gpu_nodes, 0.0}};
  const double q = setonix.simulation.trace_quantum_s;
  for (int k = 0; k < 4; ++k) {
    const PowerSample si = incremental.advance(k * q);
    const PowerSample& sr = reference.recompute(k * q, views);
    EXPECT_NEAR(si.system_power_w, sr.system_power_w, sr.system_power_w * 1e-9) << "k=" << k;
    EXPECT_NEAR(si.node_output_w, sr.node_output_w, sr.node_output_w * 1e-9) << "k=" << k;
    EXPECT_EQ(si.active_nodes, sr.active_nodes);
  }
  incremental.on_job_stop(hc);
  incremental.on_job_stop(hg);
  EXPECT_EQ(incremental.advance(4 * q).active_nodes, 0);
  expect_bit_equal(incremental.group_output_w(), groups0, "group");
}

/// recompute() drops incrementally registered jobs together with their
/// group occupancy, so a later advance() reads no stale job slot and the
/// instance keeps working incrementally.
TEST_F(PowerModelTest, RecomputeClearsIncrementalState) {
  JobRecord j = make_constant_job(0.0, 1000.0, 40, 0.7, 0.7);
  const auto nodes = node_range(3, 40);
  (void)model_.on_job_start(j, nodes, 0.0);
  const double idle_w = model_.recompute(0.0, {}).system_power_w;
  const PowerSample& s = model_.advance(15.0);
  EXPECT_EQ(s.system_power_w, idle_w);
  EXPECT_EQ(s.active_nodes, 0);

  (void)model_.on_job_start(j, nodes, 15.0);
  const double p_inc = model_.advance(30.0).system_power_w;
  RapsPowerModel reference(config_);
  const RunningJobView view{&j, &nodes, 15.0};
  const double p_ref = reference.recompute(30.0, std::span(&view, 1)).system_power_w;
  EXPECT_NEAR(p_inc, p_ref, p_ref * 1e-9);
}

/// Property: system power is monotone in the number of active nodes.
class PowerMonotoneProperty : public ::testing::TestWithParam<double> {};

TEST_P(PowerMonotoneProperty, MorePowerWithMoreNodes) {
  const double util = GetParam();
  SystemConfig config = frontier_system_config();
  RapsPowerModel model(config);
  double prev = model.recompute(0.0, {}).system_power_w;
  for (int count : {500, 2000, 5000, 9472}) {
    const JobRecord j = make_constant_job(0.0, 1000.0, count, util, util);
    std::vector<int> nodes(static_cast<std::size_t>(count));
    std::iota(nodes.begin(), nodes.end(), 0);
    RunningJobView view{&j, &nodes, 0.0};
    const double p = model.recompute(0.0, std::span(&view, 1)).system_power_w;
    EXPECT_GT(p, prev);
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(Utils, PowerMonotoneProperty, ::testing::Values(0.2, 0.5, 1.0));

}  // namespace
}  // namespace exadigit
