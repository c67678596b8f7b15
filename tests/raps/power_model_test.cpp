#include "raps/power_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "power/conversion.hpp"
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

  static void expect_job_major_state_matches_fresh_sums(const SystemConfig& config);

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

/// Every group's stored conversion is the conversion chain's result for
/// its current load, bit for bit, after random churn (partial and whole
/// groups, shared groups, varying and constant traces, stops) and after a
/// recompute() that leaves jobs running on the group loads.
TEST_F(PowerModelTest, StoredGroupConversionsMatchTheChainAfterChurn) {
  const ConversionChain chain(config_.power);
  auto expect_consistent = [&](const RapsPowerModel& model, const char* when) {
    const std::vector<double>& loads = model.group_output_w();
    const std::vector<GroupConversion>& stored = model.group_conversions();
    ASSERT_EQ(stored.size(), loads.size());
    for (std::size_t g = 0; g < loads.size(); ++g) {
      const ConversionResult want = chain.convert(loads[g]);
      EXPECT_EQ(stored[g].output_w, want.output_w) << when << " group " << g;
      EXPECT_EQ(stored[g].input_w, want.input_w) << when << " group " << g;
      EXPECT_EQ(stored[g].rectifier_loss_w, want.rectifier_loss_w) << when << " group " << g;
      EXPECT_EQ(stored[g].sivoc_loss_w, want.sivoc_loss_w) << when << " group " << g;
      EXPECT_EQ(stored[g].overloaded, want.overloaded) << when << " group " << g;
    }
  };
  expect_consistent(model_, "construction");

  Rng rng(2024);
  std::vector<JobRecord> jobs;
  std::vector<std::vector<int>> job_nodes;
  std::vector<int> handles;
  std::vector<char> node_busy(9472, 0);
  const double q = config_.simulation.trace_quantum_s;
  for (int step = 0; step < 60; ++step) {
    const double now = step * q;
    // Stop a random running job now and then.
    if (!handles.empty() && rng.uniform() < 0.3) {
      const std::size_t k = static_cast<std::size_t>(rng.uniform() * handles.size());
      model_.on_job_stop(handles[k]);
      for (const int n : job_nodes[k]) node_busy[static_cast<std::size_t>(n)] = 0;
      handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(k));
      job_nodes.erase(job_nodes.begin() + static_cast<std::ptrdiff_t>(k));
      jobs.erase(jobs.begin() + static_cast<std::ptrdiff_t>(k));
    }
    // Start a job on a random run of free nodes (1 to 80, any alignment).
    const int first = static_cast<int>(rng.uniform() * 9000.0);
    const int count = 1 + static_cast<int>(rng.uniform() * 80.0);
    std::vector<int> nodes;
    for (int n = first; n < first + count; ++n) {
      if (node_busy[static_cast<std::size_t>(n)] == 0) nodes.push_back(n);
    }
    if (!nodes.empty()) {
      JobRecord j = make_constant_job(0.0, 1e6, static_cast<int>(nodes.size()), rng.uniform(),
                                      rng.uniform());
      if (rng.uniform() < 0.7) {
        for (int k = 0; k < 1 + step % 5; ++k) {
          j.cpu_util_trace.push_back(rng.uniform());
          j.gpu_util_trace.push_back(rng.uniform());
        }
      }
      for (const int n : nodes) node_busy[static_cast<std::size_t>(n)] = 1;
      handles.push_back(model_.on_job_start(j, nodes, now));
      jobs.push_back(std::move(j));
      job_nodes.push_back(std::move(nodes));
    }
    (void)model_.advance(now);
    expect_consistent(model_, "churn");
  }

  std::vector<RunningJobView> views;
  for (std::size_t k = 0; k < jobs.size(); ++k) views.push_back({&jobs[k], &job_nodes[k], 0.0});
  (void)model_.recompute(60 * q, views);
  expect_consistent(model_, "recompute");
  // Incremental use after the recompute: one job on groups recompute left
  // loaded reads the stored state of their neighbours.
  ASSERT_FALSE(job_nodes.empty());
  const int h = model_.on_job_start(jobs.front(), job_nodes.front(), 60 * q);
  (void)model_.advance(61 * q);
  expect_consistent(model_, "after recompute");
  model_.on_job_stop(h);
  (void)model_.advance(62 * q);
  expect_consistent(model_, "stop after recompute");
}

/// Drives `config`'s incremental model through churn that exercises every
/// job-major path: jobs on whole racks, on whole groups, on groups they hold
/// in part and on groups they share; scattered and revisited node lists; a
/// job started and stopped between two samples; stops whose slots later
/// starts reuse, also within one sample on the same nodes. After every
/// advance() each group's load must equal the occupancy sum recomputed from
/// scratch, (idle baseline - sum of occupant idle) + sum of count x p with
/// occupants in start order; each stored conversion must be the chain's
/// conversion of that load; and each rack's wall power must be the rack sum
/// over the stored conversions.
void PowerModelTest::expect_job_major_state_matches_fresh_sums(const SystemConfig& config) {
  const RackPowerModel racks(config.rack, config.power);
  const ConversionChain chain(config.power);
  const int npg = racks.nodes_per_group();
  const int gpr = racks.groups_per_rack();
  const int npr = config.rack.nodes_per_rack;
  const std::size_t groups = static_cast<std::size_t>(config.rack_count * gpr);
  const double q = config.simulation.trace_quantum_s;
  auto node_idle_w = [&](int node) {
    int end = 0;
    for (const auto& p : config.partitions) {
      end += p.node_count;
      if (node < end) return p.node.idle_power_w();
    }
    return config.node.idle_power_w();
  };
  auto node_config = [&](const JobRecord& job) -> const NodeConfig& {
    for (const auto& p : config.partitions) {
      if (p.name == job.partition) return p.node;
    }
    return config.node;
  };
  std::vector<double> baseline(groups, 0.0);
  for (int node = 0; node < config.total_nodes(); ++node) {
    baseline[static_cast<std::size_t>(node / npg)] += node_idle_w(node);
  }

  struct Running {
    JobRecord job;
    std::vector<int> nodes;
    double start_s = 0.0;
    int handle = -1;
  };
  RapsPowerModel model(config);
  std::vector<Running> running;  // start order
  std::vector<char> busy(static_cast<std::size_t>(config.total_nodes()), 0);
  Rng rng(4242);
  auto start = [&](std::vector<int> nodes, double now, bool varying) {
    JobRecord job = make_constant_job(0.0, 1e6, static_cast<int>(nodes.size()), rng.uniform(),
                                      rng.uniform());
    // The partition of the first node, when the job stays inside it.
    int end = 0;
    for (const auto& p : config.partitions) {
      const int begin = end;
      end += p.node_count;
      const auto inside = [&](int n) { return n >= begin && n < end; };
      if (std::all_of(nodes.begin(), nodes.end(), inside)) job.partition = p.name;
    }
    if (varying) {
      for (int k = 0; k < 3 + static_cast<int>(rng.uniform() * 6.0); ++k) {
        job.cpu_util_trace.push_back(rng.uniform());
        job.gpu_util_trace.push_back(rng.uniform());
      }
    }
    for (const int n : nodes) {
      ASSERT_EQ(busy[static_cast<std::size_t>(n)], 0) << "node " << n;
      busy[static_cast<std::size_t>(n)] = 1;
    }
    const int handle = model.on_job_start(job, nodes, now);
    running.push_back(Running{std::move(job), std::move(nodes), now, handle});
  };
  auto stop = [&](std::size_t k) {
    model.on_job_stop(running[k].handle);
    for (const int n : running[k].nodes) busy[static_cast<std::size_t>(n)] = 0;
    running.erase(running.begin() + static_cast<std::ptrdiff_t>(k));
  };
  auto expect_fresh_sums = [&](double now, int step) {
    std::vector<double> occupied_idle(groups, 0.0);
    std::vector<double> busy_w(groups, 0.0);
    int active = 0;
    for (const Running& r : running) {
      const JobRecord::Utilization u = r.job.utilization_at(now - r.start_s, q);
      const double p = node_config(r.job).power_w(u.cpu, u.gpu);
      // The job's count and idle sum per group, in node-list order.
      std::vector<int> count(groups, 0);
      std::vector<double> idle(groups, 0.0);
      std::vector<std::size_t> touched;
      for (const int n : r.nodes) {
        const std::size_t g = static_cast<std::size_t>(n / npg);
        if (count[g] == 0) touched.push_back(g);
        ++count[g];
        idle[g] += node_idle_w(n);
      }
      for (const std::size_t g : touched) {
        occupied_idle[g] += idle[g];
        busy_w[g] += static_cast<double>(count[g]) * p;
      }
      active += static_cast<int>(r.nodes.size());
    }
    EXPECT_EQ(model.sample().active_nodes, active) << "step " << step;
    const std::vector<double>& loads = model.group_output_w();
    const std::vector<GroupConversion>& stored = model.group_conversions();
    ASSERT_EQ(loads.size(), groups);
    for (std::size_t g = 0; g < groups; ++g) {
      const double want = (baseline[g] - occupied_idle[g]) + busy_w[g];
      ASSERT_EQ(loads[g], want) << "step " << step << " group " << g;
      const ConversionResult c = chain.convert(want);
      ASSERT_EQ(stored[g].output_w, c.output_w) << "step " << step << " group " << g;
      ASSERT_EQ(stored[g].input_w, c.input_w) << "step " << step << " group " << g;
      ASSERT_EQ(stored[g].rectifier_loss_w, c.rectifier_loss_w) << "step " << step;
      ASSERT_EQ(stored[g].sivoc_loss_w, c.sivoc_loss_w) << "step " << step;
      ASSERT_EQ(stored[g].overloaded, c.overloaded) << "step " << step;
    }
    for (int r = 0; r < config.rack_count; ++r) {
      const RackPowerResult want = racks.from_group_conversions(std::span<const GroupConversion>(
          stored.data() + static_cast<std::size_t>(r * gpr), static_cast<std::size_t>(gpr)));
      ASSERT_EQ(model.rack_wall_power_w()[static_cast<std::size_t>(r)], want.input_w)
          << "step " << step << " rack " << r;
    }
  };

  // Fixed placements first: two whole racks, whole groups inside a rack,
  // whole groups with part-held edges, a group held in part alone, a group
  // three jobs share, a scattered list that revisits a group, and a whole
  // group listed in descending node order.
  const std::vector<int> whole_racks = node_range(0, 2 * npr);
  start(whole_racks, 0.0, true);
  start(node_range(2 * npr + npg, 3 * npg), 0.0, true);
  start(node_range(3 * npr + 5, 3 * npg), 0.0, true);
  start(node_range(4 * npr + 3, 5), 0.0, true);
  start(node_range(5 * npr, 4), 0.0, true);
  start(node_range(5 * npr + 4, 7), 0.0, false);
  start(node_range(5 * npr + 11, 5), 0.0, true);
  start({6 * npr + 1, 6 * npr + 2, 6 * npr + 3 * npg, 6 * npr + 3, 6 * npr + 3 * npg + 1}, 0.0,
        true);
  std::vector<int> descending = node_range(7 * npr, npg);
  std::reverse(descending.begin(), descending.end());
  start(descending, 0.0, true);
  // Started and stopped between two samples: its groups stay idle.
  start(node_range(8 * npr, npg + 3), 0.0, true);
  stop(running.size() - 1);

  const int total = config.total_nodes();
  for (int step = 0; step < 80; ++step) {
    const double now = step * q;
    if (step == 3) {
      // The whole-rack job stops and a new job takes the same racks within
      // the sample: it reuses the freed slot and the racks' groups.
      stop(0);
      start(whole_racks, now, true);
    }
    if (!running.empty() && rng.uniform() < 0.35) {
      stop(static_cast<std::size_t>(rng.uniform() * static_cast<double>(running.size())));
    }
    // A start on the free nodes of a random window: rack- or group-aligned
    // now and then, so whole racks and groups keep appearing.
    const double kind = rng.uniform();
    const int align = kind < 0.2 ? npr : (kind < 0.5 ? npg : 1);
    const int first = static_cast<int>(rng.uniform() * (total - 2 * npr)) / align * align;
    const int span = align == npr ? npr * (1 + static_cast<int>(rng.uniform() * 2.0))
                                  : 1 + static_cast<int>(rng.uniform() * 3.0 * npg);
    std::vector<int> nodes;
    for (int n = first; n < first + span && n < total; ++n) {
      if (busy[static_cast<std::size_t>(n)] == 0) nodes.push_back(n);
    }
    if (!nodes.empty()) start(std::move(nodes), now, rng.uniform() < 0.8);
    (void)model.advance(now);
    expect_fresh_sums(now, step);
    if (HasFatalFailure()) return;
  }
}

TEST_F(PowerModelTest, JobMajorStateMatchesFreshSumsAfterChurn) {
  expect_job_major_state_matches_fresh_sums(config_);
}

/// Two partitions that idle at different powers, and a layout whose
/// partition boundary splits a group, so group baselines differ and one
/// group mixes idle powers.
TEST_F(PowerModelTest, JobMajorStateMatchesFreshSumsOnTwoPartitions) {
  expect_job_major_state_matches_fresh_sums(setonix_like_config());
  SystemConfig split = setonix_like_config();
  split.partitions[0].node_count = 1000;
  split.partitions[1].node_count = 536;
  expect_job_major_state_matches_fresh_sums(split);
}

/// A node in a group another running job holds whole is refused, and the
/// refused start leaves the model as it was.
TEST_F(PowerModelTest, StartInAWhollyHeldGroupThrowsAndChangesNothing) {
  const JobRecord whole = make_constant_job(0.0, 1000.0, 32, 0.7, 0.4);
  (void)model_.on_job_start(whole, node_range(0, 32), 0.0);
  const JobRecord other = make_constant_job(0.0, 1000.0, 3, 0.2, 0.9);
  EXPECT_THROW((void)model_.on_job_start(other, {40, 41, 5}, 0.0), ConfigError);
  EXPECT_THROW((void)model_.on_job_start(other, {40, 41, 9472}, 0.0), ConfigError);
  const PowerSample& s = model_.advance(15.0);
  RapsPowerModel fresh(config_);
  (void)fresh.on_job_start(whole, node_range(0, 32), 0.0);
  EXPECT_EQ(s.system_power_w, fresh.advance(15.0).system_power_w);
  EXPECT_EQ(s.active_nodes, 32);
  expect_bit_equal(model_.group_output_w(), fresh.group_output_w(), "group");
}

/// A job whose traces have both reached their last sample is settled:
/// advance() stops evaluating it, so every later sample must be the one of
/// its last evaluation, bit for bit, and its racks those of a history-free
/// model at the same time. Up to that evaluation the job's power follows
/// its traces.
TEST_F(PowerModelTest, SettledJobKeepsItsLastEvaluatedSamples) {
  JobRecord j = make_constant_job(0.0, 1e6, 100, 0.0, 0.0);
  j.cpu_util_trace = {0.2, 0.8, 0.5};
  j.gpu_util_trace = {0.9, 0.3};
  const auto nodes = node_range(7, 100);
  const double q = config_.simulation.trace_quantum_s;
  (void)model_.on_job_start(j, nodes, 0.0);
  const double p0 = model_.advance(0.0).system_power_w;
  const double p1 = model_.advance(q).system_power_w;  // gpu on its last sample, cpu not yet
  const PowerSample settled = model_.advance(2 * q);   // both on their last sample
  EXPECT_NE(p0, p1);
  EXPECT_NE(p1, settled.system_power_w);
  const std::vector<double> racks = model_.rack_wall_power_w();

  for (const double t : {3 * q, 100 * q, 1e5}) {
    const PowerSample& s = model_.advance(t);
    EXPECT_EQ(s.system_power_w, settled.system_power_w) << t;
    EXPECT_EQ(s.node_output_w, settled.node_output_w) << t;
    EXPECT_EQ(s.rectifier_loss_w, settled.rectifier_loss_w) << t;
    EXPECT_EQ(s.sivoc_loss_w, settled.sivoc_loss_w) << t;
    EXPECT_EQ(s.eta_system, settled.eta_system) << t;
    expect_bit_equal(model_.rack_wall_power_w(), racks, "rack");

    // Rack results depend on the group loads alone; the totals also on
    // the order of the deltas that built them.
    RapsPowerModel fresh(config_);
    (void)fresh.on_job_start(j, nodes, 0.0);
    EXPECT_NEAR(fresh.advance(t).system_power_w, settled.system_power_w,
                settled.system_power_w * 1e-12)
        << t;
    expect_bit_equal(fresh.rack_wall_power_w(), racks, "fresh rack");
  }

  // A job with no traces is settled at its first advance and draws its
  // means from then on; the settled job beside it keeps its power.
  const JobRecord flat = make_constant_job(0.0, 1e6, 16, 0.4, 0.6);
  const auto flat_nodes = node_range(2000, 16);
  (void)model_.on_job_start(flat, flat_nodes, 1e5);
  const PowerSample both = model_.advance(1e5);
  RapsPowerModel fresh(config_);
  (void)fresh.on_job_start(j, nodes, 0.0);
  (void)fresh.on_job_start(flat, flat_nodes, 1e5);
  (void)fresh.advance(1e5);
  expect_bit_equal(model_.rack_wall_power_w(), fresh.rack_wall_power_w(), "two settled jobs");
  EXPECT_EQ(model_.advance(2e5).system_power_w, both.system_power_w);
}

/// More jobs than one word of the live-slot bitmap, each alone in part of
/// its own group, with traces that settle at different samples: every
/// group carries its job's current load on every sample, and a slot freed
/// and taken again (past the first word) is evaluated again.
TEST_F(PowerModelTest, LiveSlotsPastOneBitmapWordAreEvaluated) {
  const int npg = config_.rack.nodes_per_rack / (config_.rack.rectifiers_per_rack /
                                                 config_.power.rectifiers_per_group);
  const double q = config_.simulation.trace_quantum_s;
  const std::vector<double> baseline = model_.group_output_w();
  const double idle_w = config_.node.idle_power_w();
  const double idle3_w = (idle_w + idle_w) + idle_w;
  Rng rng(64);
  auto make_job = [&](int k) {
    JobRecord job = make_constant_job(0.0, 1e6, 3, 0.0, 0.0);
    for (int i = 0; i < 1 + k % 7; ++i) {
      job.cpu_util_trace.push_back(rng.uniform());
      job.gpu_util_trace.push_back(rng.uniform());
    }
    return job;
  };
  constexpr int kJobs = 150;
  std::vector<JobRecord> jobs;
  std::vector<int> handles;
  std::vector<double> starts(kJobs, 0.0);
  for (int k = 0; k < kJobs; ++k) {
    jobs.push_back(make_job(k));
    handles.push_back(model_.on_job_start(jobs.back(), node_range(k * npg, 3), 0.0));
  }
  for (int step = 0; step < 10; ++step) {
    const double now = step * q;
    if (step == 4) {
      // Free two slots past the first bitmap word and one inside it, then
      // fill them again in the same groups with new traces.
      for (const int k : {130, 70, 5}) {
        model_.on_job_stop(handles[static_cast<std::size_t>(k)]);
        jobs[static_cast<std::size_t>(k)] = make_job(k + 3);
        handles[static_cast<std::size_t>(k)] =
            model_.on_job_start(jobs[static_cast<std::size_t>(k)], node_range(k * npg, 3), now);
        starts[static_cast<std::size_t>(k)] = now;
      }
    }
    (void)model_.advance(now);
    for (int k = 0; k < kJobs; ++k) {
      const std::size_t i = static_cast<std::size_t>(k);
      const JobRecord::Utilization u = jobs[i].utilization_at(now - starts[i], q);
      const double p = config_.node.power_w(u.cpu, u.gpu);
      ASSERT_EQ(model_.group_output_w()[i], (baseline[i] - (0.0 + idle3_w)) + (0.0 + 3.0 * p))
          << "step " << step << " job " << k;
    }
  }
}

/// One sample asks a job's kept conversion for several loads: a job alone
/// in part of four groups, with 3, 3, 5 and 3 nodes in them, and two jobs
/// that split two groups alike. Groups of one load take the conversion
/// queued for the first of them, a group of another load queues its own,
/// and every group stores the chain's conversion of its load.
TEST_F(PowerModelTest, GroupsOfOneJobShareOneQueuedConversionPerLoad) {
  const int npg = config_.rack.nodes_per_rack / (config_.rack.rectifiers_per_rack /
                                                 config_.power.rectifiers_per_group);
  const ConversionChain chain(config_.power);
  auto part_of = [&](std::initializer_list<std::pair<int, int>> groups_and_counts) {
    std::vector<int> nodes;
    for (const auto& [group, count] : groups_and_counts) {
      for (int i = 0; i < count; ++i) nodes.push_back(group * npg + i);
    }
    return nodes;
  };
  auto traced_job = [](int nodes, int samples, Rng& rng) {
    JobRecord job = make_constant_job(0.0, 1e6, nodes, 0.0, 0.0);
    for (int i = 0; i < samples; ++i) {
      job.cpu_util_trace.push_back(rng.uniform());
      job.gpu_util_trace.push_back(rng.uniform());
    }
    return job;
  };
  Rng rng(28);
  const std::vector<int> sole_nodes = part_of({{10, 3}, {12, 3}, {14, 5}, {16, 3}});
  const std::vector<int> lead_nodes = part_of({{20, 4}, {22, 4}});
  std::vector<int> second_nodes;
  for (const int n : lead_nodes) second_nodes.push_back(n + 4);
  const JobRecord sole = traced_job(14, 6, rng);
  const JobRecord lead = traced_job(8, 6, rng);
  const JobRecord second = traced_job(8, 3, rng);
  (void)model_.on_job_start(sole, sole_nodes, 0.0);
  (void)model_.on_job_start(lead, lead_nodes, 0.0);
  (void)model_.on_job_start(second, second_nodes, 0.0);
  const double q = config_.simulation.trace_quantum_s;
  for (int step = 0; step < 8; ++step) {
    (void)model_.advance(step * q);
    const std::vector<double>& loads = model_.group_output_w();
    ASSERT_EQ(loads[10], loads[12]) << "step " << step;
    ASSERT_EQ(loads[10], loads[16]) << "step " << step;
    ASSERT_NE(loads[10], loads[14]) << "step " << step;
    ASSERT_EQ(loads[20], loads[22]) << "step " << step;
    for (const int g : {10, 12, 14, 16, 20, 22}) {
      const GroupConversion& got = model_.group_conversions()[static_cast<std::size_t>(g)];
      const ConversionResult want = chain.convert(loads[static_cast<std::size_t>(g)]);
      EXPECT_EQ(got.output_w, want.output_w) << "step " << step << " group " << g;
      EXPECT_EQ(got.input_w, want.input_w) << "step " << step << " group " << g;
      EXPECT_EQ(got.rectifier_loss_w, want.rectifier_loss_w) << "step " << step << " group " << g;
      EXPECT_EQ(got.sivoc_loss_w, want.sivoc_loss_w) << "step " << step << " group " << g;
      EXPECT_EQ(got.overloaded, want.overloaded) << "step " << step << " group " << g;
    }
  }
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
