#include "config/system_config.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "power/conversion.hpp"

namespace exadigit {
namespace {

TEST(FrontierConfigTest, TableIComponentCounts) {
  const SystemConfig c = frontier_system_config();
  // Paper Table I.
  EXPECT_EQ(c.cdu_count, 25);
  EXPECT_EQ(c.racks_per_cdu, 3);
  EXPECT_EQ(c.rack.chassis_per_rack, 8);
  EXPECT_EQ(c.rack.rectifiers_per_rack, 32);
  EXPECT_EQ(c.rack.blades_per_rack, 64);
  EXPECT_EQ(c.rack.nodes_per_rack, 128);
  EXPECT_EQ(c.rack.sivocs_per_rack, 128);
  EXPECT_EQ(c.rack.switches_per_rack, 32);
  EXPECT_EQ(c.total_nodes(), 9472);
  EXPECT_EQ(c.rack_count, 74);
}

TEST(FrontierConfigTest, TableIPowerConstants) {
  const SystemConfig c = frontier_system_config();
  EXPECT_DOUBLE_EQ(c.node.gpu_idle_w, 88.0);
  EXPECT_DOUBLE_EQ(c.node.gpu_peak_w, 560.0);
  EXPECT_DOUBLE_EQ(c.node.cpu_idle_w, 90.0);
  EXPECT_DOUBLE_EQ(c.node.cpu_peak_w, 280.0);
  EXPECT_DOUBLE_EQ(c.node.ram_avg_w, 74.0);
  EXPECT_DOUBLE_EQ(c.rack.switch_avg_w, 250.0);
  EXPECT_DOUBLE_EQ(c.cooling.cdu.pump_avg_w, 8700.0);
  // NIC: 4 x 20 W = Table I's 80 W; NVMe: 2 x 15 W = 30 W.
  EXPECT_DOUBLE_EQ(c.node.nics_per_node * c.node.nic_w, 80.0);
  EXPECT_DOUBLE_EQ(c.node.nvme_per_node * c.node.nvme_w, 30.0);
}

TEST(FrontierConfigTest, NodePowerEq3) {
  const SystemConfig c = frontier_system_config();
  // Eq. (3) at idle: 90 + 4*88 + 4*20 + 74 + 2*15 = 626 W.
  EXPECT_DOUBLE_EQ(c.node.idle_power_w(), 626.0);
  // At peak: 280 + 4*560 + 80 + 74 + 30 = 2704 W.
  EXPECT_DOUBLE_EQ(c.node.peak_power_w(), 2704.0);
  // HPL core phase utilizations (Section IV-2).
  EXPECT_NEAR(c.node.power_w(0.33, 0.79), 90 + 0.33 * 190 + 4 * (88 + 0.79 * 472) + 184,
              1e-9);
}

TEST(FrontierConfigTest, UtilizationClamping) {
  const NodeConfig n;
  EXPECT_DOUBLE_EQ(n.power_w(-1.0, -5.0), n.idle_power_w());
  EXPECT_DOUBLE_EQ(n.power_w(2.0, 2.0), n.peak_power_w());
}

TEST(FrontierConfigTest, CduRackMapping) {
  const SystemConfig c = frontier_system_config();
  // 25 CDUs x 3 racks = 75 positions, 74 populated: last CDU serves 2.
  for (int cdu = 0; cdu < 24; ++cdu) EXPECT_EQ(c.racks_for_cdu(cdu), 3);
  EXPECT_EQ(c.racks_for_cdu(24), 2);
  EXPECT_EQ(c.cdu_of_rack(0), 0);
  EXPECT_EQ(c.cdu_of_rack(73), 24);
  EXPECT_EQ(c.rack_of_node(0), 0);
  EXPECT_EQ(c.rack_of_node(127), 0);
  EXPECT_EQ(c.rack_of_node(128), 1);
  EXPECT_EQ(c.first_rack_of_cdu(1), 3);
  EXPECT_THROW(c.racks_for_cdu(25), ConfigError);
}

TEST(FrontierConfigTest, ChainEfficiencyNearPaperValues) {
  const SystemConfig c = frontier_system_config();
  // Paper Section III-B1: eta_R ~ 0.96, eta_S ~ 0.98, total ~ 0.94 near
  // the rectifier optimum.
  const ConversionChain chain(c.power);
  const double group_at_optimum = 4 * 7500.0 * 0.976;  // DC bus at 4 x 7.5 kW
  const double eta = chain.system_efficiency(group_at_optimum);
  EXPECT_NEAR(eta, 0.94, 0.01);
  EXPECT_DOUBLE_EQ(chain.system_efficiency(0.0), 1.0);
}

TEST(FrontierConfigTest, ValidatesCleanly) {
  EXPECT_NO_THROW(frontier_system_config().validate());
}

TEST(ConfigValidationTest, CatchesInconsistencies) {
  SystemConfig c = frontier_system_config();
  c.rack_count = 80;  // exceeds 25 * 3
  EXPECT_THROW(c.validate(), ConfigError);

  c = frontier_system_config();
  c.rack.blades_per_rack = 60;  // nodes != 2x blades
  EXPECT_THROW(c.validate(), ConfigError);

  c = frontier_system_config();
  c.power.rectifiers_per_group = 3;  // 32 % 3 != 0
  EXPECT_THROW(c.validate(), ConfigError);

  c = frontier_system_config();
  c.node.cpu_peak_w = 10.0;  // peak < idle
  EXPECT_THROW(c.validate(), ConfigError);

  c = frontier_system_config();
  c.cooling.cooling_efficiency = 1.5;
  EXPECT_THROW(c.validate(), ConfigError);

  c = frontier_system_config();
  c.simulation.cooling_quantum_s = 0.5;  // below tick
  EXPECT_THROW(c.validate(), ConfigError);

  c = frontier_system_config();
  c.workload.mean_arrival_s = 0.0;
  EXPECT_THROW(c.validate(), ConfigError);
}

/// Utilization traces are indexed by time / trace quantum, so a zero,
/// negative or NaN quantum would cast an infinite or NaN index.
TEST(ConfigValidationTest, TraceQuantumMustBeFiniteAndPositive) {
  for (const double bad : {0.0, -15.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    SystemConfig c = frontier_system_config();
    c.simulation.trace_quantum_s = bad;
    EXPECT_THROW(c.validate(), ConfigError) << bad;
  }
}

/// The thermal integrator divides each loop's flow by half its volume, so
/// each of the three volumes must be finite and positive, and the error
/// names the key.
TEST(ConfigValidationTest, LoopVolumesMustBeFiniteAndPositive) {
  using Field = double& (*)(SystemConfig&);
  const std::pair<const char*, Field> volumes[] = {
      {"cooling.cdu.secondary_volume_m3",
       [](SystemConfig& c) -> double& { return c.cooling.cdu.secondary_volume_m3; }},
      {"cooling.primary.volume_m3",
       [](SystemConfig& c) -> double& { return c.cooling.primary.volume_m3; }},
      {"cooling.ct.volume_m3", [](SystemConfig& c) -> double& { return c.cooling.ct.volume_m3; }},
  };
  for (const auto& [key, field] : volumes) {
    for (const double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      SystemConfig c = frontier_system_config();
      field(c) = bad;
      try {
        c.validate();
        ADD_FAILURE() << key << " = " << bad << " accepted";
      } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
      }
    }
  }
}

TEST(ConfigValidationTest, PartitionOversubscriptionCaught) {
  SystemConfig c = frontier_system_config();
  PartitionConfig p;
  p.name = "huge";
  p.node_count = c.total_nodes() + 1;
  p.node = c.node;
  c.partitions = {p};
  EXPECT_THROW(c.validate(), ConfigError);
}

TEST(SetonixConfigTest, MultiPartitionLayout) {
  const SystemConfig c = setonix_like_config();
  ASSERT_EQ(c.partitions.size(), 2u);
  EXPECT_EQ(c.partitions[0].name, "work");
  EXPECT_EQ(c.partitions[0].node.gpus_per_node, 0);
  EXPECT_EQ(c.partitions[1].name, "gpu");
  EXPECT_GT(c.partitions[1].node.gpus_per_node, 0);
  EXPECT_LE(c.partitions[0].node_count + c.partitions[1].node_count, c.total_nodes());
  // CPU-only nodes draw no GPU power.
  EXPECT_LT(c.partitions[0].node.peak_power_w(), c.partitions[1].node.peak_power_w());
}

TEST(PowerChainTest, SmartStagingNeverWorseAtLightLoad) {
  SystemConfig c = frontier_system_config();
  PowerChainConfig smart_config = c.power;
  smart_config.load_sharing = LoadSharingPolicy::kSmartStaging;
  const ConversionChain shared(c.power);
  const ConversionChain smart(smart_config);
  // Light group loads: staging should match or beat the shared bus.
  for (double load_w : {2000.0, 5000.0, 8000.0, 12000.0, 20000.0}) {
    EXPECT_GE(smart.system_efficiency(load_w) + 1e-12, shared.system_efficiency(load_w))
        << "at " << load_w << " W";
  }
}

TEST(PowerChainTest, Dc380BeatsAcEverywhere) {
  SystemConfig c = frontier_system_config();
  PowerChainConfig dc_config = c.power;
  dc_config.feed = PowerFeed::kDC380;
  const ConversionChain ac(c.power);
  const ConversionChain dc(dc_config);
  for (double load_w = 1000.0; load_w <= 45000.0; load_w += 2000.0) {
    EXPECT_GT(dc.system_efficiency(load_w), ac.system_efficiency(load_w));
  }
  // Paper: 380 V DC raises system efficiency to ~97.3 %.
  EXPECT_NEAR(dc.system_efficiency(16 * 1591.0), 0.973, 0.003);
}

}  // namespace
}  // namespace exadigit
