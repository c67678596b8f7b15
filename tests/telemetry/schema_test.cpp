#include "telemetry/schema.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace exadigit {
namespace {

TEST(JobRecordTest, TraceLookupZeroOrderHold) {
  JobRecord j;
  j.cpu_util_trace = {0.1, 0.5, 0.9};
  EXPECT_DOUBLE_EQ(j.utilization_at(0.0, 15.0).cpu, 0.1);
  EXPECT_DOUBLE_EQ(j.utilization_at(14.9, 15.0).cpu, 0.1);
  EXPECT_DOUBLE_EQ(j.utilization_at(15.0, 15.0).cpu, 0.5);
  EXPECT_DOUBLE_EQ(j.utilization_at(44.0, 15.0).cpu, 0.9);
  // Past the trace end: hold the last sample.
  EXPECT_DOUBLE_EQ(j.utilization_at(1000.0, 15.0).cpu, 0.9);
}

TEST(JobRecordTest, UtilizationSettlesWhenBothTracesHoldTheirLastSample) {
  JobRecord j;
  j.cpu_util_trace = {0.1, 0.5, 0.9};
  j.gpu_util_trace = {0.3, 0.6};
  EXPECT_FALSE(j.utilization_at(0.0, 15.0).settled);
  EXPECT_FALSE(j.utilization_at(15.0, 15.0).settled);  // gpu on its last sample only
  const JobRecord::Utilization u = j.utilization_at(30.0, 15.0);
  EXPECT_TRUE(u.settled);
  EXPECT_DOUBLE_EQ(u.cpu, 0.9);
  EXPECT_DOUBLE_EQ(u.gpu, 0.6);
  // Far past the end the position is compared before any cast.
  EXPECT_TRUE(j.utilization_at(1e300, 15.0).settled);
  EXPECT_DOUBLE_EQ(j.utilization_at(1e300, 15.0).cpu, 0.9);
  // Empty traces hold their means from the start.
  EXPECT_TRUE(JobRecord{}.utilization_at(0.0, 15.0).settled);
}

TEST(JobRecordTest, EmptyTraceFallsBackToMean) {
  JobRecord j;
  j.mean_gpu_util = 0.79;
  EXPECT_DOUBLE_EQ(j.utilization_at(100.0, 15.0).gpu, 0.79);
}

TEST(JobRecordTest, NegativeTimeClampsToStart) {
  JobRecord j;
  j.gpu_util_trace = {0.3, 0.6};
  EXPECT_DOUBLE_EQ(j.utilization_at(-5.0, 15.0).gpu, 0.3);
}

TEST(JobRecordTest, MeansAreClamped) {
  JobRecord j;
  j.mean_cpu_util = 1.7;
  EXPECT_DOUBLE_EQ(j.utilization_at(0.0, 15.0).cpu, 1.0);
  j.mean_cpu_util = -0.5;
  EXPECT_DOUBLE_EQ(j.utilization_at(0.0, 15.0).cpu, 0.0);
}

TEST(JobRecordTest, ReplayFlag) {
  JobRecord j;
  EXPECT_FALSE(j.is_replay());
  j.fixed_start_time_s = 120.0;
  EXPECT_TRUE(j.is_replay());
}

TelemetryDataset minimal_dataset() {
  TelemetryDataset d;
  d.system_name = "test";
  d.duration_s = 3600.0;
  d.trace_quantum_s = 15.0;
  JobRecord j;
  j.name = "j";
  j.node_count = 4;
  j.wall_time_s = 600.0;
  d.jobs.push_back(j);
  return d;
}

TEST(DatasetTest, ValidatesCleanDataset) {
  EXPECT_NO_THROW(minimal_dataset().validate());
}

TEST(DatasetTest, RejectsBadDuration) {
  TelemetryDataset d = minimal_dataset();
  d.duration_s = 0.0;
  EXPECT_THROW(d.validate(), TelemetryError);
}

TEST(DatasetTest, RejectsBadJobFields) {
  TelemetryDataset d = minimal_dataset();
  d.jobs[0].node_count = 0;
  EXPECT_THROW(d.validate(), TelemetryError);

  d = minimal_dataset();
  d.jobs[0].wall_time_s = -1.0;
  EXPECT_THROW(d.validate(), TelemetryError);

  d = minimal_dataset();
  d.jobs[0].cpu_util_trace = {0.5, 1.2};
  EXPECT_THROW(d.validate(), TelemetryError);

  d = minimal_dataset();
  d.jobs[0].gpu_util_trace = {std::nan("")};
  EXPECT_THROW(d.validate(), TelemetryError);
}

}  // namespace
}  // namespace exadigit
