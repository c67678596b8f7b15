#include "telemetry/swf.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "raps/engine.hpp"

namespace exadigit {
namespace {

/// A small trace in Parallel Workloads Archive style: comment header, then
/// 18-field job lines (only the first five matter to the importer).
const char* kTrace =
    "; SWF trace for tests\n"
    "; UnixStartTime: 0\n"
    "1 0    10 3600 128  -1 -1 128 3600 -1 1 1 1 1 -1 -1 -1 -1\n"
    "2 60   -1 1800 256  -1 -1 256 1800 -1 1 1 1 1 -1 -1 -1 -1\n"
    "3 120  30 -1   64   -1 -1 64  -1   -1 0 1 1 1 -1 -1 -1 -1\n"  // failed job
    "4 180  5  600  1    -1 -1 1   600  -1 1 1 1 1 -1 -1 -1 -1\n";

TEST(SwfTest, ParsesJobsAndDropsInvalid) {
  std::istringstream is(kTrace);
  SwfImportOptions options;
  options.cores_per_node = 64;
  const auto jobs = parse_swf(is, options);
  ASSERT_EQ(jobs.size(), 3u);  // job 3 has run time -1 -> dropped
  EXPECT_EQ(jobs[0].id, 1);
  EXPECT_DOUBLE_EQ(jobs[0].submit_time_s, 0.0);
  EXPECT_DOUBLE_EQ(jobs[0].wall_time_s, 3600.0);
  EXPECT_EQ(jobs[0].node_count, 2);  // 128 procs / 64 cores per node
  EXPECT_EQ(jobs[1].node_count, 4);
  EXPECT_EQ(jobs[2].node_count, 1);  // 1 proc rounds up to one node
}

TEST(SwfTest, RecordedScheduleUsesWaitTime) {
  std::istringstream is(kTrace);
  SwfImportOptions options;
  options.use_recorded_schedule = true;
  const auto jobs = parse_swf(is, options);
  // Job 1: submit 0 + wait 10; job 2 has wait -1 (unknown) -> not replayed.
  EXPECT_TRUE(jobs[0].is_replay());
  EXPECT_DOUBLE_EQ(jobs[0].fixed_start_time_s, 10.0);
  EXPECT_FALSE(jobs[1].is_replay());
}

TEST(SwfTest, DefaultUtilizationsApplied) {
  std::istringstream is(kTrace);
  SwfImportOptions options;
  options.mean_cpu_util = 0.5;
  options.mean_gpu_util = 0.25;
  const auto jobs = parse_swf(is, options);
  EXPECT_DOUBLE_EQ(jobs[0].mean_cpu_util, 0.5);
  EXPECT_DOUBLE_EQ(jobs[0].mean_gpu_util, 0.25);
}

TEST(SwfTest, SortsBySubmitTime) {
  std::istringstream is(
      "5 500 0 100 64 -1 -1 64 100 -1 1 1 1 1 -1 -1 -1 -1\n"
      "6 100 0 100 64 -1 -1 64 100 -1 1 1 1 1 -1 -1 -1 -1\n");
  const auto jobs = parse_swf(is, SwfImportOptions{});
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, 6);
  EXPECT_EQ(jobs[1].id, 5);
}

TEST(SwfTest, MalformedLineThrows) {
  std::istringstream is("not a number line\n");
  EXPECT_THROW(parse_swf(is, SwfImportOptions{}), TelemetryError);
  std::istringstream invalid("3 120 30 -1 64 -1 -1 64 -1 -1 0 1 1 1 -1 -1 -1 -1\n");
  SwfImportOptions strict;
  strict.drop_invalid = false;
  EXPECT_THROW(parse_swf(invalid, strict), TelemetryError);
}

TEST(SwfTest, MalformedLineErrorNamesEveryCorruptLine) {
  // Two corrupt records among good ones: the error must pinpoint both, so
  // a skipped record is never indistinguishable from a comment.
  std::istringstream is(
      "; header\n"
      "1 0 10 3600 128 -1 -1 128 3600 -1 1 1 1 1 -1 -1 -1 -1\n"
      "corrupt record here\n"
      "2 60 -1 1800 256 -1 -1 256 1800 -1 1 1 1 1 -1 -1 -1 -1\n"
      "4 xx\n");
  try {
    (void)parse_swf(is, SwfImportOptions{});
    FAIL() << "expected TelemetryError";
  } catch (const TelemetryError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lines 3, 5"), std::string::npos) << what;
  }
}

TEST(SwfTest, SkipMalformedReportsSkippedRecords) {
  std::istringstream is(
      "1 0 10 3600 128 -1 -1 128 3600 -1 1 1 1 1 -1 -1 -1 -1\n"
      "corrupt record here\n"
      "3 120 30 -1 64 -1 -1 64 -1 -1 0 1 1 1 -1 -1 -1 -1\n"  // invalid, dropped
      "2 60 -1 1800 256 -1 -1 256 1800 -1 1 1 1 1 -1 -1 -1 -1\n");
  SwfImportOptions options;
  options.skip_malformed = true;
  SwfParseReport report;
  const auto jobs = parse_swf(is, options, &report);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(report.parsed, 2u);
  EXPECT_EQ(report.dropped_invalid, 1u);
  ASSERT_EQ(report.malformed_lines.size(), 1u);
  EXPECT_EQ(report.malformed_lines[0], 2);
}

TEST(SwfTest, CleanTraceReportsNoSkips) {
  std::istringstream is(kTrace);
  SwfParseReport report;
  const auto jobs = parse_swf(is, SwfImportOptions{}, &report);
  EXPECT_EQ(report.parsed, jobs.size());
  EXPECT_EQ(report.dropped_invalid, 1u);  // the failed job in kTrace
  EXPECT_TRUE(report.malformed_lines.empty());
}

TEST(SwfTest, ImportedTraceDrivesTheEngine) {
  std::istringstream is(kTrace);
  const auto jobs = parse_swf(is, SwfImportOptions{});
  SystemConfig config = frontier_system_config();
  RapsEngine engine(config);
  engine.submit_all(jobs);
  engine.run_until(3700.0);
  EXPECT_EQ(engine.jobs_completed(), 3);
}

TEST(SwfTest, ReaderRegistryIntegration) {
  // The default registry resolves "swf", so the CLI and the server load
  // SWF traces through the generic interface.
  const std::string path = "/tmp/exadigit_swf_test.swf";
  {
    std::ofstream f(path);
    f << kTrace;
  }
  const TelemetryDataset d = TelemetryReaderRegistry::instance().load("swf", path);
  EXPECT_EQ(d.system_name, "swf-trace");
  EXPECT_EQ(d.jobs.size(), 3u);
  EXPECT_GE(d.duration_s, 3600.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace exadigit
