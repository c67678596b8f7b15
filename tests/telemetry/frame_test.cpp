#include "telemetry/frame.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "telemetry/schema.hpp"

namespace exadigit {
namespace {

TEST(FrameTest, AppendCreatesChannelsInInsertionOrder) {
  TelemetryFrame frame;
  frame.append("cdu0", "rack_power_w", 0.0, 1.0);
  frame.append("cdu0", "rack_power_w", 15.0, 2.0);
  frame.append("system", "wetbulb_c", 0.0, 18.0);
  frame.append("cdu0", "rack_power_w", 30.0, 3.0);

  ASSERT_EQ(frame.channel_count(), 2u);
  EXPECT_EQ(frame.sample_count(), 4u);
  EXPECT_EQ(frame.channels()[0].tag, "cdu0");
  EXPECT_EQ(frame.channels()[0].channel, "rack_power_w");
  EXPECT_EQ(frame.channels()[1].tag, "system");

  const TelemetryChannel* ch = frame.find("cdu0", "rack_power_w");
  ASSERT_NE(ch, nullptr);
  ASSERT_EQ(ch->size(), 3u);
  EXPECT_DOUBLE_EQ(ch->times[2], 30.0);
  EXPECT_DOUBLE_EQ(ch->values[2], 3.0);
}

TEST(FrameTest, InterleavedAppendsLandInTheRightChannels) {
  // Defeats the streaming cursor on every row.
  TelemetryFrame frame;
  for (int i = 0; i < 100; ++i) {
    frame.append("a", "x", i, 2.0 * i);
    frame.append("b", "x", i, 3.0 * i);
    frame.append("a", "y", i, 5.0 * i);
  }
  ASSERT_EQ(frame.channel_count(), 3u);
  EXPECT_EQ(frame.sample_count(), 300u);
  EXPECT_DOUBLE_EQ(frame.find("b", "x")->values[99], 297.0);
  EXPECT_DOUBLE_EQ(frame.find("a", "y")->values[99], 495.0);
}

TEST(FrameTest, FindAndSeriesOnMissingKey) {
  TelemetryFrame frame;
  frame.append("a", "x", 0.0, 1.0);
  EXPECT_EQ(frame.find("a", "z"), nullptr);
  EXPECT_EQ(frame.find("z", "x"), nullptr);
  EXPECT_TRUE(frame.take_series("nope", "x").empty());
}

TEST(FrameTest, TakeSeriesMovesArraysOut) {
  TelemetryFrame frame;
  frame.adopt_channel("a", "x", {0.0, 1.0, 2.0}, {10.0, 11.0, 12.0});
  const TimeSeries s = frame.take_series("a", "x");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.value(1), 11.0);
  // The channel stays registered but is now empty.
  ASSERT_NE(frame.find("a", "x"), nullptr);
  EXPECT_EQ(frame.find("a", "x")->size(), 0u);
  EXPECT_TRUE(frame.take_series("a", "x").empty());
}

TEST(FrameTest, AdoptChannelRejectsDuplicatesAndRaggedArrays) {
  TelemetryFrame frame;
  frame.adopt_channel("a", "x", {0.0}, {1.0});
  EXPECT_THROW(frame.adopt_channel("a", "x", {1.0}, {2.0}), ConfigError);
  EXPECT_THROW(frame.adopt_channel("a", "y", {0.0, 1.0}, {1.0}), ConfigError);
}

TEST(FrameTest, FromDatasetCoversEveryNonEmptyChannel) {
  TelemetryDataset d;
  d.duration_s = 60.0;
  d.measured_system_power_w = TimeSeries::uniform(0.0, 15.0, {1e7, 1.1e7});
  d.cdus.resize(2);
  d.cdus[1].supply_temp_c = TimeSeries::uniform(0.0, 15.0, {32.0, 32.5});
  d.facility.pue = TimeSeries::uniform(0.0, 15.0, {1.02});

  const TelemetryFrame frame = TelemetryFrame::from_dataset(d);
  EXPECT_EQ(frame.channel_count(), 3u);
  ASSERT_NE(frame.find(kSystemTag, "measured_power_w"), nullptr);
  ASSERT_NE(frame.find("cdu1", "supply_temp_c"), nullptr);
  EXPECT_EQ(frame.find("cdu1", "supply_temp_c")->values[1], 32.5);
  ASSERT_NE(frame.find(kFacilityTag, "pue"), nullptr);
  EXPECT_EQ(frame.find("cdu0", "supply_temp_c"), nullptr);  // empty -> omitted
}

TEST(FrameTest, ChannelDefTablesMatchSchemaWidths) {
  // The serializers all iterate these tables; a silent drop here would be
  // a silently-missing channel in every format.
  EXPECT_EQ(system_channel_defs().size(), 2u);
  EXPECT_EQ(cdu_channel_defs().size(), 7u);
  EXPECT_EQ(facility_channel_defs().size(), 13u);
  EXPECT_EQ(cdu_tag(3), "cdu3");
}

}  // namespace
}  // namespace exadigit
