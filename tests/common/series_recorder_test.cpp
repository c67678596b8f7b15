#include "common/series_recorder.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace exadigit {
namespace {

/// Stages `rows` rows at times t0, t0 + 1, ...: channel c of row r holds
/// 100 c + r.
void stage_rows(SeriesRecorder& recorder, double t0, int rows) {
  for (int r = 0; r < rows; ++r) {
    double* row = recorder.stage_row(t0 + r);
    for (std::size_t c = 0; c < recorder.channel_count(); ++c) {
      row[c] = 100.0 * static_cast<double>(c) + r;
    }
  }
}

TEST(SeriesRecorderTest, ChannelsShareOneAxisAndKeepTheirColumns) {
  TimeSeries a;
  TimeSeries b;
  SeriesRecorder recorder;
  recorder.attach({&a, &b});
  stage_rows(recorder, 15.0, 3);
  // Staged rows reach the channels only when the stage is flushed.
  EXPECT_TRUE(a.empty());
  recorder.flush();
  EXPECT_EQ(a.times().data(), b.times().data());
  EXPECT_EQ(a.times(), (std::vector<double>{15.0, 16.0, 17.0}));
  EXPECT_EQ(a.values(), (std::vector<double>{0.0, 1.0, 2.0}));
  EXPECT_EQ(b.values(), (std::vector<double>{100.0, 101.0, 102.0}));
  EXPECT_EQ(b.size(), 3u);
  EXPECT_DOUBLE_EQ(b.at(16.5), 101.5);
  EXPECT_DOUBLE_EQ(b.integral(), 202.0);
}

TEST(SeriesRecorderTest, FullStageFlushesBeforeTheNextRow) {
  TimeSeries a;
  SeriesRecorder recorder;
  recorder.attach({&a});
  stage_rows(recorder, 0.0, SeriesRecorder::kStageRows);
  EXPECT_TRUE(a.empty());
  stage_rows(recorder, 1000.0, 1);
  EXPECT_EQ(a.size(), SeriesRecorder::kStageRows);
  recorder.flush();
  EXPECT_EQ(a.size(), SeriesRecorder::kStageRows + 1);
  EXPECT_EQ(a.times().back(), 1000.0);
  recorder.flush();  // an empty stage is a no-op
  EXPECT_EQ(a.size(), SeriesRecorder::kStageRows + 1);
}

TEST(SeriesRecorderTest, RejectedBlockLeavesEveryChannelUnchanged) {
  TimeSeries a;
  TimeSeries b;
  SeriesRecorder recorder;
  recorder.attach({&a, &b});
  stage_rows(recorder, 10.0, 2);
  recorder.flush();
  // At the seam the first time must exceed the axis's last one (11).
  stage_rows(recorder, 11.0, 2);
  EXPECT_THROW(recorder.flush(), ConfigError);
  EXPECT_EQ(a.times(), (std::vector<double>{10.0, 11.0}));
  EXPECT_EQ(b.values(), (std::vector<double>{100.0, 101.0}));
  EXPECT_EQ(a.times().size(), a.values().size());
}

TEST(SeriesRecorderTest, CopiesAndMovesOwnTheirTimes) {
  auto a = std::make_unique<TimeSeries>();
  auto recorder = std::make_unique<SeriesRecorder>();
  recorder->attach({a.get()});
  stage_rows(*recorder, 0.0, 4);
  recorder->flush();

  TimeSeries copy = *a;
  TimeSeries moved(std::move(*a));
  TimeSeries assigned({5.0}, {50.0});
  assigned = *a;
  for (const TimeSeries* s : {&copy, &moved, &assigned}) {
    EXPECT_NE(s->times().data(), a->times().data());
    EXPECT_EQ(s->times(), a->times());
    EXPECT_EQ(s->values(), a->values());
  }
  // The source of the move is still attached and recording.
  EXPECT_EQ(a->size(), 4u);

  stage_rows(*recorder, 10.0, 3);
  recorder->flush();
  EXPECT_EQ(a->size(), 7u);
  EXPECT_EQ(a->times().size(), a->values().size());
  // The copies outlive the channel and its recorder, with their samples.
  a.reset();
  recorder.reset();
  for (const TimeSeries* s : {&copy, &moved, &assigned}) {
    EXPECT_EQ(s->times(), (std::vector<double>{0.0, 1.0, 2.0, 3.0}));
    EXPECT_EQ(s->values(), (std::vector<double>{0.0, 1.0, 2.0, 3.0}));
  }
  copy.push_back(4.0, 9.0);  // an owned series appends
  EXPECT_EQ(copy.size(), 5u);
}

TEST(SeriesRecorderTest, ReserveMakesRoomInTheAxisAndEveryChannel) {
  TimeSeries a;
  TimeSeries b;
  SeriesRecorder recorder;
  recorder.attach({&a, &b});
  stage_rows(recorder, 0.0, 2);
  recorder.reserve(100);
  EXPECT_GE(a.times().capacity(), 102u);
  EXPECT_GE(a.values().capacity(), 102u);
  EXPECT_GE(b.values().capacity(), 102u);
  const double* axis = a.times().data();
  const double* values = b.values().data();
  stage_rows(recorder, 2.0, 60);
  recorder.flush();
  // Nothing moved: the reservation covered the staged rows and the new ones.
  EXPECT_EQ(a.times().data(), axis);
  EXPECT_EQ(b.values().data(), values);
}

TEST(SeriesRecorderTest, AttachTakesOnlyEmptyOwnedSeriesOnce) {
  TimeSeries full({0.0}, {1.0});
  SeriesRecorder first;
  EXPECT_THROW(first.attach({&full}), ConfigError);
  TimeSeries a;
  first.attach({&a});
  TimeSeries b;
  EXPECT_THROW(first.attach({&b}), ConfigError);
  SeriesRecorder second;
  EXPECT_THROW(second.attach({&a}), ConfigError);
}

}  // namespace
}  // namespace exadigit
