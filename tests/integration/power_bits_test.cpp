/// Golden bits of the RAPS power path. Each case runs one power-only
/// synthetic day through a DigitalTwin and compares the report energy and
/// an FNV-1a 64 digest of every power, loss, eta and utilization sample
/// (times and values) against constants recorded from an earlier
/// implementation of the power model, one that looked conversions up in
/// value-keyed memos. A change to how conversions are cached, summed or
/// interpolated must keep these exactly; a deliberate change to the
/// physics updates them and says why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/stable_hash.hpp"
#include "common/units.hpp"
#include "core/digital_twin.hpp"
#include "raps/workload.hpp"

namespace exadigit {
namespace {

struct PowerDayBits {
  double energy_mwh = 0.0;
  std::uint64_t samples_digest = 0;
  int jobs_completed = 0;
};

std::uint64_t digest_doubles(const std::vector<double>& values, std::uint64_t seed) {
  return fnv1a64(std::string_view(reinterpret_cast<const char*>(values.data()),
                                  values.size() * sizeof(double)),
                 seed);
}

/// One power-only day of seeded synthetic jobs. With `partitions`, jobs
/// alternate between the config's partitions by id.
PowerDayBits run_power_day(const SystemConfig& config, std::uint64_t seed,
                           bool partitions = false) {
  DigitalTwinOptions options;
  options.enable_cooling = false;
  DigitalTwin twin(config, options);
  WorkloadGenerator gen(config.workload, config, Rng(seed));
  std::vector<JobRecord> jobs = gen.generate(0.0, units::kSecondsPerDay);
  if (partitions) {
    for (JobRecord& job : jobs) {
      job.partition = config.partitions[static_cast<std::size_t>(job.id) %
                                        config.partitions.size()]
                          .name;
    }
  }
  twin.submit_all(jobs);
  twin.run_until(units::kSecondsPerDay);

  std::uint64_t digest = kFnv1a64Offset;
  for (const TimeSeries* s : {&twin.engine().power_series_mw(), &twin.engine().loss_series_mw(),
                              &twin.engine().eta_series(), &twin.engine().utilization_series()}) {
    digest = digest_doubles(s->times(), digest);
    digest = digest_doubles(s->values(), digest);
  }
  return PowerDayBits{twin.report().total_energy_mwh, digest, twin.report().jobs_completed};
}

std::string bits_text(const PowerDayBits& bits) {
  char energy[64];
  std::snprintf(energy, sizeof energy, "%.17g", bits.energy_mwh);
  return std::string("energy_mwh ") + energy + ", digest 0x" +
         stable_hash_hex(bits.samples_digest);
}

void expect_bits(const PowerDayBits& got, double energy_mwh, std::uint64_t digest) {
  EXPECT_GT(got.jobs_completed, 0);
  EXPECT_EQ(got.energy_mwh, energy_mwh) << bits_text(got);
  EXPECT_EQ(got.samples_digest, digest) << bits_text(got);
}

TEST(PowerBitsTest, FrontierDay) {
  expect_bits(run_power_day(frontier_system_config(), 11), 400.4994081110919,
              0x90ceba69cfc85edbULL);
}

TEST(PowerBitsTest, FrontierDaySmartStaging) {
  SystemConfig config = frontier_system_config();
  config.power.load_sharing = LoadSharingPolicy::kSmartStaging;
  expect_bits(run_power_day(config, 11), 399.88240494099074, 0x205e7f303e9532f2ULL);
}

TEST(PowerBitsTest, FrontierDayDc380) {
  SystemConfig config = frontier_system_config();
  config.power.feed = PowerFeed::kDC380;
  expect_bits(run_power_day(config, 11), 386.22725753497002, 0xbfe36170f9d0d5ffULL);
}

TEST(PowerBitsTest, TwoPartitionDay) {
  expect_bits(run_power_day(setonix_like_config(), 12, /*partitions=*/true),
              25.845571582489431, 0x1cc92ad9f50f7f07ULL);
}

}  // namespace
}  // namespace exadigit
