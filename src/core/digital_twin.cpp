#include "core/digital_twin.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <system_error>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/units.hpp"

namespace exadigit {

namespace {

/// Layout of one captured quantum: the time, P_system and the wet bulb,
/// then the wall power of each CDU.
constexpr std::size_t kQuantumTime = 0;
constexpr std::size_t kQuantumSystemPower = 1;
constexpr std::size_t kQuantumWetbulb = 2;
constexpr std::size_t kQuantumCduWall = 3;

/// Unwinds the engine stage once the plant stage has failed; run_until
/// rethrows the plant's error in its place.
struct PlantStageFailed {};

/// Sets `asleep` and blocks on it until `ready()` holds. The other stage
/// clears the flag and notifies it through wake_if_asleep. The flag is
/// stored before `ready()` reads the other stage's index, and that stage
/// stores its index before it reads the flag, so one of the two always
/// sees the other: no wake-up is lost.
template <typename Ready>
void sleep_until(std::atomic<std::uint32_t>& asleep, Ready ready) {
  for (;;) {
    asleep.store(1);
    if (ready()) break;
    asleep.wait(1);
  }
  asleep.store(0, std::memory_order_relaxed);
}

void wake_if_asleep(std::atomic<std::uint32_t>& asleep) {
  if (asleep.exchange(0) != 0) asleep.notify_one();
}

}  // namespace

/// The bounded single-producer/single-consumer ring between the engine
/// stage (producer) and the plant stage (consumer). The indices count
/// quanta since open(); a slot is index % kRingQuanta. A full producer
/// sleeps until half the ring is free, and an empty consumer until
/// kPlantWakeQuanta quanta are ready or the ring closes, so wake-ups come
/// in batches.
class DigitalTwin::QuantumRing {
 public:
  explicit QuantumRing(std::size_t cdus)
      : stride_(kQuantumCduWall + cdus), slots_(kRingQuanta * stride_) {}

  /// Empties the ring for a run, before any worker starts. An inline run
  /// fills slot 0 every quantum.
  void open() {
    head_.store(0);
    tail_.store(0);
    closed_.store(false);
    failed_.store(false);
  }

  /// Producer: the slot to fill next, after waiting while the ring is
  /// full. Throws PlantStageFailed once the consumer has failed.
  double* claim() {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_.load(std::memory_order_acquire) == kRingQuanta) {
      sleep_until(producer_asleep_, [&] {
        return failed_.load() || head - tail_.load() <= kRingQuanta / 2;
      });
    }
    if (failed_.load(std::memory_order_acquire)) throw PlantStageFailed{};
    return slot(head);
  }

  /// Producer: hands the claimed slot to the consumer.
  void publish() {
    const std::uint64_t head = head_.load(std::memory_order_relaxed) + 1;
    head_.store(head);
    if (consumer_asleep_.load() != 0 &&
        head - tail_.load(std::memory_order_relaxed) >= kPlantWakeQuanta) {
      wake_if_asleep(consumer_asleep_);
    }
  }

  /// Producer: no more quanta this run.
  void close() {
    closed_.store(true);
    wake_if_asleep(consumer_asleep_);
  }

  /// Consumer: the oldest unconsumed slot, after waiting while the ring is
  /// empty; null once the ring is closed and drained.
  [[nodiscard]] const double* next() {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (head_.load(std::memory_order_acquire) == tail) {
      sleep_until(consumer_asleep_, [&] {
        return closed_.load() || head_.load() - tail >= kPlantWakeQuanta;
      });
      if (head_.load(std::memory_order_acquire) == tail) return nullptr;
    }
    return slot(tail);
  }

  /// Consumer: frees the slot next() returned.
  void pop() {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed) + 1;
    tail_.store(tail);
    if (producer_asleep_.load() != 0 &&
        head_.load(std::memory_order_relaxed) - tail <= kRingQuanta / 2) {
      wake_if_asleep(producer_asleep_);
    }
  }

  /// Consumer: stops consuming and wakes the producer, whose next claim()
  /// throws.
  void fail() {
    failed_.store(true);
    wake_if_asleep(producer_asleep_);
  }

 private:
  /// An empty plant stage resumes once this many quanta are ready. The
  /// plant is the slower stage on a Frontier day and seldom waits; when it
  /// does (at the start of a run, or behind a slow engine), a half-ring
  /// wait would hold back a run of under 128 quanta for its whole length,
  /// while one wake-up per quantum would cost a futex call each.
  static constexpr std::uint64_t kPlantWakeQuanta = 16;

  [[nodiscard]] double* slot(std::uint64_t index) {
    return slots_.data() + (index % kRingQuanta) * stride_;
  }

  std::size_t stride_;
  std::vector<double> slots_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint32_t> consumer_asleep_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint32_t> producer_asleep_{0};
  alignas(64) std::atomic<bool> closed_{false};
  std::atomic<bool> failed_{false};
};

DigitalTwin::DigitalTwin(const SystemConfig& config)
    : DigitalTwin(config, DigitalTwinOptions{}) {}

DigitalTwin::DigitalTwin(const SystemConfig& config, const DigitalTwinOptions& options)
    : config_(config),
      engine_(config, RapsEngine::Options{options.start_time_s, options.collect_series}),
      collect_series_(options.collect_series) {
  if (options.enable_cooling) {
    const auto cdus = static_cast<std::size_t>(config_.cdu_count);
    plant_ = std::make_unique<CoolingPlantModel>(config_);
    plant_->reset(options.ambient_c);
    inputs_.cdu_heat_w.resize(cdus);
    ring_ = std::make_unique<QuantumRing>(cdus);
    cooling_synced_s_ = options.start_time_s;
    cdu_series_.resize(cdus);
    cdu_power_series_.resize(cdus);
    if (collect_series_) {
      // Stage-row order; step_plant writes the rows in this order.
      channels_ = {&pue_series_, &htws_series_, &pri_return_series_, &pri_dp_series_,
                   &cooling_eff_series_};
      for (std::size_t i = 0; i < cdus; ++i) {
        CduSeries& c = cdu_series_[i];
        channels_.insert(channels_.end(), {&c.pri_flow_gpm, &c.sec_flow_gpm, &c.return_temp_c,
                                           &c.supply_temp_c, &c.pump_power_w,
                                           &cdu_power_series_[i]});
      }
      stage_.resize(kStageRows * channels_.size());
    }
    engine_.set_cooling_callback(
        [this](RapsEngine&, double now_s) { on_cooling_quantum(now_s); });
  }
  // Options seed both the plant temperature and the constant wet bulb so a
  // twin with no explicit ambient is internally consistent.
  wetbulb_constant_ = options.ambient_c;
}

DigitalTwin::~DigitalTwin() = default;

void DigitalTwin::set_wetbulb_series(TimeSeries series) {
  require(!series.empty(), "wetbulb series must be non-empty");
  wetbulb_series_ = std::move(series);
}

void DigitalTwin::append_wetbulb_samples(const std::vector<double>& times,
                                         const std::vector<double>& values) {
  require(times.size() == values.size(), "wetbulb sample arrays must be equally sized");
  if (times.empty()) return;
  // Both branches check the whole batch before anything changes.
  if (wetbulb_series_.has_value()) {
    wetbulb_series_->append(times.data(), values.data(), 1, times.size());
  } else {
    wetbulb_series_ = TimeSeries(times, values);
  }
}

void DigitalTwin::set_wetbulb_constant(double wetbulb_c) {
  wetbulb_series_.reset();
  wetbulb_constant_ = wetbulb_c;
}

double DigitalTwin::wetbulb_at(double t_s) const {
  return wetbulb_series_.has_value() ? wetbulb_series_->at(t_s) : wetbulb_constant_;
}

CoolingPlantModel& DigitalTwin::cooling() {
  require(plant_ != nullptr, "cooling model is disabled for this twin");
  return *plant_;
}

const CoolingPlantModel& DigitalTwin::cooling() const {
  require(plant_ != nullptr, "cooling model is disabled for this twin");
  return *plant_;
}

void DigitalTwin::on_cooling_quantum(double now_s) {
  double* quantum = ring_->claim();
  quantum[kQuantumTime] = now_s;
  quantum[kQuantumSystemPower] = engine_.power().system_power_w;
  quantum[kQuantumWetbulb] = wetbulb_at(now_s);
  const std::vector<double>& cdu_wall = engine_.power_model().cdu_wall_power_w();
  std::copy(cdu_wall.begin(), cdu_wall.end(), quantum + kQuantumCduWall);
  if (pipelined_) {
    ring_->publish();
  } else {
    step_plant(quantum);
  }
}

void DigitalTwin::step_plant(const double* quantum) {
  // Step the plant by the simulated time it has not yet covered — exactly
  // one cooling quantum on the grid, the partial tail on a flush. The old
  // fixed-quantum step left the plant clock short of sim time (dropping the
  // tail heat) whenever t_end fell off the cooling grid.
  const double now_s = quantum[kQuantumTime];
  const double dt = now_s - cooling_synced_s_;
  if (dt <= 1e-9) return;
  // Per-CDU heat = wall power * cooling efficiency (the same product
  // RapsPowerModel::cdu_heat_w returns), written into the plant inputs in
  // place so the quantum does not allocate. The plant checks its inputs.
  const double* cdu_wall = quantum + kQuantumCduWall;
  std::vector<double>& heat = inputs_.cdu_heat_w;
  for (std::size_t i = 0; i < heat.size(); ++i) {
    heat[i] = cdu_wall[i] * config_.cooling.cooling_efficiency;
  }
  const double p_system = quantum[kQuantumSystemPower];
  inputs_.wetbulb_c = quantum[kQuantumWetbulb];
  inputs_.system_power_w = p_system;
  const PlantOutputs& out = plant_->step(inputs_, dt);
  cooling_synced_s_ = now_s;

  if (channels_.empty()) return;
  // One stage row, in the channel order the constructor laid out.
  double* row = stage_.data() + staged_rows_ * channels_.size();
  stage_times_[staged_rows_] = now_s;
  *row++ = out.pue;
  *row++ = out.pri_supply_t_c;
  *row++ = out.pri_return_t_c;
  *row++ = out.pri_dp_pa;
  // Cooling efficiency eta_cooling = H / P_system (paper Section IV-1).
  double total_heat = 0.0;
  for (const double h : heat) total_heat += h;
  *row++ = p_system > 0.0 ? total_heat / p_system : 0.0;
  for (std::size_t i = 0; i < cdu_series_.size(); ++i) {
    const CduOutputs& c = out.cdus[i];
    *row++ = units::gpm_from_m3s(c.pri_flow_m3s);
    *row++ = units::gpm_from_m3s(c.sec_flow_m3s);
    *row++ = c.pri_return_t_c;
    *row++ = c.sec_supply_t_c;
    *row++ = c.pump_power_w;
    *row++ = cdu_wall[i];
  }
  if (++staged_rows_ == kStageRows) flush_stage();
}

void DigitalTwin::run_plant_stage() {
  try {
    while (const double* quantum = ring_->next()) {
      step_plant(quantum);
      ring_->pop();
    }
  } catch (...) {
    plant_error_ = std::current_exception();
    ring_->fail();
  }
}

void DigitalTwin::flush_stage() {
  const std::size_t stride = channels_.size();
  for (std::size_t c = 0; c < stride; ++c) {
    channels_[c]->append(stage_times_.data(), stage_.data() + c, stride, staged_rows_);
  }
  staged_rows_ = 0;
}

std::size_t DigitalTwin::quanta_until(double t_end_s) const {
  if (!(t_end_s > engine_.now_s())) return 0;
  const double quanta =
      std::ceil((t_end_s - engine_.now_s()) / config_.simulation.cooling_quantum_s);
  return std::isfinite(quanta) ? static_cast<std::size_t>(quanta) : 0;
}

void DigitalTwin::reserve_series(double t_end_s) {
  if (channels_.empty()) return;
  // One sample per quantum boundary up to t_end, plus the off-grid tail.
  const std::size_t add = quanta_until(t_end_s);
  if (add == 0) return;
  for (TimeSeries* series : channels_) series->reserve(series->size() + staged_rows_ + add + 1);
}

void DigitalTwin::run_until(double t_end_s) {
  reserve_series(t_end_s);
  std::thread plant_stage;
  if (plant_ != nullptr) {
    ring_->open();
    if (quanta_until(t_end_s) >= kPipelineMinQuanta) {
      try {
        plant_stage = std::thread([this] { run_plant_stage(); });
      } catch (const std::system_error&) {
        // No thread to be had: this run steps the plant inline.
      }
    }
  }
  pipelined_ = plant_stage.joinable();
  std::exception_ptr error;
  try {
    engine_.run_until(t_end_s);
    // Flush a final partial plant step when t_end is off the cooling grid
    // (the last quantum callback fired before t_end); on-grid ends are
    // already synced and this is a no-op.
    if (plant_ != nullptr) on_cooling_quantum(engine_.now_s());
  } catch (...) {
    error = std::current_exception();
  }
  if (pipelined_) {
    // The plant stage drains what the engine captured, then exits.
    ring_->close();
    plant_stage.join();
    pipelined_ = false;
    // A plant failure comes first in simulated time: the engine stage
    // captured every later quantum only by running ahead of it.
    if (plant_error_) error = std::exchange(plant_error_, nullptr);
  }
  // A failed run keeps the samples recorded before the failure.
  flush_stage();
  if (error) std::rethrow_exception(error);
}

}  // namespace exadigit
