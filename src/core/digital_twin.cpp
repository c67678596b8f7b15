#include "core/digital_twin.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace exadigit {

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
    cooling_synced_s_ = options.start_time_s;
    cdu_series_.resize(cdus);
    cdu_power_series_.resize(cdus);
    if (collect_series_) {
      // Stage-row order; on_cooling_quantum writes the rows in this order.
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
  // Step the plant by the simulated time it has not yet covered — exactly
  // one cooling quantum on the grid, the partial tail on a flush. The old
  // fixed-quantum step left the plant clock short of sim time (dropping the
  // tail heat) whenever t_end fell off the cooling grid.
  const double dt = now_s - cooling_synced_s_;
  if (dt <= 1e-9) return;
  // Per-CDU heat = wall power * cooling efficiency (the same product
  // RapsPowerModel::cdu_heat_w returns), written into the plant inputs in
  // place so the per-quantum callback does not allocate.
  const std::vector<double>& cdu_wall = engine_.power_model().cdu_wall_power_w();
  std::vector<double>& heat = inputs_.cdu_heat_w;
  heat.resize(cdu_wall.size());
  for (std::size_t i = 0; i < cdu_wall.size(); ++i) {
    heat[i] = cdu_wall[i] * config_.cooling.cooling_efficiency;
    require(heat[i] >= 0.0, "cdu heat input must be non-negative");
  }
  const double p_system = engine_.power().system_power_w;
  inputs_.wetbulb_c = wetbulb_at(now_s);
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

void DigitalTwin::flush_stage() {
  const std::size_t stride = channels_.size();
  for (std::size_t c = 0; c < stride; ++c) {
    channels_[c]->append(stage_times_.data(), stage_.data() + c, stride, staged_rows_);
  }
  staged_rows_ = 0;
}

void DigitalTwin::reserve_series(double t_end_s) {
  if (channels_.empty() || !(t_end_s > engine_.now_s())) return;
  // One sample per quantum boundary up to t_end, plus the off-grid tail.
  const double quanta =
      std::ceil((t_end_s - engine_.now_s()) / config_.simulation.cooling_quantum_s) + 1.0;
  if (!std::isfinite(quanta)) return;
  const auto add = static_cast<std::size_t>(quanta);
  for (TimeSeries* series : channels_) series->reserve(series->size() + staged_rows_ + add);
}

void DigitalTwin::run_until(double t_end_s) {
  reserve_series(t_end_s);
  try {
    engine_.run_until(t_end_s);
    // Flush a final partial plant step when t_end is off the cooling grid
    // (the last quantum callback fired before t_end); on-grid ends are
    // already synced and this is a no-op.
    if (plant_ != nullptr) on_cooling_quantum(engine_.now_s());
  } catch (...) {
    // A failed run keeps the samples recorded before the failure.
    flush_stage();
    throw;
  }
  flush_stage();
}

}  // namespace exadigit
