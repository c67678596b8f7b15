#pragma once

/// @file cooling_fmu.hpp
/// The cooling plant wrapped as a co-simulation FMU.
///
/// Mirrors the paper's exported Modelica FMU: inputs are the heat extracted
/// per CDU plus the wet-bulb temperature (and P_system for the PUE output),
/// and the model produces 317 outputs per 15 s step — 12 per CDU (stations
/// 12-15: flows, temperatures, pressures, pump work) plus 17 plant-level
/// values (staging counts, pump powers and speeds, HTWS/CT temperatures,
/// PUE). Variable names follow "cdu[k].field" / "plant.field".

#include <memory>

#include "cooling/plant.hpp"
#include "fmi/fmi.hpp"

namespace exadigit {

/// FMI facade over CoolingPlantModel.
class CoolingFmu final : public CoSimulationSlave {
 public:
  explicit CoolingFmu(const SystemConfig& config);

  [[nodiscard]] std::string model_name() const override { return "exadigit.cooling_plant"; }
  [[nodiscard]] const std::vector<VariableInfo>& variables() const override {
    return variables_;
  }
  void setup_experiment(double start_time_s) override;
  void set_real(ValueRef ref, double value) override;
  [[nodiscard]] double get_real(ValueRef ref) const override;
  void do_step(double current_time_s, double step_s) override;
  void reset() override;

  /// Underlying plant for white-box tests, fault injection, and the
  /// hydraulics counters (CoolingPlantModel::hydraulics_stats).
  [[nodiscard]] CoolingPlantModel& plant() { return plant_; }
  [[nodiscard]] const CoolingPlantModel& plant() const { return plant_; }
  [[nodiscard]] const PlantOutputs& outputs() const { return plant_.outputs(); }

  /// Total number of output variables (317 for the 25-CDU Frontier plant).
  [[nodiscard]] std::size_t output_count() const;

 private:
  SystemConfig config_;
  CoolingPlantModel plant_;
  CoolingInputs pending_inputs_;
  std::vector<VariableInfo> variables_;
  double ambient_reset_c_ = 25.0;

  // Value-reference layout:
  //   [0, cdu_count)         : input  cdu_heat_w[k]
  //   kWetbulbRef            : input  wetbulb_c
  //   kSystemPowerRef        : input  system_power_w
  //   kOutputBase + 12k + f  : output cdu[k].field f
  //   kOutputBase + 12*N + f : output plant.field f
  static constexpr ValueRef kWetbulbRef = 1000;
  static constexpr ValueRef kSystemPowerRef = 1001;
  static constexpr ValueRef kOutputBase = 2000;

  void build_variable_table();
};

}  // namespace exadigit
