#include "fmi/cooling_fmu.hpp"

#include <iterator>

namespace exadigit {

namespace {

/// One FMU output: its name, unit and description, and the getter that
/// reads its value from the plant's outputs.
template <class Outputs>
struct OutputField {
  const char* name;
  const char* unit;
  const char* description;
  double (*get)(const Outputs&);
};

/// The getter of one member of an outputs struct (staging counts are ints).
template <auto Member, class Outputs>
double real_of(const Outputs& o) {
  return static_cast<double>(o.*Member);
}

// Field tables; order defines the value-reference layout.
constexpr OutputField<CduOutputs> kCduFields[] = {
    {"pump_power_w", "W", "CDU pump electric power (station 14)",
     real_of<&CduOutputs::pump_power_w>},
    {"pump_speed", "1", "CDU pump relative speed", real_of<&CduOutputs::pump_speed>},
    {"sec_flow_m3s", "m3/s", "secondary loop flow (station 14)",
     real_of<&CduOutputs::sec_flow_m3s>},
    {"pri_flow_m3s", "m3/s", "primary branch flow (station 12)",
     real_of<&CduOutputs::pri_flow_m3s>},
    {"sec_supply_t_c", "degC", "secondary supply temperature (station 15)",
     real_of<&CduOutputs::sec_supply_t_c>},
    {"sec_return_t_c", "degC", "secondary return temperature (station 13)",
     real_of<&CduOutputs::sec_return_t_c>},
    {"sec_supply_p_pa", "Pa", "secondary supply pressure",
     real_of<&CduOutputs::sec_supply_p_pa>},
    {"sec_return_p_pa", "Pa", "secondary return pressure",
     real_of<&CduOutputs::sec_return_p_pa>},
    {"valve_position", "1", "primary-side control valve position",
     real_of<&CduOutputs::valve_position>},
    {"hex_duty_w", "W", "HEX-1600 heat transfer", real_of<&CduOutputs::hex_duty_w>},
    {"pri_return_t_c", "degC", "primary branch return temperature (station 12)",
     real_of<&CduOutputs::pri_return_t_c>},
    {"loop_dp_pa", "Pa", "secondary loop differential pressure",
     real_of<&CduOutputs::loop_dp_pa>},
};

constexpr OutputField<PlantOutputs> kPlantFields[] = {
    {"htwp_staged", "1", "hot temperature water pumps staged",
     real_of<&PlantOutputs::htwp_staged>},
    {"htwp_speed", "1", "HTWP relative speed", real_of<&PlantOutputs::htwp_speed>},
    {"htwp_power_w", "W", "total HTWP electric power", real_of<&PlantOutputs::htwp_power_w>},
    {"ehx_staged", "1", "intermediate heat exchangers staged",
     real_of<&PlantOutputs::ehx_staged>},
    {"pri_supply_t_c", "degC", "HTW supply temperature (station 10)",
     real_of<&PlantOutputs::pri_supply_t_c>},
    {"pri_return_t_c", "degC", "HTW return temperature", real_of<&PlantOutputs::pri_return_t_c>},
    {"pri_flow_m3s", "m3/s", "primary loop flow", real_of<&PlantOutputs::pri_flow_m3s>},
    {"pri_dp_pa", "Pa", "primary loop differential pressure", real_of<&PlantOutputs::pri_dp_pa>},
    {"ct_cells_staged", "1", "cooling tower cells staged",
     real_of<&PlantOutputs::ct_cells_staged>},
    {"ctwp_staged", "1", "cooling tower water pumps staged",
     real_of<&PlantOutputs::ctwp_staged>},
    {"ctwp_speed", "1", "CTWP relative speed", real_of<&PlantOutputs::ctwp_speed>},
    {"ctwp_power_w", "W", "total CTWP electric power", real_of<&PlantOutputs::ctwp_power_w>},
    {"fan_speed", "1", "cooling tower fan relative speed", real_of<&PlantOutputs::fan_speed>},
    {"fan_power_w", "W", "total cooling tower fan power", real_of<&PlantOutputs::fan_power_w>},
    {"ct_supply_t_c", "degC", "cold water supply (basin) temperature",
     real_of<&PlantOutputs::ct_supply_t_c>},
    {"ct_return_t_c", "degC", "cold water return temperature",
     real_of<&PlantOutputs::ct_return_t_c>},
    {"pue", "1", "power usage effectiveness", real_of<&PlantOutputs::pue>},
};

constexpr int kCduFieldCount = static_cast<int>(std::size(kCduFields));
constexpr int kPlantFieldCount = static_cast<int>(std::size(kPlantFields));
static_assert(kCduFieldCount == 12, "CDU field table must list 12 outputs");
static_assert(kPlantFieldCount == 17, "plant field table must list 17 outputs");

}  // namespace

CoolingFmu::CoolingFmu(const SystemConfig& config) : config_(config), plant_(config) {
  pending_inputs_.cdu_heat_w.assign(static_cast<std::size_t>(config_.cdu_count), 0.0);
  pending_inputs_.wetbulb_c = 15.0;
  pending_inputs_.system_power_w = 0.0;
  build_variable_table();
}

void CoolingFmu::build_variable_table() {
  variables_.clear();
  for (int k = 0; k < config_.cdu_count; ++k) {
    variables_.push_back(VariableInfo{static_cast<ValueRef>(k),
                                      "cdu[" + std::to_string(k) + "].heat_w", "W",
                                      Causality::kInput,
                                      "heat extracted into CDU " + std::to_string(k)});
  }
  variables_.push_back(VariableInfo{kWetbulbRef, "wetbulb_c", "degC", Causality::kInput,
                                    "outdoor wet-bulb temperature"});
  variables_.push_back(VariableInfo{kSystemPowerRef, "system_power_w", "W",
                                    Causality::kInput, "P_system for the PUE output"});
  for (int k = 0; k < config_.cdu_count; ++k) {
    for (int f = 0; f < kCduFieldCount; ++f) {
      variables_.push_back(VariableInfo{
          static_cast<ValueRef>(kOutputBase + k * kCduFieldCount + f),
          "cdu[" + std::to_string(k) + "]." + kCduFields[f].name, kCduFields[f].unit,
          Causality::kOutput, kCduFields[f].description});
    }
  }
  const ValueRef plant_base =
      kOutputBase + static_cast<ValueRef>(config_.cdu_count * kCduFieldCount);
  for (int f = 0; f < kPlantFieldCount; ++f) {
    variables_.push_back(VariableInfo{plant_base + static_cast<ValueRef>(f),
                                      std::string("plant.") + kPlantFields[f].name,
                                      kPlantFields[f].unit, Causality::kOutput,
                                      kPlantFields[f].description});
  }
}

std::size_t CoolingFmu::output_count() const {
  return static_cast<std::size_t>(config_.cdu_count * kCduFieldCount + kPlantFieldCount);
}

void CoolingFmu::setup_experiment(double start_time_s) {
  (void)start_time_s;
  plant_.reset(ambient_reset_c_);
}

void CoolingFmu::set_real(ValueRef ref, double value) {
  if (ref < static_cast<ValueRef>(config_.cdu_count)) {
    require(value >= 0.0, "cdu heat input must be non-negative");
    pending_inputs_.cdu_heat_w[ref] = value;
    return;
  }
  if (ref == kWetbulbRef) {
    pending_inputs_.wetbulb_c = value;
    return;
  }
  if (ref == kSystemPowerRef) {
    pending_inputs_.system_power_w = value;
    return;
  }
  throw ConfigError("set_real on non-input value reference " + std::to_string(ref));
}

double CoolingFmu::get_real(ValueRef ref) const {
  if (ref < static_cast<ValueRef>(config_.cdu_count)) {
    return pending_inputs_.cdu_heat_w[ref];
  }
  if (ref == kWetbulbRef) return pending_inputs_.wetbulb_c;
  if (ref == kSystemPowerRef) return pending_inputs_.system_power_w;
  require(ref >= kOutputBase, "unknown value reference");
  const int idx = static_cast<int>(ref - kOutputBase);
  const int cdu_span = config_.cdu_count * kCduFieldCount;
  if (idx < cdu_span) {
    const CduOutputs& o = plant_.outputs().cdus.at(static_cast<std::size_t>(idx / kCduFieldCount));
    return kCduFields[idx % kCduFieldCount].get(o);
  }
  const int plant_idx = idx - cdu_span;
  require(plant_idx < kPlantFieldCount, "value reference out of range");
  return kPlantFields[plant_idx].get(plant_.outputs());
}

void CoolingFmu::do_step(double current_time_s, double step_s) {
  (void)current_time_s;
  plant_.step(pending_inputs_, step_s);
}

void CoolingFmu::reset() { plant_.reset(ambient_reset_c_); }

}  // namespace exadigit
