#pragma once

/// @file fmi.hpp
/// An FMI-2.0-shaped co-simulation interface.
///
/// The paper integrates its Modelica cooling model into the twin as a
/// Functional Mock-up Unit: "an FMU ... can be used in any software or
/// deployment scenario which has implemented the FMI" (Section III-C6).
/// This header reproduces that seam natively: models expose value-reference
/// addressed real variables with causality metadata, and a master steps
/// them with set_real / do_step / get_real. CoolingFmu puts the cooling plant
/// behind it for callers that drive a model through that seam, such as
/// validate_cooling. The twin itself binds CoolingPlantModel directly
/// (core/digital_twin.hpp) and does not route its inputs through here.

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace exadigit {

/// Value reference: the FMI-style stable handle for a variable.
using ValueRef = std::uint32_t;

/// FMI causality subset used by the twin.
enum class Causality { kInput, kOutput, kParameter };

/// Metadata for one exposed variable (modelDescription.xml equivalent).
struct VariableInfo {
  ValueRef ref = 0;
  std::string name;
  std::string unit;
  Causality causality = Causality::kOutput;
  std::string description;
};

/// A co-simulation slave: the FMI master contract reduced to the calls the
/// twin needs (fmi2Instantiate is the constructor, fmi2Terminate the
/// destructor).
class CoSimulationSlave {
 public:
  virtual ~CoSimulationSlave() = default;

  [[nodiscard]] virtual std::string model_name() const = 0;
  [[nodiscard]] virtual const std::vector<VariableInfo>& variables() const = 0;

  /// fmi2SetupExperiment + EnterInitializationMode collapsed.
  virtual void setup_experiment(double start_time_s) = 0;
  /// fmi2SetReal for a single variable.
  virtual void set_real(ValueRef ref, double value) = 0;
  /// fmi2GetReal for a single variable.
  [[nodiscard]] virtual double get_real(ValueRef ref) const = 0;
  /// fmi2DoStep.
  virtual void do_step(double current_time_s, double step_s) = 0;
  /// fmi2Reset.
  virtual void reset() = 0;

  // --- conveniences over the virtual core --------------------------------
  /// Value reference by variable name; throws ConfigError when unknown.
  [[nodiscard]] ValueRef ref_of(const std::string& name) const;
  [[nodiscard]] bool has_variable(const std::string& name) const;
  void set_by_name(const std::string& name, double value);
  [[nodiscard]] double get_by_name(const std::string& name) const;
  /// All variables with the given causality.
  [[nodiscard]] std::vector<VariableInfo> variables_with(Causality causality) const;
};

}  // namespace exadigit
