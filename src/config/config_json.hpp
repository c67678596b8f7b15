#pragma once

/// @file config_json.hpp
/// JSON (de)serialization of system descriptors.
///
/// The generalized twin (paper Section V) is driven by JSON input files
/// describing "the system architecture, the cooling system, the scheduler,
/// and the power system". These functions define that exchange format.
///
/// config_json.cpp keeps one field list per descriptor struct, naming each
/// key once beside its member; the writer and the reader are two walks over
/// those lists, so a round trip (`system_config_from_json(
/// system_config_to_json(c))`) is lossless. The writer emits every field.
/// The reader starts from Frontier's values and overwrites a field only when
/// its key is present; a curve is replaced whole, and a partition's node
/// block starts from the parsed top-level node. An integer key holding a
/// value outside `int` is a ConfigError naming the key, never a wrapped
/// value, and so is a value of the wrong JSON type or an unknown
/// `load_sharing` or `feed` name; an unknown scheduler policy is one listing
/// the valid names. Keys the descriptor does not define are ignored. That
/// includes the retired keys older descriptors carry: the evaluation
/// strategies (simulation.engine, cooling.hydraulics, cooling.thermal) and
/// cooling.step_s, a second exchange quantum (every plant caller steps at
/// simulation.cooling_quantum_s).

#include "config/system_config.hpp"
#include "json/json.hpp"

namespace exadigit {

[[nodiscard]] Json system_config_to_json(const SystemConfig& config);
[[nodiscard]] SystemConfig system_config_from_json(const Json& j);

/// The canonical Frontier descriptor (system_config_to_json of
/// frontier_system_config()), built once per process and cached. Long-lived
/// services hash or merge-patch this document on every request
/// (scenario/scenario_key.hpp); rebuilding it each time would dominate the
/// warm path. Callers must not mutate the returned reference.
[[nodiscard]] const Json& frontier_descriptor_json();

/// Curve exchange helpers (arrays of [x, y] pairs).
[[nodiscard]] Json curve_to_json(const PiecewiseLinearCurve& curve);
[[nodiscard]] PiecewiseLinearCurve curve_from_json(const Json& j);

/// Scheduler policy names the config layer will accept. Seeded with the
/// built-in policies ("fcfs", "sjf", "easy_backfill", "priority",
/// "power_capped", "price_aware"), so a config names any built-in before the
/// registry is first used; the raps-layer SchedulingPolicyRegistry registers
/// any additional policies here so config parsing and policy construction
/// agree without the config library depending on raps. Sorted, thread-safe.
[[nodiscard]] std::vector<std::string> known_scheduler_policy_names();
/// Adds a name to the accepted set (idempotent, thread-safe). Called by
/// SchedulingPolicyRegistry::register_policy for non-built-in policies.
void register_scheduler_policy_name(const std::string& name);
/// Validates a scheduler policy name against the accepted set; throws a
/// ConfigError listing the valid names otherwise.
void require_scheduler_policy_name(const std::string& name);

}  // namespace exadigit
