#pragma once

/// @file policy_registry.hpp
/// Name → factory registry for scheduling policies.
///
/// Mirrors the ScenarioRegistry pattern: built-ins self-register on first
/// use, tests and extensions add their own under new names, and
/// Scheduler resolves SchedulerConfig::policy here at construction. Every
/// registration is mirrored into the config layer's accepted-name set
/// (config/config_json.hpp) so JSON validation and policy construction
/// never disagree about what exists.

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "raps/policy/scheduling_policy.hpp"

namespace exadigit {

class SchedulingPolicyRegistry {
 public:
  /// Builds a policy from its JSON params block (null = defaults). Factories
  /// must reject unknown param keys with a ConfigError (use
  /// check_policy_params) so typos fail loudly at construction.
  using Factory = std::function<std::unique_ptr<SchedulingPolicy>(const Json& params)>;

  /// Process-wide registry, with the six built-in policies ("fcfs", "sjf",
  /// "easy_backfill", "priority", "power_capped", "price_aware") registered
  /// on first use. The config layer knows the same six names before then.
  static SchedulingPolicyRegistry& instance();

  /// Registers (or replaces) a factory and mirrors the name into the config
  /// layer's accepted set. Thread-safe.
  void register_policy(const std::string& name, Factory factory);

  /// Creates a policy by name; throws ConfigError listing the registered
  /// names when `name` is unknown, and propagates factory param errors.
  [[nodiscard]] std::unique_ptr<SchedulingPolicy> create(const std::string& name,
                                                         const Json& params) const;

  [[nodiscard]] bool contains(const std::string& name) const;
  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  SchedulingPolicyRegistry();

  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, Factory>> factories_;
};

/// Throws ConfigError when `params` is neither null nor an object, or when
/// it contains a key outside `allowed` — naming the policy and the allowed
/// keys. Shared by all policy factories.
void check_policy_params(const Json& params, const std::string& policy,
                         const std::vector<std::string>& allowed);

}  // namespace exadigit
