/// Unit + regression tests for the SchedulingPolicy layer: registry
/// resolution and structured errors, param validation, the two genuinely
/// new policies (priority, power_capped), and the Scheduler-side stats the
/// report now surfaces.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "config/config_json.hpp"
#include "raps/engine.hpp"
#include "raps/policy/policy_registry.hpp"
#include "raps/policy/priority_policy.hpp"
#include "raps/scheduler.hpp"
#include "raps/workload.hpp"

namespace exadigit {
namespace {

JobRecord job(const std::string& name, int nodes, double wall_s) {
  JobRecord j;
  j.name = name;
  j.node_count = nodes;
  j.wall_time_s = wall_s;
  return j;
}

SchedulerConfig policy_config(const std::string& p, Json params = Json()) {
  SchedulerConfig c;
  c.policy = p;
  c.policy_params = std::move(params);
  return c;
}

SystemConfig one_rack_system() {
  SystemConfig c = frontier_system_config();
  c.cdu_count = 1;
  c.racks_per_cdu = 1;
  c.rack_count = 1;  // 128 nodes
  return c;
}

// --- registry --------------------------------------------------------------

/// The config layer accepts every built-in before the registry is first
/// used, so a scenario that names a policy before any Scheduler exists (the
/// policy_sweep name check) sees the same set. ctest runs each case in its
/// own process, so here the snapshot is taken before the registry exists.
TEST(PolicyRegistryTest, ConfigLayerKnowsEveryBuiltinBeforeFirstUse) {
  const std::vector<std::string> before = known_scheduler_policy_names();
  EXPECT_EQ(before, SchedulingPolicyRegistry::instance().names());
}

TEST(PolicyRegistryTest, BuiltinsRegistered) {
  auto& reg = SchedulingPolicyRegistry::instance();
  for (const char* name :
       {"fcfs", "sjf", "easy_backfill", "priority", "power_capped", "price_aware"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
}

TEST(PolicyRegistryTest, UnknownPolicyErrorListsRegisteredNames) {
  try {
    Scheduler s(policy_config("lottery"));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lottery"), std::string::npos) << what;
    for (const char* name :
         {"fcfs", "sjf", "easy_backfill", "priority", "power_capped", "price_aware"}) {
      EXPECT_NE(what.find(name), std::string::npos) << "missing " << name << ": " << what;
    }
  }
}

TEST(PolicyRegistryTest, UnknownParamKeyRejected) {
  Json params;
  params["niceness"] = Json(3.0);
  EXPECT_THROW(Scheduler(policy_config("fcfs", params)), ConfigError);
  EXPECT_THROW(Scheduler(policy_config("priority", params)), ConfigError);
  Json capped = params;
  capped["cap_mw"] = Json(20.0);
  EXPECT_THROW(Scheduler(policy_config("power_capped", capped)), ConfigError);
}

TEST(PolicyRegistryTest, RegisteredNameVisibleToConfigLayer) {
  SchedulingPolicyRegistry::instance().register_policy(
      "test_noop", [](const Json&) -> std::unique_ptr<SchedulingPolicy> {
        struct Noop final : SchedulingPolicy {
          const char* name() const override { return "test_noop"; }
          void schedule(std::deque<JobRecord>&, const SchedulerContext&,
                        const std::function<bool(const JobRecord&)>&) override {}
        };
        return std::make_unique<Noop>();
      });
  EXPECT_NO_THROW(require_scheduler_policy_name("test_noop"));
  const auto names = known_scheduler_policy_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "test_noop"), names.end());
}

// --- priority policy -------------------------------------------------------

class PriorityPolicyTest : public ::testing::Test {
 protected:
  SystemConfig system_ = one_rack_system();
  NodeAllocator alloc_{system_};
  std::vector<std::string> started_;

  void pass(Scheduler& s, double now = 0.0) {
    s.schedule(now, alloc_, {}, [this](const JobRecord& j) {
      auto nodes = alloc_.allocate(j.node_count, j.partition);
      if (!nodes.has_value()) return false;
      started_.push_back(j.name);
      return true;
    });
  }
};

TEST_F(PriorityPolicyTest, HigherJobPriorityStartsFirst) {
  Scheduler s(policy_config("priority"));
  JobRecord low = job("low", 40, 100);
  low.priority = 1.0;
  JobRecord high = job("high", 40, 100);
  high.priority = 5.0;
  JobRecord mid = job("mid", 40, 100);
  mid.priority = 3.0;
  s.enqueue(low);
  s.enqueue(high);
  s.enqueue(mid);
  pass(s);
  EXPECT_EQ(started_, (std::vector<std::string>{"high", "mid", "low"}));
}

TEST_F(PriorityPolicyTest, UserWeightsApply) {
  Json params;
  params["user_weights"]["alice"] = Json(10.0);
  Scheduler s(policy_config("priority", params));
  JobRecord bob = job("bob-job", 64, 100);
  bob.user = "bob";
  JobRecord alice = job("alice-job", 64, 100);
  alice.user = "alice";
  s.enqueue(bob);
  s.enqueue(alice);
  pass(s);
  EXPECT_EQ(started_, (std::vector<std::string>{"alice-job", "bob-job"}));
}

TEST_F(PriorityPolicyTest, AgingLiftsLongWaiters) {
  // Both jobs age at the same rate, so the rank gap is constant in time:
  // old overtakes fresh exactly when aging_weight * (90 s submit gap)
  // exceeds fresh's base priority of 50.
  JobRecord old_job = job("old", 1, 10);
  old_job.submit_time_s = 0.0;
  JobRecord fresh = job("fresh", 1, 10);
  fresh.submit_time_s = 90.0;
  fresh.priority = 50.0;

  Json strong;
  strong["aging_weight"] = Json(1.0);  // 90 > 50: waiting wins
  PriorityPolicy strong_aging(strong);
  EXPECT_GT(strong_aging.rank(old_job, 100.0), strong_aging.rank(fresh, 100.0));

  Json weak;
  weak["aging_weight"] = Json(0.1);  // 9 < 50: base priority wins
  PriorityPolicy weak_aging(weak);
  EXPECT_LT(weak_aging.rank(old_job, 100.0), weak_aging.rank(fresh, 100.0));

  // Zero weight (the default) ignores waiting time entirely.
  PriorityPolicy no_aging{Json()};
  EXPECT_EQ(no_aging.rank(old_job, 1e6), 0.0);
  EXPECT_EQ(no_aging.rank(fresh, 1e6), 50.0);
}

TEST_F(PriorityPolicyTest, EqualRanksKeepArrivalOrder) {
  Scheduler s(policy_config("priority"));
  s.enqueue(job("first", 30, 100));
  s.enqueue(job("second", 30, 100));
  s.enqueue(job("third", 30, 100));
  pass(s);
  EXPECT_EQ(started_, (std::vector<std::string>{"first", "second", "third"}));
}

TEST(PriorityPolicyParamsTest, NegativeAgingRejected) {
  Json params;
  params["aging_weight"] = Json(-1.0);
  EXPECT_THROW(Scheduler(policy_config("priority", params)), ConfigError);
}

// --- power_capped policy ---------------------------------------------------

TEST(PowerCappedPolicyTest, CapParamRequiredAndValidated) {
  EXPECT_THROW(Scheduler(policy_config("power_capped")), ConfigError);
  Json zero;
  zero["cap_mw"] = Json(0.0);
  EXPECT_THROW(Scheduler(policy_config("power_capped", zero)), ConfigError);
  Json ok;
  ok["cap_mw"] = Json(20.0);
  EXPECT_NO_THROW(Scheduler(policy_config("power_capped", ok)));
}

/// Regression for the cap guarantee: under a queue-bound workload the
/// capped engine's sampled system power never exceeds the cap, while the
/// same workload under fcfs does (i.e. the cap binds and is honored).
TEST(PowerCappedPolicyTest, ProjectedPowerStaysUnderCap) {
  SystemConfig base = frontier_system_config();
  base.cdu_count = 2;
  base.racks_per_cdu = 2;
  base.rack_count = 4;  // 512 nodes, ~idle 0.4 MW / peak ~2 MW scale
  base.workload.mean_arrival_s = 20.0;  // oversubscribed
  WorkloadGenerator gen(base.workload, base, Rng(4242));
  const double duration = 2.0 * units::kSecondsPerHour;
  const std::vector<JobRecord> jobs = gen.generate(0.0, duration);

  auto run_with = [&](const std::string& policy, double cap_mw) {
    SystemConfig config = base;
    config.scheduler.policy = policy;
    if (policy == "power_capped") config.scheduler.policy_params["cap_mw"] = Json(cap_mw);
    RapsEngine engine(config);
    engine.submit_all(jobs);
    engine.run_until(duration);
    return engine.power_series_mw().max_value();
  };

  const double uncapped_peak_mw = run_with("fcfs", 0.0);
  // Pick a cap that actually binds: between idle and the fcfs peak.
  const double cap_mw = 0.6 * uncapped_peak_mw;
  const double capped_peak_mw = run_with("power_capped", cap_mw);
  EXPECT_GT(uncapped_peak_mw, cap_mw) << "cap never binds; test is vacuous";
  EXPECT_LE(capped_peak_mw, cap_mw);
  EXPECT_GT(capped_peak_mw, 0.0);
}

TEST(PowerCappedPolicyTest, JobsStillDrainEventually) {
  // A cap far above peak power never binds; every queued job must
  // eventually start and finish (no permanent starvation from skipping).
  SystemConfig config = one_rack_system();
  config.scheduler.policy = "power_capped";
  config.scheduler.policy_params["cap_mw"] = Json(1000.0);
  RapsEngine engine(config);
  WorkloadConfig wl = config.workload;
  wl.mean_arrival_s = 60.0;
  WorkloadGenerator gen(wl, config, Rng(7));
  const auto jobs = gen.generate(0.0, 1800.0);
  engine.submit_all(jobs);
  // The 128-node system is heavily oversubscribed by this burst; give the
  // event-driven engine (cheap, skips idle time) room to drain it fully.
  engine.run_until(96.0 * units::kSecondsPerHour);
  EXPECT_EQ(engine.jobs_completed(), static_cast<int>(jobs.size()));
}

// --- price_aware policy ----------------------------------------------------

class PriceAwarePolicyTest : public ::testing::Test {
 protected:
  SystemConfig system_ = one_rack_system();
  NodeAllocator alloc_{system_};
  std::vector<std::string> started_;

  /// One pass with the given electricity price fed back (negative = no
  /// power feedback at all, the bare-Scheduler degradation case).
  void pass_at_price(Scheduler& s, double usd_per_kwh, double now = 0.0) {
    PowerFeedback feedback;
    feedback.electricity_usd_per_kwh = usd_per_kwh;
    s.schedule(now, alloc_, {}, usd_per_kwh < 0.0 ? nullptr : &feedback,
               [this](const JobRecord& j) {
                 auto nodes = alloc_.allocate(j.node_count, j.partition);
                 if (!nodes.has_value()) return false;
                 started_.push_back(j.name);
                 return true;
               });
  }
};

TEST(PriceAwarePolicyParamsTest, ThresholdRequiredAndValidated) {
  EXPECT_THROW(Scheduler(policy_config("price_aware")), ConfigError);
  Json zero;
  zero["threshold_usd_per_kwh"] = Json(0.0);
  EXPECT_THROW(Scheduler(policy_config("price_aware", zero)), ConfigError);
  Json bad_defer;
  bad_defer["threshold_usd_per_kwh"] = Json(0.12);
  bad_defer["max_defer_hours"] = Json(0.0);
  EXPECT_THROW(Scheduler(policy_config("price_aware", bad_defer)), ConfigError);
  Json unknown;
  unknown["threshold_usd_per_kwh"] = Json(0.12);
  unknown["surge_factor"] = Json(2.0);
  EXPECT_THROW(Scheduler(policy_config("price_aware", unknown)), ConfigError);
  Json ok;
  ok["threshold_usd_per_kwh"] = Json(0.12);
  EXPECT_NO_THROW(Scheduler(policy_config("price_aware", ok)));
}

TEST_F(PriceAwarePolicyTest, DefersWhileExpensiveStartsWhenCheap) {
  Json params;
  params["threshold_usd_per_kwh"] = Json(0.10);
  Scheduler s(policy_config("price_aware", params));
  s.enqueue(job("a", 30, 100));
  s.enqueue(job("b", 30, 100));
  pass_at_price(s, 0.25);
  EXPECT_TRUE(started_.empty()) << "jobs started during the expensive window";
  EXPECT_EQ(s.queue_depth(), 2u);
  pass_at_price(s, 0.05);
  EXPECT_EQ(started_, (std::vector<std::string>{"a", "b"}));  // arrival order kept
  EXPECT_EQ(s.queue_depth(), 0u);
}

TEST_F(PriceAwarePolicyTest, PriceAtThresholdIsNotExpensive) {
  Json params;
  params["threshold_usd_per_kwh"] = Json(0.10);
  Scheduler s(policy_config("price_aware", params));
  s.enqueue(job("boundary", 10, 100));
  pass_at_price(s, 0.10);
  EXPECT_EQ(started_, (std::vector<std::string>{"boundary"}));
}

TEST_F(PriceAwarePolicyTest, StarvationGuardOverridesPrice) {
  Json params;
  params["threshold_usd_per_kwh"] = Json(0.10);
  params["max_defer_hours"] = Json(1.0);
  Scheduler s(policy_config("price_aware", params));
  JobRecord starved = job("starved", 10, 100);
  starved.submit_time_s = 0.0;
  JobRecord fresh = job("fresh", 10, 100);
  fresh.submit_time_s = 2.0 * 3600.0;
  s.enqueue(starved);
  s.enqueue(fresh);
  // At t = 2 h the price is still high: starved has waited past the guard
  // and starts anyway; fresh keeps waiting for a cheaper hour.
  pass_at_price(s, 0.25, 2.0 * 3600.0);
  EXPECT_EQ(started_, (std::vector<std::string>{"starved"}));
  EXPECT_EQ(s.queue_depth(), 1u);
}

TEST_F(PriceAwarePolicyTest, NoFeedbackDegradesToGreedyFcfs) {
  Json params;
  params["threshold_usd_per_kwh"] = Json(0.01);  // would defer everything
  Scheduler s(policy_config("price_aware", params));
  s.enqueue(job("x", 20, 100));
  s.enqueue(job("y", 20, 100));
  pass_at_price(s, -1.0);  // nullptr feedback
  EXPECT_EQ(started_, (std::vector<std::string>{"x", "y"}));
}

TEST(PriceAwareEngineTest, JobsStillDrainUnderPermanentHighPrice) {
  // Electricity priced permanently above the threshold: the starvation
  // guard must still drain the whole queue (just later).
  SystemConfig config = one_rack_system();
  config.economics.electricity_usd_per_kwh = 0.50;
  config.scheduler.policy = "price_aware";
  config.scheduler.policy_params["threshold_usd_per_kwh"] = Json(0.10);
  config.scheduler.policy_params["max_defer_hours"] = Json(1.0);
  RapsEngine engine(config);
  WorkloadConfig wl = config.workload;
  wl.mean_arrival_s = 120.0;
  WorkloadGenerator gen(wl, config, Rng(9));
  const auto jobs = gen.generate(0.0, 1800.0);
  engine.submit_all(jobs);
  engine.run_until(96.0 * units::kSecondsPerHour);
  EXPECT_EQ(engine.jobs_completed(), static_cast<int>(jobs.size()));
}

// --- scheduler stats surfaced in the report --------------------------------

TEST(SchedulerStatsTest, MaxQueueDepthHighWaterMark) {
  Scheduler s(policy_config("fcfs"));
  s.enqueue(job("a", 1, 1));
  s.enqueue(job("b", 1, 1));
  s.enqueue(job("c", 1, 1));
  EXPECT_EQ(s.max_queue_depth_seen(), 3);
  SystemConfig system = one_rack_system();
  NodeAllocator alloc(system);
  s.schedule(0.0, alloc, {}, [&](const JobRecord& j) {
    return alloc.allocate(j.node_count, j.partition).has_value();
  });
  EXPECT_EQ(s.queue_depth(), 0u);
  EXPECT_EQ(s.max_queue_depth_seen(), 3);  // high-water mark survives drain
}

TEST(SchedulerStatsTest, ReportExportsQueueStats) {
  SystemConfig config = one_rack_system();
  config.scheduler.max_queue_depth = 2;  // force rejections
  config.workload.mean_arrival_s = 10.0;
  RapsEngine engine(config);
  WorkloadGenerator gen(config.workload, config, Rng(11));
  engine.submit_all(gen.generate(0.0, 1800.0));
  engine.run_until(1800.0);
  const Report r = engine.report();
  EXPECT_GT(r.max_queue_depth, 0);
  EXPECT_EQ(r.jobs_rejected, engine.report().jobs_rejected);
  EXPECT_GE(r.jobs_rejected, 0);
  // The textual report carries the new rows.
  const std::string text = r.to_string();
  EXPECT_NE(text.find("Max queue depth"), std::string::npos);
  EXPECT_NE(text.find("Avg queue wait"), std::string::npos);
  EXPECT_NE(text.find("Makespan"), std::string::npos);
}

TEST(SchedulerStatsTest, WaitAndMakespanTracked) {
  SystemConfig config = one_rack_system();
  RapsEngine engine(config);
  JobRecord blocker = job("blocker", 128, 300.0);
  blocker.id = 1;
  JobRecord waiter = job("waiter", 128, 100.0);
  waiter.id = 2;
  waiter.submit_time_s = 10.0;
  engine.submit(blocker);
  engine.submit(waiter);
  engine.run_until(1000.0);
  const Report r = engine.report();
  EXPECT_EQ(r.jobs_completed, 2);
  // waiter submitted at 10, starts when blocker ends at ~300 -> waited ~290;
  // blocker waited 0 -> average ~145.
  EXPECT_NEAR(r.avg_wait_s, 145.0, 5.0);
  EXPECT_NEAR(r.makespan_s, 400.0, 5.0);
}

}  // namespace
}  // namespace exadigit
