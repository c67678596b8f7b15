/// Performance micro-benchmarks (google-benchmark) for the twin's hot
/// paths. The paper reports "each 24-hour replay takes about nine minutes
/// to run with cooling, or just three minutes without" on a Frontier node
/// (Python + FMU); these benches document this implementation's budget.

#include <benchmark/benchmark.h>

#include <numeric>

#include "cooling/plant.hpp"
#include "core/digital_twin.hpp"
#include "fmi/cooling_fmu.hpp"
#include "raps/engine.hpp"
#include "raps/workload.hpp"

namespace {

using namespace exadigit;

const SystemConfig& frontier() {
  static const SystemConfig config = frontier_system_config();
  return config;
}

void BM_LoopEvaluate(benchmark::State& state) {
  // The primary loop's shape: a two-pump bank, a series EHX bank and 25
  // CDU valves in parallel.
  SeriesParallelLoop loop(300e3, 1e7, 2);
  loop.add_series(5e6);
  for (int i = 0; i < 25; ++i) loop.add_parallel(3e8);
  double speed = 0.8;
  for (auto _ : state) {
    speed = speed > 0.99 ? 0.8 : speed + 0.001;
    loop.set_speed(speed);
    loop.evaluate();
    benchmark::DoNotOptimize(loop.flow_m3s());
  }
}
BENCHMARK(BM_LoopEvaluate);

void BM_ConversionChain(benchmark::State& state) {
  ConversionChain chain(frontier().power);
  double load = 1000.0;
  for (auto _ : state) {
    load = load > 42000.0 ? 1000.0 : load + 77.0;
    benchmark::DoNotOptimize(chain.convert(load));
  }
}
BENCHMARK(BM_ConversionChain);

void BM_PlantStep15s(benchmark::State& state) {
  CoolingPlantModel plant(frontier());
  plant.reset(20.0);
  CoolingInputs in;
  in.cdu_heat_w.assign(25, 16.0e6 * 0.945 / 25.0);
  in.wetbulb_c = 16.0;
  in.system_power_w = 16.0e6;
  for (auto _ : state) {
    plant.step(in, 15.0);
  }
  state.SetLabel("one 15 s cooling quantum for the full 25-CDU plant");
}
BENCHMARK(BM_PlantStep15s);

void BM_CoolingFmuDoStep(benchmark::State& state) {
  CoolingFmu fmu(frontier());
  fmu.setup_experiment(0.0);
  for (int i = 0; i < 25; ++i) fmu.set_real(static_cast<ValueRef>(i), 0.6e6);
  fmu.set_by_name("wetbulb_c", 16.0);
  fmu.set_by_name("system_power_w", 16.0e6);
  double t = 0.0;
  for (auto _ : state) {
    fmu.do_step(t, 15.0);
    t += 15.0;
  }
}
BENCHMARK(BM_CoolingFmuDoStep);

void BM_PowerRecompute(benchmark::State& state) {
  RapsPowerModel model(frontier());
  const int job_count = static_cast<int>(state.range(0));
  std::vector<JobRecord> jobs;
  std::vector<std::vector<int>> nodes;
  int cursor = 0;
  for (int i = 0; i < job_count; ++i) {
    jobs.push_back(make_constant_job(0.0, 1e6, 256, 0.4, 0.6));
    std::vector<int> span(256);
    std::iota(span.begin(), span.end(), cursor);
    cursor = (cursor + 256) % (9472 - 256);
    nodes.push_back(std::move(span));
  }
  std::vector<RunningJobView> views;
  for (int i = 0; i < job_count; ++i) views.push_back({&jobs[i], &nodes[i], 0.0});
  double now = 0.0;
  for (auto _ : state) {
    now += 15.0;
    benchmark::DoNotOptimize(model.recompute(now, views));
  }
  state.SetLabel("full-system power aggregation, " + std::to_string(job_count) + " jobs");
}
BENCHMARK(BM_PowerRecompute)->Arg(8)->Arg(32)->Arg(128);

void BM_EngineSimulatedHour(benchmark::State& state) {
  // One simulated hour of Algorithm 1 including scheduling and power.
  for (auto _ : state) {
    state.PauseTiming();
    RapsEngine::Options options;
    options.collect_series = false;
    RapsEngine engine(frontier(), options);
    WorkloadGenerator gen(frontier().workload, frontier(), Rng(1));
    engine.submit_all(gen.generate(0.0, 3600.0));
    state.ResumeTiming();
    engine.run_until(3600.0);
    benchmark::DoNotOptimize(engine.report());
  }
  state.SetLabel("1 simulated hour, Frontier-scale workload, no cooling");
}
BENCHMARK(BM_EngineSimulatedHour)->Unit(benchmark::kMillisecond);

void BM_CoupledTwinSimulatedHour(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    DigitalTwinOptions options;
    options.collect_series = false;
    DigitalTwin twin(frontier(), options);
    twin.set_wetbulb_constant(16.0);
    WorkloadGenerator gen(frontier().workload, frontier(), Rng(2));
    twin.submit_all(gen.generate(0.0, 3600.0));
    state.ResumeTiming();
    twin.run_until(3600.0);
    benchmark::DoNotOptimize(twin.report());
  }
  state.SetLabel("1 simulated hour, RAPS x cooling plant co-simulation");
}
BENCHMARK(BM_CoupledTwinSimulatedHour)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
