/// Performance micro-benchmarks (google-benchmark) for the twin's hot
/// paths. The paper reports "each 24-hour replay takes about nine minutes
/// to run with cooling, or just three minutes without" on a Frontier node
/// (Python + FMU); these benches document this implementation's budget.

#include <benchmark/benchmark.h>

#include <map>
#include <numeric>

#include "cooling/plant.hpp"
#include "core/digital_twin.hpp"
#include "fmi/cooling_fmu.hpp"
#include "common/rng.hpp"
#include "raps/allocator.hpp"
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

/// The same loads as BM_ConversionChain, one system's worth of groups (592)
/// per convert_batch call; items are conversions, so the per-item time
/// compares with BM_ConversionChain's per-iteration time.
void BM_ConversionBatch(benchmark::State& state) {
  ConversionChain chain(frontier().power);
  std::vector<double> loads(592);
  double load = 1000.0;
  for (double& l : loads) {
    load = load > 42000.0 ? 1000.0 : load + 77.0;
    l = load;
  }
  std::vector<GroupConversion> out(loads.size());
  for (auto _ : state) {
    chain.convert_batch(loads, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(loads.size()));
}
BENCHMARK(BM_ConversionBatch);

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

void BM_PowerAdvance(benchmark::State& state) {
  // A fragmented Frontier fleet like the one perfbench's ooc_replay runs
  // on: jobs of 1 to 1024 nodes placed by the allocator, a third of them
  // released and the holes refilled, partly by scattered allocations. Most
  // jobs draw constant power and settle at the first sample. A few change
  // power on every sample, about 120 groups between them, 70 % of them
  // whole groups.
  const SystemConfig& config = frontier();
  const int group_nodes = 16;
  Rng rng(23);
  NodeAllocator allocator(config);
  std::vector<std::vector<int>> placed;
  auto fill = [&] {
    for (;;) {
      const double u = rng.uniform();
      const int count = u < 0.6 ? 1 + static_cast<int>(rng.uniform() * 15.0)
                                : (u < 0.9 ? 16 + static_cast<int>(rng.uniform() * 112.0)
                                           : 128 + static_cast<int>(rng.uniform() * 896.0));
      auto nodes = allocator.allocate(count);
      if (!nodes.has_value()) return;
      placed.push_back(std::move(*nodes));
    }
  };
  fill();
  for (std::size_t k = 0; k < placed.size(); k += 3) allocator.release(placed[k]);
  for (std::size_t k = 0; k < placed.size(); k += 3) placed[k].clear();
  std::erase_if(placed, [](const std::vector<int>& nodes) { return nodes.empty(); });
  fill();

  // The unsettled jobs: the last refilled ones until their groups held in
  // part or shared reach 30, then jobs from the front until their whole
  // groups reach about 75.
  std::vector<int> whole(placed.size(), 0);
  std::vector<int> other(placed.size(), 0);
  for (std::size_t k = 0; k < placed.size(); ++k) {
    std::map<int, int> per_group;
    for (const int n : placed[k]) ++per_group[n / group_nodes];
    for (const auto& [group, count] : per_group) ++(count == group_nodes ? whole[k] : other[k]);
  }
  std::vector<char> varying(placed.size(), 0);
  int whole_groups = 0;
  int other_groups = 0;
  for (std::size_t k = placed.size(); k-- > 0 && other_groups < 30;) {
    varying[k] = 1;
    whole_groups += whole[k];
    other_groups += other[k];
  }
  for (std::size_t k = 0; k < placed.size() && whole_groups < 75; ++k) {
    if (varying[k] != 0 || whole[k] == 0 || whole_groups + whole[k] > 90) continue;
    varying[k] = 1;
    whole_groups += whole[k];
    other_groups += other[k];
  }

  RapsPowerModel model(config);
  std::vector<JobRecord> jobs;
  std::vector<std::size_t> unsettled;
  for (std::size_t k = 0; k < placed.size(); ++k) {
    JobRecord job = make_constant_job(0.0, 1e9, static_cast<int>(placed[k].size()),
                                      rng.uniform(), rng.uniform());
    if (varying[k] != 0) {
      for (int i = 0; i < 4096; ++i) {
        job.cpu_util_trace.push_back(rng.uniform());
        job.gpu_util_trace.push_back(rng.uniform());
      }
      unsettled.push_back(k);
    }
    jobs.push_back(std::move(job));
  }
  std::vector<int> handles;
  for (std::size_t k = 0; k < placed.size(); ++k) {
    handles.push_back(model.on_job_start(jobs[k], placed[k], 0.0));
  }
  const double quantum_s = config.simulation.trace_quantum_s;
  double now = 0.0;
  double since_start_s = 0.0;
  (void)model.advance(now);
  for (auto _ : state) {
    now += quantum_s;
    since_start_s += quantum_s;
    if (since_start_s >= 4000.0 * quantum_s) {
      // Restart the unsettled jobs before their traces run out.
      state.PauseTiming();
      for (const std::size_t k : unsettled) {
        model.on_job_stop(handles[k]);
        handles[k] = model.on_job_start(jobs[k], placed[k], now);
      }
      since_start_s = 0.0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(model.advance(now));
  }
  state.SetLabel(std::to_string(placed.size()) + " jobs, " + std::to_string(unsettled.size()) +
                 " unsettled on " + std::to_string(whole_groups) + " whole and " +
                 std::to_string(other_groups) + " other groups");
}
BENCHMARK(BM_PowerAdvance);

void BM_RapsEngineConstruct(benchmark::State& state) {
  // What every server_mix miss pays before its first simulated second.
  for (auto _ : state) {
    RapsEngine engine(frontier());
    benchmark::DoNotOptimize(engine.power_model().sample());
  }
  state.SetLabel("RapsEngine construction and destruction, Frontier");
}
BENCHMARK(BM_RapsEngineConstruct);

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
