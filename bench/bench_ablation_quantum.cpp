/// Ablation: the RAPS <-> cooling exchange quantum. The paper fixes it at
/// 15 s "to correspond with system telemetry data" (Section III-B) and
/// Finding 6 warns that fidelity trades against simulation time — this
/// bench quantifies both sides: coupled-run wall time and the drift of the
/// plant solution versus a fine-quantum reference.
///
/// A second table checks the plant's own time stepping: the same 4 h of
/// plant inputs, captured once from the engine, stepped with thermal
/// substeps halved from 3 s down to 0.1875 s and compared against the
/// finest run. The bench exits 1 unless its 3 s run reads the 15 s twin's
/// HTWS at every quantum, to the bit, so the table steps the twin's own
/// plant inputs.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <vector>

#include "common/statistics.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "cooling/plant.hpp"
#include "core/digital_twin.hpp"
#include "raps/engine.hpp"
#include "raps/workload.hpp"

using namespace exadigit;

namespace {

constexpr double kHorizonS = 4.0 * units::kSecondsPerHour;
constexpr double kWetbulbC = 16.0;
constexpr double kSpinUpS = 1800.0;  // skipped when comparing HTWS

/// The bench's workload: a synthetic 4 h mix plus a half-hour HPL run.
void submit_workload(const SystemConfig& config, auto& target) {
  WorkloadGenerator gen(config.workload, config, Rng(5));
  target.submit_all(gen.generate(0.0, kHorizonS));
  target.submit(make_hpl_job(2.0 * units::kSecondsPerHour, 1800.0));
}

struct RunResult {
  TimeSeries htws;
  TimeSeries pue;
  double wall_s = 0.0;
};

RunResult run_with_quantum(double quantum_s) {
  SystemConfig config = frontier_system_config();
  config.simulation.cooling_quantum_s = quantum_s;
  config.cooling.thermal_substep_s = std::min(3.0, quantum_s);
  DigitalTwin twin(config);
  twin.set_wetbulb_constant(kWetbulbC);
  submit_workload(config, twin);
  const auto t0 = std::chrono::steady_clock::now();
  twin.run_until(kHorizonS);
  RunResult r;
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  r.htws = twin.htws_temp_series();
  r.pue = twin.pue_series();
  return r;
}

/// One quantum's plant inputs, as the twin's engine stage captures them.
struct PlantInput {
  double time_s = 0.0;
  double system_power_w = 0.0;
  std::vector<double> cdu_heat_w;
};

std::vector<PlantInput> capture_plant_inputs() {
  const SystemConfig config = frontier_system_config();
  RapsEngine engine(config);
  std::vector<PlantInput> inputs;
  engine.set_cooling_callback([&](RapsEngine& e, double now_s) {
    PlantInput in;
    in.time_s = now_s;
    in.system_power_w = e.power().system_power_w;
    for (const double wall_w : e.power_model().cdu_wall_power_w()) {
      in.cdu_heat_w.push_back(config.plant_heat_w(wall_w));
    }
    inputs.push_back(std::move(in));
  });
  submit_workload(config, engine);
  engine.run_until(kHorizonS);
  return inputs;
}

struct SubstepRun {
  std::vector<double> time_s;
  std::vector<double> htws_c;
  std::vector<int> cells;
  double mean_pue = 0.0;
  double wall_ms = 0.0;
};

/// Steps one plant over the captured inputs, as the twin would.
SubstepRun run_with_substep(const std::vector<PlantInput>& inputs, double substep_s) {
  SystemConfig config = frontier_system_config();
  config.cooling.thermal_substep_s = substep_s;
  CoolingPlantModel plant(config);
  plant.reset(DigitalTwinOptions{}.ambient_c);
  CoolingInputs in;
  in.wetbulb_c = kWetbulbC;
  SubstepRun r;
  double synced_s = 0.0;
  double pue_sum = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const PlantInput& q : inputs) {
    in.cdu_heat_w = q.cdu_heat_w;
    in.system_power_w = q.system_power_w;
    const PlantOutputs& out = plant.step(in, q.time_s - synced_s);
    synced_s = q.time_s;
    r.time_s.push_back(q.time_s);
    r.htws_c.push_back(out.pri_supply_t_c);
    r.cells.push_back(out.ct_cells_staged);
    pue_sum += out.pue;
  }
  r.wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                  .count();
  r.mean_pue = pue_sum / static_cast<double>(inputs.size());
  return r;
}

/// Observed order of the HTWS error from three runs at substeps h, h/2 and
/// h/4: log2 of the RMS difference of the first two over that of the last
/// two, after the spin-up and over the steps where all three stage the same
/// tower cells. Successive differences need no converged reference. NaN
/// when no step qualifies.
double observed_order(const SubstepRun& h, const SubstepRun& h2, const SubstepRun& h4) {
  double coarse = 0.0;
  double fine = 0.0;
  for (std::size_t k = 0; k < h.time_s.size(); ++k) {
    if (h.time_s[k] < kSpinUpS) continue;
    if (h.cells[k] != h4.cells[k] || h2.cells[k] != h4.cells[k]) continue;
    coarse += (h.htws_c[k] - h2.htws_c[k]) * (h.htws_c[k] - h2.htws_c[k]);
    fine += (h2.htws_c[k] - h4.htws_c[k]) * (h2.htws_c[k] - h4.htws_c[k]);
  }
  return coarse > 0.0 && fine > 0.0 ? 0.5 * std::log2(coarse / fine) : std::nan("");
}

/// Prints the quantum table; returns the paper's 15 s run.
RunResult print_quantum_table() {
  const RunResult reference = run_with_quantum(5.0);
  RunResult paper;

  AsciiTable t({"Quantum (s)", "Wall (ms)", "HTWS drift RMSE (C)", "PUE drift RMSE"});
  for (const double quantum : {5.0, 15.0, 30.0, 60.0}) {
    const RunResult r = quantum == 5.0 ? reference : run_with_quantum(quantum);
    if (quantum == 15.0) paper = r;
    // Compare on the coarse run's grid against the 5 s reference.
    double htws_err = 0.0;
    double pue_err = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < r.htws.size(); ++i) {
      const double tm = r.htws.time(i);
      if (tm < kSpinUpS) continue;
      const double dh = r.htws.value(i) - reference.htws.at(tm);
      const double dp = r.pue.value(i) - reference.pue.at(tm);
      htws_err += dh * dh;
      pue_err += dp * dp;
      ++n;
    }
    t.add_row({AsciiTable::num(quantum, 0), AsciiTable::num(r.wall_s * 1e3, 1),
               AsciiTable::num(std::sqrt(htws_err / n), 3),
               AsciiTable::num(std::sqrt(pue_err / n), 4)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("Reading: the paper's 15 s quantum sits on the knee — a few x faster\n"
              "than 5 s with sub-0.5 C plant drift; 60 s visibly degrades the\n"
              "transient fidelity (Finding 6's fidelity/cost balance). The 5 s\n"
              "reference has not converged itself: each run also takes 3 s thermal\n"
              "substeps, whose own error the table below measures.\n\n");
  return paper;
}

/// True when the plant stepped here reads the twin's HTWS at every
/// quantum, to the bit; any difference in the captured inputs shows there.
bool same_as_twin(const SubstepRun& run, const TimeSeries& twin_htws) {
  if (run.htws_c.size() != twin_htws.size()) return false;
  for (std::size_t k = 0; k < run.htws_c.size(); ++k) {
    if (run.time_s[k] != twin_htws.time(k) || run.htws_c[k] != twin_htws.value(k)) return false;
  }
  return true;
}

/// Prints the substep table; false when its 3 s run is not the twin's.
bool print_substep_table(const TimeSeries& twin_htws) {
  const std::vector<PlantInput> inputs = capture_plant_inputs();
  const double substeps[] = {3.0, 1.5, 0.75, 0.375, 0.1875};
  std::vector<SubstepRun> runs;
  for (const double s : substeps) runs.push_back(run_with_substep(inputs, s));
  const SubstepRun& ref = runs.back();
  int staging_flips = 0;

  std::printf("=== Thermal substep convergence (15 s quantum, %zu plant steps) ===\n\n",
              inputs.size());
  AsciiTable t({"Substep (s)", "Wall (ms)", "Staging differs", "First at (s)",
                "HTWS max dev (C)", "HTWS RMS dev (C)", "Mean PUE dev", "Order"});
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const SubstepRun& run = runs[r];
    int differs = 0;
    double first_s = std::nan("");
    double max_dev = 0.0;
    double sq = 0.0;
    std::size_t n = 0;
    for (std::size_t k = 0; k < ref.time_s.size(); ++k) {
      if (run.cells[k] != ref.cells[k]) {
        if (differs++ == 0) first_s = ref.time_s[k];
      }
      if (ref.time_s[k] < kSpinUpS) continue;
      const double d = std::abs(run.htws_c[k] - ref.htws_c[k]);
      max_dev = std::max(max_dev, d);
      sq += d * d;
      ++n;
    }
    staging_flips += differs;
    const double order =
        r + 2 < runs.size() ? observed_order(run, runs[r + 1], runs[r + 2]) : std::nan("");
    t.add_row({AsciiTable::num(substeps[r], 4), AsciiTable::num(run.wall_ms, 1),
               std::to_string(differs),
               std::isnan(first_s) ? "-" : AsciiTable::num(first_s, 0),
               AsciiTable::num(max_dev, 4), AsciiTable::num(std::sqrt(sq / n), 4),
               AsciiTable::num(run.mean_pue - ref.mean_pue, 9),
               std::isnan(order) ? "-" : AsciiTable::num(order, 2)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("Deviations are against the %.4f s run, itself unconverged; HTWS after\n"
              "the first %.0f min. Order: from the HTWS differences of the runs at h,\n"
              "h/2 and h/4 where all three stage alike (explicit Euler is first order).\n",
              substeps[std::size(substeps) - 1], kSpinUpS / 60.0);
  if (staging_flips == 0) {
    std::printf("Tower-cell staging agrees at every step of every run, so the\n"
                "deviations are the integrator's truncation error.\n");
  } else {
    std::printf("Tower-cell staging differs from the finest run in %d steps in all;\n"
                "a flip near a staging threshold moves HTWS by far more than\n"
                "truncation error does.\n",
                staging_flips);
  }
  if (!same_as_twin(runs.front(), twin_htws)) {
    std::fprintf(stderr, "FAIL: the %.0f s substep run does not read the 15 s twin's HTWS\n",
                 substeps[0]);
    return false;
  }
  std::printf("The %.0f s run reads the 15 s twin's HTWS at all %zu quanta, to the bit.\n",
              substeps[0], twin_htws.size());
  return true;
}

}  // namespace

int main() {
  std::printf("=== Ablation: cooling exchange quantum (paper: 15 s) ===\n\n");
  const RunResult paper = print_quantum_table();
  return print_substep_table(paper.htws) ? 0 : 1;
}
