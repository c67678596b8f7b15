/// Regenerates paper Fig. 4: "Frontier power utilization breakdown based on
/// peak CPU/GPU utilization of its 9472 nodes" as a bar chart on stdout,
/// from the power model the twin runs (uniform_load_power).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/units.hpp"
#include "raps/power_model.hpp"

using namespace exadigit;

int main() {
  const SystemConfig config = frontier_system_config();
  const PowerBreakdown b = uniform_load_power(config, 1.0, 1.0).breakdown;

  struct Item {
    const char* name;
    double watts;
  };
  std::vector<Item> items = {
      {"GPUs", b.gpus_w},
      {"CPUs", b.cpus_w},
      {"Rectifier loss", b.rectifier_loss_w},
      {"SIVOC loss", b.sivoc_loss_w},
      {"Switches", b.switches_w},
      {"NICs", b.nics_w},
      {"RAM", b.ram_w},
      {"NVMe", b.nvme_w},
      {"CDU pumps", b.cdu_pumps_w},
  };
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& c) { return a.watts > c.watts; });

  const double total = b.total_w();
  std::printf("=== Paper Fig. 4: Frontier power utilization breakdown at peak ===\n\n");
  std::printf("Total system power: %.2f MW (paper: 28.2 MW)\n\n",
              units::mw_from_watts(total));
  AsciiTable t({"Component", "MW", "Share", ""});
  t.set_alignment({Align::kLeft, Align::kRight, Align::kRight, Align::kLeft});
  for (const Item& item : items) {
    t.add_row({item.name, AsciiTable::num(units::mw_from_watts(item.watts), 3),
               AsciiTable::num(100.0 * item.watts / total, 1) + "%",
               ascii_bar(item.watts, items.front().watts, 42)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("Shape target: GPUs dominate (>60%%), then CPUs; conversion losses are\n"
              "MW-scale (Finding 9: up to 1.8 MW); switches/RAM/NIC/NVMe/pumps follow.\n");
  return 0;
}
