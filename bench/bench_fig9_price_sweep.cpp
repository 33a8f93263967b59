// Fig. 9: how low must the fuel-cell generation price go? Sweeps p0 and
// reports average UFC improvement (Hybrid over Grid) and fuel-cell
// utilization.
#include <array>

#include "bench_common.hpp"
#include "sim/sweep.hpp"

int ufc::bench::fig9_price_sweep() {
  bench::print_header(
      "Fig. 9 - average UFC improvement and utilization vs fuel cell price",
      "utilization -> 100% at ~27 $/MWh; poor (11-16%) at today's 80-110");

  traces::ScenarioConfig config;  // paper defaults
  auto options = bench::paper_options();
  options.stride = 2;  // every 2nd hour: 84 slots per strategy per point

  const std::array<double, 9> prices = {10.0, 20.0,  30.0,  45.0, 60.0,
                                        80.0, 95.0, 110.0, 130.0};
  const auto points = sim::sweep_fuel_cell_price(config, prices, options);

  TablePrinter table({"p0 ($/MWh)", "avg UFC improvement %",
                      "avg fuel cell utilization %"});
  CsvWriter csv("ufc_fig9.csv",
                {"p0", "avg_improvement_pct", "avg_utilization_pct"});
  for (const auto& point : points) {
    table.add_row(fixed(point.parameter, 0),
                  {point.avg_improvement_pct, 100.0 * point.avg_utilization},
                  1);
    csv.row({point.parameter, point.avg_improvement_pct,
             100.0 * point.avg_utilization});
  }
  table.print();
  bench::note_csv(csv);
  return 0;
}
