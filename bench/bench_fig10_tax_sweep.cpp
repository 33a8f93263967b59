// Fig. 10: does the carbon tax work? Sweeps the tax rate r and reports
// average UFC improvement (Hybrid over Grid) and fuel-cell utilization.
#include <array>

#include "bench_common.hpp"
#include "sim/sweep.hpp"

int ufc::bench::fig10_tax_sweep() {
  bench::print_header(
      "Fig. 10 - average UFC improvement and utilization vs carbon tax",
      "utilization -> ~100% near 140 $/ton; today's 5-39 $/ton fails (<20%)");

  traces::ScenarioConfig config;  // paper defaults (p0 = 80)
  auto options = bench::paper_options();
  options.stride = 2;

  const std::array<double, 9> taxes = {0.0,  10.0, 25.0,  40.0, 60.0,
                                       90.0, 120.0, 150.0, 200.0};
  const auto points = sim::sweep_carbon_tax(config, taxes, options);

  TablePrinter table({"tax ($/ton)", "avg UFC improvement %",
                      "avg fuel cell utilization %"});
  CsvWriter csv("ufc_fig10.csv",
                {"tax", "avg_improvement_pct", "avg_utilization_pct"});
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
