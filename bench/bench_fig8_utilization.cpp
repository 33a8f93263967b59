// Fig. 8: hourly fuel-cell utilization (fuel-cell generation as a fraction
// of power demand) under the Hybrid strategy — wildly fluctuating and, at
// current prices, low on average.
#include "bench_common.hpp"

int ufc::bench::fig8_utilization() {
  bench::print_header(
      "Fig. 8 - fuel cell utilization at each time period",
      "wild fluctuation; average ~16.2%; rarely above 70%");

  const auto& hybrid = bench::paper_week().hybrid;
  const auto utilization = hybrid.utilization_series();

  TablePrinter table({"Metric", "value"});
  table.add_row("mean utilization %", {100.0 * mean(utilization)}, 1);
  table.add_row("min utilization %", {100.0 * min_value(utilization)}, 1);
  table.add_row("max utilization %", {100.0 * max_value(utilization)}, 1);
  table.add_row("p95 utilization %", {100.0 * percentile(utilization, 95)}, 1);
  int above70 = 0, near_zero = 0;
  for (double u : utilization) {
    above70 += u > 0.7 ? 1 : 0;
    near_zero += u < 0.01 ? 1 : 0;
  }
  table.add_row("hours above 70%", {static_cast<double>(above70)}, 0);
  table.add_row("hours near zero", {static_cast<double>(near_zero)}, 0);
  table.print();

  CsvWriter csv("ufc_fig8.csv",
                {"hour", "utilization", "fuel_cell_mwh", "demand_mwh"});
  for (const auto& slot : hybrid.slots)
    csv.row({static_cast<double>(slot.slot), slot.breakdown.utilization,
             slot.breakdown.fuel_cell_mwh, slot.breakdown.demand_mwh});
  bench::note_csv(csv);
  return 0;
}
