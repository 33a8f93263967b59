// Fig. 6: hourly energy cost per strategy — fuel-cell-only is the most
// expensive; the hybrid's price arbitrage cuts it sharply and tracks the
// grid at off-peak hours.
#include "bench_common.hpp"

int ufc::bench::fig6_energy_cost() {
  bench::print_header(
      "Fig. 6 - energy cost under various strategies",
      "FuelCell highest; Hybrid ~60% below FuelCell; Hybrid==Grid off-peak");

  const auto& cmp = bench::paper_week();

  TablePrinter table({"Strategy", "total $", "mean $/h", "max $/h"});
  for (const auto* week : {&cmp.grid, &cmp.fuel_cell, &cmp.hybrid}) {
    const auto series = week->energy_cost_series();
    table.add_row(admm::to_string(week->strategy),
                  {week->total_energy_cost(), mean(series), max_value(series)},
                  0);
  }
  table.print();

  std::cout << "\nHybrid energy-cost reduction vs FuelCell: "
            << fixed(100.0 * (1.0 - cmp.hybrid.total_energy_cost() /
                                        cmp.fuel_cell.total_energy_cost()),
                     1)
            << "% (paper: ~60%)\n";

  CsvWriter csv("ufc_fig6.csv", {"hour", "energy_grid", "energy_fuel_cell",
                                 "energy_hybrid"});
  for (std::size_t t = 0; t < cmp.grid.slots.size(); ++t)
    csv.row({static_cast<double>(cmp.grid.slots[t].slot),
             cmp.grid.slots[t].breakdown.energy_cost,
             cmp.fuel_cell.slots[t].breakdown.energy_cost,
             cmp.hybrid.slots[t].breakdown.energy_cost});
  bench::note_csv(csv);
  return 0;
}
