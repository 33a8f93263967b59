// Fig. 7: hourly carbon-emission cost per strategy — hybrid stays close to
// grid (low tax keeps grid power attractive); fuel-cell-only is carbon-free.
#include "bench_common.hpp"

int ufc::bench::fig7_carbon_cost() {
  bench::print_header(
      "Fig. 7 - carbon emission cost under various strategies",
      "Hybrid close to Grid; carbon cost well below energy cost");

  const auto& cmp = bench::paper_week();

  TablePrinter table(
      {"Strategy", "carbon $ total", "carbon tons", "energy $ total"});
  for (const auto* week : {&cmp.grid, &cmp.fuel_cell, &cmp.hybrid}) {
    table.add_row(admm::to_string(week->strategy),
                  {week->total_carbon_cost(), week->total_carbon_tons(),
                   week->total_energy_cost()},
                  0);
  }
  table.print();

  std::cout << "\nHybrid emits "
            << fixed(100.0 * cmp.hybrid.total_carbon_tons() /
                         cmp.grid.total_carbon_tons(),
                     1)
            << "% of Grid's carbon; carbon cost is "
            << fixed(100.0 * cmp.hybrid.total_carbon_cost() /
                         cmp.hybrid.total_energy_cost(),
                     1)
            << "% of its energy cost (paper: carbon << energy at $25/ton)\n";

  CsvWriter csv("ufc_fig7.csv", {"hour", "carbon_grid", "carbon_fuel_cell",
                                 "carbon_hybrid"});
  for (std::size_t t = 0; t < cmp.grid.slots.size(); ++t)
    csv.row({static_cast<double>(cmp.grid.slots[t].slot),
             cmp.grid.slots[t].breakdown.carbon_cost,
             cmp.fuel_cell.slots[t].breakdown.carbon_cost,
             cmp.hybrid.slots[t].breakdown.carbon_cost});
  bench::note_csv(csv);
  return 0;
}
