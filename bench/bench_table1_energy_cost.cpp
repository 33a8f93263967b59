// Table I: one-week energy costs ($) of the Grid / Fuel Cell / Hybrid
// strategies for a single datacenter at Dallas and San Jose, following the
// Facebook-like power demand profile.
#include "bench_common.hpp"

int ufc::bench::table1_energy_cost() {
  bench::print_header(
      "Table I - energy costs of different strategies",
      "Dallas: 9644 / 27957 / 9387; San Jose: 28470 / 27957 / 18250 ($)");

  const auto data = traces::generate_single_site_data(42);
  const double p0 = 80.0;
  const auto dallas =
      sim::single_site_strategy_costs(data.demand_mw, data.dallas_price, p0);
  const auto san_jose =
      sim::single_site_strategy_costs(data.demand_mw, data.san_jose_price, p0);

  TablePrinter table({"Strategy", "Grid", "Fuel Cell", "Hybrid"});
  table.add_row("Dallas", {dallas.grid, dallas.fuel_cell, dallas.hybrid}, 0);
  table.add_row("San Jose",
                {san_jose.grid, san_jose.fuel_cell, san_jose.hybrid}, 0);
  table.print();

  std::cout << "\nHybrid saves " << fixed(100.0 * (1.0 - dallas.hybrid / dallas.grid), 1)
            << "% vs Grid at Dallas and "
            << fixed(100.0 * (1.0 - san_jose.hybrid / san_jose.grid), 1)
            << "% at San Jose (paper: 2.7% and 35.9%).\n";

  CsvWriter csv("ufc_table1.csv", {"site", "grid", "fuel_cell", "hybrid"});
  csv.row_strings({"Dallas", csv_number(dallas.grid),
                   csv_number(dallas.fuel_cell), csv_number(dallas.hybrid)});
  csv.row_strings({"San Jose", csv_number(san_jose.grid),
                   csv_number(san_jose.fuel_cell),
                   csv_number(san_jose.hybrid)});
  bench::note_csv(csv);
  return 0;
}
