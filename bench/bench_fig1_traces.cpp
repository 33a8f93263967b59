// Fig. 1: the one-week single-site power demand profile and the Dallas /
// San Jose electricity prices that motivate the hybrid strategy.
#include "bench_common.hpp"

int ufc::bench::fig1_traces() {
  bench::print_header("Fig. 1 - demand profile and electricity prices",
                      "Facebook demand ~2 MW; Dallas cheap, San Jose dear");

  const auto data = traces::generate_single_site_data(42);

  TablePrinter table({"Series", "mean", "min", "max"});
  table.add_row("Demand (MW)",
                {mean(data.demand_mw), min_value(data.demand_mw),
                 max_value(data.demand_mw)});
  table.add_row("Dallas price ($/MWh)",
                {mean(data.dallas_price), min_value(data.dallas_price),
                 max_value(data.dallas_price)});
  table.add_row("San Jose price ($/MWh)",
                {mean(data.san_jose_price), min_value(data.san_jose_price),
                 max_value(data.san_jose_price)});
  table.print();

  const double p0 = 80.0;
  int dallas_below = 0, sj_below = 0;
  for (std::size_t t = 0; t < data.dallas_price.size(); ++t) {
    dallas_below += data.dallas_price[t] < p0 ? 1 : 0;
    sj_below += data.san_jose_price[t] < p0 ? 1 : 0;
  }
  std::cout << "\nHours with grid cheaper than fuel cells (p0 = 80 $/MWh): "
            << "Dallas " << dallas_below << "/168, San Jose " << sj_below
            << "/168\n";

  CsvWriter csv("ufc_fig1.csv",
                {"hour", "demand_mw", "dallas_price", "san_jose_price"});
  for (std::size_t t = 0; t < data.demand_mw.size(); ++t)
    csv.row({static_cast<double>(t), data.demand_mw[t], data.dallas_price[t],
             data.san_jose_price[t]});
  bench::note_csv(csv);
  return 0;
}
