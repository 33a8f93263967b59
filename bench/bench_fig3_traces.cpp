// Fig. 3: the four-datacenter simulation inputs — total workload trace,
// per-site electricity prices and per-site carbon emission rates.
#include "bench_common.hpp"

int ufc::bench::fig3_traces() {
  bench::print_header(
      "Fig. 3 - workload, electricity price and carbon rate traces",
      "diurnal workload; spatially diverse prices and carbon rates");

  const auto scenario = bench::paper_scenario();
  const auto& names = scenario.datacenter_names();

  std::cout << "Workload (servers required): mean "
            << fixed(mean(scenario.total_workload()), 0) << ", peak "
            << fixed(max_value(scenario.total_workload()), 0)
            << ", total capacity "
            << fixed(scenario.servers()[0] + scenario.servers()[1] +
                         scenario.servers()[2] + scenario.servers()[3],
                     0)
            << " servers\n\n";

  TablePrinter prices({"Site", "price mean", "price min", "price max",
                       "carbon mean (kg/MWh)"});
  for (std::size_t j = 0; j < scenario.num_datacenters(); ++j) {
    const Vec price_col = scenario.prices().col(j);
    const Vec carbon_col = scenario.carbon_rates().col(j);
    prices.add_row(names[j],
                   {mean(price_col.raw()), min_value(price_col.raw()),
                    max_value(price_col.raw()), mean(carbon_col.raw())},
                   1);
  }
  prices.print();

  CsvWriter csv("ufc_fig3.csv",
                {"hour", "workload", "price_calgary", "price_san_jose",
                 "price_dallas", "price_pittsburgh", "carbon_calgary",
                 "carbon_san_jose", "carbon_dallas", "carbon_pittsburgh"});
  for (int t = 0; t < scenario.hours(); ++t) {
    const auto slot = static_cast<std::size_t>(t);
    csv.row({static_cast<double>(t), scenario.total_workload()[slot],
             scenario.prices()(slot, 0), scenario.prices()(slot, 1),
             scenario.prices()(slot, 2), scenario.prices()(slot, 3),
             scenario.carbon_rates()(slot, 0), scenario.carbon_rates()(slot, 1),
             scenario.carbon_rates()(slot, 2),
             scenario.carbon_rates()(slot, 3)});
  }
  bench::note_csv(csv);
  return 0;
}
