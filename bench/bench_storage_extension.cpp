// Extension - battery storage & peak shaving: layers per-datacenter
// batteries with a price-threshold policy on top of the paper's per-slot
// optimization (the temporal lever its related work [19], [26] studies).
#include <array>

#include "bench_common.hpp"
#include "sim/storage.hpp"

int ufc::bench::storage_extension() {
  bench::print_header(
      "Extension - battery storage on top of the hybrid strategy",
      "per-slot paper model + threshold charging; cf. peak shaving [19]");

  const auto scenario = bench::paper_scenario();
  auto options = bench::paper_options();

  TablePrinter table({"battery (MWh / MW)", "policy", "energy saving $",
                      "saving %", "peak grid cut %", "carbon delta t"});
  CsvWriter csv("ufc_storage.csv",
                {"capacity_mwh", "rate_mw", "policy", "saving", "saving_pct",
                 "peak_cut_pct", "carbon_delta_tons"});
  auto emit = [&](double capacity, double rate, const std::string& name,
                  const sim::StorageWeekResult& result) {
    table.add_row({fixed(capacity, 0) + " / " + fixed(rate, 0), name,
                   fixed(result.total_saving, 2), fixed(result.saving_pct, 2),
                   fixed(result.peak_reduction_pct, 2),
                   fixed(result.carbon_delta_tons, 2)});
    csv.row_strings({csv_number(capacity), csv_number(rate), name,
                     csv_number(result.total_saving),
                     csv_number(result.saving_pct),
                     csv_number(result.peak_reduction_pct),
                     csv_number(result.carbon_delta_tons)});
  };

  const std::array<std::pair<double, double>, 4> sizes = {
      std::pair{2.0, 1.0}, {8.0, 2.0}, {20.0, 5.0}, {50.0, 12.0}};
  for (const auto& [capacity, rate] : sizes) {
    sim::StoragePolicyOptions policy;
    policy.battery.capacity_mwh = capacity;
    policy.battery.max_charge_mw = rate;
    policy.battery.max_discharge_mw = rate;
    emit(capacity, rate, "threshold",
         sim::run_storage_week(scenario, policy, options));

    sim::OptimalStorageOptions optimal;
    optimal.battery = policy.battery;
    emit(capacity, rate, "DP-optimal",
         sim::run_storage_week_optimal(scenario, optimal, options));
  }
  table.print();

  std::cout << "\nBatteries arbitrage the diurnal price spread that fuel "
               "cells alone cannot (their marginal cost p0 is flat), and "
               "never raise the weekly grid peak by construction.\n";
  bench::note_csv(csv);
  return 0;
}
