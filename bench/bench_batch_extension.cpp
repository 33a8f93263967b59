// Extension - deferrable batch workload: how much does temporal freedom
// save when a batch overlay can chase cheap (hour, site) slots within a
// deadline, on top of the paper's interactive-only model (cf. Goiri et al.
// [26])?
#include <array>

#include "bench_common.hpp"
#include "sim/batch.hpp"

int ufc::bench::batch_extension() {
  bench::print_header(
      "Extension - deferrable batch workload over the hybrid strategy",
      "paper models interactive-only load; related work defers batch");

  const auto scenario = bench::paper_scenario();
  auto options = bench::paper_options();

  TablePrinter table({"deadline h", "batch frac", "inline $", "scheduled $",
                      "saving %", "deferred %", "avg delay h"});
  CsvWriter csv("ufc_batch.csv",
                {"deadline_h", "fraction", "inline_cost", "scheduled_cost",
                 "saving_pct", "deferred_pct", "avg_delay_h"});

  const std::array<int, 5> deadlines = {0, 2, 6, 12, 24};
  for (const int deadline : deadlines) {
    sim::BatchWorkloadOptions batch;
    batch.batch_fraction = 0.2;
    batch.deadline_hours = deadline;
    const auto result = sim::run_batch_week(scenario, batch, options);
    table.add_row(fixed(deadline, 0),
                  {batch.batch_fraction, result.inline_cost,
                   result.scheduled_cost, result.saving_pct,
                   100.0 * result.deferred_fraction,
                   result.average_delay_hours},
                  2);
    csv.row({static_cast<double>(deadline), batch.batch_fraction,
             result.inline_cost, result.scheduled_cost, result.saving_pct,
             100.0 * result.deferred_fraction, result.average_delay_hours});
  }
  table.print();

  std::cout << "\nDeadline slack is the temporal analogue of the paper's "
               "spatial routing: a day of freedom rivals the hybrid "
               "strategy's own arbitrage gains.\n";
  bench::note_csv(csv);
  return 0;
}
