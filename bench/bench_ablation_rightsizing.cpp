// Ablation of the paper's §II-C Remark: keeping every server powered
// (the paper's reliability-first default) versus right-sizing the active
// fleet to the routed load. Quantifies the idle-power cost of the paper's
// modeling choice across a simulated day.
#include "admm/rightsizing.hpp"
#include "bench_common.hpp"

int ufc::bench::ablation_rightsizing() {
  bench::print_header(
      "Ablation - always-on fleets vs server right-sizing",
      "paper keeps S_j fixed; its Remark sketches the shutdown extension");

  const auto scenario = bench::paper_scenario();
  admm::AdmgOptions admg;
  admg.tolerance = 3e-3;
  admg.max_iterations = 800;
  admg.record_trace = false;

  TablePrinter table({"hour", "UFC always-on $", "UFC right-sized $",
                      "gain %", "active servers %"});
  CsvWriter csv("ufc_rightsizing.csv",
                {"hour", "ufc_always_on", "ufc_right_sized", "gain_pct",
                 "active_fraction"});

  double total_always = 0.0, total_sized = 0.0;
  double total_capacity = 0.0;
  for (double s : scenario.servers()) total_capacity += s;

  for (int t = 0; t < 24; ++t) {
    const int hour = 48 + t;  // a full Wednesday
    const auto problem = scenario.problem_at(hour);
    const auto always_on =
        admm::solve_strategy(problem, admm::Strategy::Hybrid, admg);
    const auto sized =
        admm::solve_right_sized(problem, admm::Strategy::Hybrid, admg);

    const double gain = improvement_percent(
        sized.final_report.breakdown.ufc, always_on.breakdown.ufc);
    double active = 0.0;
    for (double s : sized.active_servers) active += s;
    const double active_fraction = active / total_capacity;

    total_always += always_on.breakdown.ufc;
    total_sized += sized.final_report.breakdown.ufc;
    table.add_row(fixed(hour, 0),
                  {always_on.breakdown.ufc, sized.final_report.breakdown.ufc,
                   gain, 100.0 * active_fraction},
                  1);
    csv.row({static_cast<double>(hour), always_on.breakdown.ufc,
             sized.final_report.breakdown.ufc, gain, active_fraction});
  }
  table.print();

  std::cout << "\nDay total: always-on UFC " << fixed(total_always, 0)
            << " vs right-sized " << fixed(total_sized, 0) << " ("
            << fixed(improvement_percent(total_sized, total_always), 1)
            << "% better) — idle power is the price of the paper's "
               "always-on reliability stance.\n";
  bench::note_csv(csv);
  return 0;
}
