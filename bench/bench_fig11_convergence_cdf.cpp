// Fig. 11: CDF of the iterations ADM-G needs to converge across the 168
// hourly runs, plus the comparison the paper draws against gradient /
// projection methods ("hundreds of iterations").
#include "bench_common.hpp"

#include "admm/centralized.hpp"
#include "obs/metrics_observer.hpp"

int ufc::bench::fig11_convergence_cdf() {
  bench::print_header(
      "Fig. 11 - CDF of iterations to convergence (168 runs)",
      "80% within 100 iterations; min 37; max 130");

  const auto scenario = bench::paper_scenario();
  // Instrumented run: the registry collects per-iteration wall time and the
  // per-phase split over all 168 solves. Observers are read-only, so the
  // iteration counts are identical to an unobserved run.
  obs::MetricsRegistry registry;
  obs::MetricsObserver metrics_observer(registry);
  auto options = bench::paper_options();
  options.admg.observer = &metrics_observer;
  options.admg.profile_phases = true;
  const auto hybrid =
      sim::run_strategy_week(scenario, admm::Strategy::Hybrid, options);
  const auto iters = hybrid.iteration_series();

  TablePrinter table({"Statistic", "iterations"});
  table.add_row("min", {min_value(iters)}, 0);
  table.add_row("p50", {percentile(iters, 50)}, 0);
  table.add_row("p80", {percentile(iters, 80)}, 0);
  table.add_row("p95", {percentile(iters, 95)}, 0);
  table.add_row("max", {max_value(iters)}, 0);
  table.print();

  int within100 = 0;
  for (double it : iters) within100 += it <= 100.0 ? 1 : 0;
  std::cout << "\nRuns converged within 100 iterations: " << within100 << "/"
            << iters.size() << " ("
            << fixed(100.0 * within100 / static_cast<double>(iters.size()), 1)
            << "%, paper: 80%)\n";

  // The paper's point of comparison: a projection-based centralized method
  // takes hundreds of (more expensive) iterations on one representative slot.
  admm::CentralizedOptions central;
  central.max_iterations = 500;
  const auto oracle =
      admm::solve_centralized(scenario.problem_at(64), central);
  std::cout << "Projected-subgradient baseline used " << oracle.iterations
            << " iterations on slot 64 (paper cites hundreds for such "
               "methods).\n";

  CsvWriter csv("ufc_fig11.csv", {"iterations", "cdf"});
  for (const auto& point : empirical_cdf(iters))
    csv.row({point.value, point.cumulative});
  bench::note_csv(csv);

  obs::JsonValue entry = obs::JsonValue::object();
  entry.set("runs", obs::JsonValue(static_cast<std::int64_t>(iters.size())));
  entry.set("iterations_min", obs::JsonValue(min_value(iters)));
  entry.set("iterations_p50", obs::JsonValue(percentile(iters, 50)));
  entry.set("iterations_p80", obs::JsonValue(percentile(iters, 80)));
  entry.set("iterations_p95", obs::JsonValue(percentile(iters, 95)));
  entry.set("iterations_max", obs::JsonValue(max_value(iters)));
  entry.set("within_100_fraction",
            obs::JsonValue(static_cast<double>(within100) /
                           static_cast<double>(iters.size())));
  entry.set("solver", registry.to_json());
  bench::write_bench_entry("fig11_convergence_cdf", std::move(entry));
  return 0;
}
