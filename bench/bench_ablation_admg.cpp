// Ablations of the design choices DESIGN.md calls out:
//  1. Gaussian back substitution on/off (ADM-G vs plain 4-block ADMM),
//  2. the correction relaxation epsilon,
//  3. the penalty rho (all values reach the same objective; speed differs),
//  4. FISTA vs plain projected gradient as the inner solver,
//  5. ADM-G vs the projected-subgradient centralized baseline.
// Every variant runs on the same representative slots of the paper scenario.
#include <array>

#include "admm/centralized.hpp"
#include "bench_common.hpp"

namespace {

/// Per-variant totals over the representative slots: add() every slot's
/// report, then finish() turns the iteration and convergence sums into means.
struct VariantResult {
  double mean_iterations = 0.0;
  double max_iterations = 0.0;
  double converged_fraction = 0.0;
  double ufc_total = 0.0;
  std::size_t runs = 0;

  void add(const ufc::admm::AdmgReport& report) {
    mean_iterations += report.iterations;
    max_iterations =
        std::max(max_iterations, static_cast<double>(report.iterations));
    converged_fraction += report.converged ? 1.0 : 0.0;
    ufc_total += report.breakdown.ufc;
    ++runs;
  }

  const VariantResult& finish() {
    mean_iterations /= static_cast<double>(runs);
    converged_fraction /= static_cast<double>(runs);
    return *this;
  }
};

VariantResult run_variant(const ufc::traces::Scenario& scenario,
                          const ufc::admm::AdmgOptions& options,
                          const std::vector<int>& slots) {
  VariantResult result;
  for (int slot : slots)
    result.add(ufc::admm::solve_admg(scenario.problem_at(slot), options));
  result.finish();
  return result;
}

}  // namespace

int ufc::bench::ablation_admg() {
  bench::print_header("Ablations - ADM-G design choices",
                      "correction step, epsilon, rho, inner solver, baseline");

  const auto scenario = bench::paper_scenario();
  std::vector<int> slots;
  for (int t = 4; t < scenario.hours(); t += 12) slots.push_back(t);

  admm::AdmgOptions base;
  base.tolerance = 3e-3;
  base.max_iterations = 800;
  base.record_trace = false;

  TablePrinter table({"Variant", "mean iters", "max iters", "converged %",
                      "UFC total"});
  CsvWriter csv("ufc_ablation.csv", {"variant", "mean_iters", "max_iters",
                                     "converged_pct", "ufc_total"});
  auto report_variant = [&](const std::string& name,
                            const VariantResult& result) {
    table.add_row(name,
                  {result.mean_iterations, result.max_iterations,
                   100.0 * result.converged_fraction, result.ufc_total},
                  1);
    csv.row_strings({name, csv_number(result.mean_iterations),
                     csv_number(result.max_iterations),
                     csv_number(100.0 * result.converged_fraction),
                     csv_number(result.ufc_total)});
  };

  report_variant("ADM-G (default)", run_variant(scenario, base, slots));

  {
    auto plain = base;
    plain.gaussian_back_substitution = false;
    report_variant("plain 4-block ADMM (no correction)",
                   run_variant(scenario, plain, slots));
  }
  for (double epsilon : {0.6, 0.8, 1.0}) {
    auto options = base;
    options.epsilon = epsilon;
    report_variant("epsilon = " + fixed(epsilon, 1),
                   run_variant(scenario, options, slots));
  }
  for (double rho : {0.3, 3.0, 10.0, 30.0}) {
    auto options = base;
    options.rho = rho;
    options.max_iterations = 4000;
    report_variant("rho = " + fixed(rho, 1),
                   run_variant(scenario, options, slots));
  }
  {
    auto pg = base;
    pg.inner.method = admm::InnerMethod::ProjectedGradient;
    pg.inner.fista.max_iterations = 20000;
    report_variant("inner solver = projected gradient",
                   run_variant(scenario, pg, slots));
  }
  {
    auto exact = base;
    exact.inner.method = admm::InnerMethod::Exact;
    report_variant("inner solver = exact rank-one QP",
                   run_variant(scenario, exact, slots));
  }
  {
    // The case ADM-G exists for: a non-smooth, non-strongly-convex carbon
    // policy (stepped tax). Compare the corrected and uncorrected methods.
    auto stepped = std::make_shared<SteppedCarbonTax>(
        std::vector<double>{0.3, 1.0}, std::vector<double>{5.0, 30.0, 120.0});
    auto admg_stepped = base;
    auto plain_stepped = base;
    plain_stepped.gaussian_back_substitution = false;
    VariantResult corrected, uncorrected;
    for (int slot : slots) {
      auto problem = scenario.problem_at(slot);
      for (auto& dc : problem.datacenters) dc.emission_cost = stepped;
      corrected.add(admm::solve_admg(problem, admg_stepped));
      uncorrected.add(admm::solve_admg(problem, plain_stepped));
    }
    report_variant("stepped tax, ADM-G", corrected.finish());
    report_variant("stepped tax, plain ADMM", uncorrected.finish());
  }
  {
    // Warm starting across consecutive hours (operational optimization; the
    // paper's Fig. 11 counts cold starts).
    admm::AdmgOptions admg = base;
    VariantResult warm;
    admm::AdmgSolver solver(scenario.problem_at(slots.front()), admg);
    bool first = true;
    for (int slot : slots) {
      if (!first) solver.set_problem(scenario.problem_at(slot));
      warm.add(first ? solver.solve() : solver.solve_warm());
      first = false;
    }
    report_variant("warm start across slots", warm.finish());
  }
  table.print();

  // Baseline comparison on one representative slot: iteration counts of the
  // projected-subgradient centralized method at matched solution quality.
  const auto problem = scenario.problem_at(64);
  const auto admg = admm::solve_admg(problem, base);
  admm::CentralizedOptions central;
  central.max_iterations = 1000;
  const auto oracle = admm::solve_centralized(problem, central);
  std::cout << "\nSlot 64: ADM-G " << admg.iterations << " iterations (UFC "
            << fixed(admg.breakdown.ufc, 1) << "); projected subgradient "
            << oracle.iterations << " iterations (UFC "
            << fixed(oracle.objective, 1) << ")\n";

  bench::note_csv(csv);
  return 0;
}
