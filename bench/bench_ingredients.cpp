// Solver-ingredient iteration frontier (docs/SOLVER_INGREDIENTS.md).
//
// Runs every registered penalty x acceleration composition to a fixed
// scaled-residual tolerance at three problem scales and reports
// iterations-to-tolerance and wall time, normalized against the default
// fixed + none composition (the bit-pinned reference loop). The table
// quantifies what each ingredient buys: residual balancing retunes rho on
// problems where the baked-in value is off, over-relaxation extrapolates
// along the step direction, and safeguarded Anderson mixing recombines the
// recent history into a better fixed-point candidate.
//
// Every non-default run is cross-checked against the baseline's objective
// (the compositions must agree on the optimum, not just converge), and the
// headline rows land in BENCH_ufc.json under `iteration_frontier`
// (validated by scripts/check_bench_json.py). Override the sizes with
// UFC_BENCH_SIZES (see bench_common.hpp).
#include "bench_common.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "admm/admg.hpp"

namespace {

struct Composition {
  const char* penalty;
  const char* acceleration;
};

/// Default composition first: every later row is normalized against it.
constexpr Composition kCompositions[] = {
    {"fixed", "none"},
    {"residual-balance", "none"},
    {"fixed", "over-relaxation"},
    {"fixed", "anderson"},
    {"residual-balance", "anderson"},
};

struct RunResult {
  int iterations = 0;
  bool converged = false;
  double wall_seconds = 0.0;
  double ufc = 0.0;
  double final_penalty = 0.0;
  std::uint64_t fallbacks = 0;
};

RunResult run_composition(const ufc::UfcProblem& problem,
                          const Composition& composition,
                          int max_iterations) {
  ufc::admm::AdmgOptions options;
  options.penalty = composition.penalty;
  options.acceleration = composition.acceleration;
  options.max_iterations = max_iterations;
  options.record_trace = false;
  // Every composition runs the same exact inner solves (the rank-one QP —
  // machine precision, valid for the quadratic utility this bench uses), so
  // iteration counts compare outer loops, not inner-solver tuning.
  options.inner.method = ufc::admm::InnerMethod::Exact;
  const auto start = std::chrono::steady_clock::now();
  const ufc::admm::AdmgReport report = ufc::admm::solve_admg(problem, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  RunResult result;
  result.iterations = report.iterations;
  result.converged = report.converged;
  result.wall_seconds = std::chrono::duration<double>(elapsed).count();
  result.ufc = report.breakdown.ufc;
  result.final_penalty = report.final_penalty;
  result.fallbacks = report.acceleration_fallbacks;
  return result;
}

}  // namespace

int ufc::bench::ingredients() {
  bench::print_header("Solver-ingredient iteration frontier",
                      "ADM-G compositions (docs/SOLVER_INGREDIENTS.md)");

  // Iteration caps sized so the default tolerance is reachable at the two
  // smaller scales on one core; 4096x256 rows are capped (and honestly
  // reported converged = no when truncated).
  const std::vector<bench::BenchSize> sizes = bench::bench_sizes({
      {64, 16, 2000},
      {1024, 128, 3000},
      {4096, 256, 300},
  });

  CsvWriter csv("ufc_ingredients.csv",
                {"m", "n", "penalty", "acceleration", "iterations",
                 "converged", "wall_seconds", "ufc", "final_penalty",
                 "fallbacks", "speedup_vs_fixed"});
  obs::JsonValue frontier = obs::JsonValue::array();

  for (const bench::BenchSize& size : sizes) {
    // The parallel_scaling instance, so sizes here compare directly with
    // the scaling-frontier rows.
    const UfcProblem problem = bench::random_problem(size.m, size.n, 0.6);
    std::cout << "-- " << size.m << " front-ends x " << size.n
              << " datacenters (max " << size.iterations << " iterations)\n";
    TablePrinter table({"penalty", "acceleration", "iters", "converged",
                        "wall s", "UFC $/h", "final rho", "fallbacks",
                        "iters speedup"});

    double baseline_iterations = 0.0;
    double baseline_ufc = 0.0;
    bool baseline_converged = false;
    bool first = true;
    for (const Composition& composition : kCompositions) {
      const RunResult run =
          run_composition(problem, composition, size.iterations);
      const bool is_baseline = first;
      first = false;
      if (is_baseline) {
        baseline_iterations = static_cast<double>(run.iterations);
        baseline_ufc = run.ufc;
        baseline_converged = run.converged;
      }
      const double speedup =
          run.iterations > 0
              ? baseline_iterations / static_cast<double>(run.iterations)
              : 0.0;
      // Converged compositions share the optimum; a large objective gap
      // means an ingredient broke the solve rather than accelerated it.
      // Truncated runs (either side hit the iteration cap) are reported but
      // not compared — they sit at different points of the same trajectory.
      const double ufc_gap =
          std::abs(run.ufc - baseline_ufc) /
          std::max(1.0, std::abs(baseline_ufc));
      if (!is_baseline && baseline_converged && run.converged &&
          ufc_gap > 5e-3) {
        std::cerr << "objective mismatch for " << composition.penalty << "+"
                  << composition.acceleration << ": " << run.ufc << " vs "
                  << baseline_ufc << "\n";
        return 1;
      }

      table.add_row({std::string(composition.penalty),
                     std::string(composition.acceleration),
                     std::to_string(run.iterations),
                     run.converged ? "yes" : "no", fixed(run.wall_seconds, 3),
                     fixed(run.ufc, 2), fixed(run.final_penalty, 3),
                     std::to_string(run.fallbacks), fixed(speedup, 2)});
      csv.row_strings({std::to_string(size.m), std::to_string(size.n),
                       std::string(composition.penalty),
                       std::string(composition.acceleration),
                       std::to_string(run.iterations),
                       run.converged ? "1" : "0",
                       csv_number(run.wall_seconds), csv_number(run.ufc),
                       csv_number(run.final_penalty),
                       std::to_string(run.fallbacks), csv_number(speedup)});

      obs::JsonValue row = obs::JsonValue::object();
      row.set("m", obs::JsonValue(static_cast<std::int64_t>(size.m)));
      row.set("n", obs::JsonValue(static_cast<std::int64_t>(size.n)));
      row.set("penalty", obs::JsonValue(composition.penalty));
      row.set("acceleration", obs::JsonValue(composition.acceleration));
      row.set("iterations", obs::JsonValue(run.iterations));
      row.set("converged", obs::JsonValue(run.converged));
      row.set("wall_seconds", obs::JsonValue(run.wall_seconds));
      row.set("speedup_vs_fixed", obs::JsonValue(speedup));
      frontier.push_back(std::move(row));
    }
    table.print();
    std::cout << "\n";
  }

  obs::JsonValue metrics = obs::JsonValue::object();
  metrics.set("iteration_frontier", std::move(frontier));
  bench::write_bench_entry("ingredients", std::move(metrics));
  bench::note_csv(csv);
  return 0;
}
