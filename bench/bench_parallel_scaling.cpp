// Parallel scaling of the ADM-G step, two sweeps, every ratio taken between
// rows measured in the same run:
//
//  1. Thread scaling: per-iteration wall time vs. the AdmgOptions::threads
//     knob at three problem scales, with each row's speedup over the
//     threads=1 row of its size. Iterates are bit-identical across thread
//     counts, so every row times exactly the same arithmetic.
//
//  2. Size-scaling frontier (docs/PERFORMANCE.md, "Scaling frontier"):
//     serial per-iteration time up to 4096x256 for the default kernels
//     (sort projection, bit-pinned) and the fast path (Condat projection +
//     active-set screening), with the fast path's speedup over the default
//     kernels. Each fast-path run is KKT-validated: one extra step is taken
//     from a snapshot of (a, varphi), and the resulting lambda rows are
//     checked as projected-gradient fixed points of their sub-problems.
//     Override the sizes with UFC_BENCH_SIZES (see bench_common.hpp).
#include "bench_common.hpp"

#include <cmath>

#include "admm/admg.hpp"
#include "opt/kkt.hpp"
#include "util/clock.hpp"

namespace {

/// Mean wall time of one step(), in microseconds, over `iterations` steps
/// taken after `warmup` untimed ones (first-step allocations, the screening
/// cold start, warm caches).
double us_per_step(ufc::admm::AdmgSolver& solver, int warmup, int iterations) {
  for (int k = 0; k < warmup; ++k) solver.step();
  const ufc::util::MonotonicTimer timer;
  for (int k = 0; k < iterations; ++k) solver.step();
  return 1e6 * timer.elapsed_seconds() / static_cast<double>(iterations);
}

struct KktSummary {
  double max_residual = 0.0;
  bool passed = true;
};

/// Validates the fast path's lambda predictions as first-order optima: from
/// the solver's current state, snapshot (a, varphi), take one more step, and
/// check sampled rows of the resulting lambda (which the step computed from
/// exactly that snapshot) as projected-gradient fixed points of the
/// per-front-end sub-problem (eq. (17)). An incorrectly screened-out
/// coordinate would show up as a residual at that coordinate, because the
/// check runs over the full row, not the support.
KktSummary validate_lambda_kkt(ufc::admm::AdmgSolver& solver) {
  using namespace ufc;
  const Mat a_snap = solver.a();
  const Mat varphi_snap = solver.varphi();
  solver.step();
  const Mat& lambda = solver.lambda();
  const UfcProblem& p = solver.problem();
  const std::size_t m = p.num_front_ends();
  const std::size_t n = p.num_datacenters();
  const std::size_t stride = m < 16 ? 1 : m / 16;
  const double rho = solver.options().rho;
  KktSummary summary;
  for (std::size_t i = 0; i < m; i += stride) {
    const double arrival = p.arrivals[i];
    if (arrival <= 0.0) continue;
    Vec row(n);
    for (std::size_t j = 0; j < n; ++j) row[j] = lambda(i, j);
    auto gradient = [&](const Vec& x) {
      double avg_latency = 0.0;
      for (std::size_t j = 0; j < n; ++j)
        avg_latency += x[j] * p.latency_s(i, j);
      avg_latency /= arrival;
      const double uprime = p.utility->derivative(avg_latency);
      Vec g(n);
      for (std::size_t j = 0; j < n; ++j)
        g[j] = -p.latency_weight * uprime * p.latency_s(i, j) -
               varphi_snap(i, j) - rho * (a_snap(i, j) - x[j]);
      return g;
    };
    auto project = [&](const Vec& x) { return project_simplex(x, arrival); };
    const auto check = check_first_order_optimality(row, gradient, project,
                                                    1e-6, 1e-5, arrival);
    summary.max_residual = std::max(summary.max_residual, check.residual);
    summary.passed = summary.passed && check.passed;
  }
  return summary;
}

}  // namespace

int ufc::bench::parallel_scaling() {
  bench::print_header(
      "Parallel scaling - ADM-G step wall time vs. threads",
      "n/a (engineering benchmark; iterates bit-identical across rows)");

  const bench::BenchSize scales[] = {
      {16, 4, 2000},
      {64, 16, 200},
      {256, 32, 40},
  };
  // threads = 1 comes first: it is the baseline of every later row.
  const int thread_counts[] = {1, 2, 4, 8};

  TablePrinter table({"M", "N", "threads", "us/iter", "speedup vs 1 thread"});
  CsvWriter csv("ufc_parallel.csv", {"m", "n", "threads", "us_per_iter",
                                     "speedup_vs_serial"});
  obs::JsonValue rows = obs::JsonValue::array();
  for (const auto& scale : scales) {
    const auto problem = bench::random_problem(scale.m, scale.n, 0.6);
    double serial_us = 0.0;
    for (int threads : thread_counts) {
      admm::AdmgOptions options;
      options.threads = threads;
      admm::AdmgSolver solver(problem, options);
      const double us = us_per_step(solver, 5, scale.iterations);
      if (threads == 1) serial_us = us;
      const double speedup = serial_us / us;
      table.add_row(std::to_string(scale.m),
                    {static_cast<double>(scale.n),
                     static_cast<double>(threads), us, speedup},
                    2);
      csv.row({static_cast<double>(scale.m), static_cast<double>(scale.n),
               static_cast<double>(threads), us, speedup});
      obs::JsonValue row = obs::JsonValue::object();
      row.set("m", obs::JsonValue(static_cast<std::int64_t>(scale.m)));
      row.set("n", obs::JsonValue(static_cast<std::int64_t>(scale.n)));
      row.set("threads", obs::JsonValue(threads));
      row.set("us_per_iter", obs::JsonValue(us));
      row.set("speedup_vs_serial", obs::JsonValue(speedup));
      rows.push_back(std::move(row));
    }
  }
  table.print();
  std::cout << "\nNote: wall-clock thread scaling requires physical cores; "
               "on a single-core host the threads>1 rows measure "
               "synchronization overhead only.\n";
  bench::note_csv(csv);

  obs::JsonValue entry = obs::JsonValue::object();
  entry.set("rows", std::move(rows));
  bench::write_bench_entry("parallel_scaling", std::move(entry));

  // ---- Size-scaling frontier: default kernels vs. the fast path, serial.
  std::cout << "\n=== Size-scaling frontier (serial) ===\n";
  std::cout << "fast path = Condat projection + active-set screening "
               "(full verification pass every "
            << admm::ActiveSetOptions{}.full_pass_every << " steps)\n\n";
  // Timed windows are multiples of the screening period where affordable, so
  // the fast-path mean amortizes the periodic full verification pass.
  const auto frontier = bench::bench_sizes({
      {64, 16, 96},
      {256, 32, 32},
      {1024, 128, 8},
      {4096, 256, 8},
  });
  TablePrinter frontier_table({"M", "N", "default us/iter", "fast us/iter",
                               "fast speedup", "KKT max res", "KKT pass"});
  CsvWriter frontier_csv(
      "ufc_scaling_frontier.csv",
      {"m", "n", "iterations", "default_us_per_iter", "fast_us_per_iter",
       "fast_speedup", "kkt_max_residual", "kkt_passed"});
  obs::JsonValue frontier_rows = obs::JsonValue::array();
  for (const auto& size : frontier) {
    const auto problem = bench::random_problem(size.m, size.n, 0.6);
    const int warmup = 2;

    admm::AdmgOptions defaults;
    defaults.threads = 1;
    admm::AdmgSolver default_solver(problem, defaults);
    const double default_us =
        us_per_step(default_solver, warmup, size.iterations);

    admm::AdmgOptions fast = defaults;
    fast.inner.projection = SimplexProjection::Condat;
    fast.screening.enabled = true;
    admm::AdmgSolver fast_solver(problem, fast);
    const double fast_us = us_per_step(fast_solver, warmup, size.iterations);
    const KktSummary kkt = validate_lambda_kkt(fast_solver);

    const double fast_speedup = default_us / fast_us;
    frontier_table.add_row(
        std::to_string(size.m),
        {static_cast<double>(size.n), default_us, fast_us, fast_speedup,
         kkt.max_residual, kkt.passed ? 1.0 : 0.0},
        2);
    frontier_csv.row({static_cast<double>(size.m),
                      static_cast<double>(size.n),
                      static_cast<double>(size.iterations), default_us,
                      fast_us, fast_speedup, kkt.max_residual,
                      kkt.passed ? 1.0 : 0.0});
    obs::JsonValue row = obs::JsonValue::object();
    row.set("m", obs::JsonValue(static_cast<std::int64_t>(size.m)));
    row.set("n", obs::JsonValue(static_cast<std::int64_t>(size.n)));
    row.set("iterations", obs::JsonValue(size.iterations));
    row.set("default_us_per_iter", obs::JsonValue(default_us));
    row.set("fast_us_per_iter", obs::JsonValue(fast_us));
    row.set("fast_speedup", obs::JsonValue(fast_speedup));
    row.set("kkt_max_residual", obs::JsonValue(kkt.max_residual));
    row.set("kkt_passed", obs::JsonValue(kkt.passed));
    frontier_rows.push_back(std::move(row));
  }
  frontier_table.print();
  bench::note_csv(frontier_csv);

  obs::JsonValue frontier_entry = obs::JsonValue::object();
  frontier_entry.set("rows", std::move(frontier_rows));
  bench::write_bench_entry("scaling_frontier", std::move(frontier_entry));
  return 0;
}
