// Robustness - distributed ADM-G under injected network faults: iteration
// and traffic inflation plus the UFC gap versus message-loss rate, delivery
// delay, and datacenter crash-window length, at three problem sizes
// (docs/ROBUSTNESS.md). The zero-fault row of each sweep doubles as the
// baseline the gaps are measured against.
#include "bench_common.hpp"

#include <string>

#include "net/runtime.hpp"

namespace {

ufc::net::DistributedOptions degraded_options() {
  ufc::net::DistributedOptions dist;
  dist.admg.tolerance = 3e-3;
  dist.admg.max_iterations = 4000;
  dist.admg.record_trace = false;
  dist.degraded = true;
  dist.max_attempts = 4;
  return dist;
}

struct SweepRow {
  std::string experiment;
  double param = 0.0;
  ufc::net::DistributedReport report;
};

}  // namespace

int ufc::bench::faults() {
  bench::print_header(
      "Robustness - degraded distributed ADM-G under injected faults",
      "n/a (robustness benchmark beyond the paper's fault-free protocol)");

  TablePrinter table({"experiment", "M", "N", "param", "iterations",
                      "iter x", "kB on wire", "traffic x", "retrans",
                      "failures", "stale", "UFC gap %"});
  CsvWriter csv("ufc_faults.csv",
                {"experiment", "m", "n", "param", "iterations",
                 "iter_inflation", "bytes", "traffic_inflation",
                 "retransmissions", "delivery_failures", "stale_inputs",
                 "ufc", "gap_pct"});

  const std::pair<std::size_t, std::size_t> sizes[] = {{4, 3}, {10, 4},
                                                       {20, 6}};
  for (const auto& [m, n] : sizes) {
    // ~55% load, so that removing any single datacenter (the crash sweep)
    // keeps the reduced problem feasible.
    const auto problem = bench::random_problem(m, n, 0.55);

    // Zero-fault baseline: strict lockstep, bit-identical to the monolithic
    // solver. All gaps and inflation factors below are relative to this row.
    net::DistributedOptions clean;
    clean.admg = degraded_options().admg;
    const auto baseline = net::DistributedAdmgRuntime(problem, clean).run();

    std::vector<SweepRow> rows;
    rows.push_back({"baseline", 0.0, baseline});

    for (double loss : {0.1, 0.2, 0.4}) {
      auto dist = degraded_options();
      dist.faults.random_faults({.loss_rate = loss});
      rows.push_back(
          {"loss", loss, net::DistributedAdmgRuntime(problem, dist).run()});
    }

    for (int delay_rounds : {1, 2, 4}) {
      auto dist = degraded_options();
      dist.faults.random_faults(
          {.delay_rate = 0.3, .max_delay_rounds = delay_rounds});
      rows.push_back({"delay", static_cast<double>(delay_rounds),
                      net::DistributedAdmgRuntime(problem, dist).run()});
    }

    for (int window : {10, 30, net::kForeverRound}) {
      auto dist = degraded_options();
      dist.dead_after_rounds = 5;
      dist.faults.crash(net::datacenter_id(0), {20, window == net::kForeverRound
                                                        ? net::kForeverRound
                                                        : 20 + window});
      const double param =
          window == net::kForeverRound ? -1.0 : static_cast<double>(window);
      rows.push_back({"crash", param,
                      net::DistributedAdmgRuntime(problem, dist).run()});
    }

    const double base_iters = static_cast<double>(baseline.iterations);
    const double base_bytes = static_cast<double>(baseline.network.bytes);
    for (const auto& row : rows) {
      const auto& r = row.report;
      const double iter_x = static_cast<double>(r.iterations) / base_iters;
      const double traffic_x =
          static_cast<double>(r.network.bytes) / base_bytes;
      // A permanent crash converges to the *reduced* problem's optimum, so
      // its gap reports the capacity cost of losing the datacenter.
      const double gap =
          improvement_percent(r.breakdown.ufc, baseline.breakdown.ufc);
      table.add_row(row.experiment + " " + fixed(row.param, 1),
                    {static_cast<double>(m), static_cast<double>(n),
                     row.param, static_cast<double>(r.iterations), iter_x,
                     static_cast<double>(r.network.bytes) / 1024.0, traffic_x,
                     static_cast<double>(r.network.retransmissions),
                     static_cast<double>(r.network.delivery_failures),
                     static_cast<double>(r.stale_inputs), gap},
                    2);
      csv.row_strings({row.experiment, csv_number(static_cast<double>(m)),
                       csv_number(static_cast<double>(n)),
                       csv_number(row.param),
                       csv_number(static_cast<double>(r.iterations)),
                       csv_number(iter_x),
                       csv_number(static_cast<double>(r.network.bytes)),
                       csv_number(traffic_x),
                       csv_number(static_cast<double>(
                           r.network.retransmissions)),
                       csv_number(static_cast<double>(
                           r.network.delivery_failures)),
                       csv_number(static_cast<double>(r.stale_inputs)),
                       csv_number(r.breakdown.ufc), csv_number(gap)});
    }
  }
  table.print();

  std::cout << "\nLoss and delay inflate iterations and traffic but leave "
               "the UFC at the fault-free optimum; crashes long enough to "
               "trip the health tracker degrade to the reduced problem's "
               "optimum (negative gap = lost capacity, not solver error).\n";
  bench::note_csv(csv);
  return 0;
}
