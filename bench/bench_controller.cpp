// Warm-start value in the receding-horizon controller (docs/CONTROLLER.md).
//
// Replays one week of the paper scenario as a tick stream into two
// controllers that differ in exactly one bit: the warm controller keeps its
// iterate across ticks, the cold baseline resets to the paper's cold start
// before every tick. Both get the same per-tick iteration budget, so the
// comparison isolates what the warm iterate buys: iterations-to-converge
// per tick and how often the budget runs out at all.
//
// Headline totals land in BENCH_ufc.json under `controller` (validated by
// scripts/check_bench_json.py). Override the tick count with
// UFC_BENCH_TICKS (CI smoke runs a short prefix of the week).
#include "bench_common.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "admm/solve_core.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/stream.hpp"

namespace {

/// Tick count: the full week unless UFC_BENCH_TICKS overrides (malformed
/// values abort rather than silently benchmarking the wrong length).
int bench_ticks(int available) {
  // Benches are single-threaded at startup; nobody calls setenv concurrently.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("UFC_BENCH_TICKS");
  if (env == nullptr || *env == '\0') return available;
  const std::string spec(env);
  int ticks = 0;
  const auto result =
      std::from_chars(spec.data(), spec.data() + spec.size(), ticks);
  if (result.ec != std::errc() || result.ptr != spec.data() + spec.size() ||
      ticks < 1) {
    std::cerr << "UFC_BENCH_TICKS: malformed value '" << spec
              << "' (expected a positive integer)\n";
    std::exit(2);
  }
  return std::min(ticks, available);
}

}  // namespace

int ufc::bench::controller() {
  bench::print_header("Receding-horizon warm starts vs cold restarts",
                      "streaming re-solve, one week of hourly ticks");

  const auto scenario = bench::paper_scenario();
  ctrl::ScenarioTickSource source(scenario);

  std::vector<admm::ProblemUpdate> updates;
  while (auto update = source.next()) updates.push_back(std::move(*update));
  const int ticks = bench_ticks(static_cast<int>(updates.size()));
  updates.resize(static_cast<std::size_t>(ticks));

  ctrl::ControllerOptions options;
  options.admg = bench::paper_options().admg;
  options.max_iters_per_tick = 400;
  ctrl::Controller warm(source.base_problem(), options);
  options.cold_restart = true;
  ctrl::Controller cold(source.base_problem(), options);

  CsvWriter csv("ufc_controller.csv",
                {"tick", "warm_iterations", "warm_status", "cold_iterations",
                 "cold_status"});
  for (int t = 0; t < ticks; ++t) {
    const ctrl::TickReport warm_tick =
        warm.tick(updates[static_cast<std::size_t>(t)]);
    const ctrl::TickReport cold_tick =
        cold.tick(updates[static_cast<std::size_t>(t)]);
    csv.row_strings({std::to_string(t),
                     std::to_string(warm_tick.report.iterations),
                     admm::to_string(warm_tick.report.status),
                     std::to_string(cold_tick.report.iterations),
                     admm::to_string(cold_tick.report.status)});
  }

  // A warm iterate that went non-finite anywhere in the week would poison
  // every later tick; fail loudly rather than reporting garbage totals.
  if (!warm.solver().iterate_finite() || !cold.solver().iterate_finite()) {
    std::cerr << "controller ended with a non-finite iterate\n";
    return 1;
  }

  const double savings_ratio =
      cold.total_iterations() > 0
          ? 1.0 - static_cast<double>(warm.total_iterations()) /
                      static_cast<double>(cold.total_iterations())
          : 0.0;

  TablePrinter table({"controller", "ticks", "iterations", "converged",
                      "budget exhausted", "iters/tick"});
  const auto add = [&](const char* name, const ctrl::Controller& c) {
    table.add_row({std::string(name), std::to_string(c.ticks()),
                   std::to_string(c.total_iterations()),
                   std::to_string(c.converged_ticks()),
                   std::to_string(c.budget_exhausted_ticks()),
                   fixed(static_cast<double>(c.total_iterations()) /
                             std::max(1, c.ticks()),
                         1)});
  };
  add("warm (keep iterate)", warm);
  add("cold restart", cold);
  table.print();
  std::cout << "\nWarm starts cut total iterations by "
            << fixed(100.0 * savings_ratio, 1) << "% over " << ticks
            << " ticks at budget " << options.max_iters_per_tick
            << "/tick.\n";

  obs::JsonValue section = obs::JsonValue::object();
  section.set("ticks", obs::JsonValue(ticks));
  section.set("budget_per_tick", obs::JsonValue(options.max_iters_per_tick));
  section.set("warm_iterations",
              obs::JsonValue(static_cast<std::int64_t>(
                  warm.total_iterations())));
  section.set("cold_iterations",
              obs::JsonValue(static_cast<std::int64_t>(
                  cold.total_iterations())));
  section.set("warm_budget_exhausted",
              obs::JsonValue(warm.budget_exhausted_ticks()));
  section.set("cold_budget_exhausted",
              obs::JsonValue(cold.budget_exhausted_ticks()));
  section.set("savings_ratio", obs::JsonValue(savings_ratio));
  obs::JsonValue metrics = obs::JsonValue::object();
  metrics.set("controller", std::move(section));
  bench::write_bench_entry("controller", std::move(metrics));
  bench::note_csv(csv);
  return 0;
}
