// Shared helpers for the ufc_bench experiments.
//
// Every experiment prints the paper-style table/series to stdout and writes
// a CSV (named ufc_<experiment>.csv) into the current working directory so
// plots can be regenerated offline. Instrumented experiments additionally
// write their headline numbers into the machine-readable BENCH_ufc.json
// artifact (schema ufc-bench-v1, validated by scripts/check_bench_json.py),
// keyed by bench name so re-runs update in place.
#pragma once

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "model/problem.hpp"
#include "obs/manifest.hpp"
#include "sim/simulator.hpp"
#include "traces/scenario.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace ufc::bench {

// The experiments, one per bench_<name>.cpp; ufc_bench.cpp registers each
// under its name. Each returns its exit status (0 on success).
int table1_energy_cost();
int fig1_traces();
int fig2_protocol();
int fig3_traces();
int fig4_ufc_improvement();
int fig5_latency();
int fig6_energy_cost();
int fig7_carbon_cost();
int fig8_utilization();
int fig9_price_sweep();
int fig10_tax_sweep();
int fig11_convergence_cdf();
int seed_robustness();
int ablation_admg();
int ablation_rightsizing();
int async_participation();
int batch_extension();
int forecast_robustness();
int storage_extension();
int faults();
int parallel_scaling();
int ingredients();
int socket_bus();
int controller();

/// The paper's evaluation scenario (§IV-A defaults, seed 42).
inline traces::Scenario paper_scenario() {
  return traces::Scenario::generate(traces::ScenarioConfig{});
}

/// Paper-scale solver settings (tolerance chosen so the Fig. 11 iteration
/// distribution lands in the paper's band; see DESIGN.md).
inline sim::SimulatorOptions paper_options() { return {}; }

/// The §IV one-week, three-strategy comparison behind Figs. 4-8, solved
/// once per process on the first call.
inline const sim::StrategyComparison& paper_week() {
  static const sim::StrategyComparison week =
      sim::compare_strategies(paper_scenario(), paper_options());
  return week;
}

/// Random feasible M x N instance: N datacenters with drawn sizes, prices
/// and carbon rates, M front-ends sharing `load` of the total capacity.
/// Fixed seeds, so every caller at the same (m, n, load) gets the same
/// problem bit for bit.
inline UfcProblem random_problem(std::size_t m, std::size_t n, double load) {
  Rng rng(1234);
  UfcProblem p;
  p.power = ServerPowerModel{100.0, 200.0};
  p.fuel_cell_price = 80.0;
  p.latency_weight = 10.0;
  p.utility = std::make_shared<QuadraticUtility>();
  double capacity = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    DatacenterSpec dc;
    dc.name = "dc" + std::to_string(j);
    dc.servers = rng.uniform(1.7e4, 2.3e4);
    dc.grid_price = rng.uniform(15.0, 120.0);
    dc.carbon_rate = rng.uniform(200.0, 900.0);
    dc.fuel_cell_capacity_mw = dc.servers * 200.0 * 1.2 / 1e6;
    dc.emission_cost = std::make_shared<AffineCarbonTax>(25.0);
    capacity += dc.servers;
    p.datacenters.push_back(std::move(dc));
  }
  Rng shares_rng(7);
  p.arrivals =
      normal_shares(shares_rng, static_cast<int>(m), load * capacity, 0.35);
  p.latency_s = Mat(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      p.latency_s(i, j) = rng.uniform(0.002, 0.045);
  return p;
}

inline void print_header(const std::string& title, const std::string& paper) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "Paper reference: " << paper << "\n\n";
}

inline void note_csv(const CsvWriter& csv) {
  std::cout << "\nSeries written to " << csv.path() << " ("
            << csv.rows_written() << " rows)\n";
}

/// Where the machine-readable bench results accumulate. Overridable via
/// UFC_BENCH_JSON so CI smoke runs can write into their scratch directory.
inline std::string bench_artifact_path() {
  // Benches are single-threaded at startup; nobody calls setenv concurrently.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* override_path = std::getenv("UFC_BENCH_JSON");
  return override_path != nullptr && *override_path != '\0'
             ? std::string(override_path)
             : std::string("BENCH_ufc.json");
}

/// Replaces (or appends) this bench's entry in BENCH_ufc.json.
inline void write_bench_entry(const std::string& name,
                              obs::JsonValue metrics) {
  const std::string path = bench_artifact_path();
  obs::update_bench_artifact(path, name, std::move(metrics));
  std::cout << "Bench entry '" << name << "' written to " << path << "\n";
}

/// One (M, N, timed-iterations) point of a size-scaling sweep.
struct BenchSize {
  std::size_t m = 0;
  std::size_t n = 0;
  int iterations = 0;
};

/// Sizes for a size-scaling sweep: the baked-in `defaults`, unless the
/// UFC_BENCH_SIZES environment variable overrides them. The override format
/// is a comma-separated list of `MxN:iters`, e.g. "64x16:20,256x32:8" — CI
/// smoke jobs use it to compile-and-run the frontier benches at toy sizes
/// without paying the full 4096x256 sweep. A malformed override aborts with
/// a diagnostic rather than silently benchmarking the wrong sizes.
inline std::vector<BenchSize> bench_sizes(std::vector<BenchSize> defaults) {
  // Benches are single-threaded at startup; nobody calls setenv concurrently.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("UFC_BENCH_SIZES");
  if (env == nullptr || *env == '\0') return defaults;
  std::vector<BenchSize> sizes;
  const std::string spec(env);
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    std::size_t x = item.find('x');
    const std::size_t colon = item.find(':');
    bool ok = x != std::string::npos && colon != std::string::npos && x > 0 &&
              colon > x + 1 && colon + 1 < item.size();
    BenchSize size;
    if (ok) {
      try {
        size.m = static_cast<std::size_t>(std::stoul(item.substr(0, x)));
        size.n = static_cast<std::size_t>(
            std::stoul(item.substr(x + 1, colon - x - 1)));
        size.iterations = std::stoi(item.substr(colon + 1));
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (!ok || size.m == 0 || size.n == 0 || size.iterations <= 0) {
      std::cerr << "UFC_BENCH_SIZES: malformed item '" << item
                << "' (expected MxN:iters, e.g. 64x16:20)\n";
      std::exit(2);
    }
    sizes.push_back(size);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return sizes;
}

}  // namespace ufc::bench
