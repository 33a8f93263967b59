// Exact work counts of the seed-42 benchmark week: ADM-G iterations per
// strategy over 168 hourly slots, hour h taken from the scenario with seed
// 8 * 42 + (h mod 8), simulator defaults with the iteration cap raised
// tenfold so every slot converges. Any change that moves an iterate moves
// these totals, so they are pinned like a hexfloat baseline: change them only
// on purpose, together with the benchmark's recorded work counts.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "admm/strategy.hpp"
#include "sim/session.hpp"
#include "sim/simulator.hpp"
#include "traces/scenario.hpp"

namespace ufc::sim {
namespace {

TEST(PaperWeekWork, SeedFortyTwoIterationTotals) {
  constexpr std::uint64_t kSeed = 42;
  constexpr std::uint64_t kScenarios = 8;
  std::vector<traces::Scenario> scenarios;
  for (std::uint64_t k = 0; k < kScenarios; ++k) {
    traces::ScenarioConfig config;
    config.seed = kSeed * kScenarios + k;
    scenarios.push_back(traces::Scenario::generate(config));
  }
  SimulatorOptions options;
  const int default_cap = options.admg.max_iterations;
  options.admg.max_iterations *= 10;

  const std::array<admm::Strategy, 3> strategies = {
      admm::Strategy::Grid, admm::Strategy::FuelCell, admm::Strategy::Hybrid};
  std::array<long, 3> iterations{};
  int over_default_cap = 0;
  int unconverged = 0;
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    SolveSession session(strategies[s], options);
    for (int hour = 0; hour < traces::kWeekHours; ++hour) {
      const auto& scenario = scenarios[static_cast<std::size_t>(hour) %
                                       scenarios.size()];
      const admm::AdmgReport report = session.solve(scenario, hour);
      iterations[s] += report.iterations;
      if (report.iterations > default_cap) ++over_default_cap;
      if (!report.converged) ++unconverged;
    }
  }
  EXPECT_EQ(iterations[0], 18889);  // grid
  EXPECT_EQ(iterations[1], 22515);  // fuel_cell
  EXPECT_EQ(iterations[2], 14431);  // hybrid
  EXPECT_EQ(over_default_cap, 1);
  EXPECT_EQ(unconverged, 0);
}

}  // namespace
}  // namespace ufc::sim
