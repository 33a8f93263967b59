// Generated scenarios shared by the workloads. A single scenario's cost per
// ADM-G iteration moves by about 10% with its seed, so the week workloads
// draw each run's hours from several independent scenarios.
#pragma once

#include <cstdint>
#include <vector>

#include "traces/scenario.hpp"

namespace perfbench {

/// Scenarios behind one paper_week or fleet_week run: seed s uses scenario
/// seeds 8s .. 8s+7, so runs with different seeds share none.
constexpr std::uint64_t kWeekScenarios = 8;

/// The `count` scenarios with seeds first, first+1, ...
inline std::vector<ufc::traces::Scenario> make_scenarios(std::uint64_t first,
                                                         std::uint64_t count) {
  std::vector<ufc::traces::Scenario> scenarios;
  for (std::uint64_t k = 0; k < count; ++k) {
    ufc::traces::ScenarioConfig config;
    config.seed = first + k;
    scenarios.push_back(ufc::traces::Scenario::generate(config));
  }
  return scenarios;
}

/// The week's hour h comes from scenario h mod (number of scenarios), so
/// every scenario contributes hours from every part of the day.
inline const ufc::traces::Scenario& scenario_for_hour(
    const std::vector<ufc::traces::Scenario>& scenarios, int hour) {
  return scenarios[static_cast<std::size_t>(hour) % scenarios.size()];
}

}  // namespace perfbench
