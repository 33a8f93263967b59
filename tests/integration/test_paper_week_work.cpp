// Exact work counts of the seed-42 benchmark week: ADM-G iterations per
// strategy over 168 hourly slots, hour h taken from the scenario with seed
// 8 * 42 + (h mod 8), simulator defaults with the iteration cap raised
// tenfold so every slot converges. Any change that moves an iterate moves
// these totals, so they are pinned like a hexfloat baseline: change them only
// on purpose, together with the benchmark's recorded work counts. The
// solution digest pins the bits of every slot's answer, which an ulp-level
// change can move without moving any iteration count.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "admm/strategy.hpp"
#include "sim/session.hpp"
#include "sim/simulator.hpp"
#include "traces/scenario.hpp"

namespace ufc::sim {
namespace {

constexpr std::array<admm::Strategy, 3> kStrategies = {
    admm::Strategy::Grid, admm::Strategy::FuelCell, admm::Strategy::Hybrid};

/// Solves the seed-42 week for every strategy, handing each slot's report
/// to `visit` with the strategy's index, in strategy then hour order.
void solve_seed_forty_two_week(
    const std::function<void(std::size_t, const admm::AdmgReport&)>& visit) {
  constexpr std::uint64_t kSeed = 42;
  constexpr std::uint64_t kScenarios = 8;
  std::vector<traces::Scenario> scenarios;
  for (std::uint64_t k = 0; k < kScenarios; ++k) {
    traces::ScenarioConfig config;
    config.seed = kSeed * kScenarios + k;
    scenarios.push_back(traces::Scenario::generate(config));
  }
  SimulatorOptions options;
  options.admg.max_iterations *= 10;
  for (std::size_t s = 0; s < kStrategies.size(); ++s) {
    SolveSession session(kStrategies[s], options);
    for (int hour = 0; hour < traces::kWeekHours; ++hour) {
      const auto& scenario = scenarios[static_cast<std::size_t>(hour) %
                                       scenarios.size()];
      visit(s, session.solve(scenario, hour));
    }
  }
}

TEST(PaperWeekWork, SeedFortyTwoIterationTotals) {
  const int default_cap = SimulatorOptions{}.admg.max_iterations;
  std::array<long, 3> iterations{};
  int over_default_cap = 0;
  int unconverged = 0;
  solve_seed_forty_two_week(
      [&](std::size_t s, const admm::AdmgReport& report) {
        iterations[s] += report.iterations;
        if (report.iterations > default_cap) ++over_default_cap;
        if (!report.converged) ++unconverged;
      });
  EXPECT_EQ(iterations[0], 18889);  // grid
  EXPECT_EQ(iterations[1], 22515);  // fuel_cell
  EXPECT_EQ(iterations[2], 14431);  // hybrid
  EXPECT_EQ(over_default_cap, 1);
  EXPECT_EQ(unconverged, 0);
}

/// 64-bit FNV-1a over the bytes of each double's bit pattern.
class Fnv1a {
 public:
  void add(double value) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ (bits & 0xffu)) * 0x100000001b3u;
      bits >>= 8;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325u;
};

TEST(PaperWeekWork, SeedFortyTwoSolutionDigest) {
  // Every slot's lambda (row-major), mu and nu, strategy then hour order.
  Fnv1a digest;
  solve_seed_forty_two_week(
      [&](std::size_t, const admm::AdmgReport& report) {
        for (double x : report.solution.lambda.raw()) digest.add(x);
        for (double x : report.solution.mu) digest.add(x);
        for (double x : report.solution.nu) digest.add(x);
      });
  EXPECT_EQ(digest.value(), 0x36fc3c3538a3e6b3u);
}

}  // namespace
}  // namespace ufc::sim
