// paper_week: Grid, FuelCell and Hybrid over the 168 hourly slots of a week
// (M = 10, N = 4), one cold SolveSession::solve per slot with the simulator
// defaults — the path behind every table and figure — except the iteration
// cap, raised so that every slot is solved to convergence. Hour h comes from
// scenario h mod 8 (inputs.hpp).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "admm/strategy.hpp"
#include "inputs.hpp"
#include "model/breakdown.hpp"
#include "sim/session.hpp"
#include "sim/simulator.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace {

using ufc::admm::Strategy;
using Scenarios = std::vector<ufc::traces::Scenario>;

constexpr std::array<Strategy, 3> kStrategies = {
    Strategy::Grid, Strategy::FuelCell, Strategy::Hybrid};

/// The simulator stops a slot at 800 iterations. A few generated slots need
/// more (hour 86 of scenario seed 422 takes 1315 under Grid, and at the cap
/// its UFC is 0.8% off), so the timed week runs with ten times that cap and
/// every slot must converge; slots past the default cap are counted.
constexpr int kCapFactor = 10;

struct Pass {
  std::vector<double> slot_ms;
  OperationTimes ops{Placement::Serial};
  std::array<std::vector<double>, 3> ufc;  ///< Per strategy, per hour.
  std::array<std::int64_t, 3> iterations{};
  std::vector<std::pair<std::size_t, int>> unconverged;  ///< (strategy, hour)
  std::int64_t over_default_cap = 0;  ///< Slots needing more than 800.
  // Traced passes only.
  double layer_call_s = 0.0;  ///< Wall covered by the layer calls' spans.
  double problem_at_s = 0.0;
  double outside_iterations_s = 0.0;
  PhaseTotals phases;

  std::int64_t total_iterations() const {
    return iterations[0] + iterations[1] + iterations[2];
  }
};

Pass run_pass(const Scenarios& scenarios,
              const ufc::sim::SimulatorOptions& options, Tracer* tracer,
              PhaseObserver* observer, SetupSampler* setup) {
  Pass pass;
  for (std::size_t s = 0; s < kStrategies.size(); ++s) {
    ufc::sim::SolveSession session(kStrategies[s], options);
    for (int hour = 0; hour < ufc::traces::kWeekHours; ++hour) {
      if (setup != nullptr) setup->maybe_sample();
      const ufc::traces::Scenario& scenario =
          scenario_for_hour(scenarios, hour);
      const std::uint64_t op = tracer != nullptr ? tracer->next_op() : 0;
      if (observer != nullptr) observer->set_op(op);
      pass.ops.start();
      Timed slot(tracer, "sim.slot", "sim", op, kOpSpan);
      if (tracer != nullptr) {
        // SolveSession builds the slot problem internally; this extra call
        // times that build on its own (traced run only).
        Timed build(tracer, "traces.Scenario::problem_at", "traces", op,
                    kLayerSpan);
        const ufc::UfcProblem problem = scenario.problem_at(hour);
        pass.problem_at_s += build.stop();
      }
      Timed call(tracer, "sim.SolveSession::solve", "sim", op, kLayerSpan);
      const ufc::admm::AdmgReport report = session.solve(scenario, hour);
      const double call_s = call.stop();
      pass.slot_ms.push_back(slot.stop() * 1e3);
      pass.ops.stop();
      pass.ufc[s].push_back(report.breakdown.ufc);
      pass.iterations[s] += report.iterations;
      if (!report.converged) pass.unconverged.emplace_back(s, hour);
      if (report.iterations > ufc::sim::SimulatorOptions{}.admg.max_iterations)
        ++pass.over_default_cap;
      if (observer != nullptr) {
        const PhaseTotals phases = observer->take();
        pass.outside_iterations_s += call_s - phases.iteration_wall;
        pass.phases += phases;
        pass.layer_call_s += call_s;
      }
    }
  }
  pass.layer_call_s += pass.problem_at_s;
  return pass;
}

/// Hybrid must be within 1% of both baselines (I_hg, I_hf >= -1%) in every
/// slot. Returns (mean I_hf, min I_hg) for the Fig. 4 check.
std::pair<double, double> check_improvements(const Pass& pass, Outcome& out) {
  const auto& grid = pass.ufc[0];
  const auto& fuel = pass.ufc[1];
  const auto& hybrid = pass.ufc[2];
  double hf_sum = 0.0;
  double hg_min = 1e300;
  for (std::size_t t = 0; t < hybrid.size(); ++t) {
    const double hg = ufc::improvement_percent(hybrid[t], grid[t]);
    const double hf = ufc::improvement_percent(hybrid[t], fuel[t]);
    out.check(std::isfinite(hg) && std::isfinite(hf) && hg >= -1.0 &&
                  hf >= -1.0,
              "hour " + std::to_string(t) + ": hybrid worse than a baseline "
              "by more than 1% (I_hg " + std::to_string(hg) + "%, I_hf " +
              std::to_string(hf) + "%)");
    hf_sum += hf;
    hg_min = std::min(hg_min, hg);
  }
  return {hf_sum / static_cast<double>(hybrid.size()), hg_min};
}

/// Every slot must converge within the raised cap.
void check_converged(const Pass& pass, Outcome& out) {
  std::string first;
  if (!pass.unconverged.empty())
    first = "hour " + std::to_string(pass.unconverged.front().second) +
            " of strategy " + std::to_string(pass.unconverged.front().first);
  out.check(pass.unconverged.empty(),
            std::to_string(pass.unconverged.size()) +
                " slots did not converge within the raised cap (first: " +
                first + ")");
}

/// At the paper's seed, the single-scenario week reproduces EXPERIMENTS.md
/// Fig. 4: I_hf averages 34% and I_hg >= -0.0% in 168/168 hours.
void check_fig4(const ufc::sim::SimulatorOptions& options, Outcome& out) {
  const Scenarios paper{
      ufc::traces::Scenario::generate(ufc::traces::ScenarioConfig{})};
  const Pass week = run_pass(paper, options, nullptr, nullptr, nullptr);
  Outcome ignored;
  const auto [hf_mean, hg_min] = check_improvements(week, ignored);
  out.check(std::lround(hf_mean) == 34 && hg_min >= -0.05,
            "seed 42 does not reproduce EXPERIMENTS.md Fig. 4 (I_hf mean " +
                std::to_string(hf_mean) + "%, min I_hg " +
                std::to_string(hg_min) + "%)");
}

}  // namespace

Outcome run_paper_week(const RunConfig& config, Tracer* tracer) {
  Outcome out;
  ufc::sim::SimulatorOptions options;
  options.admg.max_iterations *= kCapFactor;

  // Set-up: the week's scenarios plus the three sessions.
  const auto build = [&] {
    Scenarios built =
        make_scenarios(config.seed * kWeekScenarios, kWeekScenarios);
    for (Strategy strategy : kStrategies)
      ufc::sim::SolveSession session(strategy, options);
    return built;
  };
  SetupSampler setup([&] { return SetupSampler::keep(build()); },
                     config.seconds);
  const Scenarios scenarios = setup.first(build);

  PhaseObserver observer(tracer);
  ufc::sim::SimulatorOptions traced_options = options;
  traced_options.admg.observer = &observer;
  traced_options.admg.profile_phases = true;

  std::vector<double> slot_ms, iteration_us;
  std::optional<Pass> traced;
  const Window window = measure_window(
      config, tracer, "paper_week.pass", setup, out, [&](bool traced_pass) {
        if (traced_pass) observer.set_record_spans(!traced);
        Pass pass =
            traced_pass
                ? run_pass(scenarios, traced_options, tracer, &observer,
                           nullptr)
                : run_pass(scenarios, options, nullptr, nullptr, &setup);
        check_improvements(pass, out);
        check_converged(pass, out);
        PassWork work{pass.total_iterations(), pass.ops,
                      {{"admm.iterations.grid", pass.iterations[0]},
                       {"admm.iterations.fuel_cell", pass.iterations[1]},
                       {"admm.iterations.hybrid", pass.iterations[2]},
                       {"sim.slots_over_default_cap", pass.over_default_cap}}};
        if (traced_pass) {
          if (!traced) traced = std::move(pass);
        } else {
          iteration_us.push_back(sum(pass.slot_ms) * 1e3 /
                                 static_cast<double>(work.iterations));
          slot_ms.insert(slot_ms.end(), pass.slot_ms.begin(),
                         pass.slot_ms.end());
        }
        return work;
      });
  if (config.seed == 42) check_fig4(ufc::sim::SimulatorOptions{}, out);

  out.named = window.cpu_times();
  out.named.insert(
      out.named.end(),
      {{"iteration_us", "us", median(iteration_us),
        iteration_us.size()},
       {"week_s", "s", median(window.pass_s), window.pass_s.size()},
       {"slot_p50_ms", "ms", percentile(slot_ms, 50.0), slot_ms.size()},
       {"slot_p95_ms", "ms", percentile(slot_ms, 95.0), slot_ms.size()},
       {"peak_rss_mb", "MB", peak_rss_mb_self(), 1}});
  out.end_to_end = window.gated(setup);

  if (tracer != nullptr) {
    std::vector<double> generate_s;
    ufc::traces::ScenarioConfig scenario_config;
    scenario_config.seed = config.seed;
    for (int k = 0; k < 31; ++k) {
      const Tick start = now();
      const ufc::traces::Scenario scenario =
          ufc::traces::Scenario::generate(scenario_config);
      generate_s.push_back(seconds_since(start));
    }
    const Pass& t = *traced;
    const double pass_s = window.traced_pass_s.front();
    const std::size_t solves = t.slot_ms.size();
    const auto iterations = static_cast<double>(t.phases.iterations);
    out.per_layer = {
        {"traces.generate_ms", "ms", median(generate_s) * 1e3,
         generate_s.size()},
        {"traces.problem_at_us", "us",
         t.problem_at_s / static_cast<double>(solves) * 1e6, solves},
        {"sim.unconverged_slots", "count",
         static_cast<double>(t.over_default_cap), 1},
        {"admm.iterations", "count", iterations, 1},
        {"admm.iterations_per_solve", "count",
         iterations / static_cast<double>(solves), solves},
        {"admm.lambda_pass_s", "s", t.phases.lambda_pass, 1},
        {"admm.prediction_s", "s", t.phases.prediction, 1},
        {"admm.correction_s", "s", t.phases.correction, 1},
        {"admm.gate_s", "s", t.phases.gate, 1},
        {"admm.per_iteration_us", "us",
         t.phases.iteration_wall / iterations * 1e6,
         static_cast<std::size_t>(iterations)},
        {"admm.outside_iterations_s", "s", t.outside_iterations_s, solves},
        window.tracing_overhead(),
        {"unattributed_share", "ratio", (pass_s - t.layer_call_s) / pass_s,
         1},
    };
  }
  return out;
}

}  // namespace perfbench
