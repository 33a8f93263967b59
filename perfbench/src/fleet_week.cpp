// fleet_week: every Hybrid slot of the week (hour h from scenario h mod 8,
// inputs.hpp), each solved by a fresh net::Supervisor — two forked worker
// processes over a Unix socket in a private temporary directory, zero
// faults.
#include <stdlib.h>  // mkdtemp

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "admm/admg.hpp"
#include "admm/strategy.hpp"
#include "math/matrix.hpp"
#include "net/supervisor.hpp"
#include "sim/simulator.hpp"
#include "inputs.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace {

/// A private directory for the fleet's hub socket, removed with everything
/// in it when the object goes away (also while an exception unwinds).
class PrivateDir {
 public:
  explicit PrivateDir(const std::string& parent) {
    // Relative to the working directory: Unix socket paths are limited to
    // about 100 characters, and a checkout's absolute path may be long.
    std::string pattern = parent + "/fleet-XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr)
      throw std::runtime_error("cannot create a private socket directory");
    path_ = pattern;
  }
  ~PrivateDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  PrivateDir(const PrivateDir&) = delete;
  PrivateDir& operator=(const PrivateDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The in-process answer for one slot: the zero-fault fleet must reproduce
/// it bit for bit, including a slot that stops at the iteration cap
/// (paper_week re-solves those and checks their value).
struct Reference {
  int iterations = 0;
  bool converged = false;
  ufc::Mat lambda;
  double solve_ms = 0.0;
};

struct Pass {
  std::vector<double> solve_ms;
  OperationTimes ops{Placement::Spread};
  std::vector<double> uptime_ms;      ///< Largest worker uptime per solve.
  std::vector<double> spawn_reap_ms;  ///< Solve minus that uptime.
  std::map<std::string, std::int64_t> counts;
  // Traced passes only.
  double layer_call_s = 0.0;
  double problem_at_s = 0.0;
};

}  // namespace

Outcome run_fleet_week(const RunConfig& config, Tracer* tracer) {
  Outcome out;
  const ufc::admm::AdmgOptions admg = [] {
    ufc::admm::AdmgOptions options = ufc::sim::SimulatorOptions{}.admg;
    options.pinning = ufc::admm::pinning_for(ufc::admm::Strategy::Hybrid);
    return options;
  }();

  const auto build = [&] {
    return make_scenarios(config.seed * kWeekScenarios, kWeekScenarios);
  };
  SetupSampler setup([&] { return SetupSampler::keep(build()); },
                     config.seconds);
  const auto scenarios = setup.first(build);
  const PrivateDir dir(config.scratch_dir);

  ufc::net::SupervisorOptions options;
  options.distributed.admg = admg;
  options.distributed.degraded = true;
  options.processes = 2;
  options.socket_dir = dir.path();

  // In-process references, outside every timed window.
  std::vector<Reference> reference;
  for (int hour = 0; hour < ufc::traces::kWeekHours; ++hour) {
    const ufc::UfcProblem problem =
        scenario_for_hour(scenarios, hour).problem_at(hour);
    const Tick start = now();
    const ufc::admm::AdmgReport report = ufc::admm::solve_admg(problem, admg);
    reference.push_back({report.iterations, report.converged,
                         report.solution.lambda, seconds_since(start) * 1e3});
  }

  std::vector<double> solve_ms, iteration_us;
  std::int64_t rounds = 0;
  double solve_wall_s = 0.0;
  std::optional<Pass> traced;
  const Window window = measure_window(
      config, tracer, "fleet_week.pass", setup, out, [&](bool traced_pass) {
        Tracer* t = traced_pass ? tracer : nullptr;
        Pass pass;
        for (int hour = 0; hour < ufc::traces::kWeekHours; ++hour) {
          if (!traced_pass) setup.maybe_sample();
          const std::uint64_t op = t != nullptr ? t->next_op() : 0;
          Timed problem_at(t, "traces.Scenario::problem_at", "traces", op,
                           kLayerSpan);
          const ufc::UfcProblem problem =
              scenario_for_hour(scenarios, hour).problem_at(hour);
          pass.problem_at_s += problem_at.stop();
          pass.ops.start();
          Timed solve(t, "net.fleet_solve", "net", op, kOpSpan);
          Timed call(t, "net.Supervisor::run", "net", op, kLayerSpan);
          const ufc::net::SupervisedReport report =
              ufc::net::Supervisor(problem, options).run();
          pass.layer_call_s += call.stop();
          const double ms = solve.stop() * 1e3;
          pass.solve_ms.push_back(ms);
          pass.ops.stop();

          double uptime_ms = 0.0;
          for (const auto& worker : report.worker_metrics) {
            const auto it = worker.tables.gauges.find("uptime_seconds");
            if (it != worker.tables.gauges.end())
              uptime_ms = std::max(uptime_ms, it->second * 1e3);
          }
          pass.uptime_ms.push_back(uptime_ms);
          pass.spawn_reap_ms.push_back(ms - uptime_ms);

          const Reference& ref = reference[static_cast<std::size_t>(hour)];
          const bool same_iterations = report.iterations == ref.iterations &&
                                       report.converged == ref.converged;
          const double lambda_diff =
              ufc::max_abs_diff(report.solution.lambda, ref.lambda);
          // ufc-lint: allow(float-equal) — the zero-fault fleet must
          // reproduce the in-process iterate bit for bit.
          const bool identical = same_iterations && lambda_diff == 0.0;
          out.check(identical && report.stale_inputs == 0 &&
                        report.workers_spawned == 2 &&
                        report.workers_killed == 0 &&
                        report.network.delivery_failures == 0,
                    "slot " + std::to_string(hour) +
                        ": fleet differs from the in-process solve (" +
                        std::to_string(report.iterations) + " vs " +
                        std::to_string(ref.iterations) + " iterations, " +
                        std::to_string(report.stale_inputs) +
                        " stale inputs, " +
                        std::to_string(report.workers_killed) + " killed)");
          pass.counts["net.rounds"] += report.iterations;
          if (!report.converged) ++pass.counts["net.unconverged_solves"];
          pass.counts["net.messages"] +=
              static_cast<std::int64_t>(report.network.messages);
          pass.counts["net.bytes"] +=
              static_cast<std::int64_t>(report.network.bytes);
          pass.counts["net.retransmissions"] +=
              static_cast<std::int64_t>(report.network.retransmissions);
          pass.counts["net.delivery_failures"] +=
              static_cast<std::int64_t>(report.network.delivery_failures);
        }
        PassWork work{pass.counts["net.rounds"], pass.ops,
                      pass.counts};
        if (traced_pass) {
          if (!traced) traced = std::move(pass);
        } else {
          solve_ms.insert(solve_ms.end(), pass.solve_ms.begin(),
                          pass.solve_ms.end());
          rounds += work.iterations;
          const double solves_s = sum(pass.solve_ms) / 1e3;
          iteration_us.push_back(solves_s * 1e6 /
                                 static_cast<double>(work.iterations));
          solve_wall_s += solves_s;
        }
        return work;
      });

  const double solve_p50 = percentile(solve_ms, 50.0);
  const double rounds_per_s = static_cast<double>(rounds) / solve_wall_s;
  out.named = window.cpu_times();
  out.named.insert(
      out.named.end(),
      {{"iteration_us", "us", median(iteration_us),
        iteration_us.size()},
       {"fleet_solve_p50_ms", "ms", solve_p50, solve_ms.size()},
       {"fleet_rounds_per_s", "1/s", rounds_per_s,
        window.pass_s.size()},
       {"week_s", "s", median(window.pass_s), window.pass_s.size()},
       // This process or the largest reaped worker.
       {"peak_rss_mb", "MB",
        std::max(peak_rss_mb_self(), peak_rss_mb_children()), 1}});
  out.end_to_end = window.gated(setup);

  if (tracer != nullptr) {
    const Pass& p = *traced;
    const double pass_s = window.traced_pass_s.front();
    const auto count = [&](const char* name) {
      return static_cast<double>(p.counts.at(name));
    };
    const double pass_rounds = count("net.rounds");
    const std::size_t solves = p.solve_ms.size();
    std::vector<double> inprocess_ms, transport_ms;
    for (std::size_t s = 0; s < solves; ++s) {
      inprocess_ms.push_back(reference[s].solve_ms);
      transport_ms.push_back(p.solve_ms[s] - reference[s].solve_ms -
                             p.spawn_reap_ms[s]);
    }
    out.per_layer = {
        {"traces.problem_at_us", "us",
         p.problem_at_s / static_cast<double>(solves) * 1e6, solves},
        {"admm.iterations", "count", pass_rounds, 1},
        {"admm.iterations_per_solve", "count",
         pass_rounds / static_cast<double>(solves), solves},
        {"net.messages_per_round", "count", count("net.messages") / pass_rounds,
         1},
        {"net.bytes_per_round", "B", count("net.bytes") / pass_rounds, 1},
        {"net.retransmissions", "count", count("net.retransmissions"), 1},
        {"net.delivery_failures", "count", count("net.delivery_failures"), 1},
        {"net.worker_uptime_p50_ms", "ms", percentile(p.uptime_ms, 50.0),
         solves},
        {"net.worker_uptime_p90_ms", "ms", percentile(p.uptime_ms, 90.0),
         solves},
        {"net.spawn_reap_p50_ms", "ms", percentile(p.spawn_reap_ms, 50.0),
         solves},
        {"net.spawn_reap_p90_ms", "ms", percentile(p.spawn_reap_ms, 90.0),
         solves},
        {"net.fleet_solve_p90_ms", "ms", percentile(p.solve_ms, 90.0), solves},
        {"net.inprocess_solve_ms", "ms", percentile(inprocess_ms, 50.0),
         solves},
        {"net.transport_overhead_ms", "ms", percentile(transport_ms, 50.0),
         solves},
        window.tracing_overhead(),
        {"unattributed_share", "ratio",
         (pass_s - p.layer_call_s - p.problem_at_s) / pass_s, 1},
    };
  }
  return out;
}

}  // namespace perfbench
