// controller_week: four tenants, each replaying one generated week
// (scenario seeds seed .. seed+3, the third with a fuel-cell outage window)
// through MultiTenantScheduler with min(4, nproc) threads. Closed loop: the
// next tick starts when run_tick returns.
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ctrl/scheduler.hpp"
#include "ctrl/stream.hpp"
#include "model/problem.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "inputs.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kTenants = 4;

/// Benchmark-owned decorator around a tick source: counts update entries
/// and, traced, times every next() as a ctrl span of the current tick.
class CountingSource final : public ufc::ctrl::TickSource {
 public:
  struct Stats {
    std::int64_t calls = 0;
    std::int64_t entries = 0;
    double next_s = 0.0;
  };

  CountingSource(std::unique_ptr<ufc::ctrl::TickSource> inner, Tracer* tracer,
                 const std::uint64_t* op, Stats* stats)
      : inner_(std::move(inner)), tracer_(tracer), op_(op), stats_(stats) {}

  const ufc::UfcProblem& base_problem() const override {
    return inner_->base_problem();
  }

  std::optional<ufc::admm::ProblemUpdate> next() override {
    Timed span(tracer_, "ctrl.TickSource::next", "ctrl", *op_, kLayerSpan);
    auto update = inner_->next();
    // The scheduler pulls every tenant's update serially, so the shared
    // stats need no lock.
    stats_->next_s += span.stop();
    ++stats_->calls;
    if (update)
      stats_->entries += static_cast<std::int64_t>(
          update->arrivals.size() + update->grid_prices.size() +
          update->carbon_rates.size() + update->fuel_cell_caps.size());
    return update;
  }

 private:
  std::unique_ptr<ufc::ctrl::TickSource> inner_;
  Tracer* tracer_;
  const std::uint64_t* op_;
  Stats* stats_;
};

struct Pass {
  std::vector<double> tick_ms;
  OperationTimes ops{Placement::Spread};
  std::map<std::string, std::int64_t> counts;
  CountingSource::Stats stream;
  // Traced passes only.
  double layer_call_s = 0.0;
  PhaseTotals phases;
};

/// Builds the scheduler with its four tenants. Tenant 2 loses the fuel
/// cells of datacenter 1 for hours [60, 84).
std::unique_ptr<ufc::ctrl::MultiTenantScheduler> make_scheduler(
    const std::vector<ufc::traces::Scenario>& scenarios,
    const ufc::ctrl::SchedulerOptions& options, Tracer* tracer,
    const std::uint64_t* op, CountingSource::Stats* stats) {
  auto scheduler = std::make_unique<ufc::ctrl::MultiTenantScheduler>(options);
  for (std::uint64_t k = 0; k < kTenants; ++k) {
    std::vector<ufc::sim::FuelCellOutage> outages;
    if (k == 2) outages.push_back({1, 60, 84});
    auto source = std::make_unique<ufc::ctrl::ScenarioTickSource>(
        scenarios[static_cast<std::size_t>(k)], std::move(outages));
    scheduler->add_tenant(
        "tenant" + std::to_string(k),
        std::make_unique<CountingSource>(std::move(source), tracer, op, stats));
  }
  return scheduler;
}

/// Every tenant's final plan must route each front-end's whole arrival and
/// stay within server and fuel-cell capacity. A budgeted iterate is not
/// exactly feasible, so the largest violation may reach 1% of the largest
/// (normalized) arrival.
bool plan_feasible(const ufc::admm::AdmgSolver& solver) {
  const ufc::UfcProblem& problem = solver.problem();
  double scale = 1.0;
  for (double a : problem.arrivals) scale = std::max(scale, a);
  const double violation =
      ufc::constraint_violation(problem, solver.lambda(), solver.mu());
  return std::isfinite(violation) && violation <= 1e-2 * scale;
}

}  // namespace

Outcome run_controller_week(const RunConfig& config, Tracer* tracer) {
  Outcome out;
  ufc::ctrl::SchedulerOptions options;
  options.threads = config.threads;
  options.admg = ufc::sim::SimulatorOptions{}.admg;

  PhaseObserver observer(tracer);
  ufc::ctrl::SchedulerOptions traced_options = options;
  traced_options.admg.observer = &observer;
  traced_options.admg.profile_phases = true;

  // Set-up: scenarios, sources, scheduler and tenants (solver construction).
  std::uint64_t op = 0;
  CountingSource::Stats setup_stats;
  const auto build = [&] {
    auto built = make_scenarios(config.seed, kTenants);
    auto scheduler = make_scheduler(built, options, nullptr, &op, &setup_stats);
    return std::make_pair(std::move(built), std::move(scheduler));
  };
  SetupSampler setup([&] { return SetupSampler::keep(build()); },
                     config.seconds);
  const auto scenarios = setup.first(build).first;

  std::vector<double> tick_ms, tick_sum_s, iteration_us;
  std::int64_t tenant_ticks = 0;
  std::optional<Pass> traced;
  const Window window = measure_window(
      config, tracer, "controller_week.pass", setup, out,
      [&](bool traced_pass) {
        Tracer* t = traced_pass ? tracer : nullptr;
        if (traced_pass) observer.set_record_spans(!traced);
        Pass pass;
        auto scheduler =
            make_scheduler(scenarios, traced_pass ? traced_options : options,
                           t, &op, &pass.stream);
        if (traced_pass) observer.take();
        const std::size_t tenants = scheduler->tenant_count();
        bool finite = true;
        for (;;) {
          if (!traced_pass) setup.maybe_sample();
          op = t != nullptr ? t->next_op() : 0;
          observer.set_op(op);
          pass.ops.start();
          Timed tick(t, "ctrl.tick", "ctrl", op, kOpSpan);
          Timed call(t, "ctrl.MultiTenantScheduler::run_tick", "ctrl", op,
                     kLayerSpan);
          const bool ran = scheduler->run_tick();
          const double call_s = call.stop();
          if (!ran) break;
          Timed check(t, "admm.AdmgSolver::iterate_finite", "admm", op,
                      kLayerSpan);
          for (std::size_t n = 0; n < tenants; ++n)
            finite &= scheduler->tenant_solver(n).iterate_finite();
          pass.layer_call_s += call_s + check.stop();
          tick.stop();
          pass.ops.stop();
          pass.tick_ms.push_back(call_s * 1e3);
        }

        out.check(finite, "a tenant iterate went non-finite during the week");
        ufc::obs::MetricsRegistry registry;
        scheduler->record_metrics(registry);
        const auto counter = [&](const std::string& name) {
          const ufc::obs::Counter* c = registry.find_counter(name);
          return c != nullptr ? static_cast<std::int64_t>(c->value()) : 0;
        };
        for (std::size_t n = 0; n < tenants; ++n) {
          const std::string& name = scheduler->tenant_name(n);
          out.check(plan_feasible(scheduler->tenant_solver(n)),
                    name + " final plan violates routing or capacity");
          const std::string prefix = "ctrl.tenant." + name;
          for (const char* field :
               {".ticks", ".iterations", ".converged_ticks",
                ".budget_exhausted", ".iterations_saved"})
            pass.counts["ctrl" + std::string(field)] += counter(prefix + field);
        }
        pass.counts["ctrl.scheduler_ticks"] = counter("ctrl.ticks");
        pass.counts["ctrl.update_entries"] = pass.stream.entries;
        PassWork work{pass.counts["ctrl.iterations"], pass.ops,
                      pass.counts};
        if (traced_pass) {
          pass.phases = observer.take();
          if (!traced) traced = std::move(pass);
        } else {
          tick_ms.insert(tick_ms.end(), pass.tick_ms.begin(),
                         pass.tick_ms.end());
          tenant_ticks += pass.counts["ctrl.ticks"];
          iteration_us.push_back(sum(pass.tick_ms) * 1e3 /
                                 static_cast<double>(work.iterations));
          tick_sum_s.push_back(sum(pass.tick_ms) / 1e3);
        }
        return work;
      });

  const double tick_p50 = percentile(tick_ms, 50.0);
  const double tick_p90 = percentile(tick_ms, 90.0);
  const double ticks_per_s =
      static_cast<double>(tenant_ticks) / sum(tick_sum_s);
  out.named = window.cpu_times();
  out.named.insert(
      out.named.end(),
      {{"iteration_us", "us", median(iteration_us),
        iteration_us.size()},
       {"tick_p50_ms", "ms", tick_p50, tick_ms.size()},
       {"tick_p90_ms", "ms", tick_p90, tick_ms.size()},
       {"tenant_ticks_per_s", "1/s", ticks_per_s, tick_sum_s.size()},
       {"week_s", "s", median(window.pass_s), window.pass_s.size()},
       {"peak_rss_mb", "MB", peak_rss_mb_self(), 1}});
  out.end_to_end = window.gated(setup);

  if (tracer != nullptr) {
    // The same week with the scheduler on one thread: what the thread pool
    // buys by solving tenants in parallel.
    ufc::ctrl::SchedulerOptions serial = options;
    serial.threads = 1;
    CountingSource::Stats serial_stats;
    auto scheduler =
        make_scheduler(scenarios, serial, nullptr, &op, &serial_stats);
    double serial_s = 0.0;
    for (bool ran = true; ran;) {
      const Tick start = now();
      ran = scheduler->run_tick();
      if (ran) serial_s += seconds_since(start);
    }
    const Pass& p = *traced;
    const double pass_s = window.traced_pass_s.front();
    const double ticks = static_cast<double>(p.tick_ms.size());
    const double iterations = static_cast<double>(p.phases.iterations);
    const double tick_wall = sum(p.tick_ms) / 1e3;
    const double width = static_cast<double>(config.threads);
    const auto count = [&](const char* name) {
      return static_cast<double>(p.counts.at(name));
    };
    out.per_layer = {
        {"admm.iterations", "count", count("ctrl.iterations"), 1},
        {"admm.iterations_per_solve", "count",
         iterations / static_cast<double>(p.phases.solves),
         static_cast<std::size_t>(p.phases.solves)},
        {"admm.lambda_pass_s", "s", p.phases.lambda_pass, 1},
        {"admm.prediction_s", "s", p.phases.prediction, 1},
        {"admm.correction_s", "s", p.phases.correction, 1},
        {"admm.gate_s", "s", p.phases.gate, 1},
        {"admm.per_iteration_us", "us",
         p.phases.iteration_wall / iterations * 1e6,
         static_cast<std::size_t>(iterations)},
        // Tenants solve in parallel: tick wall not covered by engine phases
        // spread evenly over the pool's threads.
        {"admm.outside_iterations_s", "s",
         tick_wall - p.phases.iteration_wall / width,
         static_cast<std::size_t>(ticks)},
        {"ctrl.stream_next_us", "us",
         p.stream.next_s / static_cast<double>(p.stream.calls) * 1e6,
         static_cast<std::size_t>(p.stream.calls)},
        {"ctrl.update_entries", "count", count("ctrl.update_entries"), 1},
        {"ctrl.iterations_saved", "count", count("ctrl.iterations_saved"), 1},
        {"ctrl.budget_exhausted_ticks", "count", count("ctrl.budget_exhausted"),
         1},
        {"ctrl.converged_ticks", "count", count("ctrl.converged_ticks"), 1},
        {"ctrl.pool_busy_share", "ratio",
         p.phases.iteration_wall / (width * tick_wall),
         static_cast<std::size_t>(ticks)},
        {"util.parallel_speedup", "ratio", serial_s / median(tick_sum_s),
         tick_sum_s.size()},
        window.tracing_overhead(),
        {"unattributed_share", "ratio", (pass_s - p.layer_call_s) / pass_s,
         1},
    };
  }
  return out;
}

}  // namespace perfbench
