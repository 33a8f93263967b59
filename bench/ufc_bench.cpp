// The experiment driver. `ufc_bench name...` runs the named experiments in
// the given order and `ufc_bench` alone runs all of them; each writes its
// ufc_*.csv (and, if instrumented, its BENCH_ufc.json entry) into the current
// directory. With more than one experiment, each is introduced by a
// "### name" line. The first failing experiment ends the run with its exit
// status; an unknown name lists the experiments and exits 2.
#include <algorithm>
#include <iostream>
#include <iterator>
#include <string_view>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace ufc::bench;

struct Experiment {
  std::string_view name;
  int (*run)();
};

constexpr Experiment kExperiments[] = {
    {"table1_energy_cost", table1_energy_cost},
    {"fig1_traces", fig1_traces},
    {"fig2_protocol", fig2_protocol},
    {"fig3_traces", fig3_traces},
    {"fig4_ufc_improvement", fig4_ufc_improvement},
    {"fig5_latency", fig5_latency},
    {"fig6_energy_cost", fig6_energy_cost},
    {"fig7_carbon_cost", fig7_carbon_cost},
    {"fig8_utilization", fig8_utilization},
    {"fig9_price_sweep", fig9_price_sweep},
    {"fig10_tax_sweep", fig10_tax_sweep},
    {"fig11_convergence_cdf", fig11_convergence_cdf},
    {"seed_robustness", seed_robustness},
    {"ablation_admg", ablation_admg},
    {"ablation_rightsizing", ablation_rightsizing},
    {"async_participation", async_participation},
    {"batch_extension", batch_extension},
    {"forecast_robustness", forecast_robustness},
    {"storage_extension", storage_extension},
    {"faults", faults},
    {"parallel_scaling", parallel_scaling},
    {"ingredients", ingredients},
    {"socket_bus", socket_bus},
    {"controller", controller},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<Experiment> selected;
  for (int i = 1; i < argc; ++i) {
    const std::string_view name = argv[i];
    const auto* match =
        std::ranges::find(kExperiments, name, &Experiment::name);
    if (match == std::end(kExperiments)) {
      std::cerr << "ufc_bench: unknown experiment '" << name
                << "'\nusage: ufc_bench [experiment...]\nexperiments:\n";
      for (const Experiment& known : kExperiments)
        std::cerr << "  " << known.name << "\n";
      return 2;
    }
    selected.push_back(*match);
  }
  if (selected.empty())
    selected.assign(std::begin(kExperiments), std::end(kExperiments));

  for (const Experiment& experiment : selected) {
    if (selected.size() > 1) std::cout << "### " << experiment.name << "\n";
    if (const int status = experiment.run(); status != 0) {
      std::cerr << "ufc_bench: " << experiment.name << " failed (exit "
                << status << ")\n";
      return status;
    }
    if (selected.size() > 1) std::cout << std::endl;
  }
  return 0;
}
