// Fig. 4: per-hour UFC improvement indexes over the one-week horizon —
// I_hg (Hybrid over Grid), I_hf (Hybrid over FuelCell), I_fg (FuelCell over
// Grid).
#include "bench_common.hpp"

int ufc::bench::fig4_ufc_improvement() {
  bench::print_header(
      "Fig. 4 - UFC improvement under various strategies",
      "I_fg down to -150% off-peak, <= ~30% at peaks; I_hf > 40% avg; "
      "I_hg in [0%, ~50%]");

  const auto& cmp = bench::paper_week();

  TablePrinter table({"Index", "mean %", "min %", "max %", "p95 %"});
  table.add_row("I_hg (Hybrid vs Grid)",
                {mean(cmp.improvement_hg), min_value(cmp.improvement_hg),
                 max_value(cmp.improvement_hg),
                 percentile(cmp.improvement_hg, 95)},
                1);
  table.add_row("I_hf (Hybrid vs FuelCell)",
                {mean(cmp.improvement_hf), min_value(cmp.improvement_hf),
                 max_value(cmp.improvement_hf),
                 percentile(cmp.improvement_hf, 95)},
                1);
  table.add_row("I_fg (FuelCell vs Grid)",
                {mean(cmp.improvement_fg), min_value(cmp.improvement_fg),
                 max_value(cmp.improvement_fg),
                 percentile(cmp.improvement_fg, 95)},
                1);
  table.print();

  int hg_nonnegative = 0;
  for (double v : cmp.improvement_hg) hg_nonnegative += v > -1.0 ? 1 : 0;
  std::cout << "\nI_hg >= 0 (never reduces UFC) in " << hg_nonnegative << "/"
            << cmp.improvement_hg.size() << " hours\n";

  CsvWriter csv("ufc_fig4.csv", {"hour", "i_hg", "i_hf", "i_fg", "ufc_grid",
                                 "ufc_fuel_cell", "ufc_hybrid"});
  for (std::size_t t = 0; t < cmp.improvement_hg.size(); ++t)
    csv.row({static_cast<double>(cmp.grid.slots[t].slot),
             cmp.improvement_hg[t], cmp.improvement_hf[t],
             cmp.improvement_fg[t], cmp.grid.slots[t].breakdown.ufc,
             cmp.fuel_cell.slots[t].breakdown.ufc,
             cmp.hybrid.slots[t].breakdown.ufc});
  bench::note_csv(csv);
  return 0;
}
