// Fig. 2: the information exchange of the distributed ADM-G — which node
// sends what to whom in each of the five procedures. This bench runs the
// message-passing runtime at paper scale and reports the realized protocol:
// message and byte counts per link class per iteration.
#include "bench_common.hpp"
#include "net/runtime.hpp"

int ufc::bench::fig2_protocol() {
  bench::print_header(
      "Fig. 2 - information interaction of the distributed ADM-G",
      "per iteration: FE->DC routing proposals, DC->FE assignments");

  const auto scenario = bench::paper_scenario();
  const auto problem = scenario.problem_at(64);
  const std::size_t m = problem.num_front_ends();
  const std::size_t n = problem.num_datacenters();

  net::DistributedOptions options;
  options.admg = bench::paper_options().admg;
  net::DistributedAdmgRuntime runtime(problem, options);
  const auto report = runtime.run();
  const auto rounds = static_cast<double>(report.iterations);

  std::cout << "M = " << m << " front-ends, N = " << n
            << " datacenters; converged in " << report.iterations
            << " iterations.\n\n";

  // Link-class accounting, reconstructed from per-link stats.
  net::LinkStats fe_to_dc, dc_to_fe, to_coordinator;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const auto up = runtime.bus().link(net::front_end_id(i),
                                         net::datacenter_id(j));
      fe_to_dc.messages += up.messages;
      fe_to_dc.bytes += up.bytes;
      const auto down = runtime.bus().link(net::datacenter_id(j),
                                           net::front_end_id(i));
      dc_to_fe.messages += down.messages;
      dc_to_fe.bytes += down.bytes;
    }
    const auto rep =
        runtime.bus().link(net::front_end_id(i), net::kCoordinatorId);
    to_coordinator.messages += rep.messages;
    to_coordinator.bytes += rep.bytes;
  }
  for (std::size_t j = 0; j < n; ++j) {
    const auto rep =
        runtime.bus().link(net::datacenter_id(j), net::kCoordinatorId);
    to_coordinator.messages += rep.messages;
    to_coordinator.bytes += rep.bytes;
  }

  TablePrinter table({"link class (procedure)", "msgs/iter", "bytes/iter",
                      "total KiB"});
  auto row = [&](const std::string& name, const net::LinkStats& stats) {
    table.add_row(name,
                  {static_cast<double>(stats.messages) / rounds,
                   static_cast<double>(stats.bytes) / rounds,
                   static_cast<double>(stats.bytes) / 1024.0},
                  1);
  };
  row("FE->DC proposals (1: lambda~, varphi)", fe_to_dc);
  row("DC->FE assignments (4: a~)", dc_to_fe);
  row("residual reports (coordinator)", to_coordinator);
  table.print();

  std::cout << "\nProcedures 2 (mu), 3 (nu) and 5 (duals) are node-local — "
               "no messages, matching the paper's Fig. 2.\nPer iteration: "
            << m * n << " + " << m * n << " + " << m + n << " = "
            << 2 * m * n + m + n << " messages, "
            << fixed(static_cast<double>(report.network.bytes) / rounds, 0)
            << " bytes total.\n";

  CsvWriter csv("ufc_fig2.csv", {"link_class", "messages", "bytes"});
  csv.row_strings({"fe_to_dc", csv_number(static_cast<double>(fe_to_dc.messages)),
                   csv_number(static_cast<double>(fe_to_dc.bytes))});
  csv.row_strings({"dc_to_fe", csv_number(static_cast<double>(dc_to_fe.messages)),
                   csv_number(static_cast<double>(dc_to_fe.bytes))});
  csv.row_strings({"coordinator",
                   csv_number(static_cast<double>(to_coordinator.messages)),
                   csv_number(static_cast<double>(to_coordinator.bytes))});
  bench::note_csv(csv);
  return 0;
}
