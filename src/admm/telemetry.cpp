#include "admm/telemetry.hpp"

namespace ufc::admm {

void IterationObserver::on_solve_end(const SolveCore& /*core*/) {}

}  // namespace ufc::admm
