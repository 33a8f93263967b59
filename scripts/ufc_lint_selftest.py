#!/usr/bin/env python3
"""Self-tests for scripts/ufc_lint.py.

Every rule fixture materializes a tiny repository in a tempdir (the same
src/<layer>/ shape as the real tree), runs the whole checker over it and
asserts on the findings of the rule under test: a fail fixture must make the
rule report, a pass fixture must keep it silent. Every rule in RULES has at
least one of each. Run via `scripts/ufc_lint.py --self-test` (registered in
ctest as ufc_lint_selftest).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ufc_lint as ul  # noqa: E402

FRESH = object()  # a dot file written from the fixture tree's own graph
LAYERING = ("include-layering", "dangling-include", "include-cycle")


@dataclass
class Case:
    name: str
    rule: str                  # the rule the fixture is for
    files: dict
    fails: bool                # fail fixture: `rule` reports; pass: silent
    says: str = ""             # text of a fail fixture's first finding
    quiet: tuple = ()          # other rules that must stay silent
    dot: str | None = None     # fixture file checked as the committed graph


def fail(name, rule, files, says="", quiet=(), dot=None):
    return Case(name, rule, files, True, says, quiet, dot)


def ok(name, rule, files, quiet=(), dot=None):
    return Case(name, rule, files, False, "", quiet, dot)


def others(rule: str) -> tuple:
    return tuple(r for r in LAYERING if r != rule)


def findings_of(files: dict, dot: str | None = None) -> list[ul.Finding]:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            if text is not FRESH:
                (root / rel).write_text(text)
        tree = ul.build_tree(root, dot_path=root / dot if dot else None)
        if dot and files.get(dot) is FRESH:
            (root / dot).write_text(ul.layer_graph_dot(tree))
        return ul.check(tree)


PRAGMA = "#pragma once\n"
WIDGET_HEADER = """#pragma once
class Widget {
 public:
  void poke(int value);
};
"""
CHRONO = "auto t = std::chrono::steady_clock::now();\n"
GRAPH = {
    "src/admm/solver.hpp": '#include "math/vec.hpp"\n',
    "src/math/vec.hpp": '#include "util/span.hpp"\n',
    "src/util/span.hpp": PRAGMA,
}

CASES = [
    # -- pragma-once ---------------------------------------------------------
    fail("pragma_once_missing", "pragma-once",
         {"src/x/a.hpp": "#include <vector>\nint f();\n"}),
    ok("pragma_once_present_after_comment", "pragma-once",
       {"src/x/a.hpp": "// doc\n#pragma once\nint f();\n"}),
    ok("pragma_once_ignores_cpp", "pragma-once",
       {"src/x/a.cpp": "int f() { return 1; }\n"}),
    # -- using-namespace-header ----------------------------------------------
    fail("using_namespace_in_header", "using-namespace-header",
         {"src/x/a.hpp": "#pragma once\nusing namespace std;\n"}),
    ok("using_namespace_in_cpp_ok", "using-namespace-header",
       {"src/x/a.cpp": "using namespace std;\n"}),
    ok("using_namespace_suppressed", "using-namespace-header",
       {"src/x/a.hpp": "#pragma once\nusing namespace std;  "
                       "// ufc-lint: allow(using-namespace-header)\n"}),
    # -- no-c-rand -----------------------------------------------------------
    fail("c_rand_flagged", "no-c-rand",
         {"src/x/a.cpp": "int f() { return rand(); }\n"}),
    fail("srand_flagged", "no-c-rand",
         {"src/x/a.cpp": "void f() { srand(42); }\n"}),
    ok("rng_uniform_not_flagged", "no-c-rand",
       {"src/x/a.cpp": "double f(Rng& r) { return r.grand(); }\n"}),
    ok("rand_in_comment_ignored", "no-c-rand",
       {"src/x/a.cpp": "// calls rand() internally\n"}),
    # -- float-equal ---------------------------------------------------------
    fail("float_equal_flagged", "float-equal",
         {"src/x/a.cpp": "bool f(double x) { return x == 1.5; }\n"}),
    fail("float_equal_zero_flagged", "float-equal",
         {"src/x/a.cpp": "bool f(double x) { return x != 0.0; }\n"}),
    # A quote inside a char literal must not open a string that runs to the
    # next string literal and hides the comparison in between.
    fail("float_equal_after_quote_char_literal_flagged", "float-equal",
         {"src/x/a.cpp": "const char* f(char c, double x) {\n"
                         "  return c == '\"' && x == 0.5 ? \"quoted\" : \"plain\";\n"
                         "}\n"}),
    ok("float_equal_suppressed_line_above", "float-equal",
       {"src/x/a.cpp": "// ufc-lint: allow(float-equal)\n"
                       "bool f(double x) { return x == 0.0; }\n"}),
    ok("float_equal_suppressed_multiline_comment", "float-equal",
       {"src/x/a.cpp": "// ufc-lint: allow(float-equal) — exact-zero guard,\n"
                       "// explained over two comment lines.\n"
                       "bool f(double x) { return x == 0.0; }\n"}),
    ok("float_equal_tolerance_helper_exempt", "float-equal",
       {"src/util/stats.hpp":
            "#pragma once\nbool eq(double a) { return a == 0.0; }\n"}),
    ok("int_equal_not_flagged", "float-equal",
       {"src/x/a.cpp": "bool f(int x) { return x == 15; }\n"}),
    # -- bench-csv-name ------------------------------------------------------
    fail("bench_csv_bad_name", "bench-csv-name",
         {"bench/bench_x.cpp": 'const char* out = "results.csv";\n'}),
    ok("bench_csv_good_name", "bench-csv-name",
       {"bench/bench_x.cpp": 'const char* out = "ufc_fig1.csv";\n'}),
    ok("bench_csv_rule_only_in_bench", "bench-csv-name",
       {"src/x/a.cpp": 'const char* out = "results.csv";\n'}),
    # -- no-alloc-in-step ----------------------------------------------------
    fail("no_alloc_in_step_named_local_flagged", "no-alloc-in-step",
         {"src/admm/admg.cpp": "void InProcessExecutor::step() {\n"
                               "  Vec scratch(n_);\n  use(scratch);\n}\n"}),
    fail("no_alloc_in_step_executor_flagged", "no-alloc-in-step",
         {"src/admm/engine.cpp":
              "void InProcessExecutor::step(int iteration) {\n"
              "  Vec scratch(n_);\n  use(scratch, iteration);\n}\n"}),
    fail("no_alloc_in_step_temporary_flagged", "no-alloc-in-step",
         {"src/admm/admg.cpp": "void InProcessExecutor::step() {\n"
                               "  a_ = Mat(m_, n_);\n}\n"}),
    fail("no_alloc_in_step_pass_helper_flagged", "no-alloc-in-step",
         {"src/admm/engine.cpp":
              "void InProcessExecutor::run_screened_datacenter_pass() {\n"
              "  Vec scratch(n_);\n  use(scratch);\n}\n"}),
    fail("no_alloc_in_engine_solve_flagged", "no-alloc-in-step",
         {"src/admm/engine.cpp":
              "SolveCore AdmgEngine::solve(BlockExecutor& executor) {\n"
              "  Vec residuals(4);\n  return core;\n}\n"}),
    ok("no_alloc_outside_step_ok", "no-alloc-in-step",
       {"src/admm/admg.cpp": "void InProcessExecutor::reset() {\n"
                             "  Vec scratch(n_);\n  use(scratch);\n}\n"
                             "void InProcessExecutor::step() {\n"
                             "  scratch_.fill(0.0);\n}\n"}),
    ok("no_alloc_in_step_reference_param_ok", "no-alloc-in-step",
       {"src/admm/admg.cpp": "void InProcessExecutor::step() {\n"
                             "  pool_.parallel_for(0, m_, [&](const Vec& row) {\n"
                             "    consume(row);\n  });\n}\n"}),
    ok("no_alloc_in_step_declaration_not_matched", "no-alloc-in-step",
       {"src/admm/admg.cpp": "void InProcessExecutor::step();\n"}),
    ok("no_alloc_in_step_suppressed", "no-alloc-in-step",
       {"src/admm/admg.cpp": "void InProcessExecutor::step() {\n"
                             "  // ufc-lint: allow(no-alloc-in-step)\n"
                             "  Vec scratch(n_);\n  use(scratch);\n}\n"}),
    fail("no_alloc_in_qp_kernel_vec_flagged", "no-alloc-in-step",
         {"src/opt/rank_one_qp.cpp": "double probe(const RankOneQp& qp) {\n"
                                     "  Vec x(qp.direction.size());\n"
                                     "  return sum(x);\n}\n"}),
    fail("no_alloc_in_qp_kernel_std_vector_flagged", "no-alloc-in-step",
         {"src/opt/rank_one_qp.cpp":
              "void solve_rank_one_qp_simplex_into(const RankOneQp& qp) {\n"
              "  std::vector<double> thresholds(qp.direction.size());\n}\n"}),
    # No definition in the kernel file is exempt, a Vec-returning wrapper
    # included.
    fail("no_alloc_in_qp_kernel_vec_returning_wrapper_flagged",
         "no-alloc-in-step",
         {"src/opt/rank_one_qp.cpp":
              "Vec solve_rank_one_qp_simplex(const RankOneQp& qp, double t) {\n"
              "  Vec out(qp.direction.size());\n"
              "  RankOneQpScratch scratch;\n"
              "  solve_rank_one_qp_simplex_into(qp, out.span(), scratch);\n"
              "  return out;\n}\n"}),
    ok("no_alloc_in_qp_kernel_scratch_ok", "no-alloc-in-step",
       {"src/opt/rank_one_qp.cpp":
            "void solve_rank_one_qp_simplex_into(const RankOneQp& qp,\n"
            "    std::span<double> out, RankOneQpScratch& scratch) {\n"
            "  std::vector<double>& y = scratch.thresholds;\n"
            "  y.resize(out.size());\n}\n"}),
    ok("no_alloc_in_qp_kernel_reference_exempt", "no-alloc-in-step",
       {"src/opt/rank_one_qp_reference.cpp":
            "Vec primal_point(const RankOneQp& qp) {\n"
            "  Vec x(qp.direction.size());\n  return x;\n}\n"}),
    # -- no-sort-in-hot-path -------------------------------------------------
    fail("no_sort_in_hot_path_admm_flagged", "no-sort-in-hot-path",
         {"src/admm/blocks.cpp":
              "void f(double* a, double* b) { std::sort(a, b); }\n"}),
    fail("no_sort_in_hot_path_projection_fast_path_flagged",
         "no-sort-in-hot-path",
         {"src/math/projections.cpp": "void p(std::vector<double>& s) "
                                      "{ std::stable_sort(s.begin(), s.end()); }\n"}),
    fail("no_sort_in_hot_path_exact_qp_flagged", "no-sort-in-hot-path",
         {"src/opt/rank_one_qp.cpp": "void f(std::vector<double>& t) "
                                     "{ std::sort(t.begin(), t.end()); }\n"}),
    ok("no_sort_in_hot_path_reference_file_exempt", "no-sort-in-hot-path",
       {"src/math/projections_reference.cpp": "void p(std::vector<double>& s) "
                                              "{ std::sort(s.begin(), s.end()); }\n"}),
    ok("no_sort_in_hot_path_other_layers_exempt", "no-sort-in-hot-path",
       {"src/opt/quantiles.cpp": "void f(std::vector<double>& s) "
                                 "{ std::sort(s.begin(), s.end()); }\n"}),
    ok("no_sort_in_hot_path_comment_ignored", "no-sort-in-hot-path",
       {"src/admm/engine.cpp":
            "// the reference uses std::sort(v.begin(), v.end())\nint f();\n"}),
    ok("no_sort_in_hot_path_suppressed", "no-sort-in-hot-path",
       {"src/admm/blocks.cpp": "void f(double* a, double* b) {\n"
                               "  // ufc-lint: allow(no-sort-in-hot-path)\n"
                               "  std::sort(a, b);\n}\n"}),
    ok("no_sort_in_hot_path_exact_qp_reference_exempt", "no-sort-in-hot-path",
       {"src/opt/rank_one_qp_reference.cpp": "void f(std::vector<double>& t) "
                                             "{ std::sort(t.begin(), t.end()); }\n"}),
    # -- finite-iterate-guard ------------------------------------------------
    fail("finite_iterate_guard_missing_observe_flagged", "finite-iterate-guard",
         {"src/admm/engine.cpp":
              "SolveCore AdmgEngine::solve(BlockExecutor& executor, int first) {\n"
              "  for (int k = first; k < max; ++k) executor.step(k);\n"
              "  return core;\n}\n"}),
    ok("finite_iterate_guard_observe_present_ok", "finite-iterate-guard",
       {"src/admm/engine.cpp":
            "SolveCore AdmgEngine::solve(BlockExecutor& executor, int first) {\n"
            "  SolverWatchdog watchdog(options_.watchdog);\n"
            "  for (int k = first; k < max; ++k) {\n"
            "    executor.step(k);\n    watchdog.observe(r, s, finite);\n"
            "  }\n  return core;\n}\n"}),
    ok("finite_iterate_guard_declaration_not_matched", "finite-iterate-guard",
       {"src/admm/engine.cpp":
            "SolveCore AdmgEngine::solve(BlockExecutor& executor, int first);\n"}),
    ok("finite_iterate_guard_other_functions_exempt", "finite-iterate-guard",
       {"src/admm/engine.cpp": "void InProcessExecutor::reset() {\n"
                               "  for (int k = 0; k < max; ++k) clear(k);\n}\n"}),
    ok("finite_iterate_guard_suppressed", "finite-iterate-guard",
       {"src/admm/engine.cpp":
            "// ufc-lint: allow(finite-iterate-guard)\n"
            "SolveCore AdmgEngine::solve(BlockExecutor& executor, int first) {\n"
            "  return core;\n}\n"}),
    # -- engine-single-loop --------------------------------------------------
    fail("engine_single_loop_copy_flagged", "engine-single-loop",
         {"src/net/agents.cpp": "void DatacenterAgent::correct() {\n"
                                "  phi_ += eps * (phi_tilde - phi_);\n}\n"}),
    fail("engine_single_loop_epsilon_variable_flagged", "engine-single-loop",
         {"src/admm/other.cpp": "void f() { x += epsilon * (y - x); }\n"}),
    ok("engine_single_loop_engine_file_exempt", "engine-single-loop",
       {"src/admm/engine.cpp": "void correct_varphi_block() {\n"
                               "  varphi[i] += eps * (varphi_tilde - varphi[i]);\n}\n"}),
    ok("engine_single_loop_other_updates_ok", "engine-single-loop",
       {"src/sim/x.cpp": "void f() { total += weight * (hi - lo); }\n"}),
    ok("engine_single_loop_comment_ignored", "engine-single-loop",
       {"src/net/agents.cpp":
            "// the engine applies x += eps * (tilde - x) here\nint f();\n"}),
    ok("engine_single_loop_suppressed", "engine-single-loop",
       {"src/net/agents.cpp": "void f() {\n"
                              "  // ufc-lint: allow(engine-single-loop)\n"
                              "  x += eps * (y - x);\n}\n"}),
    # -- include-layering ----------------------------------------------------
    ok("declared_edge_passes", "include-layering",
       {"src/admm/solver.hpp": '#include "math/vec.hpp"\n',
        "src/math/vec.hpp": PRAGMA}, quiet=others("include-layering")),
    fail("back_edge_fails", "include-layering",
         {"src/math/vec.hpp": '#include "admm/solver.hpp"\n',
          "src/admm/solver.hpp": PRAGMA},
         says="back-edge", quiet=others("include-layering")),
    # model -> opt is not in the manifest even though opt is lower.
    fail("undeclared_edge_fails", "include-layering",
         {"src/model/problem.hpp": '#include "opt/bisect.hpp"\n',
          "src/opt/bisect.hpp": PRAGMA},
         says="undeclared layer edge", quiet=others("include-layering")),
    fail("src_must_not_include_umbrella", "include-layering",
         {"src/admm/solver.cpp": '#include "ufc.hpp"\n', "src/ufc.hpp": PRAGMA},
         says="umbrella", quiet=others("include-layering")),
    ok("tests_may_include_umbrella", "include-layering",
       {"tests/test_all.cpp": '#include "ufc.hpp"\n', "src/ufc.hpp": PRAGMA},
       quiet=others("include-layering")),
    ok("obs_seam_header_passes", "include-layering",
       {"src/obs/metrics.cpp": '#include "admm/solve_core.hpp"\n',
        "src/admm/solve_core.hpp": PRAGMA}, quiet=others("include-layering")),
    fail("obs_nonseam_admm_include_fails", "include-layering",
         {"src/obs/metrics.cpp": '#include "admm/engine.hpp"\n',
          "src/admm/engine.hpp": PRAGMA},
         says="seam", quiet=others("include-layering")),
    ok("ctrl_may_include_sim_and_admm", "include-layering",
       {"src/ctrl/controller.hpp": '#include "admm/admg.hpp"\n'
                                   '#include "sim/session.hpp"\n',
        "src/admm/admg.hpp": PRAGMA, "src/sim/session.hpp": PRAGMA},
       quiet=others("include-layering")),
    fail("sim_must_not_include_ctrl", "include-layering",
         {"src/sim/session.cpp": '#include "ctrl/controller.hpp"\n',
          "src/ctrl/controller.hpp": PRAGMA},
         says="back-edge", quiet=others("include-layering")),
    fail("undeclared_directory_fails", "include-layering",
         {"src/magic/widget.hpp": PRAGMA,
          "src/admm/solver.cpp": '#include "magic/widget.hpp"\n'},
         says="not a declared layer", quiet=others("include-layering")),
    # src/obs reads results through the seam headers only.
    fail("obs_layering_driver_header_flagged", "include-layering",
         {"src/obs/manifest.cpp": '#include "admm/engine.hpp"\nint f();\n',
          "src/admm/engine.hpp": PRAGMA}, says="seam"),
    fail("obs_layering_sim_header_flagged", "include-layering",
         {"src/obs/metrics.cpp": '#include "sim/simulator.hpp"\nint f();\n',
          "src/sim/simulator.hpp": PRAGMA}, says="back-edge"),
    ok("obs_layering_seam_headers_ok", "include-layering",
       {"src/obs/manifest.cpp": '#include "admm/solve_core.hpp"\n'
                                '#include "admm/telemetry.hpp"\n'
                                '#include "net/link_stats.hpp"\n'
                                '#include "obs/json.hpp"\n'
                                '#include "util/contract.hpp"\n',
        "src/admm/solve_core.hpp": PRAGMA, "src/admm/telemetry.hpp": PRAGMA,
        "src/net/link_stats.hpp": PRAGMA, "src/obs/json.hpp": PRAGMA,
        "src/util/contract.hpp": PRAGMA}),
    ok("obs_layering_system_includes_ignored", "include-layering",
       {"src/obs/json.cpp": "#include <vector>\n#include <string>\n"}),
    ok("obs_layering_rule_scoped_to_obs", "include-layering",
       {"src/sim/manifest.cpp": '#include "admm/engine.hpp"\nint f();\n',
        "src/admm/engine.hpp": PRAGMA}),
    ok("obs_layering_suppressed", "include-layering",
       {"src/obs/manifest.cpp": "// ufc-lint: allow(include-layering)\n"
                                '#include "net/bus.hpp"\nint f();\n',
        "src/net/bus.hpp": PRAGMA}),
    # -- dangling-include / include-cycle ------------------------------------
    fail("dangling_include_fails", "dangling-include",
         {"src/admm/solver.cpp": '#include "math/gone.hpp"\n'},
         quiet=others("dangling-include")),
    ok("dangling_include_suppressed", "dangling-include",
       {"src/admm/solver.cpp": "// ufc-lint: allow(dangling-include)\n"
                               '#include "math/gone.hpp"\n'},
       quiet=others("dangling-include")),
    fail("include_cycle_fails", "include-cycle",
         {"src/util/a.hpp": '#include "util/b.hpp"\n',
          "src/util/b.hpp": '#include "util/a.hpp"\n'},
         quiet=others("include-cycle")),
    ok("acyclic_chain_passes", "include-cycle",
       {"src/util/a.hpp": '#include "util/b.hpp"\n',
        "src/util/b.hpp": '#include "util/c.hpp"\n',
        "src/util/c.hpp": PRAGMA}, quiet=others("include-cycle")),
    # -- dot-stale -----------------------------------------------------------
    ok("dot_fresh_passes", "dot-stale",
       {**GRAPH, "docs/layers.dot": FRESH}, dot="docs/layers.dot"),
    fail("dot_stale_fails", "dot-stale",
         {**GRAPH, "docs/layers.dot": "digraph stale {}\n"},
         says="stale", dot="docs/layers.dot"),
    fail("missing_dot_fails", "dot-stale", GRAPH, says="missing",
         dot="docs/missing.dot"),
    # -- wall-clock / no-wall-clock-in-ctrl-tick -----------------------------
    fail("wall_clock_in_solver_fails", "wall-clock",
         {"src/admm/engine.cpp": CHRONO}),
    ok("wall_clock_in_obs_and_seam_passes", "wall-clock",
       {"src/obs/timer.hpp": CHRONO, "src/util/clock.hpp": CHRONO}),
    ok("wall_clock_suppression", "wall-clock",
       {"src/admm/engine.cpp": "auto t = std::chrono::steady_clock::now();"
                               "  // ufc-lint: allow(wall-clock)\n"}),
    # One marker spelling: the retired analyzer's marker suppresses nothing.
    fail("old_marker_spelling_does_not_suppress", "wall-clock",
         {"src/admm/engine.cpp": "auto t = std::chrono::steady_clock::now();"
                                 "  // ufc-analyze: allow(wall-clock)\n"}),
    fail("ctrl_chrono_caught_by_generic_wall_clock", "wall-clock",
         {"src/ctrl/controller.cpp": CHRONO}),
    fail("ctrl_clock_seam_include_fails", "no-wall-clock-in-ctrl-tick",
         {"src/ctrl/controller.cpp": '#include "util/clock.hpp"\n',
          "src/util/clock.hpp": PRAGMA}),
    fail("ctrl_timer_identifier_fails", "no-wall-clock-in-ctrl-tick",
         {"src/ctrl/scheduler.cpp": "const double t0 = util::monotonic_now();\n"}),
    ok("ctrl_timer_name_in_comment_passes", "no-wall-clock-in-ctrl-tick",
       {"src/ctrl/controller.hpp":
            "#pragma once\n// never call monotonic_now() here\n"}),
    ok("clock_seam_outside_ctrl_passes", "no-wall-clock-in-ctrl-tick",
       {"src/sim/sweep.cpp": '#include "util/clock.hpp"\n'
                             "const double t0 = util::monotonic_now();\n",
        "src/util/clock.hpp": PRAGMA}),
    ok("ctrl_clock_suppression", "no-wall-clock-in-ctrl-tick",
       {"src/ctrl/scheduler.cpp":
            "// ufc-lint: allow(no-wall-clock-in-ctrl-tick)\n"
            "const double t0 = util::monotonic_now();\n"}),
    # -- ordered-containers / rng-discipline / global-state ------------------
    fail("unordered_container_in_net_fails", "ordered-containers",
         {"src/net/bus.hpp": "std::unordered_map<int, int> queues_;\n"}),
    ok("unordered_container_outside_solver_layers_passes", "ordered-containers",
       {"src/model/cache.hpp": "std::unordered_map<int, int> c_;\n"}),
    fail("std_rng_outside_rng_home_fails", "rng-discipline",
         {"src/admm/x.cpp": "std::mt19937 gen_;\n"}),
    ok("std_rng_inside_rng_home_passes", "rng-discipline",
       {"src/util/rng.cpp": "std::mt19937_64 engine_;\n"}),
    fail("mutable_global_in_solver_fails", "global-state",
         {"src/admm/state.cpp": "namespace ufc::admm {\nint call_count = 0;\n}\n"},
         says="call_count"),
    ok("const_global_and_locals_pass", "global-state",
       {"src/admm/state.cpp": "namespace ufc::admm {\n"
                              "constexpr int kLimit = 3;\n"
                              "const double kScale = 2.0;\n"
                              "int bump(int v) {\n  int local = v;\n"
                              "  return local;\n}\n}\n"}),
    # -- step-exceptions -----------------------------------------------------
    fail("throw_in_hot_loop_fails", "step-exceptions",
         {"src/admm/engine.cpp": "namespace ufc::admm {\n"
                                 "void InProcessExecutor::step(int iteration) {\n"
                                 "  if (iteration < 0) throw 1;\n}\n}\n"}),
    fail("throw_in_pass_helper_fails", "step-exceptions",
         {"src/admm/engine.cpp":
              "void InProcessExecutor::run_screened_lambda_pass() {\n"
              "  try {\n    sweep();\n  } catch (...) {\n  }\n}\n"}),
    ok("throw_outside_hot_loop_passes", "step-exceptions",
       {"src/admm/engine.cpp": "namespace ufc::admm {\n"
                               "void InProcessExecutor::reset() { throw 1; }\n"
                               "void InProcessExecutor::step(int iteration) {\n"
                               "  counter_ += iteration;\n}\n}\n"}),
    # -- expects-reach -------------------------------------------------------
    fail("missing_guard_fails", "expects-reach",
         {"src/admm/widget.hpp": WIDGET_HEADER,
          "src/admm/widget.cpp":
              "void Widget::poke(int value) { state_ += value; }\n"},
         says="Widget::poke"),
    ok("direct_guard_passes", "expects-reach",
       {"src/admm/widget.hpp": WIDGET_HEADER,
        "src/admm/widget.cpp": "void Widget::poke(int value) {\n"
                               "  UFC_EXPECTS(value >= 0);\n"
                               "  state_ += value;\n}\n"}),
    ok("guard_through_callee_passes", "expects-reach",
       {"src/admm/widget.hpp": WIDGET_HEADER,
        "src/admm/widget.cpp":
            "void Widget::poke(int value) { check_input(value); }\n"
            "void check_input(int value) { UFC_EXPECTS(value >= 0); }\n"}),
    # The callee is guarded, but none of poke's parameters flow into it, so
    # its guard says nothing about poke's inputs.
    fail("callee_without_parameter_does_not_count", "expects-reach",
         {"src/admm/widget.hpp": WIDGET_HEADER,
          "src/admm/widget.cpp":
              "void Widget::poke(int value) {\n"
              "  refresh();\n  state_ += value;\n}\n"
              "void refresh() { UFC_EXPECTS(limit_ >= 0); }\n"}),
    ok("delegating_constructor_reaches_guard", "expects-reach",
       {"src/net/widget.hpp": "#pragma once\n"
                              "class Widget {\n public:\n"
                              "  explicit Widget(int limit);\n"
                              "  explicit Widget(Config config);\n};\n",
        "src/net/widget.cpp":
            "Widget::Widget(int limit) : Widget(make_config(limit)) {}\n"
            "Widget::Widget(Config config) {\n"
            "  UFC_EXPECTS(config.limit >= 0);\n}\n"
            "Config make_config(int limit) { return Config{limit}; }\n"}),
    ok("unnamed_parameter_noop_is_skipped", "expects-reach",
       {"src/admm/widget.hpp": "#pragma once\nclass Widget {\n public:\n"
                               "  void on_event(const State& state);\n};\n",
        "src/admm/widget.cpp":
            "void Widget::on_event(const State& /*state*/) {}\n"}),
    ok("suppression_at_definition", "expects-reach",
       {"src/admm/widget.hpp": WIDGET_HEADER,
        "src/admm/widget.cpp":
            "// ufc-lint: allow(expects-reach)\n"
            "void Widget::poke(int value) { state_ += value; }\n"}),
    ok("layers_outside_solver_layers_not_audited", "expects-reach",
       {"src/model/widget.hpp": WIDGET_HEADER,
        "src/model/widget.cpp":
            "void Widget::poke(int value) { state_ += value; }\n"}),
    fail("expects_guard_missing", "expects-reach",
         {"src/math/p.hpp":
              "#pragma once\nVec project_simplex(const Vec& v, double total);\n",
          "src/math/p.cpp":
              "Vec project_simplex(const Vec& v, double total) {\n"
              "  return v;\n}\n"}, says="project_simplex"),
    ok("expects_guard_present", "expects-reach",
       {"src/math/p.hpp":
            "#pragma once\nVec project_simplex(const Vec& v, double total);\n",
        "src/math/p.cpp": "Vec project_simplex(const Vec& v, double total) {\n"
                          "  UFC_EXPECTS(total >= 0.0);\n  return v;\n}\n"}),
    ok("expects_guard_validate_call_counts", "expects-reach",
       {"src/admm/p.hpp": "#pragma once\nVec entry(const Problem& p);\n",
        "src/admm/p.cpp":
            "Vec entry(const Problem& p) {\n  p.validate();\n"
            "  return Vec();\n}\n"}),
    ok("expects_guard_private_helper_exempt", "expects-reach",
       {"src/opt/p.hpp": "#pragma once\nVec entry(const Vec& v);\n",
        "src/opt/p.cpp": "static Vec helper(const Vec& v) { return v; }\n"
                         "Vec entry(const Vec& v) {\n"
                         "  UFC_EXPECTS(!v.empty());\n  return helper(v);\n}\n"}),
    ok("expects_guard_outside_solver_dirs_exempt", "expects-reach",
       {"src/util/l.hpp": "#pragma once\nvoid log_line(const char* msg);\n",
        "src/util/l.cpp": "void log_line(const char* msg) { (void)msg; }\n"}),
    ok("expects_guard_suppressed", "expects-reach",
       {"src/math/p.hpp": "#pragma once\nVec entry(const Vec& v);\n",
        "src/math/p.cpp": "// ufc-lint: allow(expects-reach)\n"
                          "Vec entry(const Vec& v) {\n  return v;\n}\n"}),
    # Headers declare their free functions inside namespace blocks, and a
    # declaration may span lines.
    fail("namespaced_free_function_fails", "expects-reach",
         {"src/net/codec.hpp": "#pragma once\nnamespace ufc::net {\n\n"
                               "bool is_ready(int id);\n\n"
                               "}  // namespace ufc::net\n",
          "src/net/codec.cpp": "namespace ufc::net {\n\n"
                               "bool is_ready(int id) { return id >= 0; }\n\n"
                               "}  // namespace ufc::net\n"},
         says="is_ready"),
    ok("namespaced_guarded_free_function_passes", "expects-reach",
       {"src/net/codec.hpp": "#pragma once\nnamespace ufc::net {\n\n"
                             "bool is_ready(int id);\n\n"
                             "}  // namespace ufc::net\n",
        "src/net/codec.cpp": "namespace ufc::net {\n\n"
                             "bool is_ready(int id) {\n"
                             "  UFC_EXPECTS(id >= 0);\n  return true;\n}\n\n"
                             "}  // namespace ufc::net\n"}),
    fail("multi_line_declaration_fails", "expects-reach",
         {"src/admm/blocks.hpp":
              "#pragma once\nnamespace ufc::admm {\n\n"
              "double update_phi(double phi, double rho, double alpha,\n"
              "                  double beta, double nu);\n\n"
              "}  // namespace ufc::admm\n",
          "src/admm/blocks.cpp":
              "namespace ufc::admm {\n\n"
              "double update_phi(double phi, double rho, double alpha,\n"
              "                  double beta, double nu) {\n"
              "  return phi + rho * (alpha + beta - nu);\n}\n\n"
              "}  // namespace ufc::admm\n"},
         says="update_phi"),
    # -- net-io-confinement --------------------------------------------------
    fail("os_call_outside_confined_files_fails", "net-io-confinement",
         {"src/net/bus.cpp": "int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);\n"},
         says="socket"),
    fail("fork_in_runtime_fails", "net-io-confinement",
         {"src/net/runtime.cpp": "const pid_t pid = fork();\n"}),
    ok("os_call_in_confined_file_passes", "net-io-confinement",
       {"src/net/socket_bus.cpp": "int make(int deadline_ms) {\n"
                                  "  return ::socket(AF_UNIX, SOCK_STREAM, 0);\n}\n"}),
    # poll_pending / connect_to_hub / std::bind are not OS calls.
    ok("lookalike_os_identifiers_pass", "net-io-confinement",
       {"src/net/runtime.cpp":
            "auto n = bus.poll_pending(node, deadline_ms);\n"
            "bool up = socket_->connect_to_hub(timeout);\n"
            "auto f = std::bind(&Runtime::round, this);\n"}),
    fail("blocking_call_without_deadline_parameter_fails", "net-io-confinement",
         {"src/net/socket_bus.cpp": "void SocketBus::spin() {\n"
                                    "  ::poll(fds.data(), fds.size(), 50);\n}\n"},
         says="deadline"),
    ok("blocking_call_with_deadline_parameter_passes", "net-io-confinement",
       {"src/net/socket_bus.cpp":
            "bool SocketBus::pump(int deadline_ms) {\n"
            "  return ::poll(fds.data(), fds.size(), deadline_ms) > 0;\n}\n",
        "src/net/supervisor.cpp":
            "int reap(pid_t pid, int deadline_ms) {\n  int status = 0;\n"
            "  return ::waitpid(pid, &status, WNOHANG);\n}\n"}),
    fail("infinite_poll_timeout_fails_even_with_deadline_param",
         "net-io-confinement",
         {"src/net/socket_bus.cpp":
              "bool SocketBus::pump(int deadline_ms) {\n"
              "  return ::poll(fds.data(), fds.size(), -1) > 0;\n}\n"},
         says="infinite"),
    ok("os_calls_in_tests_and_bench_not_audited", "net-io-confinement",
       {"tests/net/test_socket_bus.cpp": "int fd = ::socket(1, 2, 3);\n",
        "bench/bench_socket_bus.cpp": "pid_t pid = fork();\n"}),
    ok("net_io_suppression", "net-io-confinement",
       {"src/net/bus.cpp": "// ufc-lint: allow(net-io-confinement)\n"
                           "int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);\n"}),
    # -- registry-confinement ------------------------------------------------
    fail("construction_outside_homes_fails", "registry-confinement",
         {"src/admm/strategy.cpp":
              "auto p = std::make_unique<ResidualBalancePenalty>(knobs);\n"},
         says="ResidualBalancePenalty"),
    fail("raw_new_outside_homes_fails", "registry-confinement",
         {"src/admm/engine.cpp":
              "acceleration_ = new AndersonAcceleration(knobs);\n"}),
    fail("centralized_method_outside_homes_fails", "registry-confinement",
         {"src/admm/admg.cpp":
              "auto oracle = std::make_unique<NewtonMethod>(options);\n"}),
    ok("construction_in_registry_homes_passes", "registry-confinement",
       {"src/admm/ingredients.cpp": "return std::make_unique<FixedPenalty>();\n",
        "src/admm/centralized.cpp":
            "return std::make_unique<SubgradientMethod>(options);\n"}),
    # InnerMethod is an enum and registry lookups are not constructions.
    ok("lookalike_ingredient_identifiers_pass", "registry-confinement",
       {"src/admm/options.cpp":
            "options.inner.method = InnerMethod::Exact;\n"
            "auto p = penalty_registry().create(name, options);\n"}),
    ok("ingredients_in_tests_and_bench_not_audited", "registry-confinement",
       {"tests/admm/test_ingredients.cpp":
            "auto p = std::make_unique<FixedPenalty>();\n",
        "bench/bench_ingredients.cpp":
            "auto a = std::make_unique<AndersonAcceleration>(knobs);\n"}),
    ok("registry_suppression", "registry-confinement",
       {"src/admm/strategy.cpp": "// ufc-lint: allow(registry-confinement)\n"
                                 "auto p = std::make_unique<FixedPenalty>();\n"}),
]


class RuleFixtures(unittest.TestCase):
    """One test per CASES entry (generated below)."""

    def test_every_rule_has_a_failing_and_a_passing_fixture(self):
        for rule in ul.RULES:
            kinds = {case.fails for case in CASES if case.rule == rule}
            self.assertEqual(kinds, {True, False}, rule)

    def test_fixtures_name_registered_rules(self):
        for case in CASES:
            self.assertIn(case.rule, ul.RULES, case.name)
            for rule in case.quiet:
                self.assertIn(rule, ul.RULES, case.name)


def _fixture_test(case: Case):
    def test(self: unittest.TestCase) -> None:
        findings = findings_of(case.files, case.dot)
        got = [f for f in findings if f.rule == case.rule]
        if case.fails:
            self.assertTrue(got, f"{case.rule} stayed silent")
            self.assertIn(case.says, got[0].message)
        else:
            self.assertEqual(got, [])
        for rule in case.quiet:
            self.assertEqual([f for f in findings if f.rule == rule], [])
    return test


for _case in CASES:
    assert not hasattr(RuleFixtures, f"test_{_case.name}"), _case.name
    setattr(RuleFixtures, f"test_{_case.name}", _fixture_test(_case))


class FindingsTests(unittest.TestCase):
    def test_error_format(self):
        f = ul.Finding("src/a.cpp", 3, "rule-x", "msg")
        self.assertEqual(str(f), "src/a.cpp:3: [rule-x] msg")

    def test_warning_format_carries_severity(self):
        f = ul.Finding("src/a.cpp", 3, "rule-x", "msg", severity="warning")
        self.assertIn("warning:", str(f))

    def test_unknown_severity_rejected(self):
        with self.assertRaises(ValueError):
            ul.Finding("a", 1, "r", "m", severity="fatal")

    def test_exit_code_clean(self):
        code = ul.report("t", [], out=io.StringIO(), err=io.StringIO())
        self.assertEqual(code, ul.EXIT_CLEAN)

    def test_exit_code_error(self):
        code = ul.report("t", [ul.Finding("a", 1, "r", "m")],
                         out=io.StringIO(), err=io.StringIO())
        self.assertEqual(code, ul.EXIT_FINDINGS)

    def test_warnings_do_not_gate(self):
        code = ul.report("t", [ul.Finding("a", 1, "r", "m", severity="warning")],
                         out=io.StringIO(), err=io.StringIO())
        self.assertEqual(code, ul.EXIT_CLEAN)

    def test_findings_sorted_by_path_line(self):
        out = io.StringIO()
        ul.report("t", [ul.Finding("b.cpp", 2, "r", "m"),
                        ul.Finding("a.cpp", 9, "r", "m")],
                  out=out, err=io.StringIO())
        self.assertTrue(out.getvalue().splitlines()[0].startswith("a.cpp:9"))

    def test_json_round_trip_validates(self):
        doc = ul.findings_to_json("t", [ul.Finding("a", 1, "r", "m"),
                                        ul.Finding("b", 2, "r", "m",
                                                   severity="warning")])
        self.assertEqual(ul.validate_findings_json(doc), [])
        self.assertEqual(doc["counts"], {"error": 1, "warning": 1})

    def test_json_written_to_disk(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.json"
            ul.report("t", [ul.Finding("a", 1, "r", "m")], json_path=path,
                      out=io.StringIO(), err=io.StringIO())
            doc = json.loads(path.read_text())
            self.assertEqual(ul.validate_findings_json(doc), [])

    def test_validator_rejects_bad_schema(self):
        self.assertTrue(ul.validate_findings_json({"schema": "nope"}))

    def test_validator_rejects_count_mismatch(self):
        doc = ul.findings_to_json("t", [ul.Finding("a", 1, "r", "m")])
        doc["counts"]["error"] = 7
        self.assertTrue(ul.validate_findings_json(doc))

    def test_validator_rejects_bad_line(self):
        doc = ul.findings_to_json("t", [ul.Finding("a", 1, "r", "m")])
        doc["findings"][0]["line"] = 0
        self.assertTrue(ul.validate_findings_json(doc))

    def test_validator_rejects_unknown_keys(self):
        doc = ul.findings_to_json("t", [ul.Finding("a", 1, "r", "m")])
        doc["findings"][0]["extra"] = True
        self.assertTrue(ul.validate_findings_json(doc))


class TreeAndCliTests(unittest.TestCase):
    RULE_NAMES = (
        "pragma-once", "using-namespace-header", "no-c-rand", "float-equal",
        "bench-csv-name", "no-alloc-in-step", "no-sort-in-hot-path",
        "finite-iterate-guard", "engine-single-loop", "include-layering",
        "include-cycle", "dangling-include", "wall-clock",
        "no-wall-clock-in-ctrl-tick", "ordered-containers", "rng-discipline",
        "global-state", "step-exceptions", "expects-reach",
        "net-io-confinement", "registry-confinement", "dot-stale")

    def test_dot_contains_observed_edges(self):
        with tempfile.TemporaryDirectory() as tmp:
            for rel, text in GRAPH.items():
                (Path(tmp) / rel).parent.mkdir(parents=True, exist_ok=True)
                (Path(tmp) / rel).write_text(text)
            dot = ul.layer_graph_dot(ul.build_tree(Path(tmp)))
            self.assertIn('"admm" -> "math" [label="1"];', dot)
            self.assertIn('"math" -> "util" [label="1"];', dot)

    def test_findings_serialize_to_valid_schema(self):
        findings = findings_of({"src/math/vec.hpp": '#include "admm/solver.hpp"\n',
                                "src/admm/solver.hpp": PRAGMA})
        layering = [f for f in findings if f.rule in LAYERING]
        doc = ul.findings_to_json("ufc_lint", layering)
        self.assertEqual(ul.validate_findings_json(doc), [])
        self.assertEqual(doc["counts"]["error"], 1)

    def test_every_rule_is_registered_and_documented(self):
        self.assertEqual(sorted(ul.RULES), sorted(self.RULE_NAMES))
        docs = (ul.REPO_ROOT / "docs" / "STATIC_ANALYSIS.md").read_text()
        for rule, (fn, summary) in ul.RULES.items():
            self.assertTrue(callable(fn) and summary, rule)
            self.assertIn(f"| `{rule}` |", docs, rule)

    def run_main(self, files: dict, *args: str) -> tuple[int, str]:
        with tempfile.TemporaryDirectory() as tmp:
            for rel, text in files.items():
                (Path(tmp) / rel).parent.mkdir(parents=True, exist_ok=True)
                (Path(tmp) / rel).write_text(text)
            out, err = io.StringIO(), io.StringIO()
            argv = ["--root", tmp] + [str(Path(tmp) / a) for a in args]
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = ul.main(argv)
            return code, out.getvalue()

    def test_paths_limit_the_report_not_what_rules_see(self):
        # The entry point is declared in a header outside the given path;
        # the float-equal finding lives in a file outside it.
        code, out = self.run_main(
            {"src/admm/widget.hpp": WIDGET_HEADER,
             "src/admm/widget.cpp":
                 "void Widget::poke(int value) { state_ += value; }\n",
             "src/sim/other.cpp": "bool f(double x) { return x == 1.5; }\n"},
            "src/admm/widget.cpp")
        self.assertEqual(code, ul.EXIT_FINDINGS)
        self.assertIn("[expects-reach]", out)
        self.assertNotIn("float-equal", out)

    def test_clean_path_reports_clean(self):
        code, out = self.run_main(
            {"src/sim/other.cpp": "bool f(double x) { return x == 1.5; }\n",
             "src/sim/clean.cpp": "int f() { return 1; }\n"},
            "src/sim/clean.cpp")
        self.assertEqual(code, ul.EXIT_CLEAN)
        self.assertIn("clean (1 files)", out)

    def test_missing_path_is_a_usage_error(self):
        code, _ = self.run_main({}, "src/nope.cpp")
        self.assertEqual(code, ul.EXIT_USAGE)


def run() -> int:
    loader = unittest.defaultTestLoader
    suite = unittest.TestSuite(
        loader.loadTestsFromTestCase(case)
        for case in (RuleFixtures, FindingsTests, TreeAndCliTests))
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(run())
