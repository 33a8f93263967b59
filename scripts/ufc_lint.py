#!/usr/bin/env python3
"""UFC repository checker: the project invariants clang-tidy cannot express.

The checker parses the tree once into a model (files, layers, the #include
graph, function definitions and an approximate call graph) and runs every
rule in RULES over it. docs/STATIC_ANALYSIS.md documents each rule;
`--list-rules` prints their one-line summaries.

Suppressing a finding: append `// ufc-lint: allow(<rule>)` (with a reason!)
to the offending line, or put it in the contiguous comment block above.

A finding is `path:line: [rule] message` with a severity of "error" (gates)
or "warning" (reported, never gates). Exit codes: 0 clean or warnings only,
1 at least one error finding, 2 usage problem. `--json` writes the
ufc-findings-v1 report:

  {"schema": "ufc-findings-v1", "tool": "ufc_lint",
   "counts": {"error": N, "warning": M},
   "findings": [{"path", "line", "rule", "severity", "message"}, ...]}

Usage:
  scripts/ufc_lint.py                   check the repository, exit 1 on
                                        error findings
  scripts/ufc_lint.py PATH...           report only findings in these files
                                        or directories; rules that need the
                                        whole tree still see all of it
  scripts/ufc_lint.py --json PATH       also write the ufc-findings-v1 report
  scripts/ufc_lint.py --dot PATH        write the observed layer graph as
                                        Graphviz dot (docs/include_layers.dot
                                        is the committed copy)
  scripts/ufc_lint.py --check-dot PATH  fail if PATH is stale vs the tree
  scripts/ufc_lint.py --root DIR        check another tree
  scripts/ufc_lint.py --self-test       run scripts/ufc_lint_selftest.py
  scripts/ufc_lint.py --list-rules      print rule names and summaries
"""

from __future__ import annotations

import argparse
import bisect
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOTS = ("src", "tests", "bench", "examples")

# ---------------------------------------------------------------------------
# Findings and the report
# ---------------------------------------------------------------------------
SEVERITIES = ("error", "warning")
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def __str__(self) -> str:
        tag = "" if self.severity == "error" else f" {self.severity}:"
        return f"{self.path}:{self.line}:{tag} [{self.rule}] {self.message}"

    def to_json(self) -> dict:
        return {"path": self.path, "line": self.line, "rule": self.rule,
                "severity": self.severity, "message": self.message}


def severity_counts(findings: list[Finding]) -> dict[str, int]:
    counts = {severity: 0 for severity in SEVERITIES}
    for finding in findings:
        counts[finding.severity] += 1
    return counts


def findings_to_json(tool: str, findings: list[Finding]) -> dict:
    ordered = sorted(findings, key=lambda f: (f.path, f.line, f.rule))
    return {
        "schema": "ufc-findings-v1",
        "tool": tool,
        "counts": severity_counts(ordered),
        "findings": [finding.to_json() for finding in ordered],
    }


def report(tool: str, findings: list[Finding], *, checked: int | None = None,
           json_path: Path | None = None, out=None, err=None) -> int:
    """Prints findings (and optionally writes the JSON report); returns the
    exit code. The summary of a failing run goes to stderr like a
    compiler's, so `tool | wc -l` counts findings only."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    for finding in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        print(finding, file=out)
    if json_path is not None:
        json_path.write_text(
            json.dumps(findings_to_json(tool, findings), indent=2) + "\n")
    counts = severity_counts(findings)
    if findings:
        print(f"{tool}: {counts['error']} error(s), "
              f"{counts['warning']} warning(s)", file=err)
    else:
        suffix = f" ({checked} files)" if checked is not None else ""
        print(f"{tool}: clean{suffix}", file=out)
    return EXIT_FINDINGS if counts["error"] else EXIT_CLEAN


def validate_findings_json(doc) -> list[str]:
    """Returns the schema violations of a parsed ufc-findings-v1 document."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document: top level must be an object"]
    if doc.get("schema") != "ufc-findings-v1":
        errors.append(f'document: "schema" {doc.get("schema")!r} must be '
                      '"ufc-findings-v1"')
    if not isinstance(doc.get("tool"), str) or not doc.get("tool"):
        errors.append('document: "tool" must be a non-empty string')
    counts = doc.get("counts")
    if not isinstance(counts, dict) or set(counts) != set(SEVERITIES) or \
            not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0
                    for v in counts.values()):
        errors.append('document: "counts" must map exactly '
                      f"{sorted(SEVERITIES)} to non-negative integers")
        counts = None
    findings = doc.get("findings")
    if not isinstance(findings, list):
        errors.append('document: "findings" must be a list')
        return errors
    keys = {"path", "line", "rule", "message", "severity"}
    seen = {severity: 0 for severity in SEVERITIES}
    for index, entry in enumerate(findings):
        where = f"findings[{index}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: must be an object")
            continue
        for key in ("path", "rule", "message"):
            if not isinstance(entry.get(key), str) or not entry.get(key):
                errors.append(f"{where}: {key!r} must be a non-empty string")
        line = entry.get("line")
        if not isinstance(line, int) or isinstance(line, bool) or line < 1:
            errors.append(f"{where}: 'line' must be a positive integer")
        severity = entry.get("severity")
        if severity not in SEVERITIES:
            errors.append(f"{where}: 'severity' {severity!r} must be one of "
                          f"{sorted(SEVERITIES)}")
        else:
            seen[severity] += 1
        if set(entry) - keys:
            errors.append(f"{where}: unknown keys {sorted(set(entry) - keys)}")
    if counts is not None and counts != seen:
        errors.append(f'document: "counts" {counts} do not match the findings '
                      f"list {seen}")
    return errors


# ---------------------------------------------------------------------------
# The layer manifest: the architecture, as a machine-checkable contract.
#
# A layer may include itself and exactly the layers listed here (its direct
# dependencies; transitive closure is intentional repetition — an edge is
# only legal if it is declared, whether or not it is reachable). Bottom to
# top: util -> math -> {opt, model} -> traces -> admm -> net -> obs -> sim
# -> ctrl, with src/ufc.hpp as the umbrella only examples/tests may include.
# ---------------------------------------------------------------------------
LAYER_ORDER = ["util", "math", "opt", "model", "traces", "admm", "net", "obs",
               "sim", "ctrl"]
LAYER_DEPS: dict[str, set[str]] = {
    "util": set(),
    "math": {"util"},
    "opt": {"math", "util"},
    "model": {"math", "util"},
    "traces": {"model", "math", "util"},
    "admm": {"opt", "model", "math", "util"},
    "net": {"admm", "opt", "model", "math", "util"},
    # src/obs consumes solver *results* and never drives solves: it reaches
    # admm/net only through the seam headers below, so "attaching observers
    # changes nothing" stays checkable by layering alone. Domain adapters
    # that need driver types live in src/sim/manifest.cpp.
    "obs": {"model", "util"},
    "sim": {"obs", "admm", "traces", "model", "math", "opt", "util"},
    # The receding-horizon controller service sits on top of everything it
    # orchestrates; nothing may include it back (it is the top layer).
    "ctrl": {"sim", "obs", "admm", "traces", "model", "util"},
}
OBS_SEAM_HEADERS = {
    "src/admm/solve_core.hpp",   # driver-independent result types
    "src/admm/telemetry.hpp",    # IterationObserver / IterationSample seam
    "src/admm/watchdog.hpp",     # WatchdogVerdict named in SolveCore
    "src/net/link_stats.hpp",    # traffic counters, no bus machinery
}
UMBRELLA = "src/ufc.hpp"

SOLVER_LAYERS = ("math", "opt", "admm", "net")
# The ADM-G iteration hot path: the executor step, the pass helpers it
# dispatches to, and the engine loop around it.
HOT_PATH_FUNCTIONS = ("InProcessExecutor::step",
                      "InProcessExecutor::run_full_datacenter_pass",
                      "InProcessExecutor::run_screened_lambda_pass",
                      "InProcessExecutor::run_screened_datacenter_pass",
                      "AdmgEngine::solve")

ALLOW_RE = re.compile(r"ufc-lint:\s*allow\(([a-z0-9-]+)\)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


# ---------------------------------------------------------------------------
# Tree model
# ---------------------------------------------------------------------------
# Comments and string/char literals, matched in one left-to-right pass so a
# quote inside a char literal ('"') cannot open a string and a // inside a
# string cannot open a comment. A ' after a word character is a digit
# separator (1'000), not a char literal.
_LEXEME_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/|R"([^()\\\s]*)\(.*?\)\1"|"(?:[^"\\\n]|\\.)*"|'
    r"(?<![\w'])'(?:[^'\\\n]|\\.)+'", re.S)


def _blank_lexeme(m: re.Match) -> str:
    text = m.group(0)
    if text.startswith("/"):
        return re.sub(r"[^\n]", " ", text)
    head = 2 if text.startswith("R") else 1
    return text[:head] + re.sub(r"[^\n]", " ", text[head:-1]) + text[-1]


def blank_comments_and_literals(text: str) -> str:
    """`text` with comments and the contents of string and char literals
    replaced by spaces. Offsets and newlines are kept, so a position in the
    result is the same position in the file."""
    return _LEXEME_RE.sub(_blank_lexeme, text)


@dataclass
class SourceFile:
    rel: str                 # repo-relative posix path
    layer: str               # LAYER_ORDER entry, "umbrella", "top" or "?"
    lines: list[str]         # as written: suppression markers, includes
    code: str                # blank_comments_and_literals of the text
    code_lines: list[str]
    # (0-based line, include text as written, resolved rel path or None)
    includes: list[tuple[int, str, str | None]] = field(default_factory=list)
    newlines: list[int] = field(default_factory=list)

    def line_of(self, offset: int) -> int:
        """0-based line of a character offset into `code`."""
        return bisect.bisect_left(self.newlines, offset)


@dataclass
class Tree:
    root: Path
    files: dict[str, SourceFile]
    dot_path: Path | None = None  # the committed layer graph to check


def layer_of(rel: str) -> str:
    if rel == UMBRELLA:
        return "umbrella"
    if rel.startswith("src/"):
        parts = rel.split("/")
        return parts[1] if len(parts) > 2 else "?"
    return "top"  # tests/, bench/, examples/


def _resolve_include(tree_files: set[str], includer: str,
                     header: str) -> str | None:
    # Project includes are rooted at src/ (the ufc library's include dir);
    # tests/bench also include siblings relative to their own directory.
    for candidate in (f"src/{header}",
                      str(Path(includer).parent / header),
                      f"tests/{header}"):
        candidate = Path(candidate).as_posix()
        if candidate in tree_files:
            return candidate
    return None


def build_tree(root: Path, extra: tuple[Path, ...] = (),
               dot_path: Path | None = None) -> Tree:
    """Parses every .hpp/.cpp under the source roots of `root`, plus the
    files and directories in `extra`."""
    paths: set[Path] = set()
    for base in [root / r for r in SOURCE_ROOTS] + list(extra):
        if base.is_dir():
            paths.update(base.rglob("*"))
        elif base.is_file():
            paths.add(base)
    files: dict[str, SourceFile] = {}
    for path in sorted(p for p in paths if p.suffix in (".hpp", ".cpp")):
        rel = path.resolve().relative_to(root.resolve()).as_posix()
        text = path.read_text(errors="replace")
        code = blank_comments_and_literals(text)
        files[rel] = SourceFile(
            rel=rel, layer=layer_of(rel), lines=text.splitlines(), code=code,
            code_lines=code.splitlines(),
            newlines=[i for i, ch in enumerate(code) if ch == "\n"])
    names = set(files)
    for source in files.values():
        for i, line in enumerate(source.lines):
            m = INCLUDE_RE.match(line)
            if m:
                source.includes.append(
                    (i, m.group(1), _resolve_include(names, source.rel,
                                                     m.group(1))))
    return Tree(root=root, files=files, dot_path=dot_path)


def suppressed(lines: list[str], index: int, rule: str) -> bool:
    """True if line `index` (0-based) carries an allow(rule) marker, either on
    the line itself or anywhere in the contiguous comment block above it."""
    def carries(line: str) -> bool:
        m = ALLOW_RE.search(line)
        return bool(m) and m.group(1) == rule

    if 0 <= index < len(lines) and carries(lines[index]):
        return True
    probe = index - 1
    while probe >= 0 and lines[probe].strip().startswith("//"):
        if carries(lines[probe]):
            return True
        probe -= 1
    return False


def _scan_lines(tree: Tree, rule: str, pattern: re.Pattern, applies,
                message) -> list[Finding]:
    """A finding of `rule` for every code line, in each file whose path
    `applies` accepts, that `pattern` matches. `message` is a string or a
    function of the match."""
    findings = []
    for source in tree.files.values():
        if not applies(source.rel):
            continue
        for i, code in enumerate(source.code_lines):
            m = pattern.search(code)
            if m and not suppressed(source.lines, i, rule):
                text = message(m) if callable(message) else message
                findings.append(Finding(source.rel, i + 1, rule, text))
    return findings


# ---------------------------------------------------------------------------
# Brace and parenthesis scanning (on blanked code)
# ---------------------------------------------------------------------------
def _close_paren(text: str, open_paren: int) -> int | None:
    """Index of the ')' matching the '(' at `open_paren`."""
    depth = 0
    for j in range(open_paren, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return j
    return None


def _match_brace(text: str, start: int) -> int | None:
    """Index one past the `}` matching the `{` at `start`, or None."""
    depth = 0
    for k in range(start, len(text)):
        if text[k] == "{":
            depth += 1
        elif text[k] == "}":
            depth -= 1
            if depth == 0:
                return k + 1
    return None


def _body_span(text: str, open_paren: int) -> tuple[int, int] | None:
    """(start, end) of the function body brace block for a definition whose
    parameter list opens at `open_paren`, or None for a declaration or a
    call. Skips braces that belong to constructor member-initializer lists:
    braces inside parentheses (`csv_(std::vector<T>{...})`) and
    brace-initializers glued to a member name (`a_{1}`)."""
    j = _close_paren(text, open_paren)
    if j is None:
        return None
    k, paren_depth = j + 1, 0
    while k < len(text):
        ch = text[k]
        if ch == "(":
            paren_depth += 1
        elif ch == ")":
            paren_depth -= 1
        elif paren_depth == 0:
            if ch == ";":
                return None
            if ch == "{":
                end = _match_brace(text, k)
                if end is None:
                    return None
                if text[k - 1].isalnum() or text[k - 1] == "_":
                    k = end  # member brace-init `a_{...}`
                    continue
                return k, end
        k += 1
    return None


HOT_PATH_RES = [
    (name, re.compile(r"\b" + name.replace("::", r"\s*::\s*") + r"\s*\("))
    for name in HOT_PATH_FUNCTIONS]


def _hot_path_lines(source: SourceFile):
    """(qualified name, 0-based line) for every line of every hot-path
    function body defined in `source`, from its '{' to its '}'."""
    for qualified, pattern in HOT_PATH_RES:
        for m in pattern.finditer(source.code):
            span = _body_span(source.code, m.end() - 1)
            if span is not None:
                for i in range(source.line_of(span[0]),
                               source.line_of(span[1] - 1) + 1):
                    yield qualified, i


# ---------------------------------------------------------------------------
# Per-line project invariants
# ---------------------------------------------------------------------------
def check_pragma_once(tree: Tree) -> list[Finding]:
    findings = []
    for source in tree.files.values():
        if not source.rel.endswith(".hpp"):
            continue
        first_code = next((line.strip() for line in source.lines
                           if line.strip() and not line.strip().startswith(
                               ("//", "/*", "*"))), "")
        if not first_code.startswith("#pragma once"):
            findings.append(Finding(source.rel, 1, "pragma-once",
                                    "header does not start with #pragma once"))
    return findings


def check_using_namespace_header(tree: Tree) -> list[Finding]:
    return _scan_lines(
        tree, "using-namespace-header", re.compile(r"\busing\s+namespace\b"),
        lambda rel: rel.endswith(".hpp"),
        "`using namespace` in a header leaks into every includer")


def check_no_c_rand(tree: Tree) -> list[Finding]:
    return _scan_lines(
        tree, "no-c-rand", re.compile(r"(?<![\w:])(s?rand|random_shuffle)\s*\("),
        lambda rel: True, "use ufc::Rng instead of C rand()/srand()")


FLOAT_LITERAL = r"(?:\d+\.\d*|\.\d+|\d+[eE][-+]?\d+|\d+\.\d*[eE][-+]?\d+)[fFlL]?"
FLOAT_EQ_RE = re.compile(
    rf"(?:{FLOAT_LITERAL}\s*[!=]=|[!=]=\s*{FLOAT_LITERAL})")
TOLERANCE_HELPER_FILES = {"src/util/stats.hpp", "src/util/stats.cpp"}


def check_float_equal(tree: Tree) -> list[Finding]:
    return _scan_lines(
        tree, "float-equal", FLOAT_EQ_RE,
        lambda rel: rel not in TOLERANCE_HELPER_FILES,
        "==/!= on a floating-point literal; use ufc::approx_equal or "
        "annotate an intentional exact-zero guard")


CSV_LITERAL_RE = re.compile(r'"([^"]*\.csv)"')


def check_bench_csv_name(tree: Tree) -> list[Finding]:
    # Reads the file names inside string literals, so it scans the lines as
    # written, up to a // comment.
    findings = []
    for source in tree.files.values():
        if not source.rel.startswith("bench/"):
            continue
        for i, line in enumerate(source.lines):
            for m in CSV_LITERAL_RE.finditer(line.split("//", 1)[0]):
                name = m.group(1).rsplit("/", 1)[-1]
                if not re.fullmatch(r"ufc_[a-z0-9_]+\.csv", name) and \
                        not suppressed(source.lines, i, "bench-csv-name"):
                    findings.append(Finding(
                        source.rel, i + 1, "bench-csv-name",
                        f'bench output "{name}" must match ufc_*.csv'))
    return findings


# The hot path works entirely out of workspaces sized once in reset(), so
# steady-state iterations are allocation-free: any `Mat(...)` / `Vec(...)`
# construction (temporary or named local) in a hot-path body is flagged;
# references and pointers (`const Vec&`, `Vec*`) do not allocate and pass.
# The exact rank-one QP kernels run inside every Exact-method block solve and
# work in RankOneQpScratch, so their whole file is held to the same rule,
# std::vector locals included.
ALLOC_RE = re.compile(r"\b(Mat|Vec)\s*(?:[A-Za-z_]\w*\s*)?[({]")
VECTOR_DECL_RE = re.compile(
    r"\bstd\s*::\s*vector\s*<[^;&*()]*>\s+[A-Za-z_]\w*\s*[({;=]")
QP_KERNEL_FILE = "src/opt/rank_one_qp.cpp"


def check_no_alloc_in_step(tree: Tree) -> list[Finding]:
    findings = _scan_lines(
        tree, "no-alloc-in-step",
        re.compile(f"{ALLOC_RE.pattern}|{VECTOR_DECL_RE.pattern}"),
        lambda rel: rel == QP_KERNEL_FILE,
        "allocation in the exact rank-one QP kernels; work in "
        "RankOneQpScratch")
    for source in tree.files.values():
        if not source.rel.endswith(".cpp") or source.rel == QP_KERNEL_FILE:
            continue
        for qualified, i in _hot_path_lines(source):
            if ALLOC_RE.search(source.code_lines[i]) and \
                    not suppressed(source.lines, i, "no-alloc-in-step"):
                findings.append(Finding(
                    source.rel, i + 1, "no-alloc-in-step",
                    f"Mat/Vec constructed inside {qualified}, on the ADM-G "
                    "hot path; allocate it once in reset() and reuse the "
                    "workspace"))
    return findings


# The per-iteration cost must stay O(n) per projection: the Condat threshold
# replaced sort-and-threshold in the hot path, and the n log n references
# survive only as bit-pinned cross-validation baselines, exempt by name.
SORT_HOT_PATH_FILES = {"src/math/projections.hpp", "src/math/projections.cpp",
                       "src/opt/rank_one_qp.hpp", "src/opt/rank_one_qp.cpp"}
SORT_REFERENCE_FILES = {"src/math/projections_reference.cpp",
                        "src/opt/rank_one_qp_reference.cpp"}


def check_no_sort_in_hot_path(tree: Tree) -> list[Finding]:
    return _scan_lines(
        tree, "no-sort-in-hot-path",
        re.compile(r"\bstd\s*::\s*(?:stable_sort|partial_sort|sort)\s*\("),
        lambda rel: rel not in SORT_REFERENCE_FILES and (
            rel.startswith("src/admm/") or rel in SORT_HOT_PATH_FILES),
        "std::sort in the ADM-G hot path; use the O(n) Condat threshold — "
        "the sort-based references live only in "
        "src/math/projections_reference.cpp and "
        "src/opt/rank_one_qp_reference.cpp")


# Every driver delegates its loop to AdmgEngine::solve, so that one
# definition must consult the shared SolverWatchdog (`watchdog.observe(...)`)
# — the only place a non-finite iterate or a residual stall is caught before
# it corrupts a report or spins to max_iterations.
ENGINE_SOLVE_RE = re.compile(r"\bAdmgEngine\s*::\s*solve\s*\(")


def check_finite_iterate_guard(tree: Tree) -> list[Finding]:
    findings = []
    for source in tree.files.values():
        if not source.rel.endswith(".cpp"):
            continue
        for m in ENGINE_SOLVE_RE.finditer(source.code):
            span = _body_span(source.code, m.end() - 1)
            if span is None or ".observe(" in source.code[span[0]:span[1]]:
                continue
            line = source.line_of(m.start())
            if not suppressed(source.lines, line, "finite-iterate-guard"):
                findings.append(Finding(
                    source.rel, line + 1, "finite-iterate-guard",
                    "solver driver `AdmgEngine::solve` never calls "
                    "SolverWatchdog::observe; non-finite iterates and stalls "
                    "would go undetected"))
    return findings


# The bit-identity of the drivers rests on all of them running the same
# Gaussian back-substitution correction arithmetic (`x += eps * (...)`),
# which lives in the correct_* helpers of src/admm/engine.cpp only.
ENGINE_LOOP_FILE = "src/admm/engine.cpp"


def check_engine_single_loop(tree: Tree) -> list[Finding]:
    return _scan_lines(
        tree, "engine-single-loop", re.compile(r"\+=\s*eps\w*\s*\*\s*\("),
        lambda rel: rel != ENGINE_LOOP_FILE,
        "GBS correction arithmetic outside admm/engine.cpp; call the shared "
        "admm::correct_* helpers so every driver runs the same loop")


# ---------------------------------------------------------------------------
# The include graph: layering, dangling includes, cycles
# ---------------------------------------------------------------------------
def _layer_edge_message(source_layer: str, target_rel: str) -> str | None:
    """None if the include edge is legal, else the finding message."""
    target_layer = layer_of(target_rel)
    if source_layer == "top":
        return None
    if target_layer == "umbrella":
        return (f'"{target_rel}" is the umbrella header; only examples and '
                "tests may include it — src files include the specific "
                "headers they use")
    if source_layer == "umbrella":
        return None  # the umbrella deliberately includes everything
    for layer in (source_layer, target_layer):
        if layer not in LAYER_DEPS:
            return (f"src/{layer}/ is not a declared layer; add it to the "
                    "LAYER_DEPS manifest in scripts/ufc_lint.py")
    if target_layer == source_layer:
        return None
    if source_layer == "obs" and target_layer in ("admm", "net"):
        if target_rel in OBS_SEAM_HEADERS:
            return None
        return (f'src/obs may reach {target_layer} only through the seam '
                f'headers {sorted(Path(h).name for h in OBS_SEAM_HEADERS)}; '
                f'"{target_rel}" is driver machinery — adapters belong in '
                "src/sim/manifest.cpp")
    if target_layer in LAYER_DEPS[source_layer]:
        return None
    if LAYER_ORDER.index(target_layer) > LAYER_ORDER.index(source_layer):
        return (f"layering back-edge: {source_layer} (lower) must not include "
                f'"{target_rel}" ({target_layer} is a higher layer)')
    return (f"undeclared layer edge {source_layer} -> {target_layer}: not in "
            "the LAYER_DEPS manifest (declare it deliberately or remove the "
            "include)")


def check_include_layering(tree: Tree) -> list[Finding]:
    findings = []
    for source in tree.files.values():
        for index, _, resolved in source.includes:
            if resolved is None:
                continue
            message = _layer_edge_message(source.layer, resolved)
            if message and not suppressed(source.lines, index,
                                          "include-layering"):
                findings.append(Finding(source.rel, index + 1,
                                        "include-layering", message))
    return findings


def check_dangling_include(tree: Tree) -> list[Finding]:
    findings = []
    for source in tree.files.values():
        for index, header, resolved in source.includes:
            if resolved is None and not suppressed(source.lines, index,
                                                   "dangling-include"):
                findings.append(Finding(
                    source.rel, index + 1, "dangling-include",
                    f'include "{header}" does not resolve to a file in the '
                    "tree"))
    return findings


def check_include_cycle(tree: Tree) -> list[Finding]:
    """Tarjan's strongly connected components over the src/ include graph,
    iterative so deep include chains cannot overflow the stack."""
    graph = {rel: [resolved for _, _, resolved in source.includes
                   if resolved is not None and resolved in tree.files]
             for rel, source in tree.files.items() if rel.startswith("src/")}
    counter = [0]
    stack: list[str] = []
    on_stack: set[str] = set()
    indices: dict[str, int] = {}
    low: dict[str, int] = {}
    sccs: list[list[str]] = []

    def strongconnect(start: str) -> None:
        work = [(start, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                indices[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            children = [c for c in graph.get(node, []) if c in graph]
            for i in range(child_index, len(children)):
                child = children[i]
                if child not in indices:
                    work.append((node, i + 1))
                    work.append((child, 0))
                    recurse = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], indices[child])
            if recurse:
                continue
            if low[node] == indices[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for node in sorted(graph):
        if node not in indices:
            strongconnect(node)

    findings = [Finding(component[0], 1, "include-cycle",
                        "include cycle between " + ", ".join(component))
                for component in sorted(sccs)]
    for rel, targets in sorted(graph.items()):
        if rel in targets:
            findings.append(Finding(rel, 1, "include-cycle",
                                    f"{rel} includes itself"))
    return findings


def layer_graph_dot(tree: Tree) -> str:
    edges: dict[tuple[str, str], int] = {}
    for source in tree.files.values():
        if not source.rel.startswith("src/") or source.layer == "umbrella":
            continue
        for _, _, resolved in source.includes:
            if resolved is None:
                continue
            target = layer_of(resolved)
            if target == source.layer or target in ("top", "umbrella"):
                continue
            edges[(source.layer, target)] = edges.get(
                (source.layer, target), 0) + 1
    lines = [
        "// Observed src/ layer graph. Generated by scripts/ufc_lint.py "
        "--dot;",
        "// regenerate after layering changes (the check-dot ctest entry "
        "keeps it fresh).",
        "digraph ufc_layers {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    present = sorted({layer for pair in edges for layer in pair},
                     key=LAYER_ORDER.index)
    for layer in present:
        lines.append(f'  "{layer}";')
    for (source_layer, target), count in sorted(edges.items()):
        lines.append(f'  "{source_layer}" -> "{target}" [label="{count}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def check_dot_stale(tree: Tree) -> list[Finding]:
    if tree.dot_path is None:
        return []
    regenerate = f"regenerate with scripts/ufc_lint.py --dot {tree.dot_path}"
    try:
        actual = tree.dot_path.read_text()
    except OSError:
        return [Finding(str(tree.dot_path), 1, "dot-stale",
                        f"committed layer graph missing; {regenerate}")]
    if actual != layer_graph_dot(tree):
        return [Finding(str(tree.dot_path), 1, "dot-stale",
                        f"committed layer graph is stale; {regenerate}")]
    return []


# ---------------------------------------------------------------------------
# Per-layer construct bans
# ---------------------------------------------------------------------------
CLOCK_ALLOWED = ("src/obs/", "src/util/clock.hpp", "src/util/thread_pool")
CLOCK_RE = re.compile(
    r"std\s*::\s*chrono|steady_clock|system_clock|high_resolution_clock|"
    r"\bclock_gettime\b|\bgettimeofday\b|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)")


def check_wall_clock(tree: Tree) -> list[Finding]:
    return _scan_lines(
        tree, "wall-clock", CLOCK_RE,
        lambda rel: rel.startswith("src/") and not rel.startswith(
            CLOCK_ALLOWED),
        "raw clock read outside src/obs and the util/clock.hpp seam; use "
        "util::monotonic_now()/MonotonicTimer so every clock dependency "
        "stays reviewable in one place")


# src/ctrl may not consume even the sanctioned monotonic seam: tick deadlines
# are iteration budgets by design, which keeps N-tick controller runs
# bit-reproducible and the budget-resume identity testable exactly.
CTRL_CLOCK_HEADERS = ("util/clock.hpp", "obs/timer.hpp")
CTRL_CLOCK_IDENT_RE = re.compile(
    r"\b(?:monotonic_now|MonotonicTimer|ScopedTimer|MonotonicTick)\b")


def check_ctrl_wall_clock(tree: Tree) -> list[Finding]:
    findings = []
    for source in tree.files.values():
        if not source.rel.startswith("src/ctrl/"):
            continue
        banned_includes = {index for index, header, _ in source.includes
                           if header in CTRL_CLOCK_HEADERS}
        for i, code in enumerate(source.code_lines):
            if i not in banned_includes and not CTRL_CLOCK_IDENT_RE.search(code):
                continue
            if suppressed(source.lines, i, "no-wall-clock-in-ctrl-tick"):
                continue
            findings.append(Finding(
                source.rel, i + 1, "no-wall-clock-in-ctrl-tick",
                "the controller layer must not read any clock — not even the "
                "util/clock.hpp monotonic seam: tick deadlines are iteration "
                "budgets, which is what keeps N-tick controller runs "
                "bit-reproducible"))
    return findings


def check_ordered_containers(tree: Tree) -> list[Finding]:
    return _scan_lines(
        tree, "ordered-containers",
        re.compile(r"\bstd\s*::\s*unordered_(?:multi)?(?:map|set)\b"),
        lambda rel: layer_of(rel) in ("admm", "net"),
        "unordered container on an iterate-producing layer: iteration order "
        "is implementation-defined and would make iterates depend on the "
        "hash seed — use std::map or a sorted vector")


RNG_HOME = ("src/util/rng.hpp", "src/util/rng.cpp")
RNG_RE = re.compile(
    r"\bstd\s*::\s*(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
    r"random_device|ranlux\w+|knuth_b|subtract_with_carry_engine|"
    r"linear_congruential_engine|mersenne_twister_engine)\b")


def check_rng_discipline(tree: Tree) -> list[Finding]:
    return _scan_lines(
        tree, "rng-discipline", RNG_RE,
        lambda rel: rel.startswith("src/") and rel not in RNG_HOME,
        "std:: random engine outside src/util/rng: all randomness flows "
        "through ufc::Rng with an explicit seed so runs are reproducible")


# Keep only the statements at namespace scope (anything inside a brace block
# that is not a `namespace ... {` block is dropped), then look for variable
# declarations that are not const/constexpr.
_NS_OPEN_RE = re.compile(r"namespace\s+[\w:]*\s*(?:::\s*)?$|namespace\s*$")
_GLOBAL_DECL_RE = re.compile(
    r"^\s*(?:static\s+|inline\s+)*"
    r"(?!(?:const|constexpr|constinit|using|typedef|template|class|struct|"
    r"enum|namespace|friend|extern|static_assert|return|if|for|while|switch|"
    r"public|private|protected)\b)"
    r"[A-Za-z_][\w:<>,*&\s]*?[\s&*]([A-Za-z_]\w*)\s*(?:=[^=]|;|\{)")
_KEEP_QUALIFIERS_RE = re.compile(r"\b(?:const|constexpr|constinit)\b")


def _namespace_scope_statements(source: SourceFile) -> list[tuple[int, str]]:
    """(0-based line, statement) for each statement at namespace scope."""
    out: list[tuple[int, str]] = []
    scopes: list[str] = []  # "ns" or "other" per open brace
    pending = ""  # code since the last ; { or } — classifies the next '{'
    for lineno, code in enumerate(source.code_lines):
        at_ns_scope = all(kind == "ns" for kind in scopes)
        emitted = False
        for ch in code:
            if ch == "{":
                scopes.append("ns" if _NS_OPEN_RE.search(pending.strip())
                              else "other")
                pending = ""
            elif ch == "}":
                if scopes:
                    scopes.pop()
                pending = ""
            elif ch == ";":
                if at_ns_scope and not emitted and pending.strip():
                    out.append((lineno, pending + ";"))
                    emitted = True
                pending = ""
            else:
                pending += ch
    return out


def check_global_state(tree: Tree) -> list[Finding]:
    findings = []
    for source in tree.files.values():
        if layer_of(source.rel) not in SOLVER_LAYERS:
            continue
        for lineno, statement in _namespace_scope_statements(source):
            if _KEEP_QUALIFIERS_RE.search(statement):
                continue
            m = _GLOBAL_DECL_RE.match(statement)
            # A '(' before the declared name means a function declaration.
            if not m or "(" in statement[:m.start(1)]:
                continue
            if suppressed(source.lines, lineno, "global-state"):
                continue
            findings.append(Finding(
                source.rel, lineno + 1, "global-state",
                f"mutable namespace-scope state `{m.group(1)}` in a solver "
                "layer: hidden globals break the same-inputs-same-iterates "
                "contract (and race under the thread-pool passes) — make it "
                "const/constexpr, or thread it through explicit state"))
    return findings


EXCEPTION_RE = re.compile(r"\b(?:throw|try|catch)\b")


def check_step_exceptions(tree: Tree) -> list[Finding]:
    findings = []
    for source in tree.files.values():
        if not source.rel.endswith(".cpp"):
            continue
        for qualified, i in _hot_path_lines(source):
            if EXCEPTION_RE.search(source.code_lines[i]) and \
                    not suppressed(source.lines, i, "step-exceptions"):
                findings.append(Finding(
                    source.rel, i + 1, "step-exceptions",
                    f"exception machinery inside {qualified}: the iteration "
                    "hot loop must stay exception-free — guard at entry "
                    "points, recover through the SolverWatchdog"))
    return findings


# ---------------------------------------------------------------------------
# expects-reach: the call-graph-aware contract audit
# ---------------------------------------------------------------------------
GUARD_RE = re.compile(r"\bUFC_EXPECTS\b|\bUFC_ENSURES\b|[.>]\s*validate\s*\(")
CALL_RE = re.compile(r"(?:\b([A-Za-z_]\w*)\s*::\s*)?([A-Za-z_]\w*)\s*\(")
_CALL_KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof",
                  "static_cast", "const_cast", "reinterpret_cast", "catch",
                  "assert", "defined"}
_TYPE_TOKENS = ("void", "const", "int", "double", "float", "bool", "auto",
                "char", "size_t", "uint64_t", "int64_t", "uint32_t",
                "int32_t", "byte")
# A function name: an identifier, a destructor, or an operator
# (`operator+=`, `operator()`, `operator[]`). The operator alternative comes
# first so `operator()(` names `operator()`, not `operator`.
OPERATOR_NAME = r"operator\s*(?:\(\)|\[\]|[^\s\w()]+)"
FUNCTION_NAME = rf"{OPERATOR_NAME}|~?[A-Za-z_]\w*"
DEF_RE = re.compile(
    r"^(?!\s)(?:[\w:<>,*&\s]+?[\s&*])?"
    rf"(?:([A-Za-z_]\w*)\s*::\s*)?({FUNCTION_NAME})\s*\(",
    re.MULTILINE)


@dataclass
class Definition:
    rel: str
    name: str            # "method" or bare function name
    qualifier: str       # "Class" or "" for free functions
    start_line: int      # 1-based
    params: list[str]    # parameter names
    body: str            # from the parameter list's ')' to the closing '}'


def _parameter_names(signature: str) -> list[str]:
    """Parameter names of a definition's signature, which starts at the
    parameter list's '('. Unnamed parameters (`const SolveCore& /*core*/`)
    yield nothing: their last token is a CamelCase or builtin type name."""
    open_paren = signature.find("(")
    close_paren = _close_paren(signature, open_paren) if open_paren >= 0 \
        else None
    if close_paren is None:
        return []
    parts, part, depth = [], "", 0
    for ch in signature[open_paren + 1:close_paren]:
        if ch in "<([":
            depth += 1
        elif ch in ">)]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(part)
            part = ""
        else:
            part += ch
    parts.append(part)
    names = []
    for part in parts:
        tokens = re.findall(r"[A-Za-z_]\w*", part.split("=")[0])
        if tokens and tokens[-1] not in _TYPE_TOKENS and \
                not tokens[-1][0].isupper():
            names.append(tokens[-1])
    return names


def _definitions_in(source: SourceFile) -> list[Definition]:
    defs = []
    for m in DEF_RE.finditer(source.code):
        prefix = source.code[m.start():m.end()]
        if prefix.lstrip().startswith(("if", "for", "while", "switch",
                                       "return", "else")):
            continue
        span = _body_span(source.code, m.end() - 1)
        if span is None:
            continue
        signature = source.code[m.start():span[0]]
        if re.search(r"=\s*(?:default|delete|0)\s*[;,]", signature):
            continue
        # The searched "body" starts after the parameter list so that
        # constructor member-initializer lists (delegating constructors,
        # member construction from parameters) take part in the call scan.
        defs.append(Definition(
            rel=source.rel, name=m.group(2), qualifier=m.group(1) or "",
            start_line=source.line_of(m.start()) + 1,
            params=_parameter_names(source.code[m.end() - 1:span[0]]),
            body=source.code[_close_paren(source.code, m.end() - 1) + 1:
                             span[1]]))
    return defs


def _build_def_index(tree: Tree) -> dict[str, list[Definition]]:
    """Indexes every function definition in src/ .cpp files by
    "Class::name" and by the bare name."""
    index: dict[str, list[Definition]] = {}
    for source in tree.files.values():
        if not source.rel.startswith("src/") or not source.rel.endswith(".cpp"):
            continue
        for definition in _definitions_in(source):
            if definition.qualifier:
                index.setdefault(
                    f"{definition.qualifier}::{definition.name}",
                    []).append(definition)
            index.setdefault(definition.name, []).append(definition)
    return index


def _guard_reachable(definition: Definition,
                     index: dict[str, list[Definition]],
                     depth: int, visited: set[tuple[str, int]]) -> bool:
    if GUARD_RE.search(definition.body):
        return True
    key = (definition.rel, definition.start_line)
    if depth == 0 or key in visited:
        return False
    visited.add(key)
    params = set(definition.params)
    for m in CALL_RE.finditer(definition.body):
        qualifier, callee = m.group(1), m.group(2)
        if callee in _CALL_KEYWORDS or callee.isupper():
            continue  # keywords and macro invocations are not calls to follow
        # The call's argument list must mention one of this function's
        # parameters — otherwise the callee's guards say nothing about OUR
        # inputs. A member call on a parameter object also counts.
        close = _close_paren(definition.body, m.end() - 1)
        args = definition.body[m.end():close] if close else ""
        receiver = re.search(r"([A-Za-z_]\w*)\s*(?:\.|->)\s*$",
                             definition.body[max(0, m.start() - 40):m.start()])
        if not any(re.search(rf"\b{re.escape(p)}\b", args) for p in params) \
                and not (receiver and receiver.group(1) in params):
            continue
        candidates = None
        if qualifier:
            candidates = index.get(f"{qualifier}::{callee}")
        elif callee[0].isupper():
            # An unqualified CamelCase call is a constructor — delegating
            # constructors and members built from parameters resolve to
            # Class::Class.
            candidates = index.get(f"{callee}::{callee}")
        if not candidates:
            candidates = index.get(callee, [])
            # Bare-name resolution is only trusted when every definition of
            # that name agrees on having a direct guard.
            if len({(c.rel, c.start_line) for c in candidates}) > 1 and \
                    len({bool(GUARD_RE.search(c.body))
                         for c in candidates}) > 1:
                continue
        for candidate in candidates:
            if _guard_reachable(candidate, index, depth - 1, visited):
                return True
    return False


_ACCESS_LABEL_RE = re.compile(r"\s*(public|private|protected)\s*:(?!:)")
_NAMESPACE_OPEN_RE = re.compile(r'\s*(?:inline\s+)?namespace\b|\s*extern\s+"')
_CLASS_OPEN_RE = re.compile(
    r"\s*(?:template\s*<.*>\s*)?(class|struct|union)\s+([A-Za-z_]\w*)", re.S)
_NOT_A_FUNCTION = ("using ", "typedef ", "friend ", "template", "static_assert",
                   "enum ", "class ", "struct ", "union ", "namespace ")
FREE_DECL_RE = re.compile(
    rf"^[A-Za-z_][\w:<>,&*\s]*?\b({OPERATOR_NAME}|[a-z_]\w*)\s*\(")
METHOD_DECL_RE = re.compile(
    r"^(?:(?:virtual|static|explicit|inline|constexpr)\s+)*"
    rf"[\w:<>,*&\s]*?\b({FUNCTION_NAME})\s*\(")


def _public_entry_points(source: SourceFile) -> list[tuple[int, str, str]]:
    """(0-based declaration line, qualifier, name) of the entry points a
    header declares: free functions at namespace scope and the public member
    functions of its classes, each declaration however many lines it spans.
    Declarations without parameters, deleted, defaulted or pure ones, and
    destructors are not entry points."""
    # Preprocessor lines end no statement; blank them, keeping offsets.
    code = re.sub(r"(?m)^[ \t]*#.*$", lambda m: " " * len(m.group(0)),
                  source.code)
    entries: list[tuple[int, str, str]] = []
    scopes: list[list] = []  # per open brace: [kind, class name, public]
    begin, parens = 0, 0
    for i, ch in enumerate(code):
        if ch in "()":
            parens += 1 if ch == "(" else -1
        if ch not in "{};" or parens > 0:
            continue
        start, stmt = begin, code[begin:i]
        begin = i + 1
        while m := _ACCESS_LABEL_RE.match(stmt):  # labels prefix statements
            if scopes and scopes[-1][0] == "class":
                scopes[-1][2] = m.group(1) == "public"
            start += m.end()
            stmt = stmt[m.end():]
        if ch == "}":
            if scopes:
                scopes.pop()
            continue
        if ch == "{":
            m = _CLASS_OPEN_RE.match(stmt)
            if _NAMESPACE_OPEN_RE.match(stmt):
                scopes.append(["ns", "", False])
            elif m and "(" not in stmt:
                scopes.append(["class", m.group(2), m.group(1) != "class"])
            else:
                scopes.append(["other", "", False])
            continue
        decl = " ".join(re.sub(r"\[\[.*?\]\]", " ", stmt).split())
        if not decl or decl.startswith(_NOT_A_FUNCTION) or \
                re.search(r"=\s*(?:default|delete|0)$", decl):
            continue
        if not scopes or scopes[-1][0] == "ns":
            qualifier, m = "", FREE_DECL_RE.match(decl)
        elif scopes[-1][0] == "class" and scopes[-1][2]:
            qualifier, m = scopes[-1][1], METHOD_DECL_RE.match(decl)
        else:
            continue
        if m is None or m.group(1).startswith("~") or \
                re.search(rf"\b{re.escape(m.group(1))}\s*\(\s*\)", decl):
            continue
        offset = start + len(stmt) - len(stmt.lstrip())
        entries.append((source.line_of(offset), qualifier, m.group(1)))
    return entries


def _definitions_of(index: dict[str, list[Definition]], header_rel: str,
                    qualifier: str, name: str) -> list[Definition]:
    """Every out-of-line definition a header declaration can refer to: all
    overloads of a method; for a free function, the definitions in the
    header's own .cpp, else in its layer, else anywhere in src/."""
    if qualifier:
        return index.get(f"{qualifier}::{name}", [])
    free = [d for d in index.get(name, []) if not d.qualifier]
    sibling = header_rel[:-len(".hpp")] + ".cpp"
    for narrowed in ([d for d in free if d.rel == sibling],
                     [d for d in free
                      if layer_of(d.rel) == layer_of(header_rel)]):
        if narrowed:
            return narrowed
    return free


def check_expects_reach(tree: Tree) -> list[Finding]:
    index = _build_def_index(tree)
    findings = []
    audited: set[tuple[str, int]] = set()
    for source in tree.files.values():
        if layer_of(source.rel) not in SOLVER_LAYERS or \
                not source.rel.endswith(".hpp"):
            continue
        for decl_line, qualifier, name in _public_entry_points(source):
            for definition in _definitions_of(index, source.rel, qualifier,
                                              name):
                key = (definition.rel, definition.start_line)
                if key in audited or not definition.params:
                    continue
                audited.add(key)
                if _guard_reachable(definition, index, depth=3, visited=set()):
                    continue
                if suppressed(source.lines, decl_line, "expects-reach") or \
                        suppressed(tree.files[definition.rel].lines,
                                   definition.start_line - 1, "expects-reach"):
                    continue
                label = f"{qualifier}::{name}" if qualifier else name
                findings.append(Finding(
                    definition.rel, definition.start_line, "expects-reach",
                    f"public entry point `{label}` (declared in {source.rel}:"
                    f"{decl_line + 1}) never reaches a UFC_EXPECTS/validate() "
                    "guard through any call its parameters are passed into"))
    return findings


# ---------------------------------------------------------------------------
# Confinement of the OS surface and of the solver ingredients
# ---------------------------------------------------------------------------
# The two files allowed to touch the OS: the socket transport and the process
# supervisor. Everything else in src/ goes through their APIs.
NET_IO_HOME = ("src/net/socket_bus.cpp", "src/net/supervisor.cpp")
# Call-form matches only: `::poll(` / `poll(`, never `poll_pending(` (the \b
# plus the following `(` excludes identifiers that merely embed a name) and
# never `std::bind(` (the lookbehind rejects a qualified scope).
_OS_CALL_NAMES = (
    r"socketpair|socket|connect|bind|listen|accept4|accept|poll|fork|"
    r"exec[lv]p?e?|kill|waitpid|recvfrom|recvmsg|recv|sendto|sendmsg|"
    r"setsockopt|getsockopt|getsockname|getpeername|inet_pton|inet_ntop|"
    r"select|epoll_wait|epoll_create1?|sigaction")
OS_CALL_RE = re.compile(
    rf"(?<![\w.>:])(?:::\s*)?\b({_OS_CALL_NAMES})\s*\(")
# With every fd O_NONBLOCK, these are the only two calls that can park the
# process; each call site must live in a deadline-scoped function.
BLOCKING_CALL_RE = re.compile(r"(?<![\w.>:])(?:::\s*)?\b(poll|waitpid)\s*\(")
POLL_FOREVER_RE = re.compile(r"\bpoll\s*\([^;()]*(?:\([^()]*\)[^;()]*)*,\s*-1\s*\)")
# Tokens that may legally precede a genuine call expression. Any OTHER
# identifier before the name means a return type — i.e. the line declares a
# same-named function (Rng::fork, Widget::connect, ...), which is not an OS
# call.
_CALL_CONTEXT_KEYWORDS = {"return", "case", "throw", "else", "do", "goto",
                          "co_return", "co_await", "co_yield"}


def _declares_not_calls(code: str, match_start: int) -> bool:
    m = re.search(r"([A-Za-z_]\w*)$", code[:match_start].rstrip())
    return bool(m) and m.group(1) not in _CALL_CONTEXT_KEYWORDS


def _enclosing_params(source: SourceFile, offset: int) -> list[str] | None:
    """Parameter names of the function definition whose body contains
    `offset`, or None when the offset is outside every definition."""
    for m in DEF_RE.finditer(source.code):
        span = _body_span(source.code, m.end() - 1)
        if span is not None and span[0] <= offset < span[1]:
            return _parameter_names(source.code[m.end() - 1:span[0]])
    return None


def check_net_io_confinement(tree: Tree) -> list[Finding]:
    findings = []
    for source in tree.files.values():
        if not source.rel.startswith("src/"):
            continue
        confined = source.rel in NET_IO_HOME
        for i, code in enumerate(source.code_lines):
            if suppressed(source.lines, i, "net-io-confinement"):
                continue
            if not confined:
                m = OS_CALL_RE.search(code)
                if m and not _declares_not_calls(code, m.start()):
                    findings.append(Finding(
                        source.rel, i + 1, "net-io-confinement",
                        f"raw OS call `{m.group(1)}` outside the confined "
                        f"files {list(NET_IO_HOME)}: all socket and process "
                        "machinery flows through SocketBus/Supervisor so the "
                        "OS surface stays reviewable in one place"))
                continue
            if POLL_FOREVER_RE.search(code):
                findings.append(Finding(
                    source.rel, i + 1, "net-io-confinement",
                    "poll with an infinite timeout (-1): every socket wait "
                    "must be bounded by an explicit deadline — use "
                    "IoDeadline::remaining_ms()"))
                continue
            m = BLOCKING_CALL_RE.search(code)
            if m:
                line_offset = source.newlines[i - 1] + 1 if i else 0
                params = _enclosing_params(source, line_offset + m.start(1))
                if params is None or not any("deadline" in p for p in params):
                    findings.append(Finding(
                        source.rel, i + 1, "net-io-confinement",
                        f"blocking call `{m.group(1)}` in a function without "
                        "a deadline parameter: the no-call-blocks-forever "
                        "contract requires every potentially blocking wait "
                        "to be scoped by a caller-supplied deadline"))
    return findings


# Concrete solver-ingredient classes may be constructed directly only in the
# files that implement and register them; everything else composes through
# the registry factories by name, so every composition stays introspectable
# and an unknown name fails listing the registered alternatives.
INGREDIENT_HOMES = ("src/admm/ingredients.cpp", "src/admm/centralized.cpp")
INGREDIENT_CTOR_RE = re.compile(
    r"\b(?:new\s+|std\s*::\s*make_unique\s*<\s*)"
    r"([A-Z]\w*(?:Penalty|Acceleration|Method))\b")


def check_registry_confinement(tree: Tree) -> list[Finding]:
    return _scan_lines(
        tree, "registry-confinement", INGREDIENT_CTOR_RE,
        lambda rel: rel.startswith("src/") and rel not in INGREDIENT_HOMES,
        lambda m: f"direct construction of `{m.group(1)}` outside "
                  f"{list(INGREDIENT_HOMES)}: solver ingredients are composed "
                  "through the registry factories (penalty_registry / "
                  "acceleration_registry / centralized_registry), so every "
                  "composition is name-addressable and unknown names fail "
                  "listing the alternatives")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
RULES = {
    "pragma-once": (check_pragma_once, "headers must start with #pragma once"),
    "using-namespace-header": (check_using_namespace_header,
                               "no `using namespace` in headers"),
    "no-c-rand": (check_no_c_rand, "use ufc::Rng, not rand()/srand()"),
    "float-equal": (check_float_equal,
                    "no ==/!= on float literals outside tolerance helpers"),
    "bench-csv-name": (check_bench_csv_name,
                       "bench experiments write only ufc_*.csv"),
    "no-alloc-in-step": (check_no_alloc_in_step,
                         "no Mat/Vec construction in the ADM-G hot path or "
                         "the exact QP kernels"),
    "no-sort-in-hot-path": (check_no_sort_in_hot_path,
                            "no std::sort in src/admm, the projection fast "
                            "paths or the exact QP"),
    "finite-iterate-guard": (check_finite_iterate_guard,
                             "the engine iteration loop must consult "
                             "SolverWatchdog::observe"),
    "engine-single-loop": (check_engine_single_loop,
                           "GBS correction arithmetic only in "
                           "src/admm/engine.cpp"),
    "include-layering": (check_include_layering,
                         "src #include graph matches the declared layer DAG"),
    "include-cycle": (check_include_cycle,
                      "file-level include graph is acyclic"),
    "dangling-include": (check_dangling_include,
                         "every project include resolves to a file"),
    "wall-clock": (check_wall_clock,
                   "no raw clock reads outside obs + util/clock seam"),
    "no-wall-clock-in-ctrl-tick": (check_ctrl_wall_clock,
                                   "src/ctrl never reads a clock, not even "
                                   "the monotonic seam"),
    "ordered-containers": (check_ordered_containers,
                           "no unordered containers in admm/net"),
    "rng-discipline": (check_rng_discipline,
                       "std:: random engines only inside util/rng"),
    "global-state": (check_global_state,
                     "no mutable namespace-scope state in solver layers"),
    "step-exceptions": (check_step_exceptions,
                        "no try/catch/throw in the iteration hot path"),
    "expects-reach": (check_expects_reach,
                      "math/opt/admm/net entry points reach a UFC_EXPECTS "
                      "guard"),
    "net-io-confinement": (check_net_io_confinement,
                           "raw OS calls only in socket_bus/supervisor; "
                           "blocking waits deadline-scoped"),
    "registry-confinement": (check_registry_confinement,
                             "solver ingredients constructed only in their "
                             "registry homes"),
    "dot-stale": (check_dot_stale,
                  "committed docs layer graph matches the tree"),
}


def check(tree: Tree) -> list[Finding]:
    findings = []
    for fn, _ in RULES.values():
        findings.extend(fn(tree))
    return findings


def _within(rel: str, scopes: list[str]) -> bool:
    return any(rel == s or rel.startswith(s.rstrip("/") + "/") for s in scopes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", type=Path,
                        help="report only findings in these files or "
                             "directories (default: the whole tree)")
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="tree to check (default: the repository)")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="write the ufc-findings-v1 JSON report")
    parser.add_argument("--dot", type=Path, metavar="PATH",
                        help="write the observed layer graph as Graphviz dot")
    parser.add_argument("--check-dot", type=Path, metavar="PATH",
                        help="fail when PATH is stale w.r.t. the tree")
    parser.add_argument("--self-test", action="store_true",
                        help="run the checker's test suite")
    parser.add_argument("--list-rules", action="store_true",
                        help="list rules and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        from ufc_lint_selftest import run  # noqa: PLC0415
        return run()
    if args.list_rules:
        for rule, (_, summary) in RULES.items():
            print(f"{rule:26s} {summary}")
        return 0
    root = args.root.resolve()
    if not root.is_dir():
        print(f"ufc_lint: no such directory: {args.root}", file=sys.stderr)
        return EXIT_USAGE
    scopes = []
    for path in args.paths:
        if not path.exists():
            print(f"ufc_lint: no such file or directory: {path}",
                  file=sys.stderr)
            return EXIT_USAGE
        if not path.resolve().is_relative_to(root):
            print(f"ufc_lint: {path} is outside the checked tree ({root}); "
                  "rules are defined on tree-relative paths", file=sys.stderr)
            return EXIT_USAGE
        scopes.append(path.resolve().relative_to(root).as_posix())

    tree = build_tree(root, tuple(p.resolve() for p in args.paths),
                      dot_path=args.check_dot)
    findings = check(tree)
    checked = len(tree.files)
    if scopes:
        if args.check_dot is not None:  # dot-stale reports the dot's path
            scopes.append(str(args.check_dot))
        findings = [f for f in findings if _within(f.path, scopes)]
        checked = sum(_within(rel, scopes) for rel in tree.files)
    if args.dot is not None:
        args.dot.write_text(layer_graph_dot(tree))
    return report("ufc_lint", findings, checked=checked, json_path=args.json)


if __name__ == "__main__":
    sys.exit(main())
