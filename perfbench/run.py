#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (the library sources under src/ plus ufc_perfbench) into
.bench_build/perfbench; later calls rebuild incrementally. ufc_perfbench's
summary is passed through. Its last line, the metrics it measured, is checked
against BENCHMARK.json, the one list of metrics, and printed as the JSON
result: every end-to-end (--trace 0) or per-layer (--trace 1) metric in the
order BENCHMARK.json gives them, a layer the workload does not use as 0.
Stamped result files and Chrome traces land in .bench_build/perfbench/results/.
"""
import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_week", "controller_week", "fleet_week")
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(command, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(command) + "\n")
        out.flush()
        return subprocess.run(command, stdout=out, stderr=subprocess.STDOUT).returncode


def build(root, build_dir):
    log = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").exists():
        command = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if run_logged(command, log) != 0:
            fail(f"configure failed; see {log}")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", str(build_dir), "-j", jobs], log) != 0:
        fail(f"build failed; see {log}")
    return build_dir / "ufc_perfbench"


def load_spec(root):
    try:
        with open(root / "BENCHMARK.json") as spec:
            return json.load(spec)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}", 2)


def run_program(command, root, results):
    """Runs ufc_perfbench in its own process group and returns (code, stdout).

    On timeout the whole group (the program and any fleet worker it forked)
    is killed; code is then None. This process is made a child subreaper, so
    workers orphaned by the kill are its children and are reaped here too.
    After a timeout or a crash, the fleet socket directories the program
    could not remove itself are removed.
    """
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # Not Linux: orphans go to init, which reaps them.
    process = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
        code = process.returncode
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        stdout, _ = process.communicate()
        code = None
        while True:
            try:
                os.waitpid(-1, 0)
            except ChildProcessError:
                break
    if code != 0:
        for leftover in (root / results).glob("fleet-*"):
            shutil.rmtree(leftover, ignore_errors=True)
    return code, stdout


def result_line(program_result, specs, required):
    """The contract's JSON line: `specs` in order, values from the program.

    A metric the program reports must be listed in `specs` with the same
    unit. A listed metric it does not report is an error when `required`,
    and otherwise (a layer the workload does not use) reads 0.
    """
    measured = program_result["metrics"]
    by_name = {spec["name"]: spec for spec in specs}
    for name, metric in measured.items():
        if name not in by_name:
            fail(f"metric {name} is not listed in BENCHMARK.json")
        if metric["unit"] != by_name[name]["unit"]:
            fail(f"metric {name} has unit {metric['unit']}, "
                 f"BENCHMARK.json says {by_name[name]['unit']}")
    metrics = {}
    for spec in specs:
        if spec["name"] in measured:
            value = measured[spec["name"]]["value"]
        elif required:
            fail(f"the workload did not report {spec['name']}")
        else:
            print(f"  {spec['name']} = n/a (layer not used by this workload; "
                  "reported as 0)")
            value = 0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    result = {key: program_result[key]
              for key in ("correct", "attempted", "failed")}
    result["metrics"] = metrics
    return json.dumps(result)


def git_sha(root):
    if not (root / ".git").exists():
        return "unknown"
    result = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {root / 'src'}; run from a full checkout", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    spec = load_spec(root)

    build_dir = root / ".bench_build" / "perfbench"
    binary = build(root, build_dir)
    # Relative paths keep the fleet's Unix socket path short.
    results = os.path.relpath(build_dir / "results", root)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--results", results, "--git-sha", git_sha(root)]
    code, stdout = run_program(command, root, results)
    if code != 0:
        print(stdout, end="", flush=True)
        if code is None:
            fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        fail(f"ufc_perfbench exited with code {code}", code if code > 0 else 1)
    lines = stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    traced = args.trace == "1"
    print(result_line(json.loads(lines[-1]),
                      spec["per_layer" if traced else "end_to_end"],
                      required=not traced))


if __name__ == "__main__":
    main()
