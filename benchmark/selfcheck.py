"""Quick self-check of the benchmark's output contract.

Run from the repository root (about a minute):

    python3 benchmark/selfcheck.py

For every workload it runs one short untraced and one short traced
run and asserts that each run exits 0, passes its gates, and prints
every metric named in BENCHMARK.json, by name, with that metric's unit,
both in the report lines and in the final JSON line. It also checks
the trace health (top-level spans cover at least 90% of step time, no
backward span on evaluation) and that the benchmark refuses to run,
without printing a result, in a copy that holds only BENCHMARK.json and
the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
QUICK_SECONDS = "2"
REPORT_ONLY = {"pairs_per_s": "pairs/s", "step_ms_p50": "ms", "step_ms_p90": "ms",
               "reference_ms_p50": "ms", "fail_ratio": "failed/attempted",
               "loss_ratio": "last/first"}


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(str(HERE / "run.py"), "--workload", workload, "--seed", "7",
               "--seconds", QUICK_SECONDS, "--trace", str(trace))
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: not correct ({result['failed']} failed)")
    named = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in named}
    if set(result["metrics"]) != set(expected):
        problems.append(f"{where}: metrics {sorted(result['metrics'])} "
                        f"!= {sorted(expected)}")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts and parts[0] == "metric" and len(parts) == 4:
            printed[parts[1]] = (float(parts[2]), parts[3])
    wanted = dict(expected)
    if trace:     # a traced run also reports the untraced end-to-end figures
        wanted.update({m["name"]: m["unit"] for m in spec["end_to_end"]})
    wanted.update({k: u for k, u in REPORT_ONLY.items()
                   if k != "loss_ratio" or workload.startswith("train")})
    for name, unit in wanted.items():
        got = printed.get(name)
        if got is None or got[1] != unit or not math.isfinite(got[0]):
            problems.append(f"{where}: metric {name} printed as {got}, "
                            f"want a number in {unit}")
    for name, metric in result["metrics"].items():
        if metric.get("unit") != expected.get(name):
            problems.append(f"{where}: {name} has unit {metric.get('unit')}")
    if trace:
        values = {k: m["value"] for k, m in result["metrics"].items()}
        if values.get("unattributed_pct", 100.0) > 10.0:
            problems.append(f"{where}: spans cover under 90% of step time")
        if workload.startswith("eval") and values.get("tensor.backward.ms") != 0:
            problems.append(f"{where}: evaluation recorded backward time")
    return problems


def check_refuses_without_sources(spec: dict) -> list[str]:
    bare = ROOT / ".benchwork" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(*spec["command"][1:], "--workload", spec["workloads"][0]["name"],
                   "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["benchmark ran without the graphflow sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_refuses_without_sources(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    print("self-check passed" if not problems else
          f"self-check failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
