"""Smoke test of the benchmark itself, at minimal run length.

    python3 bench/smoke.py

Runs `bench/run.py --workload all --seconds 1 --trace 1` twice and one
single-workload run, then checks that:

- every metric BENCHMARK.json names is reported, finite, with its unit,
  and the single-workload run ends with the result line the contract asks;
- the exact counts repeat across the two traced runs;
- each workload's per-layer self times sum to its traced pass time;
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when every check passes and 1 otherwise.
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
sys.path.insert(0, str(HERE))
from tracing import EXACT_COUNTS, SELF_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def check_metrics(where: str, metrics: dict, declared: list[dict]) -> list[str]:
    problems = []
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{where}: {m['name']} missing")
        elif not (isinstance(got["value"], (int, float)) and math.isfinite(got["value"])):
            problems.append(f"{where}: {m['name']} = {got['value']!r} not finite")
        elif got["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got['unit']} != {m['unit']}")
    return problems


def run_all(tmp: Path, k: int) -> tuple[dict, list[str]]:
    out = tmp / f"all{k}.json"
    proc = subprocess.run([*RUN, "--workload", "all", "--seconds", "1", "--trace", "1",
                           "--out", str(out)], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0 or not out.exists():
        return {}, [f"run {k} of --workload all exited {proc.returncode}: "
                    f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    return json.loads(out.read_text()), []


def check_result_line() -> list[str]:
    proc = subprocess.run([*RUN, "--workload", "mechanics", "--seed", "3", "--seconds", "1",
                           "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"single run exited {proc.returncode}: {proc.stderr[-2000:]}"]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(last)}")
    if not (isinstance(last.get("attempted"), int) and last["attempted"] >= 1):
        problems.append("attempted is not a whole number >= 1")
    return problems


def check_bare_directory(tmp: Path) -> list[str]:
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([*RUN[:1], "bench/run.py", "--workload", "mechanics",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without ccpj sources the benchmark still ran or printed"]
    return []


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp = ROOT / ".bench_work" / "smoke"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    problems = []
    try:
        first, p1 = run_all(tmp, 1)
        second, p2 = run_all(tmp, 2)
        problems += p1 + p2
        for w in WORKLOADS if first and second else ():
            a = first["workloads"][w]
            b = second["workloads"][w]
            problems += check_metrics(f"{w} trace0", a["trace0"]["metrics"],
                                      declared["end_to_end"])
            problems += check_metrics(f"{w} trace1", a["trace1"]["metrics"],
                                      declared["per_layer"])
            layers_a, layers_b = a["trace1"]["metrics"], b["trace1"]["metrics"]
            for name in EXACT_COUNTS:
                if layers_a[name]["value"] != layers_b[name]["value"]:
                    problems.append(f"{w}: {name} {layers_a[name]['value']} != "
                                    f"{layers_b[name]['value']} across runs")
            self_sum = sum(layers_a[name]["value"] for name in SELF_METRICS)
            traced = layers_a["trace.pass_s"]["value"]
            if abs(self_sum - traced) > 1e-9 * max(traced, 1.0):
                problems.append(f"{w}: self times sum to {self_sum!r}, "
                                f"traced pass_s is {traced!r}")
        problems += check_result_line()
        problems += check_bare_directory(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for p in problems:
        print(f"smoke: FAIL {p}")
    print(f"smoke: {'FAILED' if problems else 'ok'} ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
