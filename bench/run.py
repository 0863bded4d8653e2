"""ccpj benchmark: end-to-end and per-layer metrics for four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as its last line, one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 1]
                         [--out FILE]

runs every workload (and, with --trace 1, a traced run of each), prints
every metric by name with its unit and sample count, optionally writes
them with the machine facts to FILE, and exits 1 when any job failed.

Each run generates the workload's inputs from the seed under
.bench_work/ in the checkout, then measures in one single-threaded child
process (bench/child.py), which also times set-up by starting fresh
interpreters one at a time between its passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "ccpj" / "data"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
from tracing import UNITS as LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS, make_inputs, write_spec  # noqa: E402

CHILD_TIMEOUT_S = 170.0

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "job_p90_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a job failing)."""


def child_env(spec: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CCPJ_DATA_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.update(spec["env"])
    return env


def run_child(spec_path: Path, env: dict, seconds: int, trace: int, result: Path) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), str(spec_path),
           "--seconds", str(seconds), "--trace", str(trace), "--result", str(result)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.DEVNULL)
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"measuring child exited {proc.returncode}")
    return json.loads(result.read_text())


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns the result object plus sample counts."""
    if not (SRC / "ccpj" / "__init__.py").exists():
        raise BenchError(f"no ccpj sources under {SRC}")
    work = WORK / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = make_inputs(workload, seed, DATA, work)
        spec_path = work / "spec.json"
        write_spec(spec, spec_path)
        env = child_env(spec)
        res = run_child(spec_path, env, seconds, trace, work / "result.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
        samples = {name: len(res["pass_s"]) for name in LAYER_UNITS}
    else:
        setup = res["setup_s"]
        values = {"setup_s": statistics.median(setup),
                  "pass_s": statistics.mean(res["pass_s"]),
                  "job_p90_s": p90(res["job_s"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
        samples = {"setup_s": len(setup), "pass_s": len(res["pass_s"]),
                   "job_p90_s": len(res["job_s"]), "peak_rss_mb": 1}
    return {"result": {"correct": res["failed"] == 0, "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics},
            "samples": samples, "failures": res["failures"],
            "python": res["python"], "numpy": res["numpy"]}


def print_run(workload: str, run: dict, file=sys.stdout):
    res = run["result"]
    ratio = res["failed"] / res["attempted"]
    print(f"{workload}: failed_ratio = {ratio:.6g} (1) "
          f"[{res['failed']}/{res['attempted']} jobs]", file=file)
    for name, m in res["metrics"].items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']} "
              f"[n={run['samples'][name]}]", file=file)
    for line in run["failures"]:
        print(f"{workload}: FAILED {line}", file=file)


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_all(args) -> int:
    runs = {}
    for workload in WORKLOADS:
        for trace in sorted({0, args.trace}):
            run = run_workload(workload, args.seed, args.seconds, trace)
            runs[f"{workload}/trace{trace}"] = run
            print_run(workload, run)
    failed = sum(r["result"]["failed"] for r in runs.values())
    if args.out:
        first = next(iter(runs.values()))
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        record = {
            "machine": {"nproc": os.cpu_count(), "python": first["python"],
                        "numpy": first["numpy"], "platform": platform.platform(),
                        "git_sha": git_sha()},
            "settings": {"seed": args.seed, "seconds": args.seconds},
            "workloads": {
                w: {"why": why, **{f"trace{t}": {
                    "attempted": runs[f"{w}/trace{t}"]["result"]["attempted"],
                    "failed": runs[f"{w}/trace{t}"]["result"]["failed"],
                    "metrics": {n: {**m, "n": runs[f"{w}/trace{t}"]["samples"][n]}
                                for n, m in runs[f"{w}/trace{t}"]["result"]["metrics"].items()}}
                    for t in sorted({0, args.trace})}}
                for w, why in ((d["name"], d["why"]) for d in declared["workloads"])},
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ccpj benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="with --workload all: write the metrics here")
    args = ap.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        run = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as err:
        print(f"bench: error: {err}", file=sys.stderr)
        return 2
    print_run(args.workload, run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
