"""One measuring process of the ccpj benchmark.

    python3 bench/child.py SPEC.json --ready
        import ccpj.cli, read the workload's inputs, print "ready", exit
        (the parent times this as set-up);
    python3 bench/child.py SPEC.json --seconds S --trace 0|1 --result OUT.json
        run one warm-up pass, then passes over the job list for S seconds,
        checking every job's output, and write timings, checks, peak memory
        and (with --trace 1) per-layer metrics to OUT.json; with --trace 0
        also time set-up by starting the --ready form between passes.

With --trace 1, untraced and traced passes alternate, so the tracing
overhead is measured under the same conditions as the passes it slows.
End-to-end timings come from the untraced passes only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ccpj.cli  # noqa: E402  (set-up cost: numpy and every ccpj layer)
import numpy  # noqa: E402
from ccpj import beam, config, gait, params  # noqa: E402

from tracing import LayerTotals, Tracer  # noqa: E402
from workloads import TABLE_POINTS, check_cli_output  # noqa: E402

SETUP_STARTS = 9


def read_inputs(spec: dict):
    """What every invocation of the workload reads before it computes."""
    for path in spec["configs"]:
        config.build_scenario(config.load_config(path))
    for path in spec["datasets"]:
        ccpj.calibrate.Dataset.from_csv(Path(path).read_text())


def _digest_dir(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


class Runner:
    """Executes jobs and checks their outputs against the first pass."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.reference: dict[str, object] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.artifact_bytes = 0
        self.table = params.CalibrationTable.from_points(TABLE_POINTS)
        self.leg = params.BeamParams()
        self.robot = params.RobotParams()
        self._prev = None  # previous library job's result within a pass

    # -- job bodies (the timed part) ---------------------------------------
    def cli_job(self, job):
        return ccpj.cli.main(job["argv"])

    def library_job(self, job):
        kind = job["kind"]
        if kind == "equilibrium":
            flex = beam.FlexuralModel.from_current(job["current"], self.table, self.leg)
            initial = self._prev[0].shape if job["warm"] else None
            res = beam.equilibrium_shape(self.leg, flex, initial=initial)
            return res, beam.max_chord_deviation(res.shape, self.leg.bead_thickness)
        if kind == "bend":
            flex = beam.FlexuralModel.from_current(job["current"], self.table, self.leg)
            return beam.three_point_bend(self.leg, flex, job["indentation"])
        if kind == "static":
            return gait.static_load_check(job["current"], job["payload_g"] * 1e-3,
                                          self.robot, self.table)
        raise ValueError(f"unknown job kind {kind!r}")

    # -- checks (untimed) ----------------------------------------------------
    def _cli_problems(self, job, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}, expected 0"]
        out = Path(job["out"])
        digests = _digest_dir(out)
        self.artifact_bytes += sum(p.stat().st_size for p in out.iterdir() if p.is_file())
        ref = self.reference.setdefault(job["id"], digests)
        if digests != ref:
            return ["artifacts differ from the first pass"]
        return check_cli_output(job["check"], out)

    def _library_problems(self, job, result) -> list[str]:
        kind, check = job["kind"], job["check"]
        problems = []
        if kind == "equilibrium":
            res, sag = result
            key = (sag, res.iterations, res.shape.joint_angles)
            if not (math.isfinite(sag) and math.isfinite(res.energy)):
                problems.append("equilibrium not finite")
            if job["warm"] and sag > self._prev[1] + 1e-12:
                problems.append(f"sag {sag!r} grew with current")
            if "deployed" in check:
                deployed = beam.is_deployed(res.shape, self.leg)
                if deployed != check["deployed"]:
                    problems.append(f"deployed = {deployed} at {job['current']} A")
        elif kind == "bend":
            force = result
            key = force
            slope = force / job["indentation"]
            if not (math.isfinite(force) and force > 0.0):
                problems.append(f"bend force {force!r}")
            if "slope" in check:
                k_app, rel = check["slope"]
                if abs(slope - k_app) > rel * k_app:
                    problems.append(f"bend slope {slope:.4g} N/m vs table {k_app}")
        else:
            key = (result.stands, result.height_drop, result.front_leg_sink)
            if not math.isfinite(result.height_drop):
                problems.append("static drop not finite")
            if check["heavier_than_previous"] and \
                    result.height_drop < self._prev.height_drop:
                problems.append("drop shrank with a heavier payload")
        if self.reference.setdefault(job["id"], key) != key:
            problems.append("result differs from the first pass")
        return problems

    def run_job(self, job, tracer: Tracer | None) -> float:
        """Run, time and check one job; returns its wall time."""
        cli = job["kind"] == "cli"
        body = self.cli_job if cli else self.library_job
        if cli:
            out = Path(job["out"])
            out.mkdir(parents=True, exist_ok=True)
            for p in out.iterdir():
                p.unlink()
        self.attempted += 1
        result = None
        t0 = perf_counter()
        try:
            result = body(job) if tracer is None else tracer.root(job["id"], body, job)
            seconds = perf_counter() - t0
            problems = (self._cli_problems(job, result) if cli
                        else self._library_problems(job, result))
        except Exception as err:  # a job that raises is a failed job
            seconds = perf_counter() - t0
            problems = [f"{type(err).__name__}: {err}"]
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{job['id']}: {'; '.join(problems)}")
        if not cli:
            self._prev = result
        return seconds

    def run_pass(self, tracer: Tracer | None) -> tuple[float, list[float]]:
        self._prev = None
        times = [self.run_job(job, tracer) for job in self.spec["jobs"]]
        return sum(times), times


def time_setup(spec_path: Path) -> float:
    """Wall time from spawning a fresh interpreter until it reports ready."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, __file__, str(spec_path), "--ready"],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child exited {code} without getting ready")
    return t1 - t0


def measure(spec: dict, spec_path: Path, seconds: float, trace: bool) -> dict:
    """Warm up, then run passes for `seconds`.

    Untraced runs also time SETUP_STARTS fresh interpreters, spread evenly
    over the run, so set-up samples the same host conditions as the passes.
    """
    runner = Runner(spec)
    runner.run_pass(None)  # warm-up: fills caches, fixes reference outputs
    tracer = Tracer() if trace else None
    totals = LayerTotals("cli" if spec["jobs"][0]["kind"] == "cli" else "library")
    pass_s, job_s, setup_s = [], [], []
    start = perf_counter()
    deadline = start + seconds
    starts = 0 if trace else SETUP_STARTS
    k = 0
    while True:
        while len(setup_s) < starts and \
                perf_counter() >= start + len(setup_s) * seconds / starts:
            setup_s.append(time_setup(spec_path))
        if trace and k % 2 == 1:
            tracer.reset()
            tracer.install()
            runner.artifact_bytes = 0
            try:
                runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            totals.add_pass(tracer, runner.artifact_bytes)
        else:
            total, times = runner.run_pass(None)
            pass_s.append(total)
            job_s.extend(times)
        k += 1
        if perf_counter() >= deadline and k >= (2 if trace else 1):
            break
    while len(setup_s) < starts:
        setup_s.append(time_setup(spec_path))
    result = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "job_s": job_s,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if trace:
        result["layers"] = totals.metrics(pass_s)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("spec", type=Path)
    ap.add_argument("--ready", action="store_true")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    read_inputs(spec)
    if args.ready:
        print("ready", flush=True)
        return 0
    result = measure(spec, args.spec, args.seconds, bool(args.trace))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
