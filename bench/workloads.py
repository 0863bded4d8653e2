"""The benchmark's workloads: generated inputs, job lists and output checks.

Seed 0 reproduces the shipped inputs exactly. Any other seed draws new
scenario files and arguments from the shipped ranges (period 3-5 s, slope
0-15 deg, payload 0-5 g, gate gaps between the 20 mm and 40 mm gates,
currents 0-0.4 A) and jitters the calibration datasets within a quarter of
their stated uncertainty. Each generated input keeps the work of its
seed-0 counterpart: the same number of steps per run, sweep points and
search evaluations, so the seed changes what a job computes, not how much.

This module uses the standard library only; the child process imports
ccpj.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from pathlib import Path

WORKLOADS = ("scenarios", "gait_search", "calibrate", "mechanics")

SCENARIO_FILES = {
    "flat": "flat_ratchet_T4",
    "slope": "slope_15",
    "payload": "payload_5g",
    "gate_wide": "gate_40mm",
    "gate_narrow": "gate_20mm",
    "tunnel": "tunnel_40x20",
}

# Average speed (mm/s) of each shipped scenario and the tolerance the
# repository's tests hold it to.
SHIPPED_SPEED = {
    "flat": (8.2812, 1e-4),
    "slope": (2.398397, 1e-5),
    "payload": (0.339454, 1e-5),
    "gate_wide": (1.775359, 1e-5),
    "gate_narrow": (0.241047, 1e-5),
    "tunnel": (0.241047, 1e-5),
}

# Calibrated constants from the shipped datasets, printed to 6 digits.
SHIPPED_CALIBRATION = {"tau_heat_s": 1.26934, "tau_cool_s": 0.571002,
                       "eta0": 0.764839}

TABLE_POINTS = ((0.00, 1.1), (0.05, 1.5), (0.10, 2.4), (0.15, 4.2),
                (0.20, 7.9), (0.25, 14.6), (0.30, 26.0), (0.35, 42.0),
                (0.40, 59.1))
DEPLOY_CURRENTS = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.32, 0.35, 0.40)
STATIC_CURRENTS = (0.1, 0.2, 0.3, 0.4)
STATIC_PAYLOADS_G = (0.0, 5.0, 20.0)
BEND_INDENTATION_M = 2e-3

DATASETS = ("stiffness_vs_current", "speed_vs_period", "operating_points")
# Relative-uncertainty fraction by which generated datasets are jittered.
JITTER_SHARE = 0.25


def _scenario_text(name: str, sections: dict) -> str:
    lines = ["[meta]", "schema_version = 1", f"name = {name}", ""]
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {val}" for key, val in values.items()]
        lines.append("")
    return "\n".join(lines)


def _timed_run(period: float, cycles: float) -> dict:
    """duration and dt that keep a run at 100 steps per cycle."""
    return {"duration_s": f"{cycles * period:.4f}", "dt_s": f"{period / 100:.4f}"}


def _generated_scenarios(rng: random.Random) -> dict[str, str]:
    """Scenario texts by kind; shapes and step counts match the shipped set."""
    def period():
        return round(rng.uniform(3.0, 5.0), 2)

    t_flat, t_slope, t_payload = period(), period(), period()
    slope = round(rng.uniform(0.0, 15.0), 2)
    payload = round(rng.uniform(0.0, 5.0), 2)
    # all legs pass above 23.1 mm at T = 4 s, so the wide gate stays
    # all-legs and the narrow gate and tunnel stay front-only
    gap_wide = round(rng.uniform(30.0, 40.0), 1)
    gap_narrow = round(rng.uniform(20.0, 22.0), 2)
    gap_tunnel = round(rng.uniform(20.0, 22.0), 2)
    return {
        "flat": _scenario_text("flat", {
            "signal": {"period_s": t_flat}, "run": _timed_run(t_flat, 6.15)}),
        "slope": _scenario_text("slope", {
            "signal": {"period_s": t_slope}, "terrain": {"slope_deg": slope},
            "run": _timed_run(t_slope, 15)}),
        "payload": _scenario_text("payload", {
            "signal": {"period_s": t_payload},
            "run": {"payload_g": payload, **_timed_run(t_payload, 10)}}),
        "gate_wide": _scenario_text("gate_wide", {
            "signal": {"period_s": 4.0, "i_high_a": 0.38},
            "terrain": {"ceiling_region_mm": f"10:110:{gap_wide}"},
            "run": {"duration_s": 60.0}}),
        "gate_narrow": _scenario_text("gate_narrow", {
            "signal": {"period_s": 4.0, "mask": "front_only"},
            "terrain": {"ceiling_region_mm": f"10:110:{gap_narrow}"},
            "run": {"duration_s": 60.0}}),
        "tunnel": _scenario_text("tunnel", {
            "signal": {"period_s": 4.0, "mask": "front_only"},
            "terrain": {"ceiling_region_mm": f"10:110:{gap_tunnel}",
                        "tunnel_width_mm": 40.0},
            "run": {"duration_s": 60.0}}),
    }


def _write_scenarios(seed: int, data: Path, inputs: Path) -> dict[str, str]:
    """Write the six scenario inputs; returns kind -> path."""
    inputs.mkdir(parents=True, exist_ok=True)
    paths = {}
    if seed == 0:
        for kind, name in SCENARIO_FILES.items():
            dst = inputs / f"{name}.scenario"
            shutil.copyfile(data / "scenarios" / f"{name}.scenario", dst)
            paths[kind] = str(dst)
        return paths
    texts = _generated_scenarios(random.Random(seed))
    for kind, text in texts.items():
        dst = inputs / f"{kind}.scenario"
        dst.write_text(text, encoding="utf-8")
        paths[kind] = str(dst)
    return paths


def _jitter_dataset(text: str, rng: random.Random) -> str:
    """Scale the last column of a dataset CSV within its uncertainty."""
    lines = text.splitlines()
    unc = next(float(l.split(":", 1)[1]) for l in lines
               if l.startswith("# uncertainty:"))
    out = []
    header_seen = False
    for line in lines:
        if line.startswith("#"):
            out.append(line)
        elif not header_seen:
            header_seen = True
            out.append(line)
        else:
            *keep, last = line.split(",")
            scale = 1.0 + rng.uniform(-1.0, 1.0) * JITTER_SHARE * unc
            out.append(",".join([*keep, f"{float(last) * scale:.6g}"]))
    return "\n".join(out) + "\n"


def _cli_job(job_id: str, argv: list[str], out: Path, check: dict) -> dict:
    return {"id": job_id, "kind": "cli", "out": str(out),
            "argv": [*argv, "--out", str(out), "--quiet"], "check": check}


def _scenarios_jobs(seed, paths, out):
    jobs = []
    for kind in SCENARIO_FILES:
        name = Path(paths[kind]).stem
        check = {"type": "simulate", "report": f"{name}_report.txt"}
        if seed == 0:
            check["speed"] = SHIPPED_SPEED[kind]
        jobs.append(_cli_job(f"simulate.{kind}", ["simulate", "--config", paths[kind]],
                             out / kind, check))
    return jobs


def _gait_search_jobs(seed, paths, out):
    rng = random.Random(f"{seed}:search")
    if seed == 0:
        period_lo, current_lo = 2.0, 0.3
    else:
        period_lo = round(rng.uniform(1.5, 2.5), 1)
        current_lo = rng.randrange(20, 31) / 100
    period_range = f"{period_lo:g}:{period_lo + 8:g}"

    def sweep(param, kind, rng_arg, check):
        name = Path(paths[kind]).stem
        check = {"type": "sweep", "csv": f"{name}_sweep_{param}.csv", **check}
        return _cli_job(f"sweep.{param}", ["sweep", "--config", paths[kind],
                        "--param", param, "--range", rng_arg], out / f"sweep_{param}",
                        check)

    def optimize(param, kind, extra, check):
        name = Path(paths[kind]).stem
        check = {"type": "optimize", "param": param,
                 "report": f"{name}_optimize_{param}_report.txt", **check}
        return _cli_job(f"optimize.{param}", ["optimize", "--config", paths[kind],
                        "--param", param, *extra], out / f"optimize_{param}", check)

    shipped = seed == 0
    return [
        sweep("period", "flat", f"{period_range}:0.5",
              {"peak_in": [3.5, 4.5]} if shipped else {}),
        sweep("current", "flat", f"{current_lo:.2f}:{current_lo + 0.1:.2f}:0.02",
              {"last_speed": SHIPPED_SPEED["flat"][0], "tol": 1e-3} if shipped else {}),
        sweep("payload", "payload", "0:5:1",
              {"last_speed": SHIPPED_SPEED["payload"][0], "tol": 1e-5,
               "decreasing": True} if shipped else {}),
        optimize("period", "flat", ["--range", f"{period_range}:0.05"],
                 {"period_in": [3.5, 4.5]} if shipped else {}),
        optimize("mask", "gate_narrow", [],
                 {"mask": "front_only", "speed": SHIPPED_SPEED["gate_narrow"]}
                 if shipped else {}),
        optimize("current", "gate_wide", [],
                 {"current_max": 0.38 + 1e-9, "current_near": [0.38, 0.03]}
                 if shipped else {}),
    ]


def _mechanics_jobs(seed):
    rng = random.Random(f"{seed}:mechanics")
    if seed == 0:
        deploy = DEPLOY_CURRENTS
        static_currents, payloads = STATIC_CURRENTS, STATIC_PAYLOADS_G
    else:
        inner = [c + rng.uniform(-0.01, 0.01) for c in DEPLOY_CURRENTS[1:-1]]
        deploy = (0.0, *sorted(round(c, 4) for c in inner), 0.4)
        static_currents = tuple(round(min(0.4, c + rng.uniform(-0.02, 0.02)), 4)
                                for c in STATIC_CURRENTS)
        payloads = (0.0, round(rng.uniform(2.0, 8.0), 2),
                    round(rng.uniform(15.0, 25.0), 2))
    jobs = []
    for k, current in enumerate(deploy):
        check = {}
        if seed == 0 and current == 0.0:
            check["deployed"] = False
        if seed == 0 and current in (0.32, 0.40):
            check["deployed"] = True
        jobs.append({"id": f"equilibrium.{k}", "kind": "equilibrium",
                     "current": current, "warm": k > 0, "check": check})
    # The bend test is criterion 3's readout: 2 mm on every table point, the
    # same for every seed (at other depths the solver can miss its gradient
    # tolerance on the softest points; see bench/README.md).
    for current, k_app in TABLE_POINTS:
        jobs.append({"id": f"bend.{current:g}", "kind": "bend", "current": current,
                     "indentation": BEND_INDENTATION_M, "check": {"slope": [k_app, 0.05]}})
    for current in static_currents:
        for j, payload in enumerate(payloads):
            jobs.append({"id": f"static.{current:g}.{payload:g}", "kind": "static",
                         "current": current, "payload_g": payload,
                         "check": {"heavier_than_previous": j > 0}})
    return jobs


def make_inputs(workload: str, seed: int, data: Path, work: Path) -> dict:
    """Generate the workload's inputs under `work`; returns the run spec."""
    inputs, out = work / "inputs", work / "out"
    spec = {"workload": workload, "seed": seed, "env": {}, "configs": [],
            "datasets": [], "jobs": []}
    if workload in ("scenarios", "gait_search"):
        paths = _write_scenarios(seed, data, inputs)
        make = _scenarios_jobs if workload == "scenarios" else _gait_search_jobs
        spec["jobs"] = make(seed, paths, out)
        used = {a for job in spec["jobs"] for a in job["argv"] if a.endswith(".scenario")}
        spec["configs"] = sorted(used)
    elif workload == "calibrate":
        directory = data
        if seed != 0:
            rng = random.Random(f"{seed}:datasets")
            directory = inputs / "data"
            directory.mkdir(parents=True)
            shutil.copyfile(data / "tripodbot.default", directory / "tripodbot.default")
            for name in DATASETS:
                text = (data / f"{name}.csv").read_text(encoding="utf-8")
                (directory / f"{name}.csv").write_text(
                    _jitter_dataset(text, rng), encoding="utf-8")
            spec["env"]["CCPJ_DATA_DIR"] = str(directory)
        spec["datasets"] = [str(directory / f"{n}.csv") for n in DATASETS]
        check = {"type": "calibrate"}
        if seed == 0:
            check["constants"] = SHIPPED_CALIBRATION
        spec["jobs"] = [_cli_job("calibrate", ["calibrate"], out / "calibrate", check)]
    else:
        spec["jobs"] = _mechanics_jobs(seed)
    return spec


def write_spec(spec: dict, path: Path):
    path.write_text(json.dumps(spec, indent=1), encoding="utf-8")


# -- output checks ------------------------------------------------------------
# Each check returns a list of problems; an empty list means the job's output
# is correct. They read only the files the job wrote (CLI) or its result.

def _report_values(text: str) -> dict[str, str]:
    values = {}
    for line in text.splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            values[key.strip()] = val.strip()
    return values


def _inline_values(text: str) -> dict[str, str]:
    """key=value pairs from a one-line summary like 'a=1, b=2; c=3'."""
    values = {}
    for part in text.replace(";", ",").replace(":", ",").split(","):
        key, sep, val = part.partition("=")
        if sep:
            values[key.strip()] = val.strip()
    return values


def _finite(values: dict[str, str], keys) -> list[str]:
    problems = []
    for key in keys:
        try:
            if not math.isfinite(float(values[key])):
                problems.append(f"{key} = {values[key]} is not finite")
        except (KeyError, ValueError):
            problems.append(f"{key} missing or not a number")
    return problems


def _near(name, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{name} = {got!r}, expected {want!r} +- {tol:g}"]


def check_cli_output(check: dict, out: Path) -> list[str]:
    kind = check["type"]
    if kind == "simulate":
        values = _report_values((out / check["report"]).read_text())
        problems = [] if values.get("status") == "ok" else ["status is not ok"]
        problems += _finite(values, ["average_speed_mm_s", "distance_mm"])
        if "speed" in check and not problems:
            want, tol = check["speed"]
            problems += _near("average_speed_mm_s",
                              float(values["average_speed_mm_s"]), want, tol)
        return problems
    if kind == "sweep":
        rows = (out / check["csv"]).read_text().splitlines()[1:]
        pairs = [tuple(float(v) for v in row.split(",")) for row in rows]
        if not pairs or not all(math.isfinite(v) for p in pairs for v in p):
            return ["sweep CSV empty or not finite"]
        speeds = [s for _, s in pairs]
        problems = []
        if "peak_in" in check:
            lo, hi = check["peak_in"]
            best = max(pairs, key=lambda p: p[1])[0]
            if not lo <= best <= hi:
                problems.append(f"sweep peak at {best} outside [{lo}, {hi}]")
        if "last_speed" in check:
            problems += _near("last sweep speed", speeds[-1],
                              check["last_speed"], check["tol"])
        if check.get("decreasing") and not all(b < a for a, b in zip(speeds, speeds[1:])):
            problems.append("sweep speeds not strictly decreasing")
        return problems
    if kind == "optimize":
        result = _report_values((out / check["report"]).read_text()).get("result", "")
        values = _inline_values(result)
        param = check["param"]
        if param == "period":
            problems = _finite(values, ["period_s", "speed_mm_s"])
            if "period_in" in check and not problems:
                lo, hi = check["period_in"]
                if not lo <= float(values["period_s"]) <= hi:
                    problems.append(f"optimal period {values['period_s']} "
                                    f"outside [{lo}, {hi}]")
            return problems
        if param == "mask":
            problems = _finite(values, ["transit_s", "speed_mm_s"])
            if "mask" in check and values.get("mask") != check["mask"]:
                problems.append(f"mask {values.get('mask')} != {check['mask']}")
            if "speed" in check and not problems:
                want, tol = check["speed"]
                problems += _near("mask speed_mm_s", float(values["speed_mm_s"]),
                                  want, tol)
            return problems
        problems = _finite(values, ["current_a", "height_mm"])
        if "current_max" in check and not problems:
            current = float(values["current_a"])
            want, tol = check["current_near"]
            if current > check["current_max"]:
                problems.append(f"current {current} above {check['current_max']}")
            problems += _near("current_a", current, want, tol)
        return problems
    if kind == "calibrate":
        values = _report_values((out / "calibrated.config").read_text())
        keys = ["tau_heat_s", "tau_cool_s", "eta0", "c_slope", "c_load"]
        problems = _finite(values, keys)
        for key, want in check.get("constants", {}).items():
            if not problems:
                problems += _near(key, float(values[key]), want, 1e-5 * abs(want))
        return problems
    raise ValueError(f"unknown check {kind!r}")
