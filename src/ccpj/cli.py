"""Command-line interface.

Subcommands: simulate, sweep, calibrate, optimize, report. All artifacts
(CSV traces, SVG figures, text reports) are deterministic: no
timestamps, fixed formatting, so reruns of a shipped scenario are
byte-identical. Exit codes: 0 ok, else the error class's `exit_code`
(2 configuration, 3 simulation, 4 data).
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import calibrate as cal
from .config import (
    MASKS,
    SCHEMA,
    SCHEMA_VERSION,
    EffectiveConfig,
    build_scenario,
    load_config,
    write_config,
)
from .errors import CcpjError, ConfigError, InfeasibleConfinementError
from .gait import (
    Scenario,
    SimTrace,
    average_speeds,
    navigate_confined,
    run,
    sweep_period,
)
from .optimize import (
    SearchSpec,
    finest_tolerance,
    max_feasible_current,
    optimize_period,
    select_mask,
)
from .plotsvg import line_plot

EXIT_OK, EXIT_DATA = 0, 4


@dataclass
class RunReport:
    """What a command did: digest, headline metrics, artifact paths."""

    name: str
    digest: str
    metrics: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    error: str | None = None

    def render(self) -> str:
        lines = [f"name = {self.name}", f"digest = {self.digest}",
                 f"status = {'error' if self.error else 'ok'}"]
        if self.error:
            lines.append(f"error = {self.error}")
        for key, val in self.metrics.items():
            if isinstance(val, float):
                val = f"{val:.6g}"
            lines.append(f"{key} = {val}")
        for art in self.artifacts:
            lines.append(f"artifact = {art}")
        return "\n".join(lines) + "\n"


def _single_line(err: BaseException) -> str:
    return " ".join(str(err).split())


def _fail(code: int, err: BaseException) -> int:
    print(f"ccpj: error[{code}]: {type(err).__name__}: {_single_line(err)}",
          file=sys.stderr)
    return code


def _emit(args, text: str):
    if not args.quiet:
        print(text)


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:  # a file at or above the path, or no permission
        raise ConfigError(
            f"--out {out} is not a writable directory: {err.strerror or err}"
        ) from err
    return out


def _write(path: Path, text: str):
    """Write one artifact; an unwritable path is a bad --out, not a crash."""
    try:
        path.write_text(text)
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror or err}") from err


def _load(args) -> tuple[EffectiveConfig, Scenario]:
    if not args.config:
        raise ConfigError("--config is required for this command")
    cfg = load_config(args.config)
    sc = build_scenario(cfg)
    if getattr(args, "mask", None):
        sc = replace(sc, signal=replace(sc.signal, mask=MASKS[args.mask]))
    return cfg, sc


def _parse_range(spec: str | None, default: str) -> tuple[float, float, float]:
    text = spec if spec else default
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--range must be a:b:step, got {text!r}")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError as err:
        raise ConfigError(f"--range must be numeric a:b:step: {err}") from err
    if not all(math.isfinite(v) for v in (a, b, step)):
        raise ConfigError(f"--range must be finite, got {text!r}")
    return a, b, step


MAX_SWEEP_POINTS = 1000  # most values one --range may expand to


def _range_values(spec: str | None, default: str) -> list[float]:
    a, b, step = _parse_range(spec, default)
    if step <= 0.0 or b < a:
        raise ConfigError(
            f"empty sweep range {a}:{b}:{step} (need step > 0 and b >= a)")
    if (b - a) / step + 1.0 > MAX_SWEEP_POINTS:
        raise ConfigError(
            f"sweep range {a}:{b}:{step} has more than {MAX_SWEEP_POINTS} points")
    values = []
    k = 0
    while a + k * step <= b + step * 1e-9:
        if values and a + k * step <= values[-1]:
            # the step is below the float spacing: points repeat, or never end
            raise ConfigError(
                f"sweep range {a}:{b}:{step}: step {step} does not advance "
                f"past {values[-1]!r}")
        values.append(a + k * step)
        k += 1
    return values


def _run_scenario(scenario: Scenario) -> tuple[SimTrace, object | None]:
    if scenario.terrain.confined:
        return navigate_confined(scenario)
    return run(scenario), None


def _trace_metrics(trace: SimTrace, feas) -> dict:
    metrics = {
        "average_speed_mm_s": trace.average_speed * 1e3,
        "distance_mm": trace.displacement * 1e3,
        "duration_s": trace.duration,
        "peak_height_mm": np.max(trace.height) * 1e3,
        "feasible": "yes",
    }
    if feas is not None:
        metrics["mask"] = feas.mask_used
        metrics["min_gap_mm"] = feas.min_gap_m * 1e3
        metrics["all_legs_feasible"] = "yes" if feas.all_legs_feasible else "no"
    return metrics


def cmd_simulate(args) -> int:
    return _simulate(args, *_load(args))


def _simulate(args, cfg: EffectiveConfig, sc: Scenario) -> int:
    out = _outdir(args)
    try:
        trace, feas = _run_scenario(sc)
    except InfeasibleConfinementError as err:
        report = RunReport(name=cfg.name, digest=cfg.digest,
                           metrics={"feasible": "no"},
                           error=f"{type(err).__name__}: {_single_line(err)}")
        _write(out / f"{cfg.name}_report.txt", report.render())
        raise
    csv_name = f"{cfg.name}_trace.csv"
    _write(out / csv_name, trace.to_csv())
    svg_name = f"{cfg.name}_displacement.svg"
    _write(out / svg_name, line_plot(
        trace.t, trace.x * 1e3,
        xlabel="time (s)", ylabel="displacement (mm)",
        title=f"{cfg.name}: displacement vs time"))
    report = RunReport(name=cfg.name, digest=cfg.digest,
                       metrics=_trace_metrics(trace, feas),
                       artifacts=[csv_name, svg_name])
    text = report.render()
    _write(out / f"{cfg.name}_report.txt", text)
    _emit(args, text.rstrip())
    return EXIT_OK


# each sweepable parameter's CSV column and default --range
SWEEPABLE = {
    "period": ("period_s", "2:10:0.5"),
    "slope": ("slope_deg", "0:15:2.5"),
    "payload": ("payload_g", "0:5:1"),
    "current": ("current_a", "0.3:0.4:0.02"),
}


def _swept_speeds(param: str, values: list[float], sc: Scenario
                  ) -> list[float]:
    """Average speed of the scenario at each value of the swept parameter.

    A period sweep is sweep_period's. Otherwise each value is a variant of
    the scenario, validated as it is built, run at the scenario's own
    period, duration and dt by gait.average_speeds.
    """
    if param == "period":
        return [v for _, v in sweep_period(sc, values)]
    if param == "slope":
        variants = [replace(sc, terrain=replace(sc.terrain, slope=math.radians(v)))
                    for v in values]
    elif param == "payload":
        variants = [replace(sc, payload_mass=v * 1e-3) for v in values]
    else:  # current
        variants = [replace(sc, signal=replace(sc.signal, i_high=v)) for v in values]
    return average_speeds(variants)


def cmd_sweep(args) -> int:
    return _sweep(args, *_load(args))


def _sweep(args, cfg: EffectiveConfig, sc: Scenario) -> int:
    out = _outdir(args)
    col, default_range = SWEEPABLE[args.param]
    values = _range_values(args.range, default_range)
    speeds = _swept_speeds(args.param, values, sc)

    csv_name = f"{cfg.name}_sweep_{args.param}.csv"
    lines = [f"{col},speed_mm_s"]
    lines += [f"{v:.6g},{s * 1e3:.6f}" for v, s in zip(values, speeds)]
    _write(out / csv_name, "\n".join(lines) + "\n")

    marker = None
    k_best = max(range(len(values)), key=lambda i: speeds[i])
    if args.param == "period":
        marker = (values[k_best], speeds[k_best] * 1e3,
                  f"max at {values[k_best]:.6g} s")
    svg_name = f"{cfg.name}_sweep_{args.param}.svg"
    _write(out / svg_name, line_plot(
        values, [s * 1e3 for s in speeds],
        xlabel=col, ylabel="speed (mm/s)",
        title=f"{cfg.name}: speed vs {args.param}", marker=marker))

    report = RunReport(
        name=cfg.name, digest=cfg.digest,
        metrics={"sweep_param": args.param, "points": len(values),
                 f"best_{col}": values[k_best],
                 "best_speed_mm_s": speeds[k_best] * 1e3},
        artifacts=[csv_name, svg_name])
    text = report.render()
    _write(out / f"{cfg.name}_sweep_{args.param}_report.txt", text)
    _emit(args, text.rstrip())
    return EXIT_OK


def cmd_calibrate(args) -> int:
    out = _outdir(args)
    results = cal.run_calibration()
    table, act, slip = (r.model for r in results)

    points = " ".join(f"{c!r}:{k!r}" for c, k in
                      zip(table.currents, table.stiffnesses))
    write_config(out / "calibrated.config", {
        "meta": {"schema_version": str(SCHEMA_VERSION), "name": "calibrated"},
        "stiffness_table": {"points_a_n_m": points},
        **{section: {key: repr(getattr(model, name))
                     for key, (_, name) in SCHEMA[section].items()}
           for section, model in (("actuator", act), ("slip", slip))},
        "signal": {"period_s": "4.0"},
    })

    summary = "\n".join(r.summary() for r in results)
    _write(out / "calibration_report.txt", summary + "\n")
    _emit(args, summary)
    return EXIT_OK


def cmd_optimize(args) -> int:
    cfg, sc = _load(args)
    out = _outdir(args)
    if args.param == "period":
        lo, hi, tol = _parse_range(args.range, "2:10:0.05")
        spec = SearchSpec(lo=lo, hi=hi, tolerance=tol)
        if not tol > finest_tolerance(lo, hi):
            raise ConfigError(
                f"--range {lo}:{hi}:{tol}: resolution {tol} is within the float "
                f"spacing of the bracket; need more than {finest_tolerance(lo, hi)!r}")
        t_star, v_star = optimize_period(spec, sc)
        line = f"optimize_period: period_s={t_star:.6g}, speed_mm_s={v_star * 1e3:.6g}"
    elif args.param == "current":
        line = max_feasible_current(sc).summary()
    else:
        line = select_mask(sc).summary()
    report = RunReport(name=cfg.name, digest=cfg.digest, metrics={"result": line})
    _write(out / f"{cfg.name}_optimize_{args.param}_report.txt",
           report.render())
    _emit(args, line)
    return EXIT_OK


def cmd_report(args) -> int:
    """Full artifact bundle for a scenario: run + headline figures.

    The config is loaded once; the run and the period figure are the
    bytes `simulate` and `sweep --param period` write.
    """
    cfg, sc = _load(args)
    _simulate(args, cfg, sc)
    if not sc.terrain.confined:
        sweep_args = argparse.Namespace(**{**vars(args), "param": "period"})
        return _sweep(sweep_args, cfg, sc)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `ccpj` parser, built once and shared: `parse_args` does not change it."""
    parser = argparse.ArgumentParser(
        prog="ccpj",
        description="Simulate, calibrate, and optimize the tripod "
                    "bead-chain crawler.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", help="scenario config file")
            p.add_argument("--mask", choices=sorted(MASKS),
                           help="override the leg mask")
        p.add_argument("--out", default="ccpj_out",
                       help="artifact output directory (default: ccpj_out)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress informational output")
        # argparse takes a value that starts with "-" for an option unless
        # it is a plain number: let "--range -5:5:5" be a range
        p._negative_number_matcher = re.compile(r"-\.?\d")

    p = sub.add_parser("simulate", help="run one scenario")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="speed vs one swept parameter")
    common(p)
    p.add_argument("--param", required=True, choices=SWEEPABLE)
    p.add_argument("--range", help="a:b:step sweep range")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("calibrate",
                       help="fit model constants from the dataset directory "
                            "(CCPJ_DATA_DIR overrides the shipped data)")
    common(p, needs_config=False)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("optimize", help="search periods, currents, or masks")
    common(p)
    p.add_argument("--param", required=True, choices=("period", "current", "mask"))
    p.add_argument("--range", help="lo:hi:tolerance for period search")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("report", help="simulate plus headline figures")
    common(p)
    p.add_argument("--range", help="a:b:step for the period figure")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as err:  # a dataset file the loader cannot open
        return _fail(EXIT_DATA, err)
    except CcpjError as err:
        return _fail(err.exit_code, err)


if __name__ == "__main__":
    sys.exit(main())
