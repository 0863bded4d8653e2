"""End-to-end CLI runs, in process via main(argv)."""

import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ccpj.cli import main
from ccpj.config import (
    MASKS,
    SCHEMA,
    build_scenario,
    default_config_path,
    load_config,
)

FLAT_DIGEST = "bfea5bc0a3bea5519f7e2e1d66f1651c2968a291fdc3dfe996ee734f3937809e"


@pytest.fixture(autouse=True)
def _shipped_data(monkeypatch):
    monkeypatch.delenv("CCPJ_DATA_DIR", raising=False)


def report_metric(text: str, key: str) -> float:
    m = re.search(rf"^{key} = (.+)$", text, re.M)
    assert m, f"{key} not in report:\n{text}"
    return float(m.group(1))


class TestSimulate:
    def test_flat_artifacts_and_report(self, tmp_path, scenario_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(scenario_path("flat_ratchet_T4")),
                     "--out", str(out)])
        assert code == 0
        csv = out / "flat_ratchet_T4_trace.csv"
        svg = out / "flat_ratchet_T4_displacement.svg"
        rpt = out / "flat_ratchet_T4_report.txt"
        assert csv.exists() and svg.exists() and rpt.exists()
        text = rpt.read_text()
        assert "name = flat_ratchet_T4" in text
        assert f"digest = {FLAT_DIGEST}" in text
        assert "status = ok" in text
        assert report_metric(text, "average_speed_mm_s") == pytest.approx(
            8.2812, abs=1e-3)
        assert report_metric(text, "distance_mm") == pytest.approx(
            203.718, abs=1e-2)
        assert report_metric(text, "duration_s") == 24.6
        assert "artifact = flat_ratchet_T4_trace.csv" in text
        assert csv.read_text().startswith("t_s,x_mm,")
        assert svg.read_text().endswith("</svg>\n")
        assert "average_speed_mm_s" in capsys.readouterr().out

    def test_rerun_byte_identical(self, tmp_path, scenario_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["simulate", "--config",
                         str(scenario_path("flat_ratchet_T4")),
                         "--out", str(out), "--quiet"]) == 0
            outs.append(out)
        for name in ("flat_ratchet_T4_trace.csv",
                     "flat_ratchet_T4_displacement.svg",
                     "flat_ratchet_T4_report.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_quiet(self, tmp_path, scenario_path, capsys):
        assert main(["simulate", "--config", str(scenario_path("payload_5g")),
                     "--out", str(tmp_path), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_missing_config_flag(self, tmp_path, capsys):
        code = main(["simulate", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("ccpj: error[2]: ConfigError:")

    def test_nonexistent_config(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.config"),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_missing_period(self, tmp_path, capsys):
        cfg = tmp_path / "noperiod.config"
        cfg.write_text("[meta]\nname = noperiod\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert "period_s" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "typo.config"
        cfg.write_text("[signal]\nperiod = 4\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error[2]" in err and "period_s" in err

    @pytest.mark.parametrize("section, key, value", [
        ("signal", "period_s", "nan"),
        ("run", "payload_g", "nan"),
        ("run", "slip_noise", "nan"),
        ("run", "duration_s", "nan"),
        ("run", "duration_s", "inf"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "bad.config"
        period = "" if key == "period_s" else "[signal]\nperiod_s = 4\n"
        cfg.write_text(f"{period}[{section}]\n{key} = {value}\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ccpj: error[2]: ConfigError:") and key in err
        # the shipped default keeps its meaningful infinity
        assert load_config(default_config_path()).get(
            "terrain", "mu_backward") == math.inf

    @pytest.mark.parametrize("section, key", [("robot", "n_legs"),
                                              ("terrain", "tooth_height_mm")])
    def test_removed_key_is_unknown(self, tmp_path, capsys, section, key):
        cfg = tmp_path / "old.config"
        cfg.write_text(f"[signal]\nperiod_s = 4\n[{section}]\n{key} = 3\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ccpj: error[2]: ConfigError:")
        assert f"unknown key {key!r} in [{section}]" in err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        # the noise generator would otherwise fail mid-run with a traceback
        cfg = tmp_path / "seed.config"
        cfg.write_text("[signal]\nperiod_s = 4\n[run]\nseed = -1\nslip_noise = 0.1\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ccpj: error[2]: OutOfRangeError: seed=-1")

    @pytest.mark.parametrize("section, key, value", [
        ("terrain", "pitch_mm", "1e-320"),  # lattice index overflows
        ("run", "slip_noise", "1e308"),  # noise factor overflows
        ("meta", "name", "a\0b"),
        ("meta", "name", "../escaped"),
    ])
    def test_overflowing_or_unsafe_value_rejected(self, tmp_path, capsys,
                                                  section, key, value):
        cfg = tmp_path / "bad.config"
        run = "" if section == "run" else "[run]\n"
        cfg.write_text(f"[signal]\nperiod_s = 4\n[{section}]\n{key} = {value}\n"
                       f"{run}seed = 1\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("ccpj: error[2]: ")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.config"]

    def test_step_cap_rejected(self, tmp_path, capsys):
        # 2.5e13 steps: refused when the scenario is built, never run
        cfg = tmp_path / "long.config"
        cfg.write_text("[signal]\nperiod_s = 4\n[run]\nduration_s = 1e12\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ccpj: error[2]: ValidationError:") and "cap" in err

    def test_infeasible_mask_override(self, tmp_path, scenario_path, capsys):
        # tunnel_40x20 ships front_only; forcing both groups exceeds the width
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(scenario_path("tunnel_40x20")),
                     "--mask", "all", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("ccpj: error[3]: InfeasibleConfinementError:")
        text = (out / "tunnel_40x20_report.txt").read_text()
        assert "status = error" in text
        assert "feasible = no" in text

    def test_no_subcommand_and_help(self, capsys):
        assert main([]) == 2
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestSweep:
    def test_payload_monotone_csv(self, tmp_path, scenario_path):
        out = tmp_path / "out"
        assert main(["sweep", "--param", "payload", "--range", "0:5:1",
                     "--config", str(scenario_path("flat_ratchet_T4")),
                     "--out", str(out), "--quiet"]) == 0
        lines = (out / "flat_ratchet_T4_sweep_payload.csv").read_text().splitlines()
        assert lines[0] == "payload_g,speed_mm_s"
        assert len(lines) == 7
        speeds = [float(row.split(",")[1]) for row in lines[1:]]
        assert speeds[0] == pytest.approx(8.2812, abs=1e-3)
        assert speeds[-1] == pytest.approx(0.330820, abs=1e-3)
        assert all(b < a for a, b in zip(speeds, speeds[1:]))

    def test_period_sweep_marks_peak(self, tmp_path, scenario_path):
        out = tmp_path / "out"
        assert main(["sweep", "--param", "period", "--range", "3:5:1",
                     "--config", str(scenario_path("flat_ratchet_T4")),
                     "--out", str(out), "--quiet"]) == 0
        svg = (out / "flat_ratchet_T4_sweep_period.svg").read_text()
        assert "max at 4 s" in svg
        rpt = (out / "flat_ratchet_T4_sweep_period_report.txt").read_text()
        assert report_metric(rpt, "best_period_s") == 4.0
        lines = (out / "flat_ratchet_T4_sweep_period.csv").read_text().splitlines()
        assert lines[0] == "period_s,speed_mm_s" and len(lines) == 4

    def test_empty_range(self, tmp_path, scenario_path, capsys):
        assert main(["sweep", "--param", "period", "--range", "5:2:1",
                     "--config", str(scenario_path("flat_ratchet_T4")),
                     "--out", str(tmp_path)]) == 2
        assert "empty sweep range" in capsys.readouterr().err

    @pytest.mark.parametrize("command, spec, message", [
        ("sweep", "nan:5:1", "finite"),
        ("sweep", "3:inf:1", "finite"),
        ("sweep", "3:5:-inf", "finite"),
        ("optimize", "3:5:nan", "finite"),
        ("sweep", "2:10:0.001", "more than 1000 points"),
        ("sweep", "0:1e308:1e-300", "more than 1000 points"),
    ])
    def test_unbounded_range_rejected(self, tmp_path, scenario_path, capsys,
                                      command, spec, message):
        # rejected before any run starts: no traceback, no endless sweep
        assert main([command, "--param", "period", "--range", spec,
                     "--config", str(scenario_path("flat_ratchet_T4")),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ccpj: error[2]: ConfigError:") and message in err

    def test_bad_param(self, tmp_path, scenario_path, capsys):
        assert main(["sweep", "--param", "voltage",
                     "--config", str(scenario_path("flat_ratchet_T4")),
                     "--out", str(tmp_path)]) == 2
        assert "voltage" in capsys.readouterr().err


class TestCalibrate:
    def test_calibrate_then_simulate(self, tmp_path, capsys):
        out = tmp_path / "cal"
        assert main(["calibrate", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "rmse=" in stdout
        cfg_path = out / "calibrated.config"
        assert cfg_path.exists()
        assert "rmse=" in (out / "calibration_report.txt").read_text()

        cfg = load_config(cfg_path)
        assert cfg.name == "calibrated"
        assert cfg.get("stiffness_table", "points_a_n_m")[0] == (0.0, 1.1)

        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(sim_out), "--quiet"]) == 0
        text = (sim_out / "calibrated_report.txt").read_text()
        speed = report_metric(text, "average_speed_mm_s")
        # fitted constants reproduce the measured flat-ground point
        assert speed == pytest.approx(8.26229, abs=0.01)
        assert abs(speed - 8.5) <= 0.15 * 8.5

    def test_missing_datasets(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CCPJ_DATA_DIR", str(tmp_path / "empty"))
        (tmp_path / "empty").mkdir()
        assert main(["calibrate", "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("ccpj: error[4]: FileNotFoundError:")
        assert "stiffness_vs_current" in err



class TestUnwritableOut:
    """An --out that cannot be written exits 2 with one line, no traceback."""

    def _argv(self, command, scenario_path):
        if command == "calibrate":
            return ["calibrate"]
        return [command, "--config", str(scenario_path("flat_ratchet_T4"))]

    @pytest.mark.parametrize("command", ["simulate", "calibrate"])
    @pytest.mark.parametrize("where", ["file", "under_file"])
    def test_out_is_or_is_under_a_file(self, tmp_path, scenario_path, capsys,
                                       command, where):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker if where == "file" else blocker / "out"
        assert main([*self._argv(command, scenario_path), "--out", str(out),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ccpj: error[2]: ConfigError: --out ")
        assert err.count("\n") == 1
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command, artifact", [
        ("simulate", "flat_ratchet_T4_trace.csv"),
        ("calibrate", "calibrated.config"),
        ("calibrate", "calibration_report.txt"),
    ])
    def test_artifact_path_is_a_directory(self, tmp_path, scenario_path,
                                          capsys, command, artifact):
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        assert main([*self._argv(command, scenario_path), "--out", str(out),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ccpj: error[2]: ConfigError: cannot write ")
        assert artifact in err

class TestOptimize:
    def test_period(self, tmp_path, scenario_path, capsys):
        out = tmp_path / "out"
        assert main(["optimize", "--param", "period", "--range", "3:5:0.25",
                     "--config", str(scenario_path("flat_ratchet_T4")),
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "optimize_period:" in stdout and "period_s=" in stdout
        t_star = float(re.search(r"period_s=([0-9.]+)", stdout).group(1))
        assert 3.5 <= t_star <= 4.5
        assert (out / "flat_ratchet_T4_optimize_period_report.txt").exists()

    def test_current_on_gate(self, tmp_path, scenario_path, capsys):
        assert main(["optimize", "--param", "current",
                     "--config", str(scenario_path("gate_40mm")),
                     "--out", str(tmp_path)]) == 0
        assert "current_a=0.3775" in capsys.readouterr().out

    def test_current_needs_gap(self, tmp_path, scenario_path, capsys):
        assert main(["optimize", "--param", "current",
                     "--config", str(scenario_path("flat_ratchet_T4")),
                     "--out", str(tmp_path)]) == 2
        assert "ceiling gap" in capsys.readouterr().err

    def test_mask_on_gate20(self, tmp_path, scenario_path, capsys):
        assert main(["optimize", "--param", "mask",
                     "--config", str(scenario_path("gate_20mm")),
                     "--out", str(tmp_path)]) == 0
        assert "mask=front_only" in capsys.readouterr().out

    def test_mask_all_infeasible(self, tmp_path, capsys):
        cfg = tmp_path / "crush.config"
        cfg.write_text("[signal]\nperiod_s = 4\n"
                       "[terrain]\nceiling_gap_mm = 5\n")
        assert main(["optimize", "--param", "mask", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 3
        assert "error[3]: AllMasksInfeasibleError" in capsys.readouterr().err

    def test_bad_param(self, tmp_path, scenario_path, capsys):
        assert main(["optimize", "--param", "phase",
                     "--config", str(scenario_path("flat_ratchet_T4")),
                     "--out", str(tmp_path)]) == 2
        capsys.readouterr()


class TestReport:
    def test_flat_bundle(self, tmp_path, scenario_path):
        out = tmp_path / "out"
        assert main(["report", "--config", str(scenario_path("flat_ratchet_T4")),
                     "--range", "3:5:1", "--out", str(out), "--quiet"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "flat_ratchet_T4_displacement.svg",
            "flat_ratchet_T4_report.txt",
            "flat_ratchet_T4_sweep_period.csv",
            "flat_ratchet_T4_sweep_period.svg",
            "flat_ratchet_T4_sweep_period_report.txt",
            "flat_ratchet_T4_trace.csv",
        ]

    def test_default_period_range(self, tmp_path, scenario_path):
        out = tmp_path / "out"
        assert main(["report", "--config", str(scenario_path("flat_ratchet_T4")),
                     "--out", str(out), "--quiet"]) == 0
        rpt = (out / "flat_ratchet_T4_sweep_period_report.txt").read_text()
        assert report_metric(rpt, "points") == 17  # 2:10:0.5

    def test_confined_skips_sweep(self, tmp_path, scenario_path):
        out = tmp_path / "out"
        assert main(["report", "--config", str(scenario_path("gate_40mm")),
                     "--out", str(out), "--quiet"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["gate_40mm_displacement.svg", "gate_40mm_report.txt",
                         "gate_40mm_trace.csv"]


# Value strings for the property below: free text, numbers of every kind
# (extremes, subnormals, non-finite), and values of the shape each key's
# converter expects, so that a good share of the draws parse and run.
NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "-0", "1e-320", "5e-324", "1e308", "inf", "-inf", "nan"]),
)
SMALL = st.one_of(st.floats(0.0, 10.0), st.floats(-100.0, 100.0)).map(repr)


def _joined(part, n):
    return st.lists(part, min_size=n, max_size=n).map(":".join)


ANY_TEXT = st.one_of(
    st.text(max_size=12),
    NUMBER_TEXT,
    _joined(NUMBER_TEXT, 2),
    _joined(NUMBER_TEXT, 3),
    st.lists(_joined(NUMBER_TEXT, 3), min_size=1, max_size=2).map(" ".join),
)
SHAPED_TEXT = {
    "int": st.integers(-5, 40).map(str),
    "float": SMALL, "float_inf": SMALL, "len": SMALL, "mass": SMALL,
    "str": st.sampled_from(["smooth", "ratchet", "ice", "flat"]),
    "mask": st.sampled_from([*MASKS, "both"]),
    "pair": _joined(st.floats(0.0, 1.0).map(repr), 2),
    "box": _joined(SMALL, 3),
    "pairs": st.lists(_joined(SMALL, 2), min_size=1, max_size=4).map(" ".join),
    "regions": st.lists(_joined(SMALL, 3), min_size=1, max_size=2).map(" ".join),
}
SCHEMA_ENTRIES = st.sampled_from(
    [(section, key) for section, keys in SCHEMA.items() for key in keys]
).flatmap(lambda e: st.tuples(
    st.just(e), st.one_of(SHAPED_TEXT[SCHEMA[e[0]][e[1]]], ANY_TEXT)))

REPORT_TEXT = {"name", "digest", "status", "error", "artifact", "feasible",
               "mask", "all_legs_feasible"}


@settings(derandomize=True, deadline=None, max_examples=500)
@given(drawn=SCHEMA_ENTRIES,
       seed=st.one_of(st.integers(0, 2**70), st.integers(-3, 3)),
       slip_noise=st.one_of(st.sampled_from(["0", "0.05"]),
                            st.floats(0.0, 1.0).map(repr), NUMBER_TEXT))
def test_any_value_exits_cleanly(drawn, seed, slip_noise):
    """Any value on any key: a clean exit code, and finite metrics on success."""
    (section, key), value = drawn
    sections = {"signal": {"period_s": "4.0"},
                "run": {"seed": str(seed), "slip_noise": slip_noise}}
    sections.setdefault(section, {})[key] = value
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                   for name, body in sections.items())
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "flat.scenario"
        cfg.write_text(text, encoding="utf-8")
        out = Path(tmp) / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code in (0, 2, 3, 4)
        if code != 0:
            return
        terrain = build_scenario(load_config(cfg)).terrain
        unbounded_gap = terrain.tunnel_width is not None and not terrain.ceiling
        (report,) = out.glob("*_report.txt")
        for line in report.read_text().splitlines():
            name, _, val = line.partition(" = ")
            if name in REPORT_TEXT:
                continue
            if name == "min_gap_mm":
                assert math.isinf(float(val)) == unbounded_gap, line
            else:
                assert math.isfinite(float(val)), line
