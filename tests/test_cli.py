"""End-to-end CLI runs, in process via main(argv), save a few in a capped child."""

import configparser
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock
from xml.dom import minidom

import pytest
from hypothesis import example, given, settings, strategies as st

from config_text import SHAPED_TEXT, SMALL, joined
from ccpj import cli, errors, gait, optimize
from ccpj.cli import main
from ccpj.config import (
    SCHEMA,
    build_scenario,
    data_dir,
    default_config_path,
    load_config,
)

FLAT_DIGEST = "bfea5bc0a3bea5519f7e2e1d66f1651c2968a291fdc3dfe996ee734f3937809e"


@pytest.fixture(autouse=True)
def _shipped_data(monkeypatch):
    monkeypatch.delenv("CCPJ_DATA_DIR", raising=False)


def run_capped(argv, **env) -> subprocess.CompletedProcess:
    """`python -m ccpj.cli argv` in a child capped at 1 GiB of address space
    and 120 s, so that unbounded work fails the test instead of exhausting
    memory or hanging the suite. env entries are added to the child's."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "ccpj.cli", *argv],
                          env=env, preexec_fn=cap, capture_output=True,
                          text=True, timeout=120)


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

    def test_name_with_xml_characters_writes_a_valid_svg(self, tmp_path,
                                                         scenario_path):
        cfg = tmp_path / "amp.scenario"
        cfg.write_text(scenario_path("flat_ratchet_T4").read_text().replace(
            "name = flat_ratchet_T4", "name = a&b<c"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                     "--quiet"]) == 0
        svg = minidom.parse(str(tmp_path / "a&b<c_displacement.svg"))
        titles = [t.firstChild.data for t in svg.getElementsByTagName("text")]
        assert "a&b<c: displacement vs time" in titles

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

    def test_one_point_stiffness_table(self, tmp_path, capsys):
        # once TooFewPointsError, exit 4: a data code for a config fault
        cfg = tmp_path / "one_knot.config"
        cfg.write_text("[signal]\nperiod_s = 4\n[stiffness_table]\npoints_a_n_m = 0.1:2\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ccpj: error[2]: ConfigError:")
        assert "[stiffness_table] points_a_n_m: cannot parse '0.1:2'" in err

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
        ("terrain", "pitch_mm", "1e-320"),  # below the finest tooth, MIN_PITCH
        ("run", "slip_noise", "1e308"),  # noise factor overflows
        ("actuator", "i_threshold_a", "-1e308"),  # every current would heat
        ("actuator", "i_threshold_a", "0"),
        ("meta", "name", "a\0b"),
        ("meta", "name", "0\x0c0"),  # a form feed once split the report's name line
        ("meta", "name", "../escaped"),
        # non-positive robot sizes once gave a report with status = ok
        ("robot", "compact_box_mm", "15:-17:73"),
        ("robot", "deployed_width_mm", "-500"),
        ("robot", "freestanding_height_mm", "-500"),  # once exit 3, UnreachableError
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

    def test_low_current_that_heats_rejected(self, tmp_path, capsys):
        # legs held above the threshold never cool: they stand once and stop
        cfg = tmp_path / "hot.config"
        cfg.write_text("[signal]\nperiod_s = 4\ni_low_a = 0.3\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ccpj: error[2]: ValidationError: i_low_a=0.3 ")
        assert "i_threshold_a=0.28" in err

    def test_dt_below_substep_floor_rejected(self, tmp_path, capsys):
        # every 1e-13 s step is below the engine's 1e-12 s sub-step floor:
        # the run would be a motionless trace reported as ok
        cfg = tmp_path / "fine.config"
        cfg.write_text("[signal]\nperiod_s = 1e-11\n"
                       "[run]\nduration_s = 2.5e-11\ndt_s = 1e-13\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ccpj: error[2]: ValidationError: dt=1e-13")
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["fine.config"]

    @pytest.mark.parametrize("line, fault", [
        ("n_beads = 20\nbogus = 1", ": unknown key 'bogus' in [beam]"),
        ("n_beads = abc", " [beam] n_beads: cannot parse 'abc'"),
    ])
    def test_defaults_fault_names_defaults_file(self, tmp_path, monkeypatch,
                                                scenario_path, capsys, line, fault):
        # the fault is in CCPJ_DATA_DIR's defaults, not in the scenario file
        scenario = scenario_path("slope_15")
        data = tmp_path / "data"
        data.mkdir()
        shipped = default_config_path().read_text()
        (data / "tripodbot.default").write_text(
            shipped.replace("n_beads = 20\n", f"{line}\n", 1))
        monkeypatch.setenv("CCPJ_DATA_DIR", str(data))
        assert main(["simulate", "--config", str(scenario),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"ccpj: error[2]: ConfigError: {data / 'tripodbot.default'}{fault}")
        assert str(scenario) not in err

    def test_run_shorter_than_one_step_rejected(self, tmp_path, capsys):
        # dt is above the floor, but the run's only step is cut to the
        # 1.5e-13 s duration and dropped: a motionless trace reported as ok
        cfg = tmp_path / "short.config"
        cfg.write_text("[signal]\nperiod_s = 1e-13\n"
                       "[run]\nduration_s = 1.5e-13\ndt_s = 1.0005e-12\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ccpj: error[2]: ValidationError: duration=1.5e-13")
        assert [p.name for p in tmp_path.iterdir()] == ["short.config"]

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

    def test_negative_range(self, tmp_path, scenario_path):
        # "-5:5:5" after --range is its value, not an unknown option
        cfg = str(scenario_path("flat_ratchet_T4"))
        for out, spec in (("split", ["--range", "-5:5:5"]), ("joined", ["--range=-5:5:5"])):
            assert main(["sweep", "--param", "slope", *spec, "--config", cfg,
                         "--out", str(tmp_path / out), "--quiet"]) == 0
        split, joined = ((tmp_path / out / "flat_ratchet_T4_sweep_slope.csv").read_bytes()
                         for out in ("split", "joined"))
        assert split == joined and len(split.splitlines()) == 1 + 3

    @pytest.mark.parametrize("command", ["sweep", "optimize", "report"])
    @pytest.mark.parametrize("spec", ["-5:5:5", "-.5:1:0.5", "-1e-3:1:1"])
    def test_negative_range_parsed(self, command, spec):
        args = cli.build_parser().parse_args([command, "--param", "period", "--range", spec]
                                             if command != "report" else
                                             [command, "--range", spec])
        assert args.range == spec

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

    def test_range_within_float_spacing(self, tmp_path, scenario_path):
        # Steps below the float spacing of a: the first range once swept
        # 9 points for 2 distinct currents, the other two once appended
        # the same point forever, growing memory.
        for param, spec in (("current", "0.3:0.30000000000000004:1e-17"),
                            ("payload", "1e17:1e17:1"),
                            ("payload", "1e308:1e308:1")):
            done = run_capped(["sweep", "--param", param, "--range", spec,
                               "--config", str(scenario_path("flat_ratchet_T4")),
                               "--out", str(tmp_path), "--quiet"])
            assert done.returncode == 2, (spec, done.stderr)
            assert done.stderr.startswith("ccpj: error[2]: ConfigError:"), spec
            assert "Traceback" not in done.stderr

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

    def test_ragged_dataset_row(self, tmp_path, shipped_data_dir):
        # a row with more values than the header once ended in a numpy
        # ValueError traceback (exit 1) from Dataset.from_csv
        data = tmp_path / "data"
        data.mkdir()
        for path in shipped_data_dir.glob("*.csv"):
            (data / path.name).write_text(path.read_text())
        speed = data / "speed_vs_period.csv"
        speed.write_text(speed.read_text() + "2,3,4\n")
        done = run_capped(["calibrate", "--out", str(tmp_path / "out"), "--quiet"],
                          CCPJ_DATA_DIR=str(data))
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith(
            "ccpj: error[2]: ValidationError: bad dataset row '2,3,4'")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("row, message", [
        # once four numpy overflow RuntimeWarnings, then exit 4 with
        # "NoFeasibleFitError: fitted speed curve peaks at 0.50 s"
        ("4,1e308", "speed_mm_s values too large to fit"),
        # once rejected by sweep_period only after the whole grid search
        ("0.1,3.9", "period_s 0.1 outside [0.5, 20.0]"),
    ])
    def test_speed_dataset_checked_before_the_search(self, tmp_path,
                                                     shipped_data_dir, row,
                                                     message):
        data = tmp_path / "data"
        data.mkdir()
        for path in shipped_data_dir.glob("*.csv"):
            (data / path.name).write_text(path.read_text())
        speed = data / "speed_vs_period.csv"
        speed.write_text(speed.read_text() + row + "\n")
        done = run_capped(["calibrate", "--out", str(tmp_path / "out"), "--quiet"],
                          CCPJ_DATA_DIR=str(data))
        assert done.returncode == 2, done.stderr
        [line] = done.stderr.splitlines()
        assert line.startswith(
            "ccpj: error[2]: ValidationError: dataset 'speed_vs_period': "
            + message)

    @pytest.mark.parametrize("speed", ["0", "-8.5"])
    def test_non_positive_operating_speed(self, tmp_path, shipped_data_dir,
                                          monkeypatch, capsys, speed):
        # a negative speed was once rejected as "operating point with zero
        # speed is uninformative"
        data = tmp_path / "data"
        data.mkdir()
        for path in shipped_data_dir.glob("*.csv"):
            (data / path.name).write_text(path.read_text())
        points = data / "operating_points.csv"
        text = points.read_text()
        assert "\n0,0,8.5\n" in text
        points.write_text(text.replace("\n0,0,8.5\n", f"\n0,0,{speed}\n"))
        monkeypatch.setenv("CCPJ_DATA_DIR", str(data))
        assert main(["calibrate", "--out", str(tmp_path / "out"), "--quiet"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == (f"ccpj: error[2]: ValidationError: operating point speed "
                        f"{speed} mm/s is not positive: a cycle that does not "
                        "advance is uninformative")

    def test_missing_datasets(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CCPJ_DATA_DIR", str(tmp_path / "empty"))
        (tmp_path / "empty").mkdir()
        assert main(["calibrate", "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("ccpj: error[4]: EmptyDatasetError: missing dataset files:")
        assert "stiffness_vs_current" in err

    @pytest.mark.parametrize("name, fault", [
        ("speed_vs_period", "directory"), ("operating_points", "not_utf8")])
    def test_unreadable_dataset(self, tmp_path, shipped_data_dir, monkeypatch, capsys,
                                name, fault):
        # a dataset that exists but cannot be read is a data fault, not a crash
        data = tmp_path / "data"
        data.mkdir()
        for path in shipped_data_dir.glob("*.csv"):
            (data / path.name).write_bytes(path.read_bytes())
        bad = data / f"{name}.csv"
        if fault == "directory":
            bad.unlink()
            bad.mkdir()
        else:
            bad.write_bytes(bad.read_bytes() + b"\xff\xfe")
        monkeypatch.setenv("CCPJ_DATA_DIR", str(data))
        assert main(["calibrate", "--out", str(tmp_path / "out")]) == 4
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(
            f"ccpj: error[4]: EmptyDatasetError: cannot read dataset {bad}: ")


    def test_one_row_stiffness_dataset(self, tmp_path, shipped_data_dir,
                                       monkeypatch, capsys):
        # too few rows in a dataset stays a data fault
        data = tmp_path / "data"
        data.mkdir()
        for path in shipped_data_dir.glob("*.csv"):
            (data / path.name).write_text(path.read_text())
        stiff = data / "stiffness_vs_current.csv"
        stiff.write_text(stiff.read_text().split("0,1.1\n")[0] + "0,1.1\n")
        monkeypatch.setenv("CCPJ_DATA_DIR", str(data))
        assert main(["calibrate", "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err.startswith("ccpj: error[4]: TooFewPointsError:")


DATASETS = ("stiffness_vs_current", "speed_vs_period", "operating_points")
ODD_VALUE = st.one_of(
    st.sampled_from(["0", "-0", "1e308", "-1e308", "1e-300", "5e-324", "-5e-324",
                     "nan", "inf", "", "x"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
FAULTS = ("duplicate", "unsorted", "ragged", "value", "negate", "fewer_rows",
          "no_header_line", "no_column_line")


@st.composite
def odd_dataset(draw, text):
    """A shipped dataset's text with some drawn faults: rows repeated,
    reordered, ragged, cut or holding odd values (zeros, flipped signs,
    huge, tiny, non-finite or not numbers), and header lines dropped."""
    lines = text.splitlines()
    meta = [line for line in lines if line.startswith("#")]
    columns, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)):
        at = draw(st.integers(0, max(len(rows) - 1, 0)))
        if fault == "duplicate" and rows:
            rows.insert(draw(st.integers(0, len(rows))), list(rows[at]))
        elif fault == "unsorted":
            rows = draw(st.permutations(rows))
        elif fault == "ragged" and rows:
            rows[at] = rows[at] + ["1"] if draw(st.booleans()) else rows[at][:-1]
        elif fault in ("value", "negate") and rows and rows[at]:
            col = draw(st.integers(0, len(rows[at]) - 1))
            rows[at] = list(rows[at])
            rows[at][col] = (draw(ODD_VALUE) if fault == "value"
                             else "-" + rows[at][col])
        elif fault == "fewer_rows":
            rows = rows[:draw(st.integers(0, len(rows)))]
        elif fault == "no_header_line" and meta:
            meta = meta[:at % len(meta)] + meta[at % len(meta) + 1:]
        elif fault == "no_column_line":
            columns = None
    body = ([",".join(columns)] if columns else []) + [",".join(r) for r in rows]
    return "\n".join(meta + body) + "\n"


@pytest.mark.fresh_seed
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_calibrate_dataset_directory_property(data):
    """Any drawn dataset directory: exit 0, 2 or 4 with no traceback, one
    error line on failure, finite fitted constants on success."""
    with tempfile.TemporaryDirectory() as tmp:
        drawn, out = Path(tmp) / "data", Path(tmp) / "out"
        drawn.mkdir()
        for name in DATASETS:
            text = (data_dir() / f"{name}.csv").read_text()
            (drawn / f"{name}.csv").write_text(data.draw(odd_dataset(text), label=name))
        done = run_capped(["calibrate", "--out", str(out), "--quiet"],
                          CCPJ_DATA_DIR=str(drawn))
        assert done.returncode in (0, 2, 4), done.stderr
        assert "Traceback" not in done.stderr
        if done.returncode:
            [line] = done.stderr.splitlines()
            assert line.startswith(f"ccpj: error[{done.returncode}]: ")
            return
        cfg = configparser.ConfigParser()
        cfg.read(out / "calibrated.config", encoding="utf-8")
        values = [v for section in ("actuator", "slip") for v in cfg[section].values()]
        values += cfg["stiffness_table"]["points_a_n_m"].replace(":", " ").split()
        assert all(math.isfinite(float(v)) for v in values)


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

    def test_current_needs_a_gap_the_path_meets(self, tmp_path, capsys):
        cfg = tmp_path / "behind.scenario"
        cfg.write_text("[signal]\nperiod_s = 4\n[terrain]\n"
                       "ceiling_region_mm = -200:-100:5\n")
        assert main(["optimize", "--param", "current", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert "ceiling gap" in capsys.readouterr().err

    def test_current_reads_the_gap_the_path_meets(self, tmp_path, scenario_path, capsys):
        # a 5 mm region behind the start does not decide: simulate runs
        # all legs under the 40 mm gate, and the search reads that gate
        parser = configparser.ConfigParser()
        parser.read(scenario_path("gate_40mm"))
        parser["terrain"]["ceiling_region_mm"] += " -200:-100:5"
        cfg = tmp_path / "gate_40mm.scenario"
        with cfg.open("w") as f:
            parser.write(f)
        assert main(["optimize", "--param", "current", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            "max_feasible_current: current_a=0.3775, height_mm=39.7475; gap_mm=40\n")

    def test_mask_on_gate20(self, tmp_path, scenario_path, capsys):
        assert main(["optimize", "--param", "mask",
                     "--config", str(scenario_path("gate_20mm")),
                     "--out", str(tmp_path)]) == 0
        assert "mask=front_only" in capsys.readouterr().out

    def test_far_gate(self, tmp_path, capsys):
        # the gate stands beyond the look-ahead envelope at x = 0: the
        # all-leg gait is judged at its gap all the same
        cfg = tmp_path / "far_gate.scenario"
        cfg.write_text("[signal]\nperiod_s = 4\nmask = all\n[terrain]\n"
                       "ceiling_region_mm = 200:300:20\n[run]\nduration_s = 200\n")
        argv = ["--config", str(cfg), "--out", str(tmp_path)]
        assert main(["simulate", *argv]) == 3
        assert capsys.readouterr().err.endswith(
            "all gait makes no progress under this ceiling "
            "(needs 23.11 mm, has 20.00 mm)\n")
        assert main(["simulate", "--mask", "front_only", *argv]) == 0
        assert "all_legs_feasible = no" in capsys.readouterr().out
        assert main(["optimize", "--param", "mask", *argv]) == 0
        assert capsys.readouterr().out == (
            "select_mask: mask=front_only, transit_s=1040.87, speed_mm_s=0.650949\n")

    def test_ceiling_behind_the_start(self, tmp_path, scenario_path, capsys):
        # a 5 mm region behind the start once made simulate exit 3 and
        # select_mask find no mask, though the run never meets it
        text = scenario_path("gate_40mm").read_text()
        cfg = tmp_path / "behind.scenario"
        cfg.write_text(text.replace("ceiling_region_mm = 10:110:40",
                                    "ceiling_region_mm = -200:-100:5 10:110:40"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        report = (out / "gate_40mm_report.txt").read_text()
        assert report_metric(report, "min_gap_mm") == 40.0
        assert report_metric(report, "average_speed_mm_s") == 1.77536
        assert main(["optimize", "--param", "mask", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert "mask=all" in capsys.readouterr().out

    def test_mask_all_infeasible(self, tmp_path, scenario_path, capsys):
        # each mask's verdict is gait._confinement_error: nothing is run or
        # navigated to learn why both fail
        cfg = tmp_path / "flat_ratchet_T4.scenario"
        cfg.write_text(scenario_path("flat_ratchet_T4").read_text()
                       + "\n[terrain]\nceiling_gap_mm = 5\n")
        with mock.patch.object(optimize, "navigate_confined") as nav, \
                mock.patch.object(gait, "run") as engine:
            assert main(["optimize", "--param", "mask", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 3
        assert (nav.call_count, engine.call_count) == (0, 0)
        assert capsys.readouterr().err == (
            "ccpj: error[3]: AllMasksInfeasibleError: no leg mask fits the confinement ("
            "all: gap below the fully-flat body height (needs 7.21 mm, has 5.00 mm); "
            "front_only: gap below the fully-flat body height (needs 7.21 mm, has 5.00 mm))\n")

    def test_period_resolution_within_float_spacing(self, tmp_path, scenario_path, capsys):
        # the golden-section bracket cannot shrink below the float spacing,
        # so this search once never returned; SearchSpec refuses the
        # tolerance before the coarse sweep runs
        with mock.patch.object(optimize, "sweep_period",
                               wraps=optimize.sweep_period) as sweep:
            assert main(["optimize", "--param", "period", "--range", "2:10:1e-300",
                         "--config", str(scenario_path("flat_ratchet_T4")),
                         "--out", str(tmp_path), "--quiet"]) == 2
        assert sweep.call_count == 0
        assert capsys.readouterr().err == (
            "ccpj: error[2]: OutOfRangeError: tolerance=1e-300 "
            "outside [7.105427357601002e-15, inf]\n")

    def test_bad_param(self, tmp_path, scenario_path, capsys):
        for param in ("phase", "voltage"):
            assert main(["optimize", "--param", param,
                         "--config", str(scenario_path("flat_ratchet_T4")),
                         "--out", str(tmp_path)]) == 2
            assert f"invalid choice: '{param}'" in capsys.readouterr().err


class TestHeightMapAnchors:
    """An anchor angle outside [0, 60] deg is a configuration fault on every
    command that runs the map, whichever way it leaves the range."""

    @pytest.mark.parametrize("anchors", ["0.28:-10 0.4:-40", "0.28:20 0.4:80"])
    @pytest.mark.parametrize("argv", [["simulate"], ["sweep", "--param", "current"],
                                      ["optimize", "--param", "current"]])
    def test_angle_out_of_range_exits_2(self, tmp_path, capsys, anchors, argv):
        cfg = tmp_path / "anchors.scenario"
        cfg.write_text("[signal]\nperiod_s = 4\n[terrain]\nceiling_gap_mm = 60\n"
                       f"[height_map]\nanchors_a_deg = {anchors}\n")
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path),
                     "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(
            "ccpj: error[2]: OutOfRangeError: height map angle=")


# Exit code of every error class: 2 configuration, 3 simulation, 4 data
EXIT_CODES = {
    "CcpjError": 2, "ValidationError": 2, "OutOfRangeError": 2,
    "ZeroDimensionError": 2, "NonMonotoneCurrentError": 2,
    "NonMonotoneStiffnessError": 2, "ConfigError": 2,
    "InfeasibleConfinementError": 3, "AllMasksInfeasibleError": 3,
    "NotUnimodalError": 3, "NoConvergenceError": 3, "UnreachableError": 3,
    "EmptyDatasetError": 4, "TooFewPointsError": 4, "SingularSystemError": 4,
    "NoFeasibleFitError": 4,
}


@pytest.mark.parametrize("cls", [c for c in vars(errors).values()
                                 if isinstance(c, type) and issubclass(c, errors.CcpjError)],
                         ids=lambda c: c.__name__)
def test_error_class_exit_code(cls, tmp_path, scenario_path, capsys, monkeypatch):
    """Each class's code, which main returns and prints for it; a class
    missing from the table fails here."""
    assert cls.exit_code == EXIT_CODES[cls.__name__]
    err = cls.__new__(cls)  # no message: each class takes its own arguments

    def fail(cfg):
        raise err

    monkeypatch.setattr(cli, "load_config", fail)
    assert main(["simulate", "--config", str(scenario_path("flat_ratchet_T4")),
                 "--out", str(tmp_path)]) == cls.exit_code
    assert capsys.readouterr().err.startswith(
        f"ccpj: error[{cls.exit_code}]: {cls.__name__}:")


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

    def test_same_bytes_as_simulate_and_sweep(self, tmp_path, scenario_path):
        cfg = str(scenario_path("flat_ratchet_T4"))
        apart, bundle = tmp_path / "apart", tmp_path / "bundle"
        assert main(["simulate", "--config", cfg, "--out", str(apart),
                     "--quiet"]) == 0
        assert main(["sweep", "--param", "period", "--range", "3:5:1",
                     "--config", cfg, "--out", str(apart), "--quiet"]) == 0
        assert main(["report", "--config", cfg, "--range", "3:5:1",
                     "--out", str(bundle), "--quiet"]) == 0

        def files(d):
            return {p.name: p.read_bytes() for p in d.iterdir()}

        assert files(bundle) == files(apart)

    def test_loads_config_once(self, tmp_path, scenario_path, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(cli, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        for name in ("load_config", "build_scenario"):
            monkeypatch.setattr(cli, name, counted(name))
        assert main(["report", "--config", str(scenario_path("flat_ratchet_T4")),
                     "--range", "3:5:1", "--out", str(tmp_path), "--quiet"]) == 0
        assert calls == ["load_config", "build_scenario"]


# Value strings for the property below: free text, numbers of every kind
# (extremes, subnormals, non-finite), and values of the shape each key's
# converter expects, so that a good share of the draws parse and run.
NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "-0", "1e-320", "5e-324", "1e308", "inf", "-inf", "nan"]),
)
ANY_TEXT = st.one_of(
    st.text(max_size=12),
    NUMBER_TEXT,
    joined(NUMBER_TEXT, 2),
    joined(NUMBER_TEXT, 3),
    st.lists(joined(NUMBER_TEXT, 3), min_size=1, max_size=2).map(" ".join),
)
SCHEMA_ENTRIES = st.sampled_from(
    [(section, key) for section, keys in SCHEMA.items() for key in keys]
).flatmap(lambda e: st.tuples(
    st.just(e), st.one_of(SHAPED_TEXT[SCHEMA[e[0]][e[1]][0]], ANY_TEXT)))


def _threshold_edges(test):
    """Add i_threshold_a at and just past the ends of (0, MAX_CURRENT_A] as
    explicit examples: the random draws reach that key only a few times."""
    for value in ("-1e308", "-0", "0", "5e-324", "0.5", "0.5000001", "1e308"):
        test = example(drawn=(("actuator", "i_threshold_a"), value),
                       seed=0, slip_noise="0")(test)
    return test


REPORT_TEXT = {"name", "digest", "status", "error", "artifact", "feasible",
               "mask", "all_legs_feasible"}


# Inherits the active profile: derandomized under CI's "ci" profile, and
# drawn afresh by the fresh-seed step, which names the default profile.
@pytest.mark.fresh_seed
@settings(deadline=None, max_examples=500)
@_threshold_edges
@example(drawn=(("terrain", "ceiling_region_mm"), "-200:-100:30"), seed=0, slip_noise="0")
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
        sc = build_scenario(load_config(cfg))
        # the path meets a region that ends at or past half a leg behind x = 0
        unbounded_gap = not any(x1 >= -sc.robot.leg.leg_length / 2.0
                                for _, x1, _ in sc.terrain.ceiling)
        (report,) = out.glob("*_report.txt")
        for line in report.read_text().splitlines():
            name, _, val = line.partition(" = ")
            if name in REPORT_TEXT:
                continue
            if name == "min_gap_mm":
                assert math.isinf(float(val)) == unbounded_gap, line
            else:
                assert math.isfinite(float(val)), line


@st.composite
def range_specs(draw):
    """`--range a:b:step` strings: any float text at each place, a range
    of a few plausible points, or bounds near each other and a step within
    a few float spacings of them."""
    kind = draw(st.sampled_from(["text", "plausible", "spacing"]))
    if kind == "text":
        return draw(joined(st.one_of(NUMBER_TEXT, SMALL), 3))
    if kind == "plausible":
        a, span = draw(st.floats(-1.0, 20.0)), draw(st.floats(0.0, 20.0))
        return f"{a!r}:{a + span!r}:{draw(st.floats(0.05, 5.0))!r}"
    a = draw(st.one_of(st.floats(-1.0, 20.0), st.sampled_from([0.28, 1e17, 1e308, 5e-324])))
    b = draw(st.sampled_from([a, math.nextafter(a, math.inf), a + 1e-9, a - 1.0]))
    step = math.ulp(a) * draw(st.sampled_from([0.25, 1.0, 3.0, 1e3, 1e9]))
    return f"{a!r}:{b!r}:{step!r}"


@settings(derandomize=True, deadline=None, max_examples=150)
@given(param=st.sampled_from(["period", "slope", "payload", "current"]),
       name=st.sampled_from(["flat_ratchet_T4", "payload_5g"]), spec=range_specs())
def test_sweep_any_range_exits_cleanly(param, name, spec):
    """Any --range on a period, slope, payload or current sweep: a clean
    exit code, and on success one finite CSV row per value."""
    cfg = data_dir() / "scenarios" / f"{name}.scenario"
    with tempfile.TemporaryDirectory() as tmp:
        code = main(["sweep", "--param", param, "--range", spec,
                     "--config", str(cfg), "--out", tmp, "--quiet"])
        assert code in (0, 2, 3, 4)
        if code != 0:
            return
        rows = (Path(tmp) / f"{name}_sweep_{param}.csv").read_text().splitlines()[1:]
    assert len(rows) == len(cli._range_values(spec))
    for row in rows:
        assert all(math.isfinite(float(v)) for v in row.split(",")), row


@settings(derandomize=True, deadline=None, max_examples=150)
@given(name=st.sampled_from(["flat_ratchet_T4", "payload_5g"]),
       mask=st.sampled_from([None, "front_only"]), spec=range_specs())
def test_optimize_any_range_exits_cleanly(name, mask, spec):
    """Any --range on a period search: a clean exit code, and on success a
    finite optimum. In process: a bracket outside [0.5, 20] s fails the
    coarse sweep before the search, and a tolerance above 4 float spacings
    of 20 s ends it within ~75 steps, so no drawn range runs long."""
    cfg = data_dir() / "scenarios" / f"{name}.scenario"
    with tempfile.TemporaryDirectory() as tmp:
        code = main(["optimize", "--param", "period", "--range", spec,
                     "--config", str(cfg), "--out", tmp, "--quiet",
                     *(["--mask", mask] if mask else [])])
        assert code in (0, 2, 3, 4)
        if code != 0:
            return
        report = (Path(tmp) / f"{name}_optimize_period_report.txt").read_text()
    found = re.search(r"^result = optimize_period: period_s=(\S+), speed_mm_s=(\S+)$",
                      report, re.M)
    assert found, report
    assert all(math.isfinite(float(v)) for v in found.groups()), report
