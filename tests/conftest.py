"""Shared fixtures: the default hardware build and the shipped data files."""

import pytest
from numpy._core._multiarray_umath import __cpu_features__

from ccpj.calibrate import data_dir
from ccpj.gait import Scenario
from ccpj.params import CalibrationTable, GaitSignal, RobotParams

# Shipped stiffness-vs-current knots (A, N/m), same values as the default
# config and the digitized dataset.
TABLE_POINTS = (
    (0.00, 1.1), (0.05, 1.5), (0.10, 2.4), (0.15, 4.2), (0.20, 7.9),
    (0.25, 14.6), (0.30, 26.0), (0.35, 42.0), (0.40, 59.1),
)


@pytest.fixture
def table():
    return CalibrationTable.from_points(TABLE_POINTS)


@pytest.fixture
def robot():
    return RobotParams()


@pytest.fixture
def flat_scenario():
    """Flat ratchet, T = 4 s, calibrated defaults, 24.6 s run."""
    return Scenario(signal=GaitSignal(period=4.0))


@pytest.fixture
def make_scenario():
    """Scenario factory: make_scenario(period=..., **scenario_kwargs)."""

    def _make(period=4.0, signal_kwargs=None, **kwargs):
        sig = GaitSignal(period=period, **(signal_kwargs or {}))
        return Scenario(signal=sig, **kwargs)

    return _make


@pytest.fixture
def shipped_data_dir(monkeypatch):
    """Packaged data directory, with any CCPJ_DATA_DIR override removed."""
    monkeypatch.delenv("CCPJ_DATA_DIR", raising=False)
    return data_dir()


@pytest.fixture
def scenario_path(shipped_data_dir):
    """Path of a shipped scenario config by bare name."""

    def _path(name):
        p = shipped_data_dir / "scenarios" / f"{name}.scenario"
        assert p.exists(), p
        return p

    return _path


@pytest.fixture(scope="session")
def dispatch_level():
    """The x86-64 level of numpy's float64 kernels, as numpy reports it at
    run time: "X86_V4" (AVX-512) or "below_X86_V4". The printed artifacts
    are the same at every level, but a pin of raw float64 bits (np.exp's
    last place) keeps one value per level; X86_V3 and X86_V2 agree."""
    return "X86_V4" if __cpu_features__.get("X86_V4") else "below_X86_V4"

