"""Byte-identity of CLI artifacts against committed sha256 digests.

Rerun-vs-rerun checks only show that one build is deterministic. These
digests pin the bytes themselves, so a refactor of the simulator or the
searches either reproduces every artifact exactly or has to regenerate
`tests/golden/digests.json` and say which file moved and by how much.

Regenerate with `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from ccpj.cli import main
from ccpj.config import data_dir

GOLDEN = Path(__file__).parent / "golden" / "digests.json"

SCENARIOS = ("flat_ratchet_T4", "gate_20mm", "gate_40mm", "payload_5g",
             "slope_15", "tunnel_40x20")

# case id -> (argv after the subcommand, scenario name)
CASES = {
    **{f"simulate.{name}": (["simulate"], name) for name in SCENARIOS},
    "sweep.period": (["sweep", "--param", "period"], "flat_ratchet_T4"),
    "sweep.current": (["sweep", "--param", "current"], "flat_ratchet_T4"),
    "sweep.payload": (["sweep", "--param", "payload"], "payload_5g"),
    "optimize.period": (["optimize", "--param", "period"], "flat_ratchet_T4"),
    "optimize.mask": (["optimize", "--param", "mask"], "gate_20mm"),
}


def case_digests(case: str, out: Path) -> dict[str, str]:
    """Run one case into `out` and hash every artifact it writes."""
    argv, name = CASES[case]
    config = data_dir() / "scenarios" / f"{name}.scenario"
    code = main([*argv, "--config", str(config), "--out", str(out), "--quiet"])
    assert code == 0, f"{case} exited {code}"
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.fixture(autouse=True)
def _shipped_data(monkeypatch):
    monkeypatch.delenv("CCPJ_DATA_DIR", raising=False)


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden_digests(tmp_path, case):
    want = json.loads(GOLDEN.read_text())[case]
    assert case_digests(case, tmp_path) == want


if __name__ == "__main__":
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            record[case] = case_digests(case, Path(tmp) / case)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    sys.exit(0)
