"""`fixedfmt.format_columns` against Python's `"%.*f" % (d, v)`, cell by cell.

The formatter gathers each cell's text from word tables and sends only
near-ties and values it cannot hold through `%`; every case here compares
its whole output with the `%` rendering using `==`.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from ccpj.fixedfmt import DECIMALS, format_columns


def reference(columns, decimals, seps) -> str:
    rows = zip(*([float(v) for v in c] for c in columns))
    return "".join("".join("%.*f%s" % (d, v, s) for v, d, s in zip(row, decimals, seps))
                   for row in rows)


SIZE = 2000  # most values drawn per column


def families(rng: np.random.Generator, n: int, allowed) -> np.ndarray:
    """n values, each from one of the allowed families (rng's choice).

    SIZE values are drawn whatever n is, and the first n are kept, so
    that a smaller n (as when hypothesis shrinks) keeps a prefix.
    """
    n, keep = SIZE, n
    sign = rng.choice((-1.0, 1.0), n)
    # integer parts of 1 to 5 base-1000 groups, mixed within one column
    groups = rng.integers(1, 6, n)
    whole = np.floor(rng.uniform(np.where(groups > 1, 10.0 ** (3 * groups - 3), 0.0),
                                 10.0 ** (3 * groups)))
    choices = {
        "groups": sign * (whole + rng.uniform(0.0, 1.0, n)),
        # negatives that round to -0 at 0, 2 and 6 decimals
        "minus_zero": -rng.uniform(0.0, 0.5, n) * 10.0 ** -rng.choice(DECIMALS, n),
        # exact binary ties at the 2nd (odd/8) and the 6th (odd/128) place
        "tie_2": sign * (whole + (2 * rng.integers(0, 4, n) + 1) / 8.0),
        "tie_6": sign * (whole + (2 * rng.integers(0, 64, n) + 1) / 128.0),
        # decimal half-way cases that binary cannot hold, such as 1.005
        "near_tie": sign * (whole + (2 * rng.integers(0, 10**6, n) + 1)
                            / 10.0 ** rng.choice((3, 7), n)),
        "huge": sign * 10.0 ** rng.uniform(12.0, 300.0, n),
        "special": rng.choice((0.0, -0.0, math.nan, math.inf, -math.inf), n),
    }
    names = sorted(allowed)
    return np.choose(rng.integers(0, len(names), n),
                     [choices[k] for k in names])[:keep]


FAMILIES = ("groups", "minus_zero", "tie_2", "tie_6", "near_tie", "huge", "special")


@st.composite
def tables(draw):
    n = draw(st.integers(0, SIZE))
    ncols = draw(st.integers(1, 3))
    columns = []
    for _ in range(ncols):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        allowed = draw(st.sets(st.sampled_from(FAMILIES), min_size=1))
        # a few drawn values of any kind lead the column
        lead = draw(st.lists(st.floats(), max_size=min(n, 8)))
        columns.append(np.concatenate((lead, families(rng, n - len(lead), allowed))))
    decimals = draw(st.lists(st.sampled_from(DECIMALS), min_size=ncols,
                             max_size=ncols))
    seps = "".join(draw(st.lists(st.sampled_from(", ;\n\t"), min_size=ncols,
                                 max_size=ncols)))
    return columns, decimals, seps


# No shrinking: the bulk of each column comes from a seeded generator, so
# a shrunk seed re-draws every value; a failure took minutes to shrink
# without getting simpler. The message shows where the texts part.
@pytest.mark.fresh_seed
@settings(max_examples=200, deadline=None,
          phases=tuple(p for p in Phase if p is not Phase.shrink))
@given(table=tables())
def test_format_matches_percent_property(table):
    columns, decimals, seps = table
    got, want = format_columns(columns, decimals, seps), reference(columns, decimals, seps)
    if got != want:  # not `assert ==`: pytest's diff of long texts is slow
        at = len(os.path.commonprefix((got, want)))
        pytest.fail(f"texts part at {at}: {got[max(0, at - 40):at + 40]!r} "
                    f"!= {want[max(0, at - 40):at + 40]!r}")


EDGE_CELLS = [
    (6, -0.0, "-0.000000"), (6, -4.9999999e-7, "-0.000000"), (6, 5e-7, "0.000000"),
    (6, 0.0078125, "0.007812"), (6, 0.0234375, "0.023438"), (2, 0.125, "0.12"),
    (2, 0.375, "0.38"), (2, 1.005, "1.00"), (2, 2.675, "2.67"), (0, -0.4, "-0"),
    (0, 2.5, "2"), (6, 999999.9999995, "999999.999999"), (2, 999.995, "1000.00"),
    (6, 1e12, "1000000000000.000000"), (2, -1e300, "%.2f" % -1e300),
    (0, math.nan, "nan"), (6, -math.inf, "-inf"), (2, 1.7e308, "%.2f" % 1.7e308),
]


@pytest.mark.parametrize("d, v, text", EDGE_CELLS,
                         ids=[f"{d}:{v!r}" for d, v, _ in EDGE_CELLS])
def test_edge_cells(d, v, text):
    assert "%.*f" % (d, v) == text
    assert format_columns(([v, 1.0, v],), (d,), ",") == (text + "," + "%.*f," % (d, 1.0)
                                                         + text + ",")


def test_no_rows_and_no_columns():
    assert format_columns(([], []), (6, 0), ",\n") == ""
    assert format_columns((), (), "") == ""


@pytest.mark.parametrize("decimals, seps", [((3,), ","), ((6,), ""), ((6, 2), ",")])
def test_bad_layout_rejected(decimals, seps):
    with pytest.raises(ValueError):
        format_columns(([1.0],), decimals, seps)
