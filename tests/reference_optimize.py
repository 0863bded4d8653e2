"""The sequential golden-section search the period search was first written as.

`golden_section_max` below takes one abscissa per objective call. The
batched `ccpj.optimize.golden_section_max` must replay it exactly: the
same points in the same order, the same comparisons and the same best
sample (see `test_optimize.py`). Nothing in the package imports this
module.
"""

from __future__ import annotations

import math
from typing import Callable

from ccpj.errors import OutOfRangeError, ValidationError
from ccpj.optimize import GOLDEN, finest_tolerance


def golden_section_max(f: Callable[[float], float], lo: float, hi: float,
                       tol: float) -> tuple[float, float]:
    """Maximum of a unimodal f on [lo, hi] to abscissa resolution tol.

    Returns the best (x, f(x)) actually evaluated, so the reported value
    is always a true sample of the objective. tol must exceed
    finest_tolerance(lo, hi).
    """
    if not hi > lo:
        raise ValidationError(f"degenerate bracket [{lo!r}, {hi!r}]")
    if not tol > finest_tolerance(lo, hi):
        raise OutOfRangeError("tol", tol, finest_tolerance(lo, hi), math.inf)
    best_x, best_y = lo, -math.inf

    def eval_at(x: float) -> float:
        nonlocal best_x, best_y
        y = f(x)
        if y > best_y:
            best_x, best_y = x, y
        return y

    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = eval_at(c), eval_at(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = eval_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = eval_at(d)
    eval_at(0.5 * (a + b))
    return best_x, best_y
