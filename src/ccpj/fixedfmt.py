"""Exact fixed-point text for columns of floats, by table gathers.

`format_columns` writes rows of numbers, each followed by its column's
separator, to exactly the bytes of `"%.*f" % (d, v)` per cell. Python's
`%` has no array form and costs a few hundred ns a cell; here every cell
is a few 4-byte words gathered from small tables:

- q = rint(|v| * 10**d), split into the integer part a and the d
  fraction digits f;
- a in base-1000 groups, each one word: the leading group from a
  right-aligned table (with or without '-'), every inner group from a
  zero-padded one, the places above the leading group empty;
- the fraction as '.ddd' + 'ddd<sep>' (d = 6), '.dd<sep>' (d = 2) or
  '<sep>' alone (d = 0).

The words of all columns fill one (rows, words) uint32 matrix, and one
`bytes.translate` drops the zero padding. The sign comes from
`np.signbit`, so -0.0 and negatives that round to zero keep their '-'.

p = |v| * 10**d is rounded once from the exact product X. Below 2**52
every half-integer is a float and rounding is monotone, so X lies on
the same side of each tie as p, and rint(p) is the correct rounding of
X, unless p is itself a half-integer: X may then be a decimal tie or
within rounding error of one. From 2**52 to 2**53 the floats are the
integers, and p is X rounded half to even, as `%` rounds. Cells whose p
is a half-integer, and the ones the word layout cannot hold (NaN, +-inf
and p >= 2**53), are formatted by `%` one at a time and spliced into the
same text.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

DECIMALS = (0, 2, 6)  # the fraction widths with a word layout

# From 2**53 on floats skip integers. |v| is clipped here too, so that
# p cannot overflow, and a clipped cell goes through `%`.
_LIMIT = 2.0 ** 53
_MARK = 1  # the word "\x01": a placeholder for a cell formatted by `%`


def _words(text: str) -> np.ndarray:
    """The 4-character words of an ASCII text as uint32, in text order."""
    return np.frombuffer(text.encode("ascii"), dtype="<u4")


@lru_cache(maxsize=None)
def _groups(units: bool) -> np.ndarray:
    """Base-1000 group words: [0, 1000) leading, [1000, 2000) leading
    after '-', [2000, 3000) inner. Above the units group a leading 0 is
    not written, and neither is its '-'. Built on first use, like the
    fraction tables, so that importing costs nothing. Each table is one
    `%` over all its entries: no object per entry, so that building it
    adds next to nothing to peak RSS."""
    c = tuple(range(1000))
    plus, minus = (_words(("%4d" * 1000 % v).replace(" ", "\0")).copy()
                   for v in (c, tuple(-k for k in c)))
    minus[0] = _words("\0\0-0")[0]  # %d writes -0 as 0
    if not units:
        plus[0] = minus[0] = 0
    return np.concatenate((plus, minus, _words("%03d\0" * 1000 % c)))


@lru_cache(maxsize=None)
def _fraction(d: int, sep: str) -> tuple[np.ndarray, ...]:
    """Tables of the fraction words after the integer part, the last one
    ending in the separator."""
    c, s = tuple(range(1000)), sep.replace("%", "%%")
    if d == 6:
        return _words(".%03d" * 1000 % c), _words(("%03d" + s) * 1000 % c)
    if d == 2:
        return (_words((".%02d" + s) * 100 % c[:100]),)
    return (_words("\0\0\0" + sep),)


def format_columns(columns, decimals, seps: str) -> str:
    """Rows of `"%.*f" % (d, v)` cells, each followed by its separator.

    `columns` are equal-length sequences of numbers. `decimals[i]` (one
    of 0, 2, 6) is column i's fraction width and `seps[i]` the separator
    written after each of its cells: one ASCII character other than NUL
    and "\x01", which stand for padding and for a `%` cell. Row r is
    cell (r, 0), seps[0], cell (r, 1), seps[1], ...
    """
    if len(decimals) != len(columns) or len(seps) != len(columns):
        raise ValueError("need one decimals entry and one separator per column")
    if any(d not in DECIMALS for d in decimals):
        raise ValueError(f"decimals must be in {DECIMALS}, got {decimals}")
    cells, width = [], 0
    for v, d, sep in zip(columns, decimals, seps):
        v = np.asarray(v, dtype=float)
        scaled = np.minimum(np.abs(v), _LIMIT)
        if d:
            scaled *= 10.0 ** d
        q = np.rint(scaled)
        # NaN, inf and clipped values fail the second test
        ok = (np.abs(scaled - q) != 0.5) & (scaled < _LIMIT)
        slow = None
        if np.count_nonzero(ok) < len(ok):
            slow = np.flatnonzero(~ok)
            q[slow] = 0.0
        q = q.astype(np.int64)
        whole = q // 10 ** d if d else q
        groups = (len(str(whole.max(initial=0))) + 2) // 3
        tables = _fraction(d, sep)
        cells.append((v, d, whole, q - whole * 10 ** d, slow, groups, tables, width))
        width += groups + len(tables)

    out = np.empty((len(cells[0][0]) if cells else 0, width), dtype="<u4")
    spliced = []  # (row, column, text) of every cell formatted by `%`
    for i, (v, d, whole, frac, slow, groups, tables, at) in enumerate(cells):
        minus = np.signbit(v) * 1000
        for j in range(groups):
            place = 1000 ** (groups - 1 - j)
            if j == 0:  # nothing above: a leading group or an empty place
                group = (whole // place if place > 1 else whole) + minus
            else:
                group = whole // place % 1000 + np.where(
                    whole >= 1000 * place, 2000, minus)
            out[:, at + j] = _groups(j == groups - 1)[group]
        at += groups
        if d == 6:
            out[:, at] = tables[0][frac // 1000]
            out[:, at + 1] = tables[1][frac % 1000]
        else:
            out[:, at] = tables[0][frac]
        if slow is not None:
            end = at + len(tables) - 1
            out[slow, at - groups:end] = 0
            out[slow, at - groups] = _MARK
            out[slow, end] = _fraction(0, seps[i])[0][0]
            spliced += [(r, i, "%.*f" % (d, x))
                        for r, x in zip(slow.tolist(), v[slow].tolist())]
    text = out.tobytes().translate(None, b"\0").decode("ascii")
    if not spliced:
        return text
    spliced.sort()
    pieces = text.split("\x01")
    return pieces[0] + "".join(s + p for (_, _, s), p in zip(spliced, pieces[1:]))
