"""Scenario value strings shaped for each config converter, shared by the
config and CLI properties: `SHAPED_TEXT[tag]` draws text that the
converter `tag` in `config.SCHEMA` accepts, or nearly accepts."""

from hypothesis import strategies as st

from ccpj.config import MASKS

SMALL = st.one_of(st.floats(0.0, 10.0), st.floats(-100.0, 100.0)).map(repr)


def joined(part, n):
    return st.lists(part, min_size=n, max_size=n).map(":".join)


SHAPED_TEXT = {
    "int": st.integers(-5, 40).map(str),
    "float": SMALL, "float_inf": SMALL, "len": SMALL, "mass": SMALL, "angle": SMALL,
    "str": st.sampled_from(["smooth", "ratchet", "ice", "flat", "a/b"]),
    "mask": st.sampled_from([*MASKS, "both"]),
    "pair": joined(st.floats(0.0, 1.0).map(repr), 2),
    "box": joined(SMALL, 3),
    "pairs": st.lists(joined(SMALL, 2), min_size=1, max_size=4).map(" ".join),
    "angle_pairs": st.lists(joined(SMALL, 2), min_size=1, max_size=4).map(" ".join),
    "regions": st.lists(joined(SMALL, 3), min_size=1, max_size=2).map(" ".join),
}
