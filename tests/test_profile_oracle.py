"""The thermal fit's slip-scale profile and grid search against references.

`calibrate._profile_eta0` profiles a batch of candidate actuators at once
and evaluates only the grid points that can hold each minimum; it cuts,
with sse = +inf, the candidates whose bounds show that they cannot hold
the batch's minimum or beat its cutoff. `grid_profile` below is the brute
force for one candidate: the sweep SSE at every one of the 2001 slip
scales in linspace(0, 1, 2001), then argmin, so ties go to the smallest
eta. The arithmetic is unchanged, so every candidate the batch profiles
must agree with it with `==` on both floats, not within a tolerance, and
every candidate it cuts must have a brute-force SSE above the batch's
minimum or the cutoff. `loop_search` is the thermal grid search one
candidate at a time, the reference for `_thermal_grid_search`'s row
batches, and `full_peak` the peak check over all 1951 periods, the
reference for `_speed_peak`.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ccpj import calibrate as cal
from ccpj.gait import (
    SWEEP_CYCLES,
    ActuatorModel,
    CurrentHeightMap,
    Scenario,
    SlipModel,
    Terrain,
    _net_advance,
    stroke_arcs,
)
from ccpj.kinematics import BETA_MAX
from ccpj.params import GaitSignal
from reference_gait import simulated_sweep, sweep_speeds


def grid_profile(template, actuator, periods, speeds):
    """Best slip scale on the full 2001-point grid; returns (eta0, sse)."""
    etas = np.linspace(0.0, 1.0, 2001)
    stand, sit, _, _ = stroke_arcs(replace(template, actuator=actuator),
                                   periods, SWEEP_CYCLES)
    ter = template.terrain
    half = ter.reseat_loss
    e = (etas * ter.anchor_efficiency)[:, None, None]
    d = (np.maximum(0.0, e * stand[None] - half)
         + np.maximum(0.0, e * sit[None] - half)).sum(axis=2)
    v = d / (SWEEP_CYCLES * periods[None, :])
    sse = np.sum((v - speeds[None, :]) ** 2, axis=1)
    k = int(np.argmin(sse))
    return float(etas[k]), float(sse[k])


def _stalling_terrain():
    # Terrain rejects mu_forward > mu_backward on input; forced past that
    # check, the anchor efficiency turns negative and every stroke stalls
    ter = Terrain(mu_forward=0.5, mu_backward=1.0)
    object.__setattr__(ter, "mu_forward", 2.0)
    return ter


TEMPLATE = Scenario(signal=GaitSignal(period=4.0))
TERRAINS = {
    "ratchet": Terrain(),
    "smooth": Terrain(surface="smooth"),
    "smooth_anchor_friction": Terrain(surface="smooth", mu_forward=0.1,
                                      mu_backward=1.0),
    "ratchet_anchor_friction": Terrain(mu_forward=0.1, mu_backward=1.0),
    "equal_friction": Terrain(mu_forward=0.4, mu_backward=0.4),
    "forward_above_backward": _stalling_terrain(),
}
PERIODS = np.array([2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
SHIPPED_MM_S = np.array([3.9, 7.0, 8.5, 6.9, 5.7, 4.2, 3.4])


def assert_profile_exact(template, tau_heat, tau_cool, periods, speeds,
                         cutoff=math.inf):
    """One batched _profile_eta0 call against grid_profile per candidate.

    A candidate the call profiles must match with `==`. One it cuts (sse
    +inf, eta0 nan) must have a brute-force SSE strictly above the least
    SSE of the batch or above cutoff. Returns the call's per-candidate
    (eta0, sse) pairs.
    """
    eta0, sse = cal._profile_eta0(template, tau_heat, tau_cool, periods, speeds,
                                  cutoff)
    th, tc = np.broadcast_arrays(np.atleast_1d(tau_heat), np.atleast_1d(tau_cool))
    assert eta0.shape == sse.shape == th.shape
    cut = sse == math.inf
    assert np.isnan(eta0[cut]).all() and not np.isnan(eta0[~cut]).any()
    assert cutoff < math.inf or not cut.all()  # the batch's minimum is kept
    least = min(float(np.min(sse)), cutoff)
    got = list(zip(eta0.tolist(), sse.tolist()))
    for pair, h, c, gone in zip(got, th, tc, cut):
        act = replace(template.actuator, tau_heat=float(h), tau_cool=float(c))
        want = grid_profile(template, act, periods, speeds)
        if gone:
            assert want[1] > least
        else:
            assert pair == want
    return got


def profiled(pairs):
    """The (eta0, sse) pairs a _profile_eta0 call did not cut."""
    return [pair for pair in pairs if pair[1] < math.inf]


def test_every_candidate_of_the_shipped_fit(monkeypatch, shipped_data_dir):
    calls = []
    profile = cal._profile_eta0

    def record(*args):
        calls.append(args)
        return profile(*args)

    monkeypatch.setattr(cal, "_profile_eta0", record)
    ds = cal.load_dataset("speed_vs_period", shipped_data_dir)
    cal.thermal_fit_report(ds, TEMPLATE)
    monkeypatch.undo()
    assert len(calls) == 3 + 6  # 5-row blocks of the 15 x 15 grid, then one per level
    got = [assert_profile_exact(*args) for args in calls]
    assert sum(map(len, got)) == 15 * 15 + 6 * 9 * 9
    # the bounds cut all but 15 before any exact evaluation; the third
    # block cannot beat the first two, its cutoff
    assert [len(profiled(pairs)) for pairs in got] == [1, 1, 0, 1, 1, 1, 1, 1, 8]


def record_knot_sorts(monkeypatch):
    """Candidates per _profile_eta0 call that pass 0 leaves to the knot sort."""
    sizes = []
    intervals = cal._knot_intervals

    def record(knot, *args):
        sizes.append(len(knot))
        return intervals(knot, *args)

    monkeypatch.setattr(cal, "_knot_intervals", record)
    return sizes


def test_pass0_closes_most_of_the_shipped_fit(monkeypatch, shipped_data_dir):
    # Near the optimum every candidate's best slip scale lies past its last
    # knot, where pass 0's one quadratic and its bound settle it: of the 15
    # candidates of 711 that the bounds leave, none needs the knot sort.
    # A weaker certificate sends candidates to it.
    sizes = record_knot_sorts(monkeypatch)
    ds = cal.load_dataset("speed_vs_period", shipped_data_dir)
    cal.thermal_fit_report(ds, TEMPLATE)
    assert sizes == []


def test_pass0_bound_counts_negative_speeds(monkeypatch):
    # A negative speed is at least |speed| from every model speed, and the
    # bound below the last knot counts that: with the 10 s point at -3.4
    # mm/s, a bound that left it out would send 78 candidates in four
    # calls, not 55 in three, to the knot sort.
    speeds = SHIPPED_MM_S * 1e-3
    speeds[-1] = -3.4e-3
    sizes = record_knot_sorts(monkeypatch)
    calls = []
    profile = cal._profile_eta0

    def record(*args):
        calls.append(args)
        return profile(*args)

    monkeypatch.setattr(cal, "_profile_eta0", record)
    cal._thermal_grid_search(TEMPLATE, PERIODS, speeds)
    monkeypatch.undo()
    assert sizes == [27, 3, 25]
    for args in calls:
        assert_profile_exact(*args)


def test_pass0_keeps_a_bound_equal_to_its_cutoff(monkeypatch):
    # On a 30 mm pitch the 0.5 s period's strokes stall at every eta, so
    # its -10 mm/s adds the same 1e-4 to pass 0's bound and to U: both
    # round on ulp(1e-4), and over a band of 8 s speeds the bound equals U
    # + margin to the bit. A candidate on that edge is not closed: it goes
    # to the knot sort. A bound 1e5 ulps of the 8 s speed higher clears
    # the edge and is closed.
    tmpl = replace(TEMPLATE, terrain=Terrain(pitch=30e-3))
    periods = np.array([0.5, 3.0, 8.0])
    sizes = record_knot_sorts(monkeypatch)
    for speed_8s in (0.0022825236414738873, 0.0022825236415172554):
        speeds = np.array([-0.01, 0.004959465472201823, speed_8s])
        assert_profile_exact(tmpl, [1.0], [0.45], periods, speeds)
    assert sizes == [1]


TAUS = [(1.2693351745605468, 0.5710022517613002), (0.2, 2.0), (3.0, 0.1)]


@pytest.mark.parametrize("terrain", sorted(TERRAINS))
@pytest.mark.parametrize("taus", TAUS)
def test_shipped_speeds_on_each_terrain(terrain, taus):
    tmpl = replace(TEMPLATE, terrain=TERRAINS[terrain])
    assert_profile_exact(tmpl, [taus[0]], [taus[1]], PERIODS, SHIPPED_MM_S * 1e-3)


@pytest.mark.parametrize("terrain", sorted(TERRAINS))
def test_candidates_in_one_call_match_each_alone(terrain):
    tmpl = replace(TEMPLATE, terrain=TERRAINS[terrain])
    speeds = SHIPPED_MM_S * 1e-3
    alone = [assert_profile_exact(tmpl, [h], [c], PERIODS, speeds)[0]
             for h, c in TAUS]
    # the fitted candidate twice: a tie across candidates keeps both
    tau_heat, tau_cool = np.array(TAUS + TAUS[:1]).T
    batch = assert_profile_exact(tmpl, tau_heat, tau_cool, PERIODS, speeds)
    assert batch[0] == batch[-1] == alone[0]
    assert profiled(batch[:-1]) == [a for a, b in zip(alone, batch) if b[1] < math.inf]
    # a tau_heat row: one scalar against many tau_cool values
    assert_profile_exact(tmpl, 1.0, np.linspace(0.1, 2.0, 15), PERIODS, speeds)


@pytest.mark.parametrize("terrain", ["equal_friction", "forward_above_backward"])
def test_stalled_strokes_give_index_zero(terrain):
    # no stroke ever advances, so every grid point ties and the first wins
    tmpl = replace(TEMPLATE, terrain=TERRAINS[terrain])
    got = assert_profile_exact(tmpl, 1.0, [0.1, 0.45, 2.0], PERIODS,
                               SHIPPED_MM_S * 1e-3)
    assert [eta0 for eta0, _ in got] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("terrain", ["ratchet", "smooth"])
def test_speeds_beyond_reach_give_the_last_point(terrain):
    tmpl = replace(TEMPLATE, terrain=TERRAINS[terrain])
    [(eta0, _)] = assert_profile_exact(tmpl, [1.0], [0.45], PERIODS, np.full(7, 1.0))
    assert eta0 == 1.0


@pytest.mark.parametrize("terrain", ["ratchet", "smooth",
                                     "ratchet_anchor_friction"])
def test_simulated_and_jittered_speeds(terrain):
    tmpl = replace(TEMPLATE, terrain=TERRAINS[terrain])
    true = ActuatorModel(tau_heat=1.4, tau_cool=0.6)
    sc = replace(tmpl, actuator=true,
                 slip=SlipModel(eta0=0.7, c_slope=0.0, c_load=0.0))
    periods = np.array([2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    sim = simulated_sweep(sc, periods)
    [(eta0, _)] = assert_profile_exact(tmpl, [1.4], [0.6], periods, sim)
    assert eta0 == pytest.approx(0.7, abs=1e-12)  # grid point 1400
    rng = np.random.default_rng(7)
    for _ in range(5):
        jittered = sim * (1.0 + 0.08 * rng.standard_normal(len(sim)))
        assert_profile_exact(tmpl, [1.4, 0.9], [0.6, 1.1], periods, jittered)


@pytest.mark.parametrize("lean", [0.1, 0.5, 0.9])
def test_minimum_at_a_kink(lean):
    # Data whose SSE bottoms out at a knot k, where its slope jumps from
    # -lean*jump to +(1-lean)*jump: the period q whose strokes start there
    # overshoots the data by eps, the other undershoots it just enough.
    # Only the grid points bracketing k hold the minimum, not the vertex
    # of either neighbouring quadratic. A 30 mm pitch spreads the knots
    # over (0, 1).
    tmpl = replace(TEMPLATE, terrain=Terrain(pitch=30e-3))
    act = ActuatorModel(tau_heat=1.0, tau_cool=0.45)
    periods = np.array([3.0, 8.0])
    stand, sit, _, _ = stroke_arcs(replace(tmpl, actuator=act),
                                   periods, SWEEP_CYCLES)
    arcs = np.concatenate([stand, sit], axis=1)
    knots = tmpl.terrain.reseat_loss / arcs
    scale = SWEEP_CYCLES * periods
    eps = 2e-4  # m/s
    kinks = 0
    for k in np.unique(knots[knots < 1.0]):
        starts = np.sum(np.where(knots == k, arcs, 0.0), axis=1) / scale
        left = np.sum(np.where(knots < k, arcs, 0.0), axis=1) / scale
        if np.count_nonzero(starts) != 1 or np.any(left == 0.0):
            continue
        q = int(np.argmax(starts))
        r = np.empty(2)
        r[q] = eps
        r[1 - q] = -(left[q] + lean * starts[q]) * eps / left[1 - q]
        speeds = sweep_speeds(replace(tmpl, actuator=act), np.array([k]), periods)[0] - r
        [(eta0, _)] = assert_profile_exact(tmpl, [act.tau_heat], [act.tau_cool],
                                           periods, speeds)
        assert abs(eta0 - k) <= 5e-4
        kinks += 1
    assert kinks >= 8


TAU_PAIRS = st.tuples(st.floats(0.2, 3.0), st.floats(0.1, 2.0))


@pytest.mark.fresh_seed
@settings(max_examples=60, deadline=None)
@given(taus=st.lists(TAU_PAIRS, min_size=1, max_size=4),
       terrain=st.sampled_from(sorted(TERRAINS)),
       data=st.lists(st.tuples(st.floats(0.5, 20.0), st.floats(0.0, 0.02)),
                     min_size=4, max_size=12,
                     unique_by=lambda p: p[0]),
       cutoff=st.none() | st.floats(0.0, 1.0))
def test_profile_matches_grid(taus, terrain, data, cutoff):
    # cutoff, when drawn, is a fraction of the SSE at eta = 0
    data.sort()
    periods = np.array([p for p, _ in data])
    speeds = np.array([v for _, v in data])
    tmpl = replace(TEMPLATE, terrain=TERRAINS[terrain])
    tau_heat, tau_cool = np.array(taus).T
    cutoff = math.inf if cutoff is None else cutoff * float(np.sum(speeds * speeds))
    got = assert_profile_exact(tmpl, tau_heat, tau_cool, periods, speeds, cutoff)
    for eta0, sse in profiled(got):
        assert 0.0 <= eta0 <= 1.0 and math.isfinite(sse)


def test_second_pass_finds_the_lower_grid_minimum():
    # Two periods on a 30 mm pitch whose SSE has a concave kink at eta =
    # 12/13, where the 8 s period's six sit strokes start and its data
    # sits above the model: a local minimum on each side, 1e-7 apart in
    # relative terms. The left quadratic's
    # continuous minimum is the lower one, so pass 1 evaluates its bracket,
    # but its vertex falls between grid points. The grid minimum is the
    # right one's, at a grid point, and only the second pass reaches it.
    tmpl = replace(TEMPLATE, terrain=Terrain(pitch=30e-3))
    act = ActuatorModel(tau_heat=1.0, tau_cool=0.45)
    periods = np.array([3.0, 8.0])
    speeds = np.array([1.2097928282154813e-3, 8.018121916802907e-3])
    sse = np.sum((sweep_speeds(replace(tmpl, actuator=act), cal.ETA0_GRID, periods)
                  - speeds) ** 2, axis=1)
    dips = np.flatnonzero((sse[1:-1] < sse[:-2]) & (sse[1:-1] <= sse[2:])) + 1
    assert dips.tolist() == [1744, 1940]
    assert sse[1940] < sse[1744] < sse[1940] * (1.0 + 1e-6)
    [(eta0, _)] = assert_profile_exact(tmpl, [act.tau_heat], [act.tau_cool],
                                       periods, speeds)
    assert eta0 == cal.ETA0_GRID[1940]


def test_margin_keeps_a_rounding_tie():
    # The same kink, with data whose two grid minima (indices 1843 and
    # 1849) differ by 3.5e-14 of their value, 1.4e-17 of the margin's
    # scale W; the right one is lower. Its interval's lower bound rounds
    # above pass 1's bound U, and only the margin keeps it in pass 2: a
    # margin of 1e-17 * W loses it, 1e-16 * W keeps it.
    tmpl = replace(TEMPLATE, terrain=Terrain(pitch=30e-3))
    act = ActuatorModel(tau_heat=1.0, tau_cool=0.45)
    periods = np.array([3.0, 8.0])
    speeds = np.array([4.1925212816193436e-3, 2.0613292403100477e-3])
    sse = np.sum((sweep_speeds(replace(tmpl, actuator=act), cal.ETA0_GRID, periods)
                  - speeds) ** 2, axis=1)
    dips = np.flatnonzero((sse[1:-1] < sse[:-2]) & (sse[1:-1] <= sse[2:])) + 1
    assert dips.tolist() == [1843, 1849]
    assert sse[1849] < sse[1843] < sse[1849] * (1.0 + 1e-13)
    [(eta0, _)] = assert_profile_exact(tmpl, [act.tau_heat], [act.tau_cool],
                                       periods, speeds)
    assert eta0 == cal.ETA0_GRID[1849]


@pytest.mark.fresh_seed
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_profile_below_the_last_knot_matches_grid(data):
    # Speeds the model gives at a grid slip scale below the generating
    # candidate's last knot K (its largest knot <= 1), on a 30 mm pitch
    # that spreads the knots over (0, 1): that candidate's minimum lies
    # in [0, K), so pass 0 cannot close it and the knot-sorted passes must
    # find it. The other candidates are drawn around it.
    tmpl = replace(TEMPLATE, terrain=Terrain(pitch=30e-3))
    ter = tmpl.terrain
    periods = np.sort(data.draw(st.lists(st.floats(0.5, 20.0), min_size=4,
                                         max_size=12, unique=True)))
    taus = data.draw(st.lists(TAU_PAIRS, min_size=1, max_size=30))
    true = data.draw(st.integers(0, len(taus) - 1))
    act = replace(tmpl.actuator, tau_heat=taus[true][0], tau_cool=taus[true][1])
    stand, sit, _, _ = stroke_arcs(replace(tmpl, actuator=act), periods,
                                   SWEEP_CYCLES)
    rate = ter.anchor_efficiency * np.concatenate([stand, sit], axis=1)
    knots = np.divide(ter.reseat_loss, rate, out=np.full_like(rate, np.inf),
                      where=rate > 0.0)
    below = np.flatnonzero(cal.ETA0_GRID < np.max(knots, where=knots <= 1.0,
                                                   initial=0.0))
    assume(len(below))
    eta = cal.ETA0_GRID[below[data.draw(st.integers(0, len(below) - 1))]]
    speeds = sweep_speeds(replace(tmpl, actuator=act), np.array([eta]), periods)[0]
    tau_heat, tau_cool = np.array(taus).T
    got = assert_profile_exact(tmpl, tau_heat, tau_cool, periods, speeds)
    assert got[true][0] <= eta and got[true][1] == 0.0


NEAR_FIT_TERRAINS = {**TERRAINS, "pitch_30mm": Terrain(pitch=30e-3)}


@pytest.mark.fresh_seed
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_profile_at_a_near_zero_sse(data):
    # Speeds the model gives at a grid point, optionally jittered by 1e-6:
    # the SSE is near 0, so the pruning bound U is too, and the margin
    # alone keeps the intervals around the generating slip scale.
    terrain = data.draw(st.sampled_from(sorted(NEAR_FIT_TERRAINS)))
    tmpl = replace(TEMPLATE, terrain=NEAR_FIT_TERRAINS[terrain])
    periods = np.sort(data.draw(st.lists(st.floats(0.5, 20.0), min_size=4,
                                         max_size=12, unique=True)))
    taus = data.draw(st.lists(TAU_PAIRS, min_size=1, max_size=30))
    true = taus[data.draw(st.integers(0, len(taus) - 1))]
    eta = cal.ETA0_GRID[data.draw(st.integers(0, len(cal.ETA0_GRID) - 1))]
    act = replace(tmpl.actuator, tau_heat=true[0], tau_cool=true[1])
    speeds = sweep_speeds(replace(tmpl, actuator=act), np.array([eta]), periods)[0]
    if data.draw(st.booleans()):
        noise = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(periods),
                                   max_size=len(periods)))
        speeds = speeds * (1.0 + 1e-6 * np.array(noise))
    tau_heat, tau_cool = np.array(taus).T
    assert_profile_exact(tmpl, tau_heat, tau_cool, periods, speeds)


def profile_one(template, actuator, periods, speeds):
    """_profile_eta0 for a single candidate actuator, as floats."""
    eta0, sse = cal._profile_eta0(template, [actuator.tau_heat],
                                  [actuator.tau_cool], periods, speeds)
    return float(eta0[0]), float(sse[0])


def loop_search(template, periods, speeds):
    """The thermal grid search one candidate at a time: the reference for
    _thermal_grid_search's row-batched search and its tie rule."""
    (th_lo, th_hi) = cal.THERMAL_BOUNDS["tau_heat_s"]
    (tc_lo, tc_hi) = cal.THERMAL_BOUNDS["tau_cool_s"]

    def candidate(tau_h, tau_c):
        return replace(template.actuator, tau_heat=float(tau_h), tau_cool=float(tau_c))

    best = None
    th_grid = np.linspace(th_lo, th_hi, 15)
    tc_grid = np.linspace(tc_lo, tc_hi, 15)
    for _ in range(7):
        for th in th_grid:
            for tc in tc_grid:
                act = candidate(th, tc)
                eta0, sse = profile_one(template, act, periods, speeds)
                if best is None or sse < best[0]:
                    best = (sse, float(th), float(tc), eta0)
        step_h = (th_grid[-1] - th_grid[0]) / (len(th_grid) - 1)
        step_c = (tc_grid[-1] - tc_grid[0]) / (len(tc_grid) - 1)
        th_grid = np.linspace(max(th_lo, best[1] - 1.5 * step_h),
                              min(th_hi, best[1] + 1.5 * step_h), 9)
        tc_grid = np.linspace(max(tc_lo, best[2] - 1.5 * step_c),
                              min(tc_hi, best[2] + 1.5 * step_c), 9)
    return best


def test_grid_search_on_the_shipped_data(shipped_data_dir):
    ds = cal.load_dataset("speed_vs_period", shipped_data_dir)
    order = np.argsort(ds.column("period_s"))
    periods = ds.column("period_s")[order]
    speeds = ds.column("speed_mm_s")[order] * 1e-3
    best = cal._thermal_grid_search(TEMPLATE, periods, speeds)
    assert best == loop_search(TEMPLATE, periods, speeds)
    assert best[1:3] == (1.2693351745605468, 0.5710022517613002)


@pytest.mark.parametrize("terrain", ["ratchet", "smooth", "smooth_anchor_friction",
                                     "ratchet_anchor_friction"])
def test_grid_search_on_each_advancing_terrain(terrain):
    tmpl = replace(TEMPLATE, terrain=TERRAINS[terrain])
    speeds = SHIPPED_MM_S * 1e-3
    assert (cal._thermal_grid_search(tmpl, PERIODS, speeds)
            == loop_search(tmpl, PERIODS, speeds))


@pytest.mark.parametrize("terrain", ["equal_friction", "forward_above_backward"])
def test_grid_search_all_stalled_keeps_the_first_candidate(terrain):
    # every candidate ties at eta0 = 0, so the first of the coarse grid wins
    tmpl = replace(TEMPLATE, terrain=TERRAINS[terrain])
    speeds = SHIPPED_MM_S * 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0/0 from the stalled vertices
        best = cal._thermal_grid_search(tmpl, PERIODS, speeds)
    assert best == loop_search(tmpl, PERIODS, speeds)
    assert best[1:] == (0.2, 0.1, 0.0)


@pytest.mark.fresh_seed
@pytest.mark.parametrize("terrain", sorted(TERRAINS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_grid_search_matches_the_loop_property(terrain, data):
    # Cutting candidates against each other and against the best so far
    # keeps the loop's answer and its tie rule: 4 to 9 periods, often
    # repeated, in any order, with zero and negative speeds among them.
    tmpl = replace(TEMPLATE, terrain=TERRAINS[terrain])
    drawn = data.draw(st.lists(st.floats(0.5, 20.0), min_size=1, max_size=9))
    periods = np.array(data.draw(st.lists(st.sampled_from(drawn), min_size=4,
                                          max_size=9)))
    speeds = np.array(data.draw(st.lists(st.just(0.0) | st.floats(-0.02, 0.02),
                                         min_size=len(periods),
                                         max_size=len(periods))))
    assert (cal._thermal_grid_search(tmpl, periods, speeds)
            == loop_search(tmpl, periods, speeds))


def full_peak(fitted, eta0):
    """The fitted speed curve's first argmax over all 1951 periods of the
    peak check's grid: the reference for _speed_peak's bounded scan."""
    fine = np.arange(0.5, 20.0 + 1e-9, 0.01)
    assert len(fine) == 1951
    ter = fitted.terrain
    stand, sit, _, _ = stroke_arcs(fitted, fine, SWEEP_CYCLES)
    v = (_net_advance(ter, eta0 * ter.anchor_efficiency, stand, sit, True).sum(axis=-1)
         / (SWEEP_CYCLES * fine))
    return float(fine[int(np.argmax(v))])


SHIPPED_FIT = (1.2693351745605468, 0.5710022517613002, 0.7635000000000001)


# the shipped fit (peak 4.02 s) split at its window's edge, below its peak,
# below the grid and past it; eta0 = 0, a flat curve peaking at 0.5 s
@pytest.mark.fresh_seed
@example(terrain="ratchet", fit=SHIPPED_FIT, cap=None, split_at=4.5)
@example(terrain="ratchet", fit=SHIPPED_FIT, cap=None, split_at=4.0)
@example(terrain="ratchet", fit=SHIPPED_FIT, cap=None, split_at=0.3)
@example(terrain="ratchet", fit=SHIPPED_FIT, cap=None, split_at=25.0)
@example(terrain="ratchet", fit=SHIPPED_FIT[:2] + (0.0,), cap=None, split_at=4.5)
@example(terrain="smooth", fit=SHIPPED_FIT[:2] + (0.0,), cap=None, split_at=0.3)
@settings(max_examples=60, deadline=None)
@given(terrain=st.sampled_from(sorted(TERRAINS)),
       fit=st.tuples(st.floats(0.2, 3.0), st.floats(0.1, 2.0),
                     st.sampled_from(cal.ETA0_GRID.tolist())),
       cap=st.none() | st.floats(0.0, BETA_MAX),
       split_at=st.floats(0.3, 25.0))
def test_speed_peak_matches_the_full_scan_property(terrain, fit, cap, split_at):
    # cap, when drawn, replaces the height map's 60 degrees: a small one
    # leaves strokes whose arcs lose most of their digits to 1 - cos
    fitted = replace(TEMPLATE, terrain=TERRAINS[terrain],
                     actuator=replace(TEMPLATE.actuator, tau_heat=fit[0],
                                      tau_cool=fit[1]))
    if cap is not None:
        fitted = replace(fitted, height_map=CurrentHeightMap(
            anchors=((0.0, cap), (1.0, cap))))
    assert cal._speed_peak(fitted, fit[2], split_at) == full_peak(fitted, fit[2])


def test_shipped_peak_is_the_full_scans(shipped_data_dir):
    ds = cal.load_dataset("speed_vs_period", shipped_data_dir)
    report = cal.thermal_fit_report(ds, TEMPLATE)
    eta0 = report.parameters["eta0_profile"]
    peak = report.parameters["peak_s"]
    assert peak == full_peak(replace(TEMPLATE, actuator=report.model), eta0)
    assert peak == pytest.approx(4.02, abs=1e-9)
    # a window whose upper edge lies below the peak
    with pytest.raises(cal.NoFeasibleFitError, match="peaks at 4.02 s"):
        cal.thermal_fit_report(ds, TEMPLATE, peak_window=(3.5, 4.0))


def resweep_rmse(fitted, eta0, periods, speeds):
    """The thermal fit's residual as a second sweep at the fit computes it:
    the fit's SWEEP_CYCLES closed form at the fitted actuator and slip
    scale, which sweep_period matches within rounding."""
    sim = sweep_speeds(fitted, np.array([eta0]), periods)[0]
    return math.sqrt(float(np.sum((sim - speeds) ** 2)) / len(periods))


# Inherits the active profile: derandomized under CI's "ci" profile, and
# drawn afresh by the fresh-seed step, which names the default profile.
@pytest.mark.fresh_seed
@settings(max_examples=40, deadline=None)
@given(taus=TAU_PAIRS, eta=st.floats(0.2, 1.0),
       periods=st.lists(st.floats(1.0, 10.0), min_size=4, max_size=8, unique=True),
       data=st.data())
def test_thermal_residual_is_the_resweep_rmse_property(taus, eta, periods, data):
    # The residual is the grid search's own best SSE. It must be the bits
    # a re-sweep at the fitted constants gives, for data off the model too.
    periods = np.sort(periods)
    true = replace(TEMPLATE, actuator=replace(TEMPLATE.actuator, tau_heat=taus[0],
                                              tau_cool=taus[1]))
    jitter = data.draw(st.lists(st.floats(-0.05, 0.05), min_size=len(periods),
                                max_size=len(periods)))
    speeds_mm_s = (sweep_speeds(true, np.array([eta]), periods)[0]
                   * (1.0 + np.array(jitter)) * 1e3)
    ds = cal.Dataset(name="sweep", columns=("period_s", "speed_mm_s"),
                 rows=np.column_stack([periods, speeds_mm_s]),
                 source="synthetic: drawn by this test", uncertainty=0.05)
    report = cal.thermal_fit_report(ds, TEMPLATE, peak_window=(0.5, 20.0))
    speeds = ds.column("speed_mm_s") * 1e-3  # as the fit reads them
    sse, tau_heat, tau_cool, eta0 = cal._thermal_grid_search(TEMPLATE, periods, speeds)
    assert report.model == replace(TEMPLATE.actuator, tau_heat=tau_heat,
                                   tau_cool=tau_cool)
    assert report.parameters["eta0_profile"] == eta0
    fitted = replace(TEMPLATE, actuator=report.model)
    assert report.residual == resweep_rmse(fitted, eta0, periods, speeds)
