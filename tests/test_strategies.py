import hashlib
import math
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest

from graphchase import strategies
from graphchase import (StrategyError, build_graph, build_star_schedule,
                        check_lipschitz, comb_strategy, cycle_loop,
                        cycle_strategy, finiteness_strategy, lambda_root,
                        secure_vertex, star_strategy, sufficient_speed,
                        sweep_strategy, total_variation, verify)
from graphchase.graph import walk_covers
from graphchase.strategies import (STATION_PROBES, _cascade_update,
                                   _detect_comb, _ladder_init)

from common import comb, path_graph, star, triangle, unit_cycle, unit_path

ROOT = pathlib.Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------- growth root

def test_lambda_root_three_arms_closed_form():
    assert lambda_root(3, 3.5) == 1.25
    assert lambda_root(3, 4.0) == 1.5


def test_lambda_root_polynomial_residual():
    for k in range(3, 9):
        s = 2 * k - 3 + 2.0
        lam = lambda_root(k, s)
        residual = math.fsum(lam ** i for i in range(1, k - 1)) - (s - 1) / 2
        assert abs(residual) <= 1e-12
        assert lam > 1.0


def test_lambda_root_near_threshold():
    for k in range(3, 7):
        lam = lambda_root(k, 2 * k - 3 + 1e-6)
        assert 0 < lam - 1.0 < 1e-3


def test_lambda_root_rejections():
    with pytest.raises(StrategyError):
        lambda_root(2, 10.0)
    with pytest.raises(StrategyError, match="above 3"):
        lambda_root(3, 3.0)
    with pytest.raises(StrategyError, match="above 5"):
        lambda_root(4, 4.5)
    for k in (3, 4):
        for s in (math.inf, math.nan):
            with pytest.raises(StrategyError, match="finite"):
                lambda_root(k, s)


@pytest.mark.parametrize("truncation", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("build", [
    lambda t: star_strategy(star(3), 4.0, t),
    lambda t: comb_strategy(comb(3), 4.0, t),
    lambda t: secure_vertex(triangle(), "a", 8.0, t),
    lambda t: sufficient_speed(triangle(), t),
    lambda t: finiteness_strategy(triangle(), 48.0, t),
], ids=["star", "comb", "secure", "sufficient", "finiteness"])
def test_truncation_must_be_finite_and_positive(build, truncation):
    with pytest.raises(StrategyError, match="finite and positive"):
        build(truncation)


def test_star_schedule_needs_a_truncation():
    with pytest.raises(StrategyError, match="finite and positive, got None"):
        build_star_schedule(star(3), 4.0, None)


# ------------------------------------------------------------ cascade update

def test_cascade_update_arithmetic():
    radii = {"a": 0.0, "b": 0.5}
    extents = {"a": 2.0, "b": 2.0}
    cleared = set()
    _cascade_update(radii, cleared, extents, "a", 0.5, 5.0)
    assert radii["a"] == pytest.approx(1.0)    # (s-1)/2 * duration
    assert radii["b"] == pytest.approx(0.0)
    assert not cleared


def test_cascade_update_safety_guard():
    radii = {"a": 0.0, "b": 0.1}
    with pytest.raises(StrategyError, match="safety"):
        _cascade_update(radii, set(), {"a": 1.0, "b": 1.0}, "a", 0.5, 5.0)


def test_cascade_update_clearing_and_freezing():
    radii = {"a": 0.0, "b": 3.0}
    extents = {"a": 1.0, "b": 3.0}
    cleared = {"b"}
    _cascade_update(radii, cleared, extents, "a", 0.5, 5.0)
    assert radii["b"] == 3.0                   # cleared arms frozen
    assert radii["a"] == pytest.approx(1.0)
    _cascade_update(radii, cleared, extents, "a", 0.6, 5.0)
    assert "a" in cleared                      # clamped at its extent


def test_ladder_init_and_overhang():
    radii = _ladder_init(["a", "b", "c"], 1.5, 0.1)
    assert radii == {"a": 0.0, "b": 0.1, "c": pytest.approx(0.25)}


# ------------------------------------------------------------------ stars

def test_star_schedule_structure():
    g = star(4)
    s = 6.0
    sched = build_star_schedule(g, s, 1e-2)
    lam = sched.lam
    assert lam == lambda_root(4, s)
    assert sched.d0 < 1e-2
    assert sched.d0 == pytest.approx(lam ** (-sched.m_start * 3 + 1))
    # durations grow geometrically, starts tile contiguously
    exc = sched.excursions
    assert exc[0][1] == pytest.approx(sched.phase1_end + sched.d0 / (lam - 1))
    for j, (arm, start, dur) in enumerate(exc):
        assert dur == pytest.approx(sched.d0 * lam ** j)
    for (a0, s0, d0), (a1, s1, d1) in zip(exc, exc[1:]):
        assert s1 == pytest.approx(s0 + d0)
    # rotation visits every cascade arm before repeating any
    first_round = [e[0] for e in exc[:3]]
    assert sorted(first_round) == sorted(sched.arm_order)


def replayed_clearings(sched, g):
    """The clearings found by replaying the free-radius arithmetic over the
    schedule's excursions: each arm at the first excursion after which it
    is in the cleared set, arms of one excursion in rotation order."""
    extents = {eid: g.edge(eid).length for eid in sched.arm_order}
    radii = _ladder_init(list(sched.arm_order), sched.lam, sched.d0)
    cleared = set()
    found = []
    for i, (target, _, duration) in enumerate(sched.excursions):
        before = set(cleared)
        _cascade_update(radii, cleared, extents, target, duration, sched.s)
        found += [(i, arm) for arm in sched.arm_order
                  if arm in cleared - before]
    return found


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_star_schedule_clearings_match_the_replay(k):
    for arm in (1.0, 0.5):
        g = star(k, arm)
        for s in (2 * k - 3 + 0.25, 2 * k - 2, 2 * k):
            for truncation in (1e-3, 1e-2, 0.3, 10.0):
                # a truncation large next to the arms lets the opening
                # ladder clear arms before their first probe: those 21 of
                # the 96 cases are refused (none with three arms, where
                # the one unprobed arm's radius d0 decays to 0 at once)
                if (truncation == 10.0 and (k > 4 or k == 4 and arm == 0.5)
                        or truncation == 0.3 and k > 4 and arm == 0.5):
                    with pytest.raises(StrategyError,
                                       match="before any probe"):
                        build_star_schedule(g, s, truncation)
                    continue
                sched = build_star_schedule(g, s, truncation)
                assert list(sched.clearings) == replayed_clearings(sched, g)
                # every arm clears at a probe of its own
                assert all(sched.excursions[i][0] == a
                           for i, a in sched.clearings)


def test_star_schedule_refuses_a_ladder_that_clears_an_arm_before_its_probe():
    # the opening ladder's radius would clear e3 at excursion 0: star(5)
    # would never enter it, and star(6) would probe it after clearing it
    with pytest.raises(StrategyError, match="'e3'.*before any probe"):
        star_strategy(star(5), 8.0, 10.0)
    with pytest.raises(StrategyError, match="'e3'.*before any probe"):
        build_star_schedule(star(6), 9.25, 10.0)


def test_star_schedule_simulation_terminates():
    g = star(4)
    sched = build_star_schedule(g, 6.0, 1e-2)
    arms = [arm for _, arm in sched.clearings]
    assert len(arms) == 2 == len(set(arms))     # all cascade arms but one
    assert [i for i, _ in sched.clearings][-1] == len(sched.excursions) - 1
    assert set(sched.arm_order) - set(arms) == {sched.last_arm}
    p = star_strategy(g, 6.0, 1e-2)
    assert g.points_equal(p.points[-1],
                          g.vertex_point(g.leaf_end(sched.last_arm)))


def test_star_strategy_shape():
    g = star(3)
    p = star_strategy(g, 4.0)
    assert p.metadata["kind"] == "star"
    assert check_lipschitz(p, 4.0)
    assert g.points_equal(p.evaluate(0.0), g.vertex_point("O"))
    end = p.evaluate(p.duration)
    v = g.point_vertex(end)
    assert v is not None and g.is_leaf(v)


def test_star_strategy_captures():
    g = star(3, arm=0.5)
    p = star_strategy(g, 4.0)
    res = verify(p, h=0.02)
    assert res.verdict == "capture"


def test_star_rejections():
    with pytest.raises(StrategyError, match="above 3"):
        star_strategy(star(3), 3.0)
    with pytest.raises(StrategyError, match="at least 3"):
        star_strategy(star(2), 10.0)
    with pytest.raises(StrategyError, match="not a star"):
        star_strategy(triangle(), 10.0)
    with pytest.raises(StrategyError, match="positive"):
        star_strategy(star(3), 4.0, truncation=0.0)


def test_near_threshold_star_refused_before_building(monkeypatch):
    # the schedule tracks the builder's clock, so no path is started: at
    # 3.000001 the 39th start is behind it, which the builder alone
    # noticed only after planning every excursion (about 20 s)
    def no_builder(*args, **kwargs):
        raise AssertionError("a path was built")
    monkeypatch.setattr(strategies, "PathBuilder", no_builder)
    with pytest.raises(StrategyError, match="behind the path's clock"):
        star_strategy(star(3), 3.000001, 0.1)
    with pytest.raises(StrategyError, match="behind the path's clock"):
        build_star_schedule(star(3), 3.000001, 0.1)


def test_star_unequal_arms():
    g = build_graph(["O", "a", "b", "c"],
                    [("O", "a", 0.5), ("O", "b", 1.0), ("O", "c", 2.0)])
    p = star_strategy(g, 4.0)
    res = verify(p, h=0.02)
    assert res.verdict == "capture"


# ------------------------------------------------------------------ combs

def test_comb_strategy_shape():
    g = comb(3)
    p = comb_strategy(g, 4.0)
    assert p.metadata["kind"] == "comb"
    assert check_lipschitz(p, 4.0)
    assert g.points_equal(p.evaluate(0.0), g.vertex_point("u1"))
    assert g.points_equal(p.evaluate(p.duration), g.vertex_point("u3"))


def test_comb_two_teeth_captures():
    g = comb(2, 0.5)
    p = comb_strategy(g, 4.0)
    res = verify(p, h=0.02)
    assert res.verdict == "capture"


def test_comb_rejections():
    with pytest.raises(StrategyError, match="above 3"):
        comb_strategy(comb(3), 3.0)
    with pytest.raises(StrategyError, match="equal"):
        g = build_graph(["v1", "v2", "u1", "u2"],
                        [("v1", "v2", 1.0), ("v1", "u1", 1.0),
                         ("v2", "u2", 0.5)])
        comb_strategy(g, 4.0)
    with pytest.raises(StrategyError):
        comb_strategy(star(3), 4.0)
    with pytest.raises(StrategyError, match="positive"):
        comb_strategy(comb(3), 4.0, truncation=-1.0)


def test_comb_station_limit_names_the_speed():
    # just above 3 a station cascade needs more probes than its limit
    g = comb(6)
    with pytest.raises(StrategyError, match=r"speed 3\.0009 .* threshold 3.*"
                       rf"{STATION_PROBES}-probe station limit"):
        comb_strategy(g, 3.0009)
    assert comb_strategy(g, 3.001).metadata["kind"] == "comb"


def test_comb_backbone_in_path_order():
    # the backbone runs z - a - m - b, not in the declared (sorted) vertex
    # order; it starts at the lesser end
    spine = ["z", "a", "m", "b"]
    g = build_graph(sorted(spine) + [f"t{v}" for v in spine],
                    [(v, f"t{v}", 1.0) for v in spine]
                    + [(u, v, 1.0) for u, v in zip(spine, spine[1:])])
    order, teeth = _detect_comb(g)
    assert order == spine[::-1]
    assert {v: e.other(v) for v, e in teeth.items()} == \
        {v: f"t{v}" for v in spine}
    ring = build_graph(spine + [f"t{v}" for v in spine],
                       [(v, f"t{v}", 1.0) for v in spine]
                       + [(u, v, 1.0) for u, v in zip(spine, spine[1:])]
                       + [("b", "z", 1.0)])
    with pytest.raises(StrategyError, match="backbone is not a path"):
        _detect_comb(ring)


# ------------------------------------------------------------------ cycles

def test_cycle_strategy_duration():
    g = unit_cycle()
    p = cycle_strategy(g, 2.0)
    assert p.duration == pytest.approx(g.total_length / 1.0)
    assert p.metadata["kind"] == "cycle"
    assert check_lipschitz(p, 2.0)


def test_cycle_strategy_rejections():
    with pytest.raises(StrategyError, match="antipode"):
        cycle_strategy(unit_cycle(), 1.0)
    with pytest.raises(StrategyError, match="degree 2"):
        cycle_strategy(unit_path(), 2.0)


def test_cycle_loop_full_speed():
    g = unit_cycle()
    p = cycle_loop(g, 1.5, 2.0)
    assert total_variation(p) == pytest.approx(1.5 * 2.0)
    assert p.duration == 2.0
    # whole laps return to the start
    q = cycle_loop(g, 1.0, 2.0)
    assert g.points_equal(q.evaluate(0.0), q.evaluate(2.0))


def test_cycle_loop_degenerate():
    g = unit_cycle()
    p = cycle_loop(g, 0.0, 1.0)
    assert total_variation(p) == 0.0
    with pytest.raises(StrategyError):
        cycle_loop(g, 1.0, 0.0)
    # a loop shorter than 1e-12 is a wait at the start
    p = cycle_loop(g, 1e-14, 1.0)
    assert p.times == (0.0, 1.0) and p.routes == ((),)
    assert p.points[0] == p.points[1] == g.vertex_point(min(g.vertices))


def walked_lap(g):
    """Reference lap of a cycle: from its least vertex along its first
    incident edge, then on along the other edge at each vertex."""
    start = min(g.vertices)
    runs = []
    v = start
    e = g.incident_edges(v)[0]
    while True:
        runs.append(e.run_from(v))
        v = e.other(v)
        if v == start:
            break
        e = next(x for x in g.incident_edges(v) if x.id != e.id)
    return runs


def test_cycle_loop_lap_matches_the_reference_walk():
    # random cycles of one to seven raw edges with shuffled ids: one edge
    # is a loop and two are parallel, which normalization subdivides
    rng = random.Random(22)
    for _ in range(200):
        n = rng.randint(1, 7)
        names = rng.sample([f"w{i}" for i in range(20)], n)
        ids = rng.sample([f"f{i}" for i in range(20)], n)
        g = build_graph(names, [(names[i], names[(i + 1) % n],
                                 rng.uniform(0.1, 2.0), ids[i])
                                for i in range(n)])
        lap = walked_lap(g)
        # one and a half laps: the first is walked whole
        p = cycle_loop(g, 1.0, 1.5 * g.total_length)
        assert p.points[0] == g.vertex_point(min(g.vertices))
        assert [run for (run,) in p.routes[:len(lap)]] == lap


@pytest.mark.parametrize("s, duration", [(math.nan, 1.0), (1.0, math.nan),
                                         (-1.0, 1.0)])
def test_cycle_loop_rejects_nan_and_negative_inputs(s, duration):
    with pytest.raises(StrategyError, match="finite"):
        cycle_loop(unit_cycle(), s, duration)


def test_cycle_loop_refuses_infinite_inputs_at_once():
    # an infinite speed or duration appended laps forever: the child runs
    # under a timeout and an address-space cap, so a regression fails
    # this test instead of hanging the suite or filling memory
    code = textwrap.dedent("""
        import math, resource
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))
        from graphchase import StrategyError, cycle_loop
        from graphchase.graph import build_graph
        g = build_graph(["a"], [("a", "a", 1.0)])
        for s, duration in ((1.0, math.inf), (math.inf, 1.0)):
            try:
                cycle_loop(g, s, duration)
            except StrategyError as exc:
                print(exc)
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("needs a finite nonnegative speed") == 2


# ------------------------------------------------------------------ sweeps

def test_sweep_covers_every_edge():
    g = path_graph(2)
    p = sweep_strategy(g, 2.0)
    runs = [run for seg in p.routes for run in seg]
    assert walk_covers(g, runs)
    assert total_variation(p) == pytest.approx(2.0 * p.duration)
    assert p.duration == pytest.approx(1.0)     # the path once, end to end
    assert g.points_equal(p.evaluate(p.duration), g.vertex_point("v2"))
    assert p.metadata == {"kind": "sweep"}


def test_sweep_rejections():
    with pytest.raises(StrategyError):
        sweep_strategy(path_graph(2), 0.0)
    for s in (math.nan, math.inf):
        with pytest.raises(StrategyError, match="finite positive speed"):
            sweep_strategy(path_graph(2), s)


# --------------------------------------------------------- vertex securing

def test_secure_vertex_triangle():
    g = triangle()
    frag, eps_v, total = secure_vertex(g, "a", 8.0)
    assert eps_v == pytest.approx(0.5 * (8 - 4 + 1) / 8)   # cap(s-2k+1)/s
    assert frag.duration == pytest.approx(total)
    assert g.points_equal(frag.evaluate(0.0), g.vertex_point("a"))
    assert g.points_equal(frag.evaluate(total), g.vertex_point("a"))
    assert check_lipschitz(frag, 8.0)


def test_secure_vertex_leaf():
    g = unit_path()
    frag, eps_v, total = secure_vertex(g, "a", 4.0)
    assert eps_v == pytest.approx(0.5 * (4 - 1) / 4)
    assert g.points_equal(frag.evaluate(total), g.vertex_point("a"))


def test_secure_vertex_rejects_slow():
    with pytest.raises(StrategyError, match="above 5"):
        secure_vertex(triangle(), "a", 5.0)


def test_sufficient_speed_triangle():
    assert sufficient_speed(triangle()) == 48.0


def test_finiteness_rejects_below_threshold():
    g = triangle()
    with pytest.raises(StrategyError, match="needs speed at least"):
        finiteness_strategy(g, 10.0)


def test_finiteness_strategy_captures():
    g = triangle()
    s = sufficient_speed(g)
    p = finiteness_strategy(g, s)
    assert p.metadata["kind"] == "finiteness"
    assert check_lipschitz(p, s)
    res = verify(p, h=0.02)
    assert res.verdict == "capture"


# ------------------------------------------------------------ cascade pins

@pytest.mark.parametrize("build, breakpoints, duration, digest", [
    (lambda: finiteness_strategy(star(3), sufficient_speed(star(3))), 32,
     0.30562500000000004,
     "bf22bb73db0e738fe132250a35981320bca34bf456892b30163fda40a71dfa5d"),
    (lambda: secure_vertex(star(3), "O", 8.0)[0], 21, 0.6412551229723319,
     "ef3d7dad81ea8f8198adc74dd2db4f544b048e35d21c13c38a424da8dd4fb47e"),
    (lambda: comb_strategy(comb(3), 3.5), 49, 5.372304094810756,
     "56a333c16c6f0dc36aa8bf24e70a6e7812585f5708f3472abffd2a9389a81ce2"),
    (lambda: star_strategy(star(3), 3.2, 1e-3), 154, 10.653409090909083,
     "656cd0c2390a949ab398d17d81c96ff13cfdebcee5a6b718a9e4ce05ba910788"),
    (lambda: cycle_strategy(unit_cycle(), 1.5), 10, 2.0,
     "cafdb463fee883b6795a36de722cd20ab03d671eaed19d6cb9bb9ecceffc6c96"),
    (lambda: cycle_loop(unit_cycle(), 1.0, 6.0), 19, 6.0,
     "62cfe09e6b7b6584fa662d8b1522917880b4e391563aa88dd8f45b4b8ce4417b"),
], ids=["finiteness", "secure", "comb", "star", "cycle", "cycle_loop"])
def test_cascade_paths_are_pinned(build, breakpoints, duration, digest):
    # exact breakpoint times and points of paths the benchmark does not
    # build (it runs stars at other speeds, jittered combs and other loops)
    p = build()
    assert len(p.times) == breakpoints and p.duration == duration
    assert hashlib.sha256(repr((p.times, p.points)).encode()).hexdigest() \
        == digest
