import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from graphchase import critical, strategies
from graphchase import (StrategyError, build_graph, build_star_schedule,
                        check_lipschitz, comb_strategy, cycle_loop,
                        cycle_strategy, finiteness_strategy, lambda_root,
                        secure_vertex, simulate_clearance, star_strategy,
                        sufficient_speed, sweep_strategy, total_variation,
                        verify)
from graphchase.graph import walk_covers
from graphchase.strategies import (_cascade_update, _ladder_init,
                                   ladder_overhang)

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
    assert ladder_overhang(4, 1.5, 0.1) == pytest.approx(0.25)
    assert ladder_overhang(3, 1.5, 0.1) == pytest.approx(0.1)


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


def test_star_schedule_simulation_terminates():
    g = star(4)
    sched = build_star_schedule(g, 6.0, 1e-2)
    trace = simulate_clearance(sched, g)
    assert len(trace) == len(sched.excursions)
    assert len(trace[-1].cleared) == 2         # all cascade arms but one
    assert all(len(st.cleared) <= 2 for st in trace)
    assert set(sched.arm_order) - trace[-1].cleared == {sched.last_arm}
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


@pytest.mark.parametrize("lag, rejected",
                         [(1e-6, True), (2e-9, True), (5e-10, False)])
def test_star_excursion_behind_the_clock(monkeypatch, lag, rejected):
    # Just above the threshold the closed-form excursion starts fall behind
    # the builder's clock (star(3) at s = 3.00001, after 8 s of building).
    # A schedule whose second excursion starts `lag` before the first ends
    # stands in for that: beyond the builder's 1e-9 tolerance a bracket
    # must see a rejection, not a crash.
    real = strategies.build_star_schedule

    def early(g, s, truncation):
        sched = real(g, s, truncation)
        (_, s0, d0), (arm, _, d1), *rest = sched.excursions
        return dataclasses.replace(sched, excursions=(
            sched.excursions[0], (arm, s0 + d0 - lag, d1), *rest))

    monkeypatch.setattr(strategies, "build_star_schedule", early)
    if not rejected:
        assert check_lipschitz(star_strategy(star(3), 4.0), 4.0)
        return
    with pytest.raises(StrategyError, match="behind the path's clock"):
        star_strategy(star(3), 4.0)
    assert critical._probe(star(3), "star", 4.0, None, None, None)[0] == \
        "rejected"


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
    p = sweep_strategy(g, 2.0, rounds=2)
    runs = [run for seg in p.routes for run in seg]
    assert walk_covers(g, runs)
    assert total_variation(p) == pytest.approx(2.0 * p.duration)
    # even number of rounds returns to the start
    assert g.points_equal(p.evaluate(p.duration), p.evaluate(0.0))


def test_sweep_rejections():
    with pytest.raises(StrategyError):
        sweep_strategy(path_graph(2), 0.0)
    with pytest.raises(StrategyError):
        sweep_strategy(path_graph(2), 1.0, rounds=0)
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
