import math

import pytest

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
