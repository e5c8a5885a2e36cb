import math
import random

import numpy as np
import pytest

from graphchase import (ParameterError, PathBuilder, SizeLimitError,
                        StateError, brute_force_oracle, check_lipschitz,
                        continuous_clearance, cycle_loop, discretize,
                        extract_witness, min_capture_time, min_clearance,
                        result_to_dict, sweep_strategy, truncate_path, verify)
from graphchase.randgen import oracle_instance
from graphchase.verifier import (build_reach, initial_avoid_set,
                                 propagate_step, swept_intervals)

from common import path_graph, triangle, unit_cycle, unit_path


def stand(g, v, duration, speed=1.0):
    return PathBuilder(g, v, speed).wait(duration).build()


# ----------------------------------------------------------- parameter floor

def test_time_step_must_fit_spatial_resolution():
    p = stand(unit_path(), "a", 1.0)
    with pytest.raises(ParameterError, match="exceeds spatial resolution"):
        verify(p, h=0.1, dt=0.2)
    with pytest.raises(ParameterError, match="positive"):
        verify(p, h=0.1, dt=-0.1)


def test_capture_radius_floor():
    p = stand(unit_path(), "a", 1.0)
    with pytest.raises(ParameterError, match="soundness floor"):
        verify(p, h=0.1, dt=0.1, eps=0.1)
    with pytest.raises(ParameterError, match="soundness floor"):
        verify(p, h=0.1, dt=0.05, eps=0.09)
    # just above the floor is accepted
    res = verify(p, h=0.1, dt=0.1, eps=0.11)
    assert res.verdict in ("capture", "survival")


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["h", "dt", "eps"])
def test_non_finite_parameters_rejected(name, value):
    p = stand(unit_path(), "a", 1.0)
    with pytest.raises(ParameterError, match="finite"):
        verify(p, **{name: value})


# ----------------------------------------------------------- trivial cases

def test_huge_radius_captures_instantly():
    g = unit_path()
    res = verify(stand(g, "a", 1.0), h=0.25, eps=3.0)
    assert res.verdict == "capture"
    assert res.time_bound == 0.0


def test_standing_cop_loses():
    g = unit_path()
    res = verify(stand(g, "a", 1.0), h=0.1, eps=0.25)
    assert res.verdict == "survival"
    assert res.time_bound is None
    w = extract_witness(res)
    assert res.min_clearance == pytest.approx(1.0)
    assert g.points_equal(w.evaluate(0.0), g.vertex_point("b"))


def test_path_sweep_captures():
    g = unit_path()
    cop = PathBuilder(g, "a", 1.0).move_to("b", speed=1.0).wait(0.2).build()
    res = verify(cop, h=0.05)
    assert res.verdict == "capture"
    assert res.time_bound <= cop.duration
    with pytest.raises(StateError, match="no witness"):
        extract_witness(res)


def test_witness_absent_when_not_requested():
    g = unit_path()
    res = verify(stand(g, "a", 1.0), h=0.1, want_witness=False)
    assert res.verdict == "survival"
    with pytest.raises(StateError, match="without witness"):
        extract_witness(res)


def test_min_capture_time_errors_on_survival():
    g = unit_path()
    with pytest.raises(StateError, match="does not capture"):
        min_capture_time(stand(g, "a", 1.0), h=0.1)


# ----------------------------------------------------------- witness quality

def test_witness_is_valid_speed_one_path():
    g = unit_cycle()
    cop = cycle_loop(g, 1.0, 3.0)        # equal speeds: evader survives
    res = verify(cop, h=0.02)
    assert res.verdict == "survival"
    w = extract_witness(res)
    assert check_lipschitz(w, 1.0 + 1e-9)
    assert w.duration == pytest.approx(cop.duration)
    assert res.min_clearance == pytest.approx(
        min_clearance(cop, w, 0.0, cop.duration))
    assert res.min_clearance > 0
    assert continuous_clearance(cop, w) == res.min_clearance


def test_verify_deterministic():
    g = unit_cycle()
    cop = cycle_loop(g, 1.0, 2.0)
    r1 = verify(cop, h=0.05)
    r2 = verify(cop, h=0.05)
    assert r1.verdict == r2.verdict
    assert r1.min_clearance == r2.min_clearance
    assert r1.witness.times == r2.witness.times
    assert r1.witness.points == r2.witness.points


# ------------------------------------------------------- propagation algebra

def test_reach_matches_exact_distances():
    g = triangle()
    grid = discretize(g, 0.25)
    radius = 0.3
    reach = build_reach(grid, radius)
    for q in range(grid.n):
        exact = {p for p in range(grid.n)
                 if grid.distances_to_point(grid.points[q])[p] <= radius + 1e-12}
        assert set(reach.predecessors(q).tolist()) == exact


def test_propagation_is_maximin_over_reach():
    g = triangle()
    grid = discretize(g, 0.25)
    cop = PathBuilder(g, "a", 2.0).move_to("b", speed=2.0).build()
    tau = 0.25
    reach = build_reach(grid, tau + 1e-12)
    a0 = initial_avoid_set(grid, cop.points[0], eps=0.3)
    clr = grid.distances_to_intervals(swept_intervals(cop, 0.0, tau))
    a1 = propagate_step(a0, clr, reach)
    val = np.minimum(a0.score, clr)
    for q in range(grid.n):
        best = max(val[p] for p in reach.predecessors(q).tolist())
        assert a1.score[q] == pytest.approx(min(best, clr[q]))
    # every survivor must extend some survivor within one evader step
    for q in np.nonzero(a1.live)[0]:
        assert clr[q] > a1.eps
        assert any(val[p] > a1.eps for p in reach.predecessors(int(q)))


# ----------------------------------------------------- monotonicity sweeps

def test_capture_monotone_in_radius():
    rng = random.Random(21)
    grown = 0
    for _ in range(25):
        cop, h, dt, eps = oracle_instance(rng)
        r1 = verify(cop, h=h, dt=dt, eps=eps, want_witness=False)
        r2 = verify(cop, h=h, dt=dt, eps=eps * 1.5, want_witness=False)
        if r1.captured:
            assert r2.captured
            assert r2.time_bound <= r1.time_bound + 1e-9
            grown += 1
    assert grown > 0


def test_capture_stable_under_extension():
    g = path_graph(2)
    cop = sweep_strategy(g, 1.0, rounds=2)      # duration 8, multiple of dt
    full = verify(cop, h=0.1, dt=0.1, eps=0.25, want_witness=False)
    assert full.captured
    late = truncate_path(cop, 4.0)
    part = verify(late, h=0.1, dt=0.1, eps=0.25, want_witness=False)
    assert part.captured
    assert part.time_bound == pytest.approx(full.time_bound, abs=1e-9)
    early = truncate_path(cop, 1.0)
    r = verify(early, h=0.1, dt=0.1, eps=0.25, want_witness=False)
    assert r.verdict == "survival"


# ------------------------------------------------------------ oracle accord

def test_verify_agrees_with_oracle():
    rng = random.Random(5)
    verdicts = set()
    for _ in range(40):
        cop, h, dt, eps = oracle_instance(rng)
        fast = verify(cop, h=h, dt=dt, eps=eps, want_witness=False)
        slow = brute_force_oracle(cop, h=h, dt=dt, eps=eps)
        assert fast.verdict == slow.verdict
        if fast.captured:
            assert fast.time_bound == pytest.approx(slow.time_bound,
                                                    abs=1e-9)
        verdicts.add(fast.verdict)
    assert verdicts == {"capture", "survival"}


def test_oracle_refuses_large_instances():
    g = unit_path()
    cop = stand(g, "a", 1.0)
    with pytest.raises(SizeLimitError, match="samples"):
        brute_force_oracle(cop, h=0.01)
    long_cop = stand(g, "a", 10.0)
    with pytest.raises(SizeLimitError, match="steps"):
        brute_force_oracle(long_cop, h=0.25, dt=0.25)


# ------------------------------------------------------------------ reports

def test_report_schema():
    g = unit_path()
    res = verify(stand(g, "a", 0.5), h=0.25)
    doc = result_to_dict(res)
    assert set(doc) == {"verdict", "time_bound", "params", "witness",
                        "min_clearance"}
    assert set(doc["params"]) == {"h", "dt", "eps", "spacing", "tau",
                                  "steps", "samples"}
    assert doc["verdict"] == "survival"
    assert doc["witness"]["speed"] == 1.0
