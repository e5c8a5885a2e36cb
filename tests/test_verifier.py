import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphchase import trajectory, verifier
from graphchase import (Board, GameMismatchError, GraphPoint,
                        GraphValidationError, ParameterError, PathBuilder,
                        SizeLimitError, brute_force_oracle, build_graph,
                        check_lipschitz, continuous_clearance, cycle_loop,
                        cycle_strategy, discretize, min_clearance,
                        path_from_dict, path_pieces, result_to_dict,
                        star_strategy, sweep_strategy, transfer_scale,
                        truncate_path, upper_bound_bisect, verify)
from graphchase.randgen import oracle_instance, random_graph
from graphchase.trajectory import clip_pieces
from graphchase.verifier import (REACH_SLACK, _band_cap, _clearance_rows,
                                 _play, _step_grid, _witness_runs,
                                 build_reach, propagate_step, swept_block,
                                 swept_intervals, vertex_cells)

from common import (comb, path_graph, star, sweeps, to_slots, triangle,
                    tuple_path, unit_cycle, unit_path)


def stand(g, v, duration, speed=1.0):
    return PathBuilder(g, v, speed).wait(duration).build()


def _game_params(cop, h=None, eps=None):
    """The grid, h, eps, step count and step length of verifying cop."""
    board = Board(cop.graph, h, eps)
    return (board.grid, board.h, board.eps,
            *_step_grid(cop.duration, board.spacing))


def predecessors(reach, q):
    """The samples from which q is reachable: row q of the CSR."""
    return reach.src[reach.starts[q]:reach.starts[q + 1]]


def targets(reach):
    """The target sample of each CSR pair, the q of its row."""
    return np.repeat(np.arange(len(reach.starts) - 1), np.diff(reach.starts))


def maximin_best(reach, value):
    """`propagate_step` on one value row in slots: each slot's best over
    its predecessors, read from the row padded with `width` -inf slots."""
    w, n = reach.width, reach.n_slots
    pad = np.full(n + 2 * w, -np.inf)
    pad[w:w + n] = value
    best = np.empty(n)
    propagate_step(tuple(pad[k:k + n] for k in range(2 * w + 1)), best,
                   reach)
    return best


def maximin_step(reach, score, clearance):
    """The scores after one step of the maximin game, in slots."""
    best = maximin_best(reach, np.minimum(score, clearance))
    return np.minimum(best, clearance)


def edge_blocks(grid):
    """(range of interior samples, spacing) of each edge, in `graph.edges`
    order."""
    return [(range(s, s + k - 1), sp) for s, k, sp in
            zip(grid.edge_inner_start.tolist(), grid.edge_intervals.tolist(),
                grid.edge_spacing.tolist())]


# ----------------------------------------------------------- parameter floor

def test_capture_radius_floor():
    p = stand(unit_path(), "a", 1.0)
    with pytest.raises(ParameterError, match="spacing floor"):
        verify(p, h=0.1, eps=0.1)
    with pytest.raises(ParameterError, match="spacing floor"):
        verify(p, h=0.1, eps=0.09)
    # just above the floor is accepted
    res = verify(p, h=0.1, eps=0.11)
    assert res.verdict in ("capture", "survival")
    assert res.spacing == 0.1
    assert not hasattr(res, "dt")     # the spacing has one name


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["h", "eps"])
def test_non_finite_parameters_rejected(name, value):
    p = stand(unit_path(), "a", 1.0)
    with pytest.raises(ParameterError, match="finite"):
        verify(p, **{name: value})


@pytest.mark.parametrize("h", [0.0, -0.0, -0.01])
@pytest.mark.parametrize("decide", [verify, brute_force_oracle])
def test_nonpositive_resolution_rejected(decide, h):
    p = stand(unit_path(), "a", 1.0)
    with pytest.raises(ParameterError,
                       match="resolution must be finite and positive"):
        decide(p, h=h)
    with pytest.raises(GraphValidationError):
        discretize(unit_path(), h)


@pytest.mark.parametrize("decide", [verify, brute_force_oracle])
def test_step_count_limit(decide):
    # a sweep at speed 1e-4 lasts 10^4; at h=1e-3 that is 10^7 steps
    slow = sweep_strategy(unit_path(), 1e-4)
    with mock.patch.object(verifier, "build_reach",
                           side_effect=AssertionError("built")), \
            pytest.raises(ParameterError, match="steps"):
        decide(slow, h=1e-3)
    p = stand(unit_path(), "a", 1.0)
    with mock.patch.object(verifier, "MAX_STEPS", 10):
        assert decide(p, h=0.1, eps=1.0).n_steps == 10
        with pytest.raises(ParameterError, match="steps"):
            decide(p, h=0.099, eps=1.0)     # spacing 1/11: 11 steps


@pytest.mark.parametrize("decide", [verify, brute_force_oracle])
def test_size_limits_refuse_before_the_grid_is_built(decide):
    # the step count needs only the duration and the edge lengths
    with mock.patch.object(verifier, "discretize",
                           side_effect=AssertionError("built")):
        with pytest.raises(ParameterError, match="steps"):
            decide(sweep_strategy(unit_path(), 1e-4), h=1e-3)
        # 401 vertices x 800,001 samples: under MAX_SAMPLES, but the
        # vertex-to-sample table would take 2.6 GB
        with pytest.raises(ParameterError, match="vertex-to-sample table"):
            decide(stand(path_graph(400), "v0", 1.0), h=1 / 2000)
    g = path_graph(3)
    cells = len(g.vertices) * verify(stand(g, "v0", 1.0), h=0.5).n_samples
    with mock.patch.object(verifier, "MAX_TABLE_CELLS", cells):
        assert verify(stand(g, "v0", 1.0), h=0.5).n_samples == 7
        with pytest.raises(ParameterError, match="table"):
            verify(stand(g, "v0", 1.0), h=0.49)


def test_spacing_floor_refuses_tiny_grids_before_building_them():
    # the tolerances are absolute, so at these scales they decide: an edge
    # of 1e-300 overflowed the reach band cap in numpy, and the sweep
    # scaled by 2^-40 "survived" with a witness of zero variation
    cops = [(sweep_strategy(build_graph(["a", "b"], [("a", "b", 1e-300)]),
                            5.5), None),
            (transfer_scale(sweep_strategy(unit_path(), 0.5), 2 ** -40),
             0.02 * 2 ** -40)]
    tracemalloc.start()
    try:
        for cop, h in cops:
            with pytest.raises(ParameterError, match="not above the floor"):
                verify(cop, h=h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_verdicts_scale_exactly_by_powers_of_two():
    # transfer_scale by a power of two scales every length, offset and
    # time exactly, so the grid game is the same game
    for seed in range(150):
        cop, h, eps = oracle_instance(random.Random(seed))
        base = verify(cop, h=h, eps=eps)
        for k in (-8, -4, -1, 1, 4, 8):
            c = 2.0 ** k
            r = verify(transfer_scale(cop, c), h=h * c, eps=eps * c)
            assert r.verdict == base.verdict, (seed, k)
            if base.captured:
                assert r.time_bound == c * base.time_bound, (seed, k)
            else:
                assert r.min_clearance == c * base.min_clearance, (seed, k)
    # a spacing just above the floor (0.02 * 2^-14, about 1.2e-6) is the
    # unscaled game; just below it (2^-15) is refused
    cop = sweep_strategy(unit_path(), 0.5)
    base = verify(cop, h=0.02)
    r = verify(transfer_scale(cop, 2 ** -14), h=0.02 * 2 ** -14)
    assert r.verdict == base.verdict == "capture"
    assert r.time_bound == 2 ** -14 * base.time_bound
    with pytest.raises(ParameterError, match="not above the floor"):
        verify(transfer_scale(cop, 2 ** -15), h=0.02 * 2 ** -15)


def test_unit_speed_cycle_loop_survives_at_every_resolution():
    # a time step below the spacing once shrank every evader step to a
    # self loop, and this loop "captured" at t=0.972 with h=0.01, dt=0.006
    cop = cycle_loop(unit_cycle(), 1.0, 10.0)
    for h in (0.02, 0.01, 0.006, 0.004):
        r = verify(cop, h=h)
        assert r.verdict == "survival", h
        assert r.min_clearance >= 0.4, h
        assert r.spacing <= r.tau
    with pytest.raises(TypeError):
        verify(cop, h=0.01, dt=0.006, eps=0.0105)


# `capture` certifies the grid game, whose evaders are slower than 1 on
# edges of spacing below tau: these unit-speed loops are not caught by
# any unit-speed evader running ahead of the cop, yet the grid game says
# capture.  They pass once the verifier plays an over-approximating game.

@pytest.mark.xfail(strict=True, reason="capture certifies the grid game "
                   "only: a cycle of lengths 1 and 1.01 at default h, eps")
def test_unsound_capture_two_edge_cycle():
    # an evader lapping 1.005 ahead keeps that clearance; today: capture
    # at t=390.2399
    g = build_graph(["a", "b"], [("a", "b", 1.0), ("b", "a", 1.01)])
    r = verify(cycle_loop(g, 1.0, 600.0), want_witness=False)
    assert r.verdict != "capture", r.time_bound


@pytest.mark.xfail(strict=True, reason="capture certifies the grid game "
                   "only: six 0.15 edges and one 1.0 edge at h=0.1")
def test_unsound_capture_mixed_spacing_cycle():
    # the antipodal unit-speed evader keeps 0.95; today: capture at t=9.4
    vs = [f"v{i}" for i in range(7)]
    g = build_graph(vs, [(vs[i], vs[(i + 1) % 7], 0.15 if i < 6 else 1.0)
                         for i in range(7)])
    r = verify(cycle_loop(g, 1.0, 20.0), h=0.1, eps=0.2, want_witness=False)
    assert r.verdict != "capture", r.time_bound


@pytest.mark.xfail(strict=True, reason="capture certifies the grid game "
                   "only: a four-edge tree at h = its shortest edge / 10")
def test_unsound_capture_tree():
    # repro D, not a cycle: at h the grid says capture at t=1.1606, but
    # the witness of the grid at h/4, a unit-speed evader, keeps 0.1398 >
    # eps from the cop over the whole path
    g = build_graph([f"v{i}" for i in range(5)],
                    [("v0", "v1", 0.4659813882071583),
                     ("v0", "v2", 0.5568344836939831),
                     ("v2", "v3", 0.9375188414356748),
                     ("v0", "v4", 0.31094934773328153)])
    bps = [(0.0, "e0", 0.4659813882071583), (0.20047673470213934, "e0", 0.0),
           (0.3342548457360829, "e3", 0.31094934773328153),
           (0.491855549580682, "e3", 0.0),
           (0.7740799928697226, "e1", 0.5568344836939831),
           (1.2104738417201266, "e2", 0.9375188414356748),
           (1.8313065211392479, "e2", 0.0), (2.2000468911730997, "e1", 0.0),
           (2.4438506279561807, "e1", 0.5568344836939831),
           (2.854332743449906, "e2", 0.9375188414356748)]
    cop = path_from_dict(g, {
        "speed": 2.4289588742885844,
        "breakpoints": [{"t": t, "edge": e, "offset": x} for t, e, x in bps],
        "routes": [[e] for e in "e0 e3 e3 e1 e2 e2 e1 e1 e2".split()]})
    h, eps = 0.031094934773328153, 0.13572587085726837
    r = verify(cop, h=h, eps=eps, want_witness=False)
    w = verify(cop, h=h / 4, eps=eps).witness
    assert check_lipschitz(w, 1 + 1e-9)
    assert not r.captured or min_clearance(
        cop, truncate_path(w, r.time_bound)) <= eps, r.time_bound


def lap_follower(cop, ahead, duration):
    """A unit-speed evader that starts `ahead` along a unit-cycle cop's lap
    and runs the lap forward for `duration`.  The cop's first three routes
    are its first lap, one arc each."""
    lap = [run for runs in cop.routes[:3] for run in runs]
    runs, skip, left, i = [], ahead, duration, 0
    while left > 0:
        eid, x0, x1 = lap[i % len(lap)]
        i += 1
        ln = abs(x1 - x0)
        if skip >= ln:
            skip -= ln
            continue
        step = min(ln - skip, left)
        a = x0 + math.copysign(skip, x1 - x0)
        runs.append((eid, a, a + math.copysign(step, x1 - x0)))
        skip, left = 0.0, left - step
    pb = PathBuilder(cop.graph, GraphPoint(runs[0][0], runs[0][1]), 1.0)
    return pb.move_runs(runs, duration).build()


def test_lap_follower_outlasts_the_cycle_capture_time_at_eps():
    # repro C: the grid reports capture at T, but an evader that starts
    # (1 + 0.5 T)/2 ahead of the cop keeps eps + tau + sp/2 from it over
    # [0, T]
    cop = cycle_strategy(unit_cycle(), 1.5)
    r = verify(cop, h=0.02, want_witness=False)
    assert r.verdict == "capture"
    assert r.time_bound == pytest.approx(1.72549, abs=1e-5)
    assert r.eps == pytest.approx(0.039216, abs=1e-6)
    evader = lap_follower(cop, (1 + 0.5 * r.time_bound) / 2, r.time_bound)
    assert evader.duration == r.time_bound
    clearance = min_clearance(cop, evader)
    assert clearance == pytest.approx(0.068627, abs=1e-6)
    assert clearance > r.eps


@pytest.mark.xfail(strict=True, reason="capture certifies the grid game "
                   "only: the unit cycle at h=0.02 captures too early")
def test_cycle_capture_is_no_earlier_than_the_closed_form():
    # the lap follower that starts just over eps behind the cop, which
    # gains s - 1 on it per unit time, stays beyond eps until
    # (L - 2 eps)/(s - 1): 1.8431, 9.2157 and 92.157; today: capture at
    # 1.7255, 8.6471 and 86.294
    for s in (1.5, 1.1, 1.01):
        r = verify(cycle_strategy(unit_cycle(), s), h=0.02,
                   want_witness=False)
        assert not r.captured or \
            r.time_bound >= (1 - 2 * r.eps) / (s - 1), (s, r.time_bound)


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
    w = res.witness
    assert res.min_clearance == pytest.approx(1.0)
    assert g.points_equal(w.evaluate(0.0), g.vertex_point("b"))


def test_path_sweep_captures():
    g = unit_path()
    cop = PathBuilder(g, "a", 1.0).move_to("b", speed=1.0).wait(0.2).build()
    res = verify(cop, h=0.05)
    assert res.verdict == "capture"
    assert res.time_bound <= cop.duration
    assert res.witness is None and res.min_clearance is None


def test_witness_absent_when_not_requested():
    g = unit_path()
    res = verify(stand(g, "a", 1.0), h=0.1, want_witness=False)
    assert res.verdict == "survival"
    assert res.time_bound is None
    assert res.witness is None and res.min_clearance is None


# ----------------------------------------------------------- witness quality

def test_witness_is_valid_speed_one_path():
    g = unit_cycle()
    cop = cycle_loop(g, 1.0, 3.0)        # equal speeds: evader survives
    res = verify(cop, h=0.02)
    assert res.verdict == "survival"
    w = res.witness
    assert check_lipschitz(w, 1.0 + 1e-9)
    assert w.duration == pytest.approx(cop.duration)
    assert res.min_clearance == pytest.approx(
        min_clearance(cop, w))
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
        assert set(predecessors(reach, q).tolist()) == exact


def test_propagation_is_maximin_over_reach():
    g = triangle()
    grid = discretize(g, 0.25)
    cop = PathBuilder(g, "a", 2.0).move_to("b", speed=2.0).build()
    tau = 0.25
    reach = build_reach(grid, tau + 1e-12)
    eps = 0.3
    s0 = grid.distances_to_point(cop.points[0])
    clr = grid.distances_to_intervals(swept_intervals(cop, 0.0, tau))
    s1 = maximin_step(reach, to_slots(reach, s0),
                      to_slots(reach, clr))[reach.slot]
    val = np.minimum(s0, clr)
    for q in range(grid.n):
        best = max(val[p] for p in predecessors(reach, q))
        assert s1[q] == pytest.approx(min(best, clr[q]))
    # every survivor must extend some survivor within one evader step
    for q in np.nonzero(s1 > eps)[0]:
        assert clr[q] > eps
        assert any(val[p] > eps for p in predecessors(reach, int(q)))


@st.composite
def kernel_cases(draw):
    """A random graph with loops, parallel edges and one edge shorter than
    h/10, a radius of 0.3-9.5 max spacings, so bands up to 9 slots wide,
    and scores and clearances on a few levels so that ties are common."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    base = random_graph(rng, max_vertices=5, extra_edges=3, allow_multi=True)
    h = draw(st.sampled_from([0.1, 0.2, 0.35]))
    u, v = draw(st.sampled_from(base.vertices)), \
        draw(st.sampled_from(base.vertices))
    tiny = h / 10 * draw(st.floats(0.1, 0.99))
    g = build_graph(list(base.vertices),
                    [(e.u, e.v, e.length) for e in base.edges] +
                    [(u, v, tiny)])
    grid = discretize(g, h)
    radius = grid.max_spacing * draw(st.floats(0.3, 9.5))
    levels = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])
    score = np.array(draw(st.lists(levels, min_size=grid.n,
                                   max_size=grid.n)))
    clearance = np.array(draw(st.lists(levels, min_size=grid.n,
                                       max_size=grid.n)))
    return grid, radius, score, clearance


@settings(max_examples=60, deadline=None)
@given(kernel_cases())
def test_reach_is_the_distance_threshold(case):
    # row q of the CSR holds exactly the samples p with
    # distances_to_point(points[q])[p] <= radius, in ascending order
    grid, radius, _, _ = case
    reach = build_reach(grid, radius)
    for q in range(grid.n):
        near = grid.distances_to_point(grid.points[q]) <= radius
        assert predecessors(reach, q).tolist() == np.flatnonzero(near).tolist()
    assert reach.starts[0] == 0 and reach.starts[-1] == len(reach.src)


@settings(max_examples=60, deadline=None)
@given(kernel_cases())
def test_banded_kernel_matches_maximin_reference(case):
    grid, radius, score, clearance = case
    reach = build_reach(grid, radius)
    # two value rows share one reach plan: it holds no scratch
    val = np.minimum(score, clearance)
    best = maximin_best(reach, to_slots(reach, val))
    other = maximin_best(reach, to_slots(reach, score))
    guards = np.ones(reach.n_slots, dtype=bool)
    guards[reach.slot] = False
    for row, got in ((val, best), (score, other)):
        for q in range(grid.n):
            want = max(row[p] for p in predecessors(reach, q).tolist())
            assert got[reach.slot[q]] == want
    # the step's new scores are -inf in the guard slots
    new = np.minimum(best, to_slots(reach, clearance))
    assert (new[guards] == -np.inf).all()
    assert reach.n_slots == grid.n + guards.sum()

    # the plan covers every CSR pair but the self loops exactly once: the
    # band pairs of one block at most `width` slots apart, the rest in the
    # junction list
    pairs = set(zip(reach.src.tolist(), targets(reach).tolist()))
    assert {(q, q) for q in range(grid.n)} <= pairs
    sample_of = dict(zip(reach.slot.tolist(), range(grid.n)))
    planned = [(sample_of[p], sample_of[q]) for p, q in
               zip(reach.junction_src.tolist(), reach.junction_dst.tolist())]
    w = reach.width
    blocks = [block for block, _ in edge_blocks(grid) if len(block)]
    for block in blocks:
        planned += [(p, q) for p in block for q in block
                    if 0 < abs(p - q) <= w]
        assert all(reach.slot[q] - reach.slot[q - 1] == 1 for q in block[1:])
        # a block is fenced off by guards: its band reaches no other sample
        fence = reach.slot[block.stop - 1] + np.arange(1, w + 1)
        assert not set(fence.tolist()) & set(sample_of)
    assert all(reach.slot[q] + w < reach.slot[q + 1]
               for q in range(grid.vertex_sample_dist.shape[0]))
    assert len(planned) == len(set(planned))
    assert set(planned) == {(p, q) for p, q in pairs if p != q}

    # the width is the narrowest window of an edge with interior samples,
    # the tiny edge has none, and wider same-edge pairs are junctions
    def window(inner, spacing):
        k = math.floor(radius / spacing)
        while k and not all((p, q) in pairs for p in inner for q in inner
                            if abs(p - q) <= k):
            k -= 1
        return k

    windows = [window(inner, sp) for e, (inner, sp)
               in zip(grid.graph.edges, edge_blocks(grid))
               if e.length > grid.h]
    assert w == min(windows, default=0)
    assert any(e.length < grid.h / 10 for e in grid.graph.edges)
    junctions = set(planned[:len(reach.junction_src)])
    for block in blocks:
        assert {(p, q) for p in block for q in block
                if abs(p - q) > w and (p, q) in pairs} <= junctions


def slot_bits(reach):
    """Each CSR pair's column in a packed witness row, derived from the
    slots alone: a band pair is one whose slot offset equals its sample
    offset (no guard between) and is at most width; the others are the
    junction list, taken in CSR order."""
    dst = targets(reach)
    off = reach.slot[reach.src] - reach.slot[dst]
    bit = (off + reach.width) * reach.n_slots + reach.slot[dst]
    far = (off != reach.src - dst) | (np.abs(off) > reach.width)
    bit[far] = (2 * reach.width + 1) * reach.n_slots + np.arange(far.sum())
    return bit, far


# a unit edge v0-v1 and a ring v1 ... v9 v1 of 1.02 edges: at h = 1 and a
# step of 1.45 the band has half-width 2 (see the wide-band witness test)
RING = build_graph([f"v{i}" for i in range(10)], [("v0", "v1", 1.0)] + [
    (f"v{i}", f"v{i % 9 + 1}", 1.02) for i in range(1, 10)])


@pytest.mark.parametrize("g, h, radius, width, junctions", [
    (unit_path(), 1.0, 1.0, 0, 2),      # no interior samples
    (build_graph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 0.5)]),
     0.15, 0.13, 0, 8),                 # a spacing above the radius
    (star(3), 0.25, 0.26, 1, 12),
    (triangle(1.0, 1.3, 0.7), 0.1, 0.2, 1, 56),
    (comb(3), 0.2, 0.45, 2, 50),
    (RING, 1.0, 1.45 + REACH_SLACK, 2, 74),
    (star(4), 0.1, 8.5 * 0.1, 8, 464),  # 8.5 spacings: a wide band
], ids=["unit-path", "mixed-spacing", "star3", "triangle", "comb3", "ring",
        "star4-wide"])
def test_reach_bits_match_the_slot_derivation(g, h, radius, width,
                                              junctions):
    reach = build_reach(discretize(g, h), radius)
    assert (reach.width, len(reach.junction_src)) == (width, junctions)
    bit, far = slot_bits(reach)
    assert reach.bit.tolist() == bit.tolist()
    # the junction list holds the far pairs in CSR order, in slots
    assert reach.junction_src.tolist() == \
        reach.slot[reach.src[far]].tolist()
    assert reach.junction_dst.tolist() == \
        reach.slot[targets(reach)[far]].tolist()


def test_only_a_witness_builds_the_csr():
    # the plan's CSR and bit columns are derived from its runs when first
    # read: a capture, a survival without a witness and a bracket whose
    # probes are captures or constructor rejections never read them
    built = AssertionError("the CSR was built")
    with mock.patch.object(verifier, "_reach_pairs", side_effect=built):
        assert verify(star_strategy(star(3), 4.0), h=0.02).captured
        r = verify(sweep_strategy(comb(3), 2.0), h=0.05, want_witness=False)
        assert r.verdict == "survival" and r.witness is None
        br = upper_bound_bisect(star(3), "star", 2.0, 4.0, tol=0.25, h=0.02)
        assert br.upper_evidence.captured
    with mock.patch.object(verifier, "_reach_pairs",
                           wraps=verifier._reach_pairs) as pairs:
        r = verify(sweep_strategy(comb(3), 2.0), h=0.05)
    assert r.witness is not None and pairs.call_count == 1


# ------------------------------------------------------- blocked clearance

def _multigraph(rng, hs):
    """A random graph with loops, parallel edges and one edge shorter than
    h/10, and its grid at an h drawn from hs."""
    base = random_graph(rng, max_vertices=5, extra_edges=3, allow_multi=True)
    h = rng.choice(hs)
    u, v = rng.choice(base.vertices), rng.choice(base.vertices)
    g = build_graph(list(base.vertices),
                    [(e.u, e.v, e.length) for e in base.edges] +
                    [(u, v, h / 10 * rng.uniform(0.1, 0.99))])
    return g, discretize(g, h)


def _assert_same_plan(reach, other):
    """Everything that the games and the witness read of two reach plans
    is equal."""
    for a, b in zip((*reach.runs, reach.slot, reach.n_slots, reach.width,
                     reach.junction_src, reach.junction_dst),
                    (*other.runs, other.slot, other.n_slots, other.width,
                     other.junction_src, other.junction_dst)):
        np.testing.assert_array_equal(a, b)


def test_reach_plan_is_the_same_over_its_radius_interval():
    # on 300 random multigraphs at radii of 1-4 spacings, whole numbers of
    # spacings included, build_reach notes an interval [radius_in,
    # radius_out) holding its own radius; at radius_in, at the float just
    # below radius_out and at random radii between them, each with the
    # same band cap, it builds the same plan, which a board keeping the
    # plan at radius hands out; with another cap, as near a whole number
    # of spacings, where no comparison may change, the board builds that
    # radius's own plan
    rng = random.Random(41)
    kept = {True: 0, False: 0}
    for _ in range(300):
        g, grid = _multigraph(rng, [0.1, 0.2, 0.35])
        board = Board(g, grid.h)
        radius = grid.max_spacing * rng.choice([rng.uniform(1.0, 4.0),
                                                rng.randint(1, 4)])
        bounds = [-math.inf, math.inf]
        want = build_reach(grid, radius, bounds)
        lo, hi = bounds
        assert 0 <= lo <= radius < hi
        top = math.nextafter(hi, -math.inf) if hi < math.inf else 2 * radius
        for r in [lo, top] + [rng.uniform(lo, top) for _ in range(3)]:
            got = build_reach(grid, r)
            same = _band_cap(grid, r) == _band_cap(grid, radius)
            plan = board.reach(radius)
            assert (board.reach(r) is plan) == same
            kept[same] += 1
            _assert_same_plan(board.reach(r), got)
            if same:
                _assert_same_plan(got, want)
    assert kept[True] >= 900 and kept[False] > 0


def test_plain_verify_computes_no_radius_interval():
    # a one-use board never narrows an interval: only a kept plan needs one
    with mock.patch.object(verifier, "_narrow",
                           side_effect=AssertionError("interval")):
        assert verify(sweep_strategy(comb(3), 0.5), h=0.1).witness
        assert verify(sweep_strategy(comb(3), 20.0), h=0.1).captured
        with pytest.raises(AssertionError, match="interval"):
            Board(comb(3), 0.1).reach(0.1)


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf])
def test_board_refuses_a_radius_not_finite_and_positive(radius):
    with pytest.raises(ParameterError,
                       match="reach radius must be finite and positive"):
        Board(comb(3), 0.1).reach(radius)


def test_board_refuses_h_eps_and_other_graphs():
    g = comb(3)
    board, cop = Board(g, 0.1), sweep_strategy(g, 4.0)
    assert repr(verify(cop, board=board)) == repr(verify(cop, h=0.1))
    for h, eps in [(0.1, None), (None, 0.2)]:
        with pytest.raises(ParameterError, match="a board fixes h and eps"):
            verify(cop, h, eps, board=board)
    with pytest.raises(ParameterError, match="not the board's graph"):
        verify(sweep_strategy(comb(3), 4.0), board=board)


@st.composite
def swept_cases(draw):
    """A random graph with loops, parallel edges and one edge shorter than
    h/10, and a cop path that always holds a wait, a multi-run move and a
    dash over several edges within one step, with the block and chunk
    sizes to fill the clearance rows with."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    g, grid = _multigraph(rng, [0.1, 0.2, 0.35])
    dt = grid.max_spacing * rng.uniform(0.3, 1.0)

    def point(avoid=None):
        e = rng.choice([e for e in g.edges if e.id != avoid])
        return GraphPoint(e.id, rng.choice([0.0, e.length,
                                            rng.uniform(0, e.length)]))

    kinds = ["wait", "move", "dash"] + rng.choices(["wait", "move", "dash"],
                                                   k=rng.randint(0, 4))
    rng.shuffle(kinds)
    times, points, routes = [0.0], [point()], []
    for kind in kinds:
        here = points[-1]
        there = here if kind == "wait" else point(avoid=here.edge)
        length, runs = g.route(here, there)
        if kind == "dash":
            dur = dt * rng.uniform(0.05, 0.9)
        elif kind == "move" and length > 0:
            dur = length / rng.uniform(0.2, 3.0)
        else:
            dur = dt * rng.uniform(0.2, 8.0)
        times.append(times[-1] + dur)
        points.append(there)
        routes.append(runs)
    cop = tuple_path(g, tuple(times), tuple(points), tuple(routes), 1e6)
    if rng.random() < 0.5:   # a whole number of steps of exactly dt
        dt = cop.duration / math.ceil(cop.duration / dt)
    block_steps = rng.choice([1, 2, 3, 5, 256])
    chunk_floats = rng.choice([1, grid.n - 1, grid.n + 1, 3 * grid.n, 16384])
    return cop, grid, dt, block_steps, chunk_floats


@settings(max_examples=60, deadline=None)
@given(swept_cases())
def test_blocked_clearance_matches_per_step_reference(case):
    cop, grid, dt, block_steps, chunk_floats = case
    n_steps, tau = _step_grid(cop.duration, dt)
    reach = build_reach(grid, tau + REACH_SLACK)
    patch, calls = _recording_blocks(block_steps)
    with patch, mock.patch.object(verifier, "CHUNK_FLOATS", chunk_floats):
        chunks = list(_clearance_rows(grid, reach, cop.table, tau, n_steps))
    assert calls == _game_blocks(n_steps, block_steps)    # one schedule
    rows = [row for c in chunks for row in c]
    assert len(rows) == n_steps
    assert all(len(c) <= max(1, chunk_floats // grid.n) for c in chunks)
    widths = []
    for j in range(n_steps):
        intervals = swept_intervals(cop, j * tau, (j + 1) * tau)
        widths.append(len(intervals))
        assert np.array_equal(rows[j], to_slots(
            reach, grid.distances_to_intervals(intervals))), j
    assert max(widths) >= 2           # a step crossed a vertex


def test_step_left_without_pieces_stays_infinite():
    # Ten runs of 0.1 add up to 1 - 2**-53 one by one but to 1 under fsum,
    # so the last run window stops one ulp short of the segment end at t=1
    # and the step [1 - 2**-53, 1] gets no piece: its row is all +inf.
    g = path_graph(10, 0.1)
    a, b = g.vertex_point("v0"), g.vertex_point("v10")
    cop = tuple_path(g, (0.0, 1.0, 1.5), (a, b, b), (g.route(a, b)[1], ()),
                     1.0)
    grid = discretize(g, 0.05)
    reach = build_reach(grid, grid.max_spacing + REACH_SLACK)
    tau, j0 = 2.0 ** -53, 2 ** 53 - 4
    block = (j0, j0 + 4, swept_block(cop.table, tau, j0, j0 + 4))
    with mock.patch.object(verifier, "_swept_blocks", return_value=[block]):
        rows, = _clearance_rows(grid, reach, cop.table, tau, j0 + 4)
    for j, row in enumerate(rows, j0):
        intervals = swept_intervals(cop, j * tau, (j + 1) * tau)
        assert np.array_equal(row, to_slots(
            reach, grid.distances_to_intervals(intervals)))
    assert swept_intervals(cop, (j0 + 3) * tau, 1.0) == []
    samples = rows[:, reach.slot]
    assert np.isinf(samples[3]).all() and np.isfinite(samples[:3]).all()
    # the row without pieces keeps -inf in its guard slots
    assert (np.delete(rows[3], reach.slot) == -np.inf).all()


def _assert_tiles(pieces, t0, t1):
    """The pieces cover [t0, t1] in time order without overlap, leaving
    gaps of at most 1e-9 where rounded run ends fall short."""
    end = t0
    for ta, tb, *_ in pieces:
        assert end <= ta <= end + 1e-9 and ta < tb
        end = tb
    assert t1 - 1e-9 <= end <= t1


def _assert_follows_evaluate(cop, pieces, rnd):
    """Each piece is where `evaluate` puts the cop, within 1e-9, at both
    ends and at two random times in between."""
    g = cop.graph
    for ta, tb, eid, xa, xb in pieces:
        for u in (0.0, 1.0, rnd.random(), rnd.random()):
            t, x = ta + (tb - ta) * u, xa + (xb - xa) * u
            assert g.distance(GraphPoint(eid, x), cop.evaluate(t)) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(swept_cases(), st.randoms(use_true_random=False))
def test_pieces_follow_evaluate_and_tile_their_windows(case, rnd):
    # `evaluate` interpolates the row of `cop.table` holding a time with
    # scalar code, so it checks how both clips index and cut the rows (the
    # rows' timing has its own reference, `scalar_piece_table`); the
    # windows start at breakpoints and at random times
    cop = case[0]
    g, d = cop.graph, cop.duration
    cuts = {0.0, *cop.times[:-1], *(rnd.uniform(0, d) for _ in range(6))}
    bounds = np.array(sorted(t for t in cuts if t < d)
                      + [d * rnd.choice([1.0, 1.5])])
    w, ta, tb, edge, xa, xb = clip_pieces(cop.table, bounds)
    ids = [e.id for e in g.edges]
    for i, (t0, t1) in enumerate(zip(bounds[:-1].tolist(),
                                     np.minimum(bounds[1:], d).tolist())):
        sel = w == i
        clipped = list(zip(ta[sel].tolist(), tb[sel].tolist(),
                           [ids[k] for k in edge[sel]], xa[sel].tolist(),
                           xb[sel].tolist()))
        for pieces in (path_pieces(cop, t0, t1), clipped):
            _assert_tiles(pieces, t0, t1)
            _assert_follows_evaluate(cop, pieces, rnd)


def _answers(r):
    """What `verify` and `brute_force_oracle` must agree on exactly: the
    verdict, the time bound, the repr of the exact clearance and the
    witness's columns."""
    w = r.witness
    return (r.verdict, r.time_bound, repr(r.min_clearance),
            w and (w.times, w.points, w.routes, w.metadata))


def _oracle_ties(cop, h, eps):
    """`brute_force_oracle`'s result, and how many of its witness steps had
    several predecessors attaining the maximin: the oracle's step is
    wrapped to count, per target, the predecessors attaining its best."""
    hits, step = [], verifier._oracle_step

    def counting(score, clearance, src, heads, dst):
        cand = np.minimum(score, clearance)[src]
        best = np.maximum.reduceat(cand, heads)
        hits.append(np.add.reduceat(cand == best[dst], heads))
        return step(score, clearance, src, heads, dst)

    with mock.patch.object(verifier, "_oracle_step", counting):
        r = brute_force_oracle(cop, h=h, eps=eps)
    samples = discretize(cop.graph, r.h).points
    return r, sum(int(row[samples.index(p)] > 1) for row, p in
                  zip(hits, r.witness.points[1:] if r.witness else ()))


@pytest.mark.parametrize("cop, h, eps", [
    (star_strategy(star(4, 0.5), 5.5, 1e-2), 2e-3, 0.02),
    (sweep_strategy(comb(6), 3.5), 0.01, None),
    (cycle_loop(unit_cycle(), 1.0, 4.0), 0.01, None),
    # the set of alive junction sources changes 1,429 times in 5,100
    # steps, among 71 sets: the game ORs each set's targets once
    (cycle_strategy(unit_cycle(), 1.01), 0.02, 0.04),
], ids=["star-capture", "comb-survival", "cycle-survival", "cycle-junctions"])
def test_verify_matches_per_step_reference_loop(cop, h, eps):
    r = verify(cop, h=h, eps=eps)
    assert r.verdict == ("capture" if eps else "survival")
    # the oracle runs none of verify's grid code
    shared = dict.fromkeys(["build_reach", "vertex_cells", "runs_within",
                            "_run_ends", "_flat_ranges", "_cells",
                            "_reach_pairs", "propagate_step", "swept_block",
                            "_play", "_clearance_rows",
                            "distances_to_interval_rows", "_witness_runs"],
                           mock.DEFAULT)
    with mock.patch.multiple(verifier, **shared) as fakes:
        want = brute_force_oracle(cop, h=h, eps=eps)
    assert not any(f.called for f in fakes.values())
    assert _answers(r) == _answers(want)


@st.composite
def witness_cases(draw):
    """A random graph with loops, parallel edges and one edge shorter than
    h/10, and a cop that waits, goes out to the sample farthest from its
    start or to a random point, comes back and waits again: the evaders
    it pushes back share their score, so maximin ties are common."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    g, grid = _multigraph(rng, [0.05, 0.1, 0.2])
    sp = grid.max_spacing       # also the time step
    e = rng.choice(g.edges)
    home = GraphPoint(e.id, rng.choice([0.0, e.length,
                                        rng.uniform(0, e.length)]))
    far = grid.points[int(np.argmax(grid.distances_to_point(home)))]
    away = rng.choice([far, rng.choice(grid.points)])
    speed = rng.uniform(0.3, 3.0)
    cop = (PathBuilder(g, home, 3.0).wait(sp * rng.uniform(0.5, 5.0))
           .move_to(away, speed=speed).move_to(home, speed=speed)
           .wait(sp * rng.uniform(1.0, 40.0)).build())
    eps = sp * rng.uniform(1.01, 1.5)
    return cop, grid.h, eps


CHUNK_KINDS = ["1", "n-1", "n+1", "3n", "16384"]


def _chunk_floats(kind, n):
    """CHUNK_FLOATS for a grid of n samples: 1, n - 1, n + 1, 3n or the
    default 16384."""
    return {"1": 1, "n-1": n - 1, "n+1": n + 1, "3n": 3 * n,
            "16384": 16384}[kind]


def _witness_at_chunk_size(cop, h, eps, kind):
    """`verify`'s result at the `_chunk_floats` kind, and the oracle's
    result and tie count; the two results agree exactly."""
    n = Board(cop.graph, h, eps).grid.n
    with mock.patch.object(verifier, "CHUNK_FLOATS", _chunk_floats(kind, n)):
        r = verify(cop, h=h, eps=eps)
    want, ties = _oracle_ties(cop, h, eps)
    assert _answers(r) == _answers(want)
    return r, ties


def test_witness_matches_full_backpointer_reference():
    # the witness bits, compared and packed per chunk of clearance rows,
    # against the oracle's backpointer array per step, at chunk sizes (see
    # `_chunk_floats`) that put chunk boundaries anywhere: the same
    # lowest-index maximin path, through tied predecessors too
    seen = {"survival": 0, "ties": 0}

    @settings(max_examples=60, deadline=None)
    @given(witness_cases(), st.sampled_from(CHUNK_KINDS))
    def check(case, kind):
        r, ties = _witness_at_chunk_size(*case, kind)
        seen["survival"] += r.verdict == "survival"
        seen["ties"] += ties

    check()
    assert seen["survival"] >= 30
    assert seen["ties"] > 0      # the lowest-index tie-break is exercised

    # wide bands, by construction: at h = 1 the unit edge v0-v1 is one
    # interval, the longest spacing, and the ring v1 ... v9 v1 of 1.02
    # edges has spacing 0.51, so the steps of 1.45 and 1.16 give a band of
    # half-width 2; halfway round the ring an evader keeps 4.59 from the
    # cop, which waits at v1
    for duration in (2.9, 5.8):
        pb = PathBuilder(RING, "v0", 1.0).move_to("v1")
        cop = pb.wait(duration - 1.0).build()
        grid, h, eps, n_steps, tau = _game_params(cop, 1.0, 1.05)
        reach = build_reach(grid, tau + REACH_SLACK)
        assert (reach.width, len(reach.junction_src)) == (2, 74)
        for kind in CHUNK_KINDS:
            r, _ = _witness_at_chunk_size(cop, h, eps, kind)
            assert r.verdict == "survival"
            assert r.min_clearance == pytest.approx(4.59)


# ------------------------------------------------- per-chunk capture test

@st.composite
def sweep_cases(draw):
    """A random graph with loops, parallel edges and one edge shorter than
    h/10, swept one to three rounds at a speed of 2-8, and a capture
    radius of 1.01-4 spacings: captures come at any step."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    g, grid = _multigraph(rng, [0.05, 0.1, 0.2])
    cop = sweeps(g, rng.uniform(2.0, 8.0), rng.randint(1, 3))
    return cop, grid.h, grid.max_spacing * rng.uniform(1.01, 4.0)


def test_verdicts_match_per_step_reference_at_every_chunk_size():
    # the boolean game decides with and without a witness, and reports the
    # step a maximin capture test after every step finds; the chunk size
    # of the survivals' maximin game does not change that
    seen = {"capture": 0}

    @settings(max_examples=60, deadline=None)
    @given(sweep_cases(), st.sampled_from(CHUNK_KINDS))
    def check(case, kind):
        cop, h, eps = case
        n = Board(cop.graph, h, eps).grid.n
        want = brute_force_oracle(cop, h=h, eps=eps)
        # the maximin game with a witness, the boolean game without
        with mock.patch.object(verifier, "CHUNK_FLOATS",
                               _chunk_floats(kind, n)):
            assert _answers(verify(cop, h=h, eps=eps)) == _answers(want)
            r = verify(cop, h=h, eps=eps, want_witness=False)
        assert (r.verdict, r.time_bound) == (want.verdict, want.time_bound)
        seen["capture"] += r.captured

    check()
    assert seen["capture"] >= 10


@pytest.mark.parametrize("rows, where", [
    (48, "first"), (24, "first"), (49, "last"), (7, "last"),
    (None, "final"), (2, "final"),
], ids=["first-48", "first-24", "last-49", "last-7", "final", "final-2"])
def test_capture_step_at_chunk_boundaries(rows, where):
    # the path sweep of the unit path captures at step k = 48 of 50 at
    # h = 0.02: chunks of `rows` clearance rows, which a capture no longer
    # reads, put it first or last in its chunk, and a SWEEP_STEPS that
    # `_cap_putting` picks puts it first or last in a block of the boolean
    # game; cut at the capture time, the sweep captures at its last step
    h = 0.02
    cop = sweep_strategy(unit_path(), 1.0)
    if where == "final":
        cop = truncate_path(cop, 0.98)
    grid, _, eps, n_steps, tau = _game_params(cop, h)
    want = brute_force_oracle(cop, h=h)
    assert want.verdict == "capture"
    k = round(want.time_bound / tau) - 1
    assert k == 48
    if where == "final":
        assert (k, want.time_bound) == (n_steps - 1, cop.duration)
    else:
        assert k % rows == (0 if where == "first" else rows - 1)
    chunk_floats = verifier.CHUNK_FLOATS if rows is None else rows * grid.n
    with mock.patch.object(verifier, "CHUNK_FLOATS", chunk_floats):
        assert _answers(verify(cop, h=h)) == _answers(want)
    cap = (verifier.SWEEP_STEPS if rows is None else rows) \
        if where == "final" else _cap_putting(k, n_steps, where)
    r, calls = _game_blocks_called(cop, h, None, cap)
    assert (r.verdict, r.time_bound) == (want.verdict, want.time_bound)
    assert calls == _game_blocks(n_steps, cap)[:len(calls)]
    if where != "final":
        assert calls[-1][where == "last"] == k + (where == "last")
        assert calls[-1][1] - calls[-1][0] >= 2


def _maximin_game_ran(*args, **kwargs):
    raise AssertionError("the maximin game ran")


@pytest.mark.parametrize("cop, h, eps", [
    (star_strategy(star(4, 0.5), 5.5, 1e-2), 2e-3, 0.02),
    (sweep_strategy(unit_path(), 1.0), 0.02, None),
], ids=["star", "path-sweep"])
def test_capture_with_witness_plays_only_the_boolean_game(cop, h, eps):
    # a capture returns from the boolean game whatever want_witness says:
    # no maximin step and no clearance row
    want = brute_force_oracle(cop, h=h, eps=eps)
    with mock.patch.object(verifier, "propagate_step", _maximin_game_ran), \
            mock.patch.object(verifier, "_clearance_rows", _maximin_game_ran):
        for want_witness in (True, False):
            r = verify(cop, h=h, eps=eps, want_witness=want_witness)
            assert _answers(r) == _answers(want)
            assert r.verdict == "capture"


def test_boolean_survival_that_the_maximin_game_captures_is_an_error():
    # the path sweep captures at step 48 of 50: told by the boolean game
    # that some evader survives, the maximin game's final scores refute it
    cop = sweep_strategy(unit_path(), 1.0)
    r = verify(cop, h=0.02)
    assert r.verdict == "capture"
    assert _answers(r) == _answers(brute_force_oracle(cop, h=0.02))
    with mock.patch.object(verifier, "_play",
                           lambda *args: (args[4], 1)):
        with pytest.raises(GameMismatchError,
                           match="boolean game.*maximin game"):
            verify(cop, h=0.02)


@pytest.mark.parametrize("eps", [None, 5.0], ids=["survival", "capture"])
def test_zero_step_cop_matches_per_step_reference(eps):
    cop = truncate_path(sweep_strategy(unit_path(), 1.0), 0.0)
    assert cop.duration == 0
    r = verify(cop, h=0.02, eps=eps)
    assert r.n_steps == 0
    assert r.verdict == ("capture" if eps else "survival")
    assert _answers(r) == _answers(brute_force_oracle(cop, h=0.02, eps=eps))
    r_bool = verify(cop, h=0.02, eps=eps, want_witness=False)
    assert (r_bool.verdict, r_bool.time_bound) == (r.verdict, r.time_bound)


# ------------------------------------------------------- the boolean game

@st.composite
def alive_cases(draw):
    """A random graph with loops, parallel edges and one edge shorter than
    h/10 (so shorter than eps), a capture radius of 1.01-4 spacings, and a
    cop that sweeps it at a speed of 2-8 (several intervals in a step),
    stands exactly on a vertex, or has no steps, or sweeps it in steps of
    2-4 spacings (a band of half-width 2 or more), or stands with a
    radius of the total length, so it captures at the start; with the
    SWEEP_STEPS that cuts the boolean game's blocks."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    g, grid = _multigraph(rng, [0.05, 0.1, 0.2])
    sp = grid.max_spacing
    kind = draw(st.sampled_from(["sweep", "sweep", "sweep", "stand",
                                 "zero", "wide", "caught"]))
    if kind in ("stand", "caught"):
        cop = stand(g, rng.choice(g.vertices), sp * rng.uniform(0.5, 60.0))
    else:
        cop = sweeps(g, rng.uniform(2.0, 8.0), rng.randint(1, 2))
        if kind == "zero":
            cop = truncate_path(cop, 0.0)
    stretch = rng.uniform(2.0, 4.0) if kind == "wide" else 1.0
    sweep = draw(st.sampled_from([1, 2, 3, 5, 10, 256]))
    eps = g.total_length if kind == "caught" else sp * rng.uniform(1.01, 4.0)
    return kind, cop, grid.h, eps, stretch, sweep


def from_bits(mask, n):
    """Bits 0 .. n - 1 of an int as a bool row."""
    return np.unpackbits(np.frombuffer(mask.to_bytes(n // 8 + 1, "little"),
                                       dtype=np.uint8),
                         bitorder="little")[:n].astype(bool)


def _game_blocks(n_steps, sweep):
    """The (j0, j1) blocks of steps of the boolean game when SWEEP_STEPS
    is sweep: sweep steps each, the last possibly shorter."""
    return [(j0, min(j0 + sweep, n_steps)) for j0 in range(0, n_steps, sweep)]


def _cap_putting(k, n_steps, where):
    """The largest SWEEP_STEPS up to 256 whose boolean-game blocks have
    step k as the first or last step of a block at least two steps long,
    or else 1."""
    for sweep in range(256, 1, -1):
        for j0, j1 in _game_blocks(n_steps, sweep):
            if j1 - j0 >= 2 and (j0 if where == "first" else j1 - 1) == k:
                return sweep
    return 1


def _recording_blocks(sweep):
    """A patch of SWEEP_STEPS to sweep and of `swept_block` by a wrapper
    that records the (j0, j1) of each call, and the list it records to."""
    calls = []

    def recording(table, tau, j0, j1):
        calls.append((j0, j1))
        return swept_block(table, tau, j0, j1)

    return mock.patch.multiple(verifier, SWEEP_STEPS=sweep,
                               swept_block=recording), calls


def _game_blocks_called(cop, h, eps, sweep):
    """`verify` without a witness with SWEEP_STEPS = sweep, and the (j0,
    j1) of every `swept_block` call it made: the boolean game's blocks."""
    patch, calls = _recording_blocks(sweep)
    with patch:
        r = verify(cop, h=h, eps=eps, want_witness=False)
    return r, calls


def _check_alive_game(cop, h, eps, stretch, sweep):
    """Check the boolean game against the maximin game on cop, with steps
    `stretch` times the grid's: played over j steps, for every j up to
    n_steps, `_play` returns the maximin game's score > eps after j steps,
    slot for slot, and j, or else the first step at which that mask is
    empty and the empty mask; so each step is checked as the last one
    played.  Played over all steps at SWEEP_STEPS = sweep, it reads the cop
    in the blocks `_game_blocks` gives up to that step and returns what
    the play over n_steps in one block does, and so does each play that
    ends at, or one step next to, an end of its first two or last two
    blocks.  Returns the reach plan, the alive junction sources of each
    step and the number of steps that swept several intervals."""
    grid, h, eps, n_steps, tau = _game_params(cop, h, eps)
    if stretch > 1:
        n_steps, tau = _step_grid(cop.duration, tau * stretch)
    reach = build_reach(grid, tau + REACH_SLACK)
    cells = vertex_cells(grid, eps)
    start = to_slots(reach, grid.distances_to_point(cop.points[0]))
    played = [_play(cells, reach, cop.table, tau, j, start)
              for j in range(n_steps + 1)]
    patch, calls = _recording_blocks(sweep)
    with patch:
        end, mask = _play(cells, reach, cop.table, tau, n_steps, start)
        blocks = [b for b in _game_blocks(n_steps, sweep) if b[0] < end]
        assert calls == blocks
        for j0, j1 in blocks[:2] + blocks[2:][-2:]:
            for j in (j0 + 1, j1 - 1, j1):
                assert _play(cells, reach, cop.table, tau, j,
                             start) == played[j], j
    assert (end, mask) == played[-1]
    assert end == next((j for j, (_, m) in enumerate(played) if not m),
                       n_steps)

    def bits(row):
        return sum(1 << int(s) for s in np.flatnonzero(row))

    sources = sum(1 << s for s in set(reach.junction_src.tolist()))
    score, alive = start, bits(start > eps)
    assert played[0] == (0, alive)
    live, several = [], 0       # the alive junction sources of each step
    ids = [e.id for e in cop.graph.edges]
    for j, (i, new) in enumerate(played[1:], 1):
        step, edge, lo, hi = swept_block(cop.table, tau, j - 1, j)
        several += len(step) > 1
        clr = to_slots(reach, grid.distances_to_intervals(
            zip([ids[k] for k in edge.tolist()], lo.tolist(), hi.tolist())))
        live.append(alive & bits(clr > eps) & sources)
        score = maximin_step(reach, score, clr)
        assert np.array_equal(from_bits(new, reach.n_slots),
                              score > eps), j
        assert i == min(j, end), j
        alive = new
    return reach, live, several


def test_alive_masks_match_maximin_scores():
    # at every step the boolean game's alive mask is the maximin game's
    # score > eps, slot for slot, wherever the blocks of dead runs cut;
    # verify's verdict and time bound do not depend on the blocks
    seen = {"stand": 0, "zero": 0, "caught": 0, "several": 0, "wide": 0,
            "junction": 0}

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(alive_cases())
    def check(case):
        kind, cop, h, eps, stretch, sweep = case
        reach, live, several = _check_alive_game(cop, h, eps, stretch, sweep)
        seen["several"] += several
        seen["wide"] += reach.width >= 2
        seen["junction"] += any(a and b and a != b
                                for a, b in zip(live, live[1:]))
        if stretch > 1:
            return
        r = verify(cop, h=h, eps=eps)
        fast, calls = _game_blocks_called(cop, h, eps, sweep)
        assert (fast.verdict, fast.time_bound) == (r.verdict, r.time_bound)
        assert calls == _game_blocks(r.n_steps, sweep)[:len(calls)]
        if kind == "caught":    # the start mask is empty: no block is read
            assert (fast.time_bound, calls) == (0.0, [])
        if kind != "sweep":
            seen[kind] += 1

    check()
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("cop, h, k", [
    (sweep_strategy(unit_path(), 1.0), 0.02, 48),
    (sweeps(unit_cycle(), 3.0, 2), 0.05, 6),
], ids=["path-sweep", "cycle-sweeps"])
def test_alive_masks_match_maximin_scores_at_block_ends(cop, h, k, where):
    # the capture at step k, placed by `_cap_putting` first or last in a
    # boolean-game block of two or more steps: the alive masks are the
    # maximin scores > eps up to the end, and the capture is found there
    r = verify(cop, h=h)
    assert r.captured and round(r.time_bound / r.tau) - 1 == k
    cap = _cap_putting(k, r.n_steps, where)
    assert cap > 1
    _check_alive_game(cop, h, None, 1.0, cap)
    fast, calls = _game_blocks_called(cop, h, None, cap)
    assert (fast.verdict, fast.time_bound) == (r.verdict, r.time_bound)
    assert calls == _game_blocks(r.n_steps, cap)[:len(calls)]
    assert calls[-1][where == "last"] == k + (where == "last")
    assert calls[-1][1] - calls[-1][0] >= 2


def test_verdict_on_a_large_grid_holds_a_bounded_kill_block():
    # a sweep of the unit path at h = 1e-5: 100,001 samples, 2,000 steps.
    # The traced peak is the reach relation's build, about 25 MB; the
    # boolean game makes each step's dead mask when it is due, and holding
    # the masks of a block of SWEEP_STEPS steps, up to 12.5 KB each
    # for the 100,004 slots, would take up to 12.8 MB more
    cop = sweep_strategy(unit_path(), 50.0)
    tracemalloc.start()
    try:
        r = verify(cop, h=1e-5, want_witness=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (r.verdict, r.n_samples, r.n_steps) == ("capture", 100001, 2000)
    assert peak < 32 * 2 ** 20


def test_capture_on_a_fine_star_grid_is_pinned():
    # star4 at h = 5e-5: 40,001 samples and 69,615 steps, beyond the
    # oracle's size limit, so this pin is the identity check at this size;
    # the time bound is the one the game gave when it still tested every
    # dead-cell candidate and packed each step's kept slots from a bool row
    cop = star_strategy(star(4, 0.5), 5.5, 1e-2)
    r = verify(cop, h=5e-5, eps=0.02, want_witness=False)
    assert (r.verdict, r.n_samples, r.n_steps) == ("capture", 40001, 69615)
    assert r.time_bound == 2.858187743686004


@pytest.mark.parametrize("g, h, detours", [
    (build_graph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 0.1),
                                   ("c", "a", 0.1)]), 0.1, True),
    (unit_cycle(), 0.1, False),
    (comb(3), 0.25, False),
], ids=["shortcut-triangle", "cycle", "comb"])
def test_step_runs_match_route(g, h, detours):
    # the witness runs of every pair of samples; on the triangle, a and b
    # both sit on the long edge a-b but are joined by the 0.2 shortcut
    # through c
    grid = discretize(g, h)
    seen = 0
    for i, a in enumerate(grid.points):
        for j, b in enumerate(grid.points):
            runs = g.route(a, b)[1]
            assert _witness_routes(grid, [i, j]) == (runs,)
            seen += a.edge == b.edge and len(runs) > 1
    assert bool(seen) == detours


def _witness_routes(grid, idx):
    """The columns `_witness_runs` gives for the samples idx, as one
    tuple of (edge id, x0, x1) runs per step."""
    count, edge, x0, x1 = _witness_runs(grid, idx)
    ids = grid.graph.edge_ids
    runs = list(zip([ids[k] for k in edge.tolist()], x0.tolist(),
                    x1.tolist()))
    ends = np.cumsum(count).tolist()
    return tuple(tuple(runs[a:b]) for a, b in zip([0] + ends[:-1], ends))


def _shortcut_multigraph(rng, h):
    """A random tree with a loop and, beside its first edge (at most h
    long, so its samples are its two vertices), a parallel edge shorter
    than h / 10: stepping between those two vertices along the first edge
    is longer than the way round through the short one."""
    n = rng.randint(2, 4)
    names = [f"v{i}" for i in range(n)]
    edges = [("v0", "v1", rng.uniform(0.4, 1.0) * h)]
    edges += [(names[rng.randrange(i)], names[i], rng.uniform(0.1, 0.6))
              for i in range(2, n)]
    u = rng.choice(names)
    edges += [(u, u, rng.uniform(0.1, 0.4)),
              ("v0", "v1", h / rng.randint(11, 30))]
    return build_graph(names, edges)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6))
def test_witness_runs_are_routes_on_multigraphs(seed):
    rng, h = random.Random(seed), 0.05
    g = _shortcut_multigraph(rng, h)
    cop = PathBuilder(g, rng.choice(g.vertices), rng.uniform(0.2, 1.0))
    for _ in range(3):
        cop.move_to(rng.choice(g.vertices))
    cop = cop.wait(0.5).build()     # a witness's runs are the oracle's
    assert _answers(verify(cop, h=h)) == _answers(brute_force_oracle(cop, h=h))
    # a walk of witness-sized steps that takes the detour v0 -> v1
    grid = discretize(g, h)
    tau = grid.max_spacing + REACH_SLACK
    idx = [g.vertex_rows["v0"], g.vertex_rows["v1"]]    # vertex samples
    walk = [grid.points[q] for q in idx]
    assert walk == [g.vertex_point("v0"), g.vertex_point("v1")]
    assert walk[0].edge == walk[1].edge and len(g.route(*walk)[1]) > 1
    for _ in range(30):
        near = np.flatnonzero(grid.distances_to_point(walk[-1]) <= tau)
        idx.append(rng.choice(near.tolist()))
        walk.append(grid.points[idx[-1]])
    assert _witness_routes(grid, idx) == tuple(
        g.route(a, b)[1] for a, b in zip(walk, walk[1:]))


def test_witness_replay_stores_nothing_per_step():
    # int32 backpointers per step alone would take 4 bytes per sample-step;
    # the witness keeps about 2 * width + 1 bits per sample-step, packed,
    # and no score or clearance array per step.  A warm-up run keeps
    # numpy's lazy imports out of the measured peak.
    cop = cycle_loop(unit_cycle(), 1.0, 4.0)
    verify(cop, h=0.05)
    tracemalloc.start()
    try:
        r = verify(cop, h=0.002)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.verdict == "survival"
    assert peak < 2 * r.n_samples * r.n_steps


def test_each_path_is_parsed_once(monkeypatch):
    # a path's routes are read into arrays and timed when it is built;
    # verify and min_clearance read `p.table` and walk no route again
    parsed = []
    real = trajectory._piece_table

    def counting(p):
        parsed.append(p)
        return real(p)

    monkeypatch.setattr(trajectory, "_piece_table", counting)
    cop = cycle_loop(unit_cycle(), 1.0, 2.0)
    r = verify(cop, h=0.05)
    assert r.verdict == "survival"
    assert min_clearance(cop, r.witness) == r.min_clearance
    assert len(parsed) == 2
    assert parsed[0] is cop and parsed[1] is r.witness


@pytest.mark.parametrize("cop, h, verdict", [
    (sweep_strategy(unit_path(), 0.7), 0.3, "capture"),
    (cycle_loop(unit_cycle(), 1.0, 2.0), 0.05, "survival"),
], ids=["capture", "survival"])
def test_verify_builds_no_grid_points(monkeypatch, cop, h, verdict):
    # captures never read a sample as a point, and a witness builds the
    # points of its own samples only
    grids = []
    real = verifier.discretize

    def keep(g, h):
        grids.append(real(g, h))
        return grids[-1]

    monkeypatch.setattr(verifier, "discretize", keep)
    r = verify(cop, h=h)
    assert r.verdict == verdict and len(grids) == 1
    assert "points" not in vars(grids[0])
    if r.witness is not None:
        assert set(r.witness.points) <= set(grids[0].points)


# ----------------------------------------------------- monotonicity sweeps

def test_capture_monotone_in_radius():
    rng = random.Random(21)
    grown = 0
    for _ in range(25):
        cop, h, eps = oracle_instance(rng)
        r1 = verify(cop, h=h, eps=eps, want_witness=False)
        r2 = verify(cop, h=h, eps=eps * 1.5, want_witness=False)
        if r1.captured:
            assert r2.captured
            assert r2.time_bound <= r1.time_bound + 1e-9
            grown += 1
    assert grown > 0


def test_capture_stable_under_extension():
    g = path_graph(2)
    pb = PathBuilder(g, "v0", 1.0)
    for v in ("v1", "v2", "v1", "v0"):          # out and back: two sweeps
        pb.move_to(v, speed=1.0)
    cop = pb.build()                            # duration 4: 40 steps
    full = verify(cop, h=0.1, eps=0.25, want_witness=False)
    assert full.captured
    first = truncate_path(cop, 2.0)             # the outward sweep alone
    part = verify(first, h=0.1, eps=0.25, want_witness=False)
    assert part.captured
    assert part.time_bound == pytest.approx(full.time_bound, abs=1e-9)
    early = truncate_path(cop, 1.0)
    r = verify(early, h=0.1, eps=0.25, want_witness=False)
    assert r.verdict == "survival"


# ------------------------------------------------------------ oracle accord

def test_verify_agrees_with_oracle():
    # with a witness, whose runs must be the oracle's, `route`'s; criterion
    # 09 compares the verdicts of the boolean game alone
    rng = random.Random(5)
    verdicts = []
    while verdicts.count("survival") < 40:
        cop, h, eps = oracle_instance(rng)
        slow = brute_force_oracle(cop, h=h, eps=eps)
        assert _answers(verify(cop, h=h, eps=eps)) == _answers(slow)
        verdicts.append(slow.verdict)
    assert "capture" in verdicts


def test_oracle_refuses_large_instances():
    # one limit: samples x (samples + steps), 101 x (101 + 100) at h=0.01
    cop = stand(unit_path(), "a", 1.0)
    with mock.patch.object(verifier, "ORACLE_MAX_CELLS", 101 * 201):
        assert brute_force_oracle(cop, h=0.01).n_samples == 101
        with pytest.raises(SizeLimitError, match="samples.*steps"):
            brute_force_oracle(stand(unit_path(), "a", 1.01), h=0.01)
        with pytest.raises(SizeLimitError, match="samples.*steps"):
            brute_force_oracle(cop, h=0.0099)
    with pytest.raises(SizeLimitError, match="oracle limit"):
        brute_force_oracle(cop, h=1e-4)     # 10,001 samples alone


# ------------------------------------------------------------------ reports

def test_report_schema():
    g = unit_path()
    res = verify(stand(g, "a", 0.5), h=0.25)
    doc = result_to_dict(res)
    assert set(doc) == {"verdict", "time_bound", "params", "witness",
                        "min_clearance"}
    assert set(doc["params"]) == {"h", "eps", "spacing", "tau", "steps",
                                  "samples"}
    assert doc["verdict"] == "survival"
    assert doc["witness"]["speed"] == 1.0
