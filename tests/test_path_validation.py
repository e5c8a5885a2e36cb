"""`TimedPath` validation against the scalar walk it replaced.

`scalar_validate` is the per-breakpoint, per-run loop that `TimedPath`
ran before its checks became one array pass.  Both must accept the same
paths and raise the same exception type and message for the first
failure of a rejected one.
"""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphchase import (GraphPoint, PathValidationError, build_graph,
                        cycle_loop, star_strategy, sweep_strategy, verify)
from graphchase.graph import GEOM_TOL, walk_length
from graphchase.randgen import random_graph
from graphchase.trajectory import SPEED_TOL

from common import comb, path_graph, star, tuple_path, unit_cycle


def scalar_validate(g, times, points, routes, speed_bound):
    """TimedPath's checks as one scalar loop over breakpoints and runs."""
    if len(times) == 0:
        raise PathValidationError("a path needs at least one breakpoint")
    if len(points) != len(times):
        raise PathValidationError("breakpoint times and positions differ in count")
    if len(routes) != len(times) - 1:
        raise PathValidationError("need exactly one route per breakpoint gap")
    if not abs(times[0]) <= 1e-12:
        raise PathValidationError(f"paths start at time 0, got {times[0]}")
    if not speed_bound >= 0:
        raise PathValidationError("speed bound must be nonnegative")
    for a, b in zip(times[:-1], times[1:]):
        if not (b > a):
            raise PathValidationError(f"times must strictly increase ({a} -> {b})")
    if not math.isfinite(times[-1]):
        raise PathValidationError(f"paths end at a finite time, got {times[-1]}")
    for p in points:
        g.clamp_point(p)
    for i, runs in enumerate(routes):
        here = points[i]
        for eid, x0, x1 in runs:
            g.clamp_point(GraphPoint(eid, x0))
            g.clamp_point(GraphPoint(eid, x1))
            if not g.points_equal(here, GraphPoint(eid, x0)):
                raise PathValidationError(
                    f"route of segment {i} breaks continuity at {here}")
            here = GraphPoint(eid, x1)
        if not g.points_equal(here, points[i + 1]):
            raise PathValidationError(
                f"route of segment {i} does not reach breakpoint {i + 1}")
        dt = times[i + 1] - times[i]
        if walk_length(runs) > speed_bound * dt + SPEED_TOL:
            raise PathValidationError(
                f"segment {i} is faster than the declared bound {speed_bound}")


def outcome(check, *args):
    """None if check(*args) returns, else the exception's type and text."""
    try:
        check(*args)
    except Exception as exc:        # noqa: BLE001 - any type must match
        return type(exc), str(exc)
    return None


def assert_same_decision(g, times, points, routes, speed):
    args = (g, tuple(times), tuple(points),
            tuple(tuple(runs) for runs in routes), speed)
    ref = outcome(scalar_validate, *args)
    assert outcome(tuple_path, *args) == ref
    return ref


# ------------------------------------------------------------ valid paths

def _parts(p):
    return (p.graph, list(p.times), list(p.points),
            [list(runs) for runs in p.routes], p.speed_bound)


def _witness(cop, h):
    r = verify(cop, h=h)
    assert r.verdict == "survival"
    return r.witness


STRATEGY_PATHS = [sweep_strategy(comb(3), 3.5),
                  star_strategy(star(3, 0.5), 4.0, 0.05),
                  cycle_loop(unit_cycle(), 1.0, 3.0)]
WITNESS_PATHS = [_witness(cycle_loop(unit_cycle(), 1.0, 2.0), 0.05),
                 _witness(sweep_strategy(comb(3), 3.5), 0.1)]


def multigraph_path(seed):
    """Shortest-path hops between random points of a random graph with
    loops and parallel edges (edges down to 1e-3 long on every third
    seed): segments of several runs, waits and breakpoints at vertices."""
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=5, extra_edges=3, allow_multi=True,
                     min_len=1e-3 if seed % 3 == 0 else 0.5)
    speed = rng.uniform(0.5, 3.0)
    times, points, routes = [0.0], [], []
    e = rng.choice(g.edges)
    points.append(GraphPoint(e.id, rng.choice([0.0, e.length,
                                               rng.uniform(0, e.length)])))
    for _ in range(rng.randint(0, 8)):
        if rng.random() < 0.2:
            times.append(times[-1] + rng.uniform(0.1, 1.0))
            points.append(points[-1])
            routes.append([])
            continue
        e = rng.choice(g.edges)
        q = GraphPoint(e.id, rng.choice([0.0, e.length,
                                         rng.uniform(0, e.length)]))
        length, runs = g.route(points[-1], q)
        if length == 0:
            continue
        times.append(times[-1] + length / speed * rng.choice([1.0, 1.5]))
        points.append(q)
        routes.append(list(runs))
    return g, times, points, routes, speed


@pytest.mark.parametrize("p", STRATEGY_PATHS + WITNESS_PATHS)
def test_valid_strategy_and_witness_paths_pass_both(p):
    assert assert_same_decision(*_parts(p)) is None


def test_random_multigraph_paths_pass_both():
    for seed in range(40):
        assert assert_same_decision(*multigraph_path(seed)) is None


# ------------------------------------------------------------ corruptions

def _nudge_time(times, i, speed, length, over):
    """times with times[i + 1] moved so that segment i, of this length, is
    one ulp of times[i + 1] faster than the bound (over) or just within."""
    t = list(times)
    t[i + 1] = t[i] + (length - SPEED_TOL) / speed

    def fast(c):
        return length > speed * (c - t[i]) + SPEED_TOL
    # walk one ulp at a time until the decision flips (later is slower),
    # then step back across the flip if the other side was asked for
    step = math.inf if fast(t[i + 1]) else -math.inf
    while fast(t[i + 1]) == (step == math.inf):
        t[i + 1] = math.nextafter(t[i + 1], step)
    if fast(t[i + 1]) != over:
        t[i + 1] = math.nextafter(t[i + 1], -step)
    assert fast(t[i + 1]) == over
    return t


def corrupt(parts, kind, r):
    """Apply one corruption, chosen by kind, at positions drawn from r."""
    g, times, points, routes, speed = parts
    times, points = list(times), list(points)
    routes = [list(runs) for runs in routes]
    flat = [(i, j) for i, runs in enumerate(routes) for j in range(len(runs))]
    moving = [i for i, runs in enumerate(routes)
              if walk_length(runs) > 1e-6]
    edge_len = {e.id: e.length for e in g.edges}

    def tol_offsets(eid):   # just inside and one ulp outside each end
        top = edge_len[eid] + GEOM_TOL
        return [-GEOM_TOL, math.nextafter(-GEOM_TOL, -1.0), top,
                math.nextafter(top, 2 * top)]
    if kind == "point-edge":
        j = r.randrange(len(points))
        points[j] = GraphPoint(r.choice(["nope", ("x", ["y"])]),
                               points[j].offset)
    elif kind == "run-edge" and flat:
        i, j = r.choice(flat)
        _, x0, x1 = routes[i][j]
        routes[i][j] = (r.choice(["nope", ["x"]]), x0, x1)
    elif kind == "nan-offset":
        if flat and r.random() < 0.5:
            i, j = r.choice(flat)
            eid, x0, x1 = routes[i][j]
            routes[i][j] = (eid, math.nan, x1) if r.random() < 0.5 \
                else (eid, x0, math.nan)
        else:
            j = r.randrange(len(points))
            points[j] = GraphPoint(points[j].edge, math.nan)
    elif kind == "tolerance":
        if flat and r.random() < 0.5:
            i, j = r.choice(flat)
            eid, x0, x1 = routes[i][j]
            x = r.choice(tol_offsets(eid))
            routes[i][j] = (eid, x, x1) if r.random() < 0.5 else (eid, x0, x)
        else:
            j = r.randrange(len(points))
            q = points[j]
            points[j] = GraphPoint(q.edge, r.choice(tol_offsets(q.edge)))
    elif kind == "run-start" and flat:
        i, j = r.choice(flat)
        eid, x0, x1 = routes[i][j]
        routes[i][j] = (eid, x0 + r.choice([1e-3, -1e-3, 2e-9, -2e-9, 5e-10]),
                        x1)
    elif kind == "stops-short" and flat:
        i = r.choice(sorted({i for i, _ in flat}))
        eid, x0, x1 = routes[i][-1]
        if r.random() < 0.5:
            routes[i].pop()
        else:
            routes[i][-1] = (eid, x0, x0 + (x1 - x0) * r.choice([0.5, 0.999]))
    elif kind == "vertex-alias":
        # re-express a breakpoint or a run end at a vertex on another
        # edge or with its offset moved within GEOM_TOL
        j = r.randrange(len(points))
        q = points[j]
        v = g.point_vertex(q)
        if v is not None:
            e = r.choice(g.incident_edges(v))
            x = 0.0 if e.u == v else e.length
            points[j] = GraphPoint(e.id, x + r.choice([0.0, 0.9e-9, -0.9e-9]))
        if flat:
            i, k = r.choice(flat)
            eid, x0, x1 = routes[i][k]
            jitter = r.choice([0.9e-9, -0.9e-9, 1.1e-9])
            routes[i][k] = (eid, x0, x1 + jitter)
    elif kind in ("speed-over", "speed-under") and moving and speed > 0:
        i = r.choice(moving)
        times = _nudge_time(times, i, speed, walk_length(routes[i]),
                            kind == "speed-over")
    elif kind == "time" and len(times) > 1:
        i = r.randrange(1, len(times))
        times[i] = r.choice([times[i - 1], times[i - 1] - 1e-3, math.nan,
                             math.inf, -math.inf])
    elif kind == "start-time":
        times[0] = r.choice([math.nan, 1e-3, 1e-13])
    return g, times, points, routes, speed


KINDS = ["point-edge", "run-edge", "nan-offset", "tolerance", "run-start",
         "stops-short", "vertex-alias", "speed-over", "speed-under", "time",
         "start-time"]

BASES = [_parts(p) for p in STRATEGY_PATHS + WITNESS_PATHS]


@pytest.mark.parametrize("kind, expected", [
    ("point-edge", "unknown edge id|unhashable"),
    ("run-edge", "unknown edge id|unhashable"),
    ("nan-offset", "offset nan outside"),
    ("run-start", "breaks continuity"),
    ("stops-short", "does not reach breakpoint"),
    ("vertex-alias", None),
    ("speed-over", "faster than the declared bound"),
    ("time", "strictly increase|finite time"),
    ("start-time", "start at time 0"),
])
def test_each_corruption_is_decided_alike(kind, expected):
    # a witness, a strategy and hops with several runs per segment
    seen = [assert_same_decision(*corrupt(parts, kind, random.Random(seed)))
            for parts in (BASES[-2], BASES[0], multigraph_path(2))
            for seed in range(8)]
    if expected is None:
        assert None in seen
    else:
        assert any(ref is not None and re.search(expected, ref[1])
                   for ref in seen)


def test_speed_bound_one_ulp_each_way_with_one_and_several_runs():
    for parts, several in ((BASES[0], False), (multigraph_path(2), True)):
        g, times, points, routes, speed = parts
        i = next(i for i, runs in enumerate(routes)
                 if walk_length(runs) > 1e-6 and (len(runs) > 1) == several)
        length = walk_length(routes[i])
        for over in (True, False):
            t = _nudge_time(times, i, speed, length, over)
            ref = assert_same_decision(g, t, points, routes, speed)
            if over:
                assert ref == (PathValidationError,
                               f"segment {i} is faster than the declared "
                               f"bound {speed}")
            else:
                assert ref is None or f"segment {i} " not in ref[1]


def test_speed_bound_uses_the_exactly_rounded_segment_length():
    # 0.1 + 0.2 + 0.3 sums to 0.6000000000000001 left to right, but the
    # segment is 0.6 long: at a bound of exactly 0.6 it is not too fast
    g = build_graph(["a", "b", "c", "d"], [("a", "b", 0.1), ("b", "c", 0.2),
                                           ("c", "d", 0.3)])
    runs = [("e0", 0.0, 0.1), ("e1", 0.0, 0.2), ("e2", 0.0, 0.3)]
    assert walk_length(runs) == 0.6 < (0.1 + 0.2) + 0.3
    points = [GraphPoint("e0", 0.0), GraphPoint("e2", 0.3)]
    times = _nudge_time([0.0, 1.0], 0, 1.0, 0.6, over=False)
    assert times[1] + SPEED_TOL == 0.6
    assert assert_same_decision(g, times, points, [runs], 1.0) is None


@pytest.mark.parametrize("speed", [1e308, math.inf])
def test_segment_length_beyond_float_range_is_decided_alike(speed):
    # two runs of 1e308, out along the edge and back, overflow: math.fsum
    # raises where a plain sum would give inf and pass an infinite speed
    # bound (a graph of total length 2e308 is refused)
    g = build_graph(["a", "b"], [("a", "b", 1e308)])
    runs = [("e0", 0.0, 1e308), ("e0", 1e308, 0.0)]
    points = [GraphPoint("e0", 0.0), GraphPoint("e0", 0.0)]
    ref = assert_same_decision(g, [0.0, 1.0], points, [runs], speed)
    assert ref == (OverflowError, "intermediate overflow in fsum")


@pytest.mark.parametrize("start, run, end, accepted", [
    # through vertex v1 on another edge
    (("e0", 0.0), ("e0", 0.0, 1.0), ("e1", 0.0), True),
    (("e1", 0.0), ("e0", 1.0, 0.5), ("e0", 0.5), True),
    (("e0", 0.0), ("e0", 0.0, 1.0 - 0.9e-9), ("e1", 0.9e-9), True),
    (("e0", 0.0), ("e0", 0.0, 1.0 - GEOM_TOL), ("e1", 0.0), True),
    (("e1", 0.5), ("e1", 0.5, GEOM_TOL), ("e0", 1.0), True),
    # a vertex and an interior point GEOM_TOL apart on the same edge
    (("e0", 0.0), ("e0", 0.0, 0.5e-9), ("e0", 1.4e-9), False),
    (("e0", 1.0), ("e0", 1.0, 1.4e-9), ("e0", 0.5e-9), False),
    (("e0", 1.0), ("e0", 1.0, 0.5e-9), ("e0", 1.4e-9), False),
    (("e1", 1.4e-9), ("e0", 0.5e-9, 0.5), ("e0", 0.5), False),
    # two interior points GEOM_TOL apart
    (("e0", 0.0), ("e0", 0.0, 0.5), ("e0", 0.5 + 0.9e-9), True),
    (("e0", 0.0), ("e0", 0.0, 0.5), ("e0", 0.5 + 1.1e-9), False),
])
def test_vertex_identification_matches_points_equal(start, run, end,
                                                    accepted):
    g = path_graph(2)
    ref = assert_same_decision(g, [0.0, 1.0],
                               [GraphPoint(*start), GraphPoint(*end)],
                               [[run]], 2.0)
    assert (ref is None) == accepted


def test_tolerance_edges_inside_pass_and_one_ulp_outside_fail():
    g, times, points, routes, speed = BASES[0]
    q = points[0]
    L = g.edge(q.edge).length
    for x, ok in ((-GEOM_TOL, True), (math.nextafter(-GEOM_TOL, -1), False),
                  (L + GEOM_TOL, True),
                  (math.nextafter(L + GEOM_TOL, 9e9), False)):
        pts = [GraphPoint(q.edge, x)] + points[1:]
        ref = assert_same_decision(g, times, pts, routes, speed)
        assert (ref is None or "outside" not in ref[1]) == ok


@settings(max_examples=250, deadline=None, derandomize=True)
@given(base=st.one_of(st.sampled_from(range(len(BASES))),
                      st.integers(1000, 1999)),
       kind=st.sampled_from(KINDS), seed=st.integers(0, 2 ** 16))
def test_array_validator_matches_scalar_reference(base, kind, seed):
    parts = BASES[base] if base < len(BASES) else multigraph_path(base)
    assert_same_decision(*corrupt(parts, kind, random.Random(seed)))
