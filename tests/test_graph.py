import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphchase import (Edge, GraphPoint, GraphValidationError, MetricGraph,
                        ParameterError, PathBuilder, PathValidationError,
                        StrategyError, TimedPath, build_graph,
                        cascade_truncation, discretize, double_tree_walk,
                        frontier_table, frontier_to_json, graph_from_dict,
                        graph_to_dict, load_graph, load_path, min_clearance,
                        path_columns, path_to_dict, reparameterize_max_speed,
                        resolution, result_to_dict, save_graph, save_path,
                        sufficient_speed, sweep_strategy, transfer_scale,
                        verify, walk_covers, walk_length)
from graphchase.graph import GEOM_TOL, as_positive
from graphchase.randgen import random_graph
from graphchase.verifier import runs_within, vertex_cells

from common import path_graph, star, triangle, unit_cycle, unit_path


def test_build_rejects_bad_input():
    with pytest.raises(GraphValidationError):
        build_graph(["a", "b"], [("a", "b", 0.0)])
    with pytest.raises(GraphValidationError):
        build_graph(["a", "b"], [("a", "b", -1.0)])
    with pytest.raises(GraphValidationError):
        build_graph(["a"], [("a", "zzz", 1.0)])
    with pytest.raises(GraphValidationError):
        build_graph(["a", "a"], [])
    with pytest.raises(GraphValidationError, match="at least one edge"):
        build_graph(["a"], [])


@pytest.mark.parametrize("vertices, edges, message", [
    (["a", "b", "c"], [Edge("x", "a", "b", 1.0), Edge("x", "b", "c", 2.0)],
     "duplicate edge ids"),
    (["a", "a", "b"], [Edge("x", "a", "b", 1.0)], "duplicate vertex ids"),
    (["a"], [Edge("x", "a", "b", 1.0)], "undeclared vertex"),
    # this one used to build, and distance from x to y raised a KeyError
    (["a", "b", "c", "d"],
     [Edge("x", "a", "b", 1.0), Edge("y", "c", "d", 1.0)], "disconnected"),
    (["a", "b"], [Edge("x", "a", "b", 1.0), Edge("l", "a", "a", 2.0)],
     "'l' is a loop"),
    (["a", "b"], [Edge("x", "a", "b", 1.0), Edge("y", "b", "a", 2.0)],
     "'y' is parallel"),
    (["a"], [], "at least one edge"),
], ids=["edge-id", "vertex-id", "endpoint", "disconnected", "loop",
        "parallel", "no-edges"])
def test_constructor_refuses(vertices, edges, message):
    with pytest.raises(GraphValidationError, match=message):
        MetricGraph(vertices, edges)


@pytest.mark.parametrize("length", [True, False, "1.5", " 2 ",
                                    np.bool_(True)])
def test_build_refuses_lengths_that_are_no_numbers(length):
    # float() would read a bool as 1.0 or 0.0 and a numeric string as
    # its number
    with pytest.raises(GraphValidationError, match="'x' has non-numeric"):
        build_graph(["a", "b"], [("a", "b", length, "x")])


@pytest.mark.parametrize("length", [2, 2.0, np.float64(2.0), np.int64(2),
                                    np.float32(2.0)])
def test_build_takes_int_and_float_lengths(length):
    g = build_graph(["a", "b"], [("a", "b", length)])
    assert g.edges[0].length == 2.0 and type(g.edges[0].length) is float


@pytest.mark.parametrize("item", [("a", "b"), ("a", "b", 1.0, "x", "y")],
                         ids=["two", "five"])
def test_build_refuses_edge_items_of_the_wrong_length(item):
    with pytest.raises(GraphValidationError,
                       match=f"edge 0 has {len(item)} entries"):
        build_graph(["a", "b"], [item])


def test_build_rejects_overflowing_total_length():
    # each length is finite, but a distance through b would overflow, and
    # the shortest-path search then never reached c
    with pytest.raises(GraphValidationError, match="total edge length"):
        build_graph(["a", "b", "c"], [("a", "b", 1e308), ("b", "c", 1e308)])


@pytest.mark.parametrize("edges", [
    [("a", "a", 5e-324)],                       # a loop: three 0.0 arcs
    [("a", "b", 1.0), ("a", "b", 5e-324)],      # a parallel pair: two halves
], ids=["loop", "parallel"])
def test_subdivision_never_makes_a_zero_length_edge(edges):
    with pytest.raises(GraphValidationError, match="nonpositive length 0.0"):
        build_graph(["a", "b"], edges)


def test_disconnected_rejected():
    with pytest.raises(GraphValidationError, match="disconnected"):
        build_graph(["a", "b", "c", "d"],
                    [("a", "b", 1.0), ("c", "d", 1.0)])


def test_loop_normalization():
    g = unit_cycle()
    assert len(g.edges) == 3
    assert all(abs(e.length - 1 / 3) < 1e-12 for e in g.edges)
    assert abs(g.total_length - 1.0) < 1e-12
    assert all(g.degree(v) == 2 for v in g.vertices)


def test_subdivision_names_never_repeat_an_id():
    # a loop "x" and a parallel "y" split into pieces named like taken ids
    g = build_graph(["a", "b", "x~a"],
                    [("a", "a", 1.0, "x"), ("a", "b", 1.0, "x~0"),
                     ("a", "b", 1.0, "y"), ("b", "x~a", 1.0, "y~1")])
    ids = [e.id for e in g.edges]
    assert len(set(ids) | set(g.vertices)) == len(ids) + len(g.vertices)
    assert walk_covers(g, double_tree_walk(g, "a"))


def test_parallel_normalization():
    g = build_graph(["a", "b"], [("a", "b", 1.0), ("a", "b", 2.0)])
    # second copy gets a midpoint; result is simple
    assert len(g.edges) == 3
    assert abs(g.total_length - 3.0) < 1e-12
    seen = set()
    for e in g.edges:
        key = frozenset((e.u, e.v))
        assert key not in seen
        seen.add(key)


def test_distance_on_path():
    g = path_graph(2)
    d = g.distance(GraphPoint("e0", 0.3), GraphPoint("e1", 0.6))
    assert abs(d - 1.3) < 1e-12
    assert g.distance(GraphPoint("e0", 0.3), GraphPoint("e0", 0.3)) == 0.0


def test_distance_same_edge_vs_detour():
    g = triangle()
    d = g.distance(GraphPoint("e0", 0.1), GraphPoint("e0", 0.9))
    assert abs(d - 0.8) < 1e-12
    d = g.distance(GraphPoint("e0", 0.2), GraphPoint("e1", 0.9))
    assert abs(d - 1.3) < 1e-12


def test_distance_properties_random():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng)
        pts = []
        for _ in range(5):
            e = rng.choice(g.edges)
            pts.append(GraphPoint(e.id, rng.uniform(0, e.length)))
        for p in pts:
            assert g.distance(p, p) < 1e-12
            for q in pts:
                dpq = g.distance(p, q)
                assert abs(dpq - g.distance(q, p)) < 1e-9
                for r in pts:
                    assert dpq <= g.distance(p, r) + g.distance(r, q) + 1e-9


def test_route_length_matches_distance():
    rng = random.Random(8)
    for _ in range(20):
        g = random_graph(rng)
        e1, e2 = rng.choice(g.edges), rng.choice(g.edges)
        p = GraphPoint(e1.id, rng.uniform(0, e1.length))
        q = GraphPoint(e2.id, rng.uniform(0, e2.length))
        length, runs = g.route(p, q)
        assert abs(length - g.distance(p, q)) < 1e-9
        assert abs(walk_length(runs) - length) < 1e-9


def _tie_cycle():
    # e0 (length 3) against the 1.5 way round, in eighths of each edge:
    # 0 -> 2.25 on e0 is 2.25 both ways, and so is e0 at 1.5 -> e2 at 0.25
    return build_graph(["a", "b", "c", "d"],
                       [("a", "b", 3.0), ("b", "c", 0.5), ("c", "d", 0.5),
                        ("d", "a", 0.5)])


@st.composite
def graph_points(draw, graphs=None):
    """A graph drawn from `graphs`, by default one with exact leg ties or
    loops and parallel edges, and a few points on it: dyadic offsets,
    offsets within GEOM_TOL of a vertex and arbitrary ones, all in
    [0, length]."""
    g = draw(graphs if graphs is not None else st.sampled_from([
        _tie_cycle(), unit_cycle(), triangle(1.0, 0.1, 0.1), star(3),
        random_graph(random.Random(3), extra_edges=3, allow_multi=True)]))
    points = []
    for _ in range(draw(st.integers(2, 6))):
        e = draw(st.sampled_from(g.edges))
        x = draw(st.one_of(
            st.sampled_from([0.0, 1e-10, 5e-10, e.length - 1e-10,
                             e.length]),
            st.integers(0, 8).map(lambda i: e.length * i / 8),
            st.floats(0.0, e.length)))
        points.append(GraphPoint(e.id, x))
    return g, points


@settings(max_examples=150, deadline=None)
@given(graph_points())
def test_one_leg_formula(case):
    # route, distance and min_clearance agree exactly, ties included,
    # since all take the through-vertex length from one formula
    g, points = case
    pairs = list(zip(points, points[1:]))
    for a, b in pairs:
        length = g.route(a, b)[0]
        assert g.distance(a, b) == length
        ea, eb = g.edge_indices([a.edge, b.edge]).tolist()
        legs = float(g.legs(ea, a.offset, eb, b.offset))
        assert length == (min(legs, abs(a.offset - b.offset))
                          if a.edge == b.edge else legs)
        stay_a = PathBuilder(g, a, 1.0).wait(1.0).build()
        stay_b = PathBuilder(g, b, 1.0).wait(2.0).build()
        assert min_clearance(stay_a, stay_b) == length


def sorted_candidate_route(g, a, b):
    """Reference for `MetricGraph.route`: every candidate (the direct run on
    a shared edge, then the four ways through the edges' endpoints) in a
    list, stably sorted by length, the first one taken."""
    a = g.clamp_point(a)
    b = g.clamp_point(b)

    def endpoint_legs(p):
        e = g.edge(p.edge)
        return ((e.u, p.offset), (e.v, e.length - p.offset))

    candidates = []
    if a.edge == b.edge:
        candidates.append((abs(a.offset - b.offset),
                           [(a.edge, a.offset, b.offset)]))
    for va, da in endpoint_legs(a):
        for vb, db in endpoint_legs(b):
            length = da + g.vertex_distance(va, vb) + db
            candidates.append((length, None, va, vb))
    candidates.sort(key=lambda c: c[0])
    length = candidates[0][0]
    chosen = candidates[0]
    if chosen[1] is None:
        _, _, va, vb = chosen
        ea, eb = g.edge(a.edge), g.edge(b.edge)
        runs = [(a.edge, a.offset, 0.0 if va == ea.u else ea.length)]
        runs += g._vertex_runs(va, vb)
        runs.append((b.edge, 0.0 if vb == eb.u else eb.length, b.offset))
    else:
        runs = chosen[1]
    runs = [(eid, x0, x1) for eid, x0, x1 in runs if abs(x1 - x0) > GEOM_TOL]
    return length, tuple(runs)


@settings(max_examples=150, deadline=None)
@given(graph_points(st.integers(0, 2 ** 32 - 1).map(
    lambda seed: random_graph(random.Random(seed), extra_edges=3,
                              allow_multi=True))))
def test_route_matches_the_sorted_candidate_reference(case):
    # every pair of points, each point with itself, and each point with
    # its mirror on the same edge
    g, points = case
    mirrors = [GraphPoint(q.edge, g.edge(q.edge).length - q.offset)
               for q in points]
    pairs = [(a, b) for a in points for b in points] + list(zip(points,
                                                                mirrors))
    for a, b in pairs:
        assert g.route(a, b) == sorted_candidate_route(g, a, b)


def test_edge_indices():
    g = triangle()
    assert g.edge_indices(["e2", "e0", "zz", ["x"], None]).tolist() == \
        [2, 0, -1, -1, -1]


def test_scale():
    g = triangle(1.0, 2.0, 0.5)
    h = g.scale(2.0)
    assert [e.id for e in h.edges] == [e.id for e in g.edges]
    assert abs(h.total_length - 2 * g.total_length) < 1e-12
    p, q = GraphPoint("e0", 0.4), GraphPoint("e1", 1.1)
    assert abs(h.distance(GraphPoint("e0", 0.8), GraphPoint("e1", 2.2))
               - 2 * g.distance(p, q)) < 1e-12
    with pytest.raises(GraphValidationError):
        g.scale(0.0)
    # an infinite factor, or one whose product with a length overflows
    for c in (math.inf, 1e308):
        with pytest.raises(GraphValidationError, match="total edge length"):
            g.scale(c)


def test_scale_refuses_a_factor_that_underflows_a_length():
    g = build_graph(["a", "b"], [("a", "b", 0.5)])
    with pytest.raises(GraphValidationError, match="nonpositive length 0.0"):
        g.scale(5e-324)


def test_shorten_leaf_edge():
    g = path_graph(2)
    h = g.shorten_leaf_edge("e1", 0.25)
    assert h.edge("e1").length == 0.25
    assert h.edge("e0").length == 1.0
    with pytest.raises(GraphValidationError):
        g.shorten_leaf_edge("e1", 1.5)
    with pytest.raises(GraphValidationError):
        g.shorten_leaf_edge("e1", 0.0)
    tri = triangle()
    with pytest.raises(GraphValidationError):
        tri.shorten_leaf_edge("e0", 0.5)


def test_double_tree_unit_path():
    g = unit_path()
    runs = double_tree_walk(g, "a")
    assert walk_covers(g, runs)
    # the return leg is trimmed
    assert abs(walk_length(runs) - 1.0) < 1e-12


def test_double_tree_star_center():
    g = star(3)
    runs = double_tree_walk(g, "O")
    assert walk_covers(g, runs)
    assert abs(walk_length(runs) - 5.0) < 1e-12   # 2+2+1: last return trimmed


def test_double_tree_triangle():
    g = triangle()
    runs = double_tree_walk(g, "a")
    assert walk_covers(g, runs)
    assert walk_length(runs) <= 2 * g.total_length + 1e-9
    # runs chain: each run ends where the next begins
    for (e1, _, x1), (e2, y0, _) in zip(runs, runs[1:]):
        p = GraphPoint(e1, x1)
        q = GraphPoint(e2, y0)
        assert g.points_equal(p, q)


def test_double_tree_refuses_an_interior_start():
    g = triangle()
    for start in (GraphPoint("e0", 0.4), "zz"):
        with pytest.raises(GraphValidationError, match="unknown or isolated"):
            double_tree_walk(g, start)


def test_walk_covers_refuses_a_gap_and_a_short_cover():
    g = unit_path()
    assert walk_covers(g, [("e0", 0.0, 0.4), ("e0", 0.5, 1.0)]) is False
    assert walk_covers(g, [("e0", 0.0, 0.9)]) is False
    assert walk_covers(g, [("e0", 0.0, 0.5), ("e0", 1.0, 0.5)]) is True


def test_double_tree_bound_random():
    rng = random.Random(9)
    for _ in range(60):
        g = random_graph(rng, max_vertices=8, extra_edges=3, allow_multi=True)
        start = rng.choice(list(g.vertices))
        runs = double_tree_walk(g, start)
        assert walk_covers(g, runs)
        assert walk_length(runs) <= 2 * g.total_length + 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), h=st.sampled_from([0.1, 0.2, 0.35]),
       tiny=st.floats(0.1, 0.99))
def test_discretize_geometry(seed, h, tiny):
    """Random graphs with loops, parallel edges and one edge shorter than
    h/10: the per-edge arrays, the points and the distance table agree."""
    rng = random.Random(seed)
    base = random_graph(rng, max_vertices=5, extra_edges=3, allow_multi=True)
    u, v = rng.choice(base.vertices), rng.choice(base.vertices)
    g = build_graph(list(base.vertices),
                    [(e.u, e.v, e.length) for e in base.edges] +
                    [(u, v, h / 10 * tiny)])
    grid = discretize(g, h)
    assert grid.max_spacing <= h + 1e-12
    assert resolution(g, h)[2] == grid.max_spacing
    # vertex samples first, sorted; then each edge's interior samples in
    # (edge id, offset) order
    vertex_ids = sorted(g.vertices)
    assert list(g.vertex_rows) == vertex_ids
    eu, ev, length = g.edge_table
    nv = len(vertex_ids)
    assert grid.points[:nv] == tuple(map(g.vertex_point, vertex_ids))
    assert len(grid.edge_spacing) == len(grid.edge_intervals) == \
        len(grid.edge_inner_start) == len(g.edges)
    inner = [range(s, s + k - 1) for s, k in
             zip(grid.edge_inner_start.tolist(), grid.edge_intervals.tolist())]
    ranges = sorted((e.id, r.start, r.stop) for e, r in zip(g.edges, inner))
    assert ranges[0][1] == nv and ranges[-1][2] == grid.n
    assert all(a[2] == b[1] for a, b in zip(ranges, ranges[1:]))
    for k, (e, cols) in enumerate(zip(g.edges, inner)):
        assert g.edge_index(e.id) == k
        # the end samples are the vertex samples of u and v
        assert (eu[k], ev[k], length[k]) == \
            (vertex_ids.index(e.u), vertex_ids.index(e.v), e.length)
        assert g.points_equal(grid.points[eu[k]], GraphPoint(e.id, 0.0))
        assert g.points_equal(grid.points[ev[k]], GraphPoint(e.id, e.length))
        assert g.vertex_distance_matrix[eu[k], ev[k]] == \
            g.vertex_distance(e.u, e.v)
        sp = grid.edge_spacing[k]
        assert sp <= h + 1e-12
        assert len(cols) == grid.edge_intervals[k] - 1
        offs = [i * sp for i in range(1, len(cols) + 1)]
        for q, x in zip(cols, offs):
            assert grid.points[q] == GraphPoint(e.id, x)
            assert (grid.sample_edge[q], grid.sample_offset[q]) == (k, x)
        offs = np.array([0.0, *offs, e.length])
        assert np.allclose(np.diff(offs), sp, rtol=0, atol=1e-12)
    for i, w in enumerate(vertex_ids):
        p = g.vertex_point(w)
        exact = [g.distance(p, q) for q in grid.points]
        assert np.allclose(grid.vertex_sample_dist[i], exact, rtol=0,
                           atol=1e-12)


def test_discretize_rejects_bad_h():
    with pytest.raises(GraphValidationError):
        discretize(unit_path(), 0.0)


def test_distances_to_point_exact():
    rng = random.Random(10)
    for _ in range(10):
        g = random_graph(rng, max_vertices=5)
        grid = discretize(g, g.min_edge_length / 3)
        e = rng.choice(g.edges)
        p = GraphPoint(e.id, rng.uniform(0, e.length))
        vec = grid.distances_to_point(p)
        for i, q in enumerate(grid.points):
            assert abs(vec[i] - g.distance(q, p)) < 1e-9


def test_distances_to_intervals_exact():
    g = triangle()
    grid = discretize(g, 0.25)
    intervals = [("e0", 0.25, 0.75)]
    vec = grid.distances_to_intervals(intervals)
    for i, q in enumerate(grid.points):
        brute = min(g.distance(q, GraphPoint("e0", x))
                    for x in np.linspace(0.25, 0.75, 201))
        assert vec[i] <= brute + 1e-9
        # exactness: the analytic distance is attained at an endpoint or
        # directly on the interval
        assert vec[i] >= brute - 2e-3


def _interval(rng, grid, k):
    """A random (lo, hi) on edge k of the grid's graph: a point at a
    vertex or at one of the edge's samples, an interval touching one end,
    the whole edge or any interval."""
    length = grid.graph.edges[k].length
    kind = rng.choice(["vertex", "sample", "touch", "whole", "any"])
    if kind == "vertex":
        return (rng.choice([0.0, length]),) * 2
    if kind == "sample":
        offs = grid.sample_offset[grid.sample_edge == k].tolist()
        return (rng.choice(offs + [0.0, length]),) * 2
    x = rng.uniform(0, length)
    if kind == "touch":
        return rng.choice([(0.0, x), (x, length)])
    if kind == "whole":
        return 0.0, length
    return tuple(sorted([x, rng.uniform(0, length)]))


def _row_set(rng, grid):
    """Random rows of intervals on the grid's graph: (n_rows, rows,
    edges, lo, hi), a row holding zero to three intervals."""
    g = grid.graph
    rows, edges, ends = [], [], []
    n_rows = rng.randint(1, 30)
    for r in range(n_rows):
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            k = rng.randrange(len(g.edges))
            rows.append(r)
            edges.append(k)
            ends.append(_interval(rng, grid, k))
    rows = np.array(rows, dtype=np.int64)
    edges = np.array(edges, dtype=np.int64)
    lo, hi = (np.array(x, dtype=float).reshape(-1)
              for x in zip(*ends or [((), ())]))
    return n_rows, rows, edges, lo, hi


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       where=st.sampled_from(["spacing", "spacings", "total", "attained",
                              "below", "above"]))
def test_runs_within_are_the_thresholded_rows(seed, where):
    """Random graphs with loops and parallel edges of 0.01 to 2, so with
    mixed spacings and some edges without interior samples, and three
    sets of rows of zero-length intervals at vertices and at samples,
    intervals touching an edge's end, whole edges and any intervals.  eps
    is one ulp above the largest spacing, up to 40 spacings, beyond the
    total length, a distance some cell attains, or one ulp below or above
    it.  One `vertex_cells` table of the grid at eps serves every row
    set.  Expanded, the runs are the cells at most eps, cell for cell;
    each is non-empty and one vertex sample or inside one edge's interior
    block."""
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=6, extra_edges=3, min_len=0.01,
                     allow_multi=True)
    grid = discretize(g, rng.choice([0.05, 0.1, 0.2]))
    sets = [_row_set(rng, grid) for _ in range(3)]
    dists = [_reference_rows(grid, *rows) for rows in sets]
    sp = grid.max_spacing
    finite = np.concatenate([d[np.isfinite(d)] for d in dists]).tolist()
    attained = rng.choice(finite or [sp])
    eps = {"spacing": np.nextafter(sp, np.inf),
           "spacings": sp * rng.uniform(1.0, 40.0),
           "total": g.total_length * rng.uniform(1.0, 2.0),
           "attained": attained,
           "below": np.nextafter(attained, -np.inf),
           "above": np.nextafter(attained, np.inf)}[where]
    table = vertex_cells(grid, eps)
    for (_, *rows), dist in zip(sets, dists):
        _check_runs(table, *rows, dist)


def _reference_rows(grid, n_rows, rows, edges, lo, hi):
    """Row r: `distances_to_intervals` of the intervals i with rows[i] ==
    r, interval i being (graph.edges[edges[i]], lo[i], hi[i])."""
    ids = [e.id for e in grid.graph.edges]
    intervals = list(zip(rows.tolist(), [ids[k] for k in edges.tolist()],
                         lo.tolist(), hi.tolist()))
    return np.array([grid.distances_to_intervals(
        [iv for r, *iv in intervals if r == row]) for row in range(n_rows)])


def _check_runs(table, rows, edges, lo, hi, dist):
    """`runs_within`'s runs, expanded, are the cells of dist, the
    thresholded rows, at most `table.eps`; each is non-empty and one
    vertex sample or inside one edge's interior block.  Returns the
    cells."""
    grid = table.grid
    row, first, count = runs_within(table, rows, edges, lo, hi)
    assert (count > 0).all()
    n_vert = len(grid.vertex_sample_dist)
    last = first + count - 1
    one_edge = (first >= n_vert) & (grid.sample_edge[first]
                                    == grid.sample_edge[last])
    assert (one_edge | ((first < n_vert) & (count == 1))).all()
    cells = sorted({(r, q) for r, f, c in zip(row.tolist(), first.tolist(),
                                              count.tolist())
                    for q in range(f, f + c)})
    assert cells == list(zip(*(a.tolist()
                               for a in np.nonzero(dist <= table.eps))))
    return cells


@pytest.mark.parametrize("g, h, lo, hi, eps, want", [
    (unit_path(), 0.1, 0.4, 0.6, 0.15, [4, 5, 6, 7, 8]),
    (triangle(), 2.0, 0.0, 0.5, 0.6, [0, 1]),
], ids=["no-end-near-a-vertex", "no-interior-samples"])
def test_runs_within_without_vertex_candidates(g, h, lo, hi, eps, want):
    # one interval on the first edge: it takes no vertex's candidates
    # when neither end is within eps of a vertex, and the table has no
    # edge-end candidates when no edge has interior samples; each case
    # lacks just one of the two
    grid = discretize(g, h)
    near = min(lo, g.edges[0].length - hi) <= eps
    assert near != (grid.edge_intervals > 1).any()
    rows, edges = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    lo, hi = np.array([lo]), np.array([hi])
    dist = _reference_rows(grid, 1, rows, edges, lo, hi)
    cells = _check_runs(vertex_cells(grid, eps), rows, edges, lo, hi,
                        dist)
    assert cells == [(0, q) for q in want]


def test_graph_json_roundtrip(tmp_path):
    g = triangle(1.0, 2.0, 3.0)
    doc = graph_to_dict(g)
    h = graph_from_dict(doc)
    assert [e.id for e in h.edges] == [e.id for e in g.edges]
    assert all(a.length == b.length for a, b in zip(g.edges, h.edges))
    f = tmp_path / "g.json"
    save_graph(g, f)
    assert [e.id for e in load_graph(f).edges] == [e.id for e in g.edges]


def test_graph_json_malformed(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json", encoding="utf-8")
    with pytest.raises(GraphValidationError):
        load_graph(f)
    with pytest.raises(GraphValidationError):
        graph_from_dict({"vertices": ["a"]})


@pytest.mark.parametrize("vertices, length", [
    (["a", "b"], "abc"),
    (["a", "b"], None),
    (5, 1.0),
    ([["a"]], 1.0),
    ("ab", 1.0),
    ({"a": 0, "b": 1}, 1.0),
])
def test_graph_document_bad_values(vertices, length):
    doc = {"vertices": vertices,
           "edges": [{"id": "e0", "from": "a", "to": "b", "length": length}]}
    with pytest.raises(GraphValidationError):
        graph_from_dict(doc)


@pytest.mark.parametrize("vertices, edges", [
    (["a", "b"], [("a", "b", ["x"])]),
    (["a", "b"], [(["a"], "b", "e0")]),
    (["a", 1], [("a", 1, "e0")]),
    (["a", "b", "c"], [("a", "b", 0), ("b", "c", "e1")]),
    ([0, 1], [(0, 1, "e0")]),
    (["a", "b"], [("a", "b", 0)]),
])
def test_graph_document_bad_ids(vertices, edges):
    doc = {"vertices": vertices,
           "edges": [{"id": eid, "from": u, "to": v, "length": 1.0}
                     for u, v, eid in edges]}
    with pytest.raises(GraphValidationError, match="string"):
        graph_from_dict(doc)


def test_vertex_point_and_clamp():
    g = path_graph(2)
    p = g.vertex_point("v1")
    assert g.point_vertex(p) == "v1"
    clamped = g.clamp_point(GraphPoint("e0", 1.0 + 1e-12))
    assert clamped.offset == 1.0
    with pytest.raises(GraphValidationError):
        g.clamp_point(GraphPoint("e0", 1.5))
    with pytest.raises(GraphValidationError):
        g.clamp_point(GraphPoint("nope", 0.5))


# ------------------------------------------------------------ the number rule

G2 = path_graph(2)


def _builder():
    return PathBuilder(G2, "v0", 4.0)


# every entry point that takes a finite positive number: its error type, a
# call of it on x, and an int x it takes
POSITIVE_SITES = {
    "cascade_truncation": (StrategyError, 1,
                           lambda x: cascade_truncation(G2, x)),
    "truncation": (StrategyError, 1, lambda x: sufficient_speed(G2, x)),
    "sweep_strategy": (StrategyError, 2,
                       lambda x: path_to_dict(sweep_strategy(G2, x))),
    "frontier_table": (StrategyError, 2,
                       lambda x: frontier_to_json(
                           frontier_table(G2, "sweep", [x], h=0.25))),
    "wait": (PathValidationError, 2, lambda x: _builder().wait(x).times),
    "move_runs": (PathValidationError, 2,
                  lambda x: _builder().move_runs([("e0", 0, 1)], x).times),
    "move_to": (PathValidationError, 2,
                lambda x: _builder().move_to("v2", speed=x).times),
    "reparameterize_max_speed": (
        PathValidationError, 2, lambda x: path_to_dict(
            reparameterize_max_speed(sweep_strategy(G2, 1.0), x))),
    "verify_h": (ParameterError, 1, lambda x: result_to_dict(
        verify(sweep_strategy(G2, 1.0), h=x))),
    "verify_eps": (ParameterError, 1, lambda x: result_to_dict(
        verify(sweep_strategy(G2, 1.0), h=0.25, eps=x))),
    "discretize": (GraphValidationError, 1, lambda x: discretize(G2, x).h),
}


@pytest.mark.parametrize("x", [True, np.True_, "0.5", math.nan, math.inf,
                               0.0, -1.0], ids=repr)
@pytest.mark.parametrize("site", POSITIVE_SITES)
def test_positive_number_sites_refuse_bools_strings_and_non_positives(site,
                                                                      x):
    error, _, call = POSITIVE_SITES[site]
    with pytest.raises(error) as exc:
        call(x)
    assert type(exc.value) is error
    assert f"must be finite and positive, got {x!r}" in str(exc.value)


@pytest.mark.parametrize("site", POSITIVE_SITES)
def test_positive_number_sites_take_ints_and_numpy_floats_as_floats(site):
    _, n, call = POSITIVE_SITES[site]
    want = call(float(n))
    assert call(n) == want and call(np.float64(n)) == want
    assert json.dumps(call(n)) == json.dumps(want)


def test_as_positive_returns_a_python_float():
    for x in (2, np.float64(2.0), np.int64(2), 2.0):
        v = as_positive(x, "x", GraphValidationError)
        assert type(v) is float and v == 2.0
    with pytest.raises(GraphValidationError, match="x must be finite"):
        as_positive(10 ** 400, "x", GraphValidationError)



# every graph entry point that reads a number: the number read from the
# result of a call on x
GRAPH_NUMBER_SITES = {
    "MetricGraph": lambda x: MetricGraph(
        ["a", "b"], [Edge("e", "a", "b", x)]).edges[0].length,
    "scale": lambda x: G2.scale(x).edges[0].length,
    "shorten_leaf_edge": lambda x: path_graph(2, 4.0).shorten_leaf_edge(
        "e1", x).edge("e1").length,
    "clamp_point": lambda x: path_graph(2, 4.0).clamp_point(
        GraphPoint("e0", x)).offset,
    "transfer_scale": lambda x: transfer_scale(
        sweep_strategy(G2, 1.0), x).graph.edges[0].length,
}


@pytest.mark.parametrize("x", [True, "1"], ids=repr)
@pytest.mark.parametrize("site", GRAPH_NUMBER_SITES)
def test_graph_number_sites_refuse_bools_and_strings(site, x):
    # a bool was once read as 1, and a string raised a bare TypeError or
    # was kept until save_graph wrote it
    with pytest.raises(GraphValidationError) as exc:
        GRAPH_NUMBER_SITES[site](x)
    assert repr(x) in str(exc.value)


@pytest.mark.parametrize("x", [np.float32(2.0), np.int64(2)], ids=repr)
@pytest.mark.parametrize("site", GRAPH_NUMBER_SITES)
def test_graph_number_sites_store_floats(site, x):
    v = GRAPH_NUMBER_SITES[site](x)
    assert type(v) is float and v == GRAPH_NUMBER_SITES[site](2.0)


@pytest.mark.parametrize("x", [np.float32(0.5), np.int64(2), 2], ids=repr)
def test_numpy_and_int_numbers_round_trip_through_files(tmp_path, x):
    # save_graph once raised a bare TypeError on a float32 length, and
    # save_path on a float32 speed; an int speed saved as 2, then as 2.0
    g = MetricGraph(["a", "b"], [Edge("e", "a", "b", x)]).scale(x)
    cols = path_columns(g, (0.0, 1.0), (GraphPoint("e", 0.0),) * 2, ((),))
    p = TimedPath(g, cols, x)
    assert type(p.speed_bound) is float
    save_graph(g, tmp_path / "g.json")
    save_path(p, tmp_path / "p.json")
    h = load_graph(tmp_path / "g.json")
    save_graph(h, tmp_path / "g2.json")
    save_path(load_path(h, tmp_path / "p.json"), tmp_path / "p2.json")
    for a, b in (("g", "g2"), ("p", "p2")):
        assert (tmp_path / f"{a}.json").read_bytes() == \
            (tmp_path / f"{b}.json").read_bytes()
