import json
import math
import random

import numpy as np
import pytest

from graphchase import (GraphPoint, GraphValidationError, build_graph,
                        discretize, double_tree_walk, graph_from_dict,
                        graph_to_dict, load_graph, save_graph, walk_covers,
                        walk_length)
from graphchase.randgen import random_graph

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


def test_double_tree_interior_start():
    g = triangle()
    runs = double_tree_walk(g, GraphPoint("e0", 0.4))
    assert walk_covers(g, runs)
    assert walk_length(runs) <= 2 * g.total_length + 1e-9


def test_double_tree_bound_random():
    rng = random.Random(9)
    for _ in range(60):
        g = random_graph(rng, max_vertices=8, extra_edges=3, allow_multi=True)
        start = rng.choice(list(g.vertices))
        runs = double_tree_walk(g, start)
        assert walk_covers(g, runs)
        assert walk_length(runs) <= 2 * g.total_length + 1e-9


def test_discretize_geometry():
    g = triangle(1.0, 0.55, 0.3)
    grid = discretize(g, 0.1)
    assert grid.max_spacing <= 0.1 + 1e-12
    # vertex samples first, sorted
    assert grid.vertex_of[:3] == ["a", "b", "c"]
    assert all(v is None for v in grid.vertex_of[3:])
    for e in g.edges:
        offs = grid.edge_offsets[e.id]
        assert offs[0] == 0.0 and abs(offs[-1] - e.length) < 1e-12
        steps = np.diff(offs)
        assert np.allclose(steps, grid.spacing[e.id], atol=1e-12)


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
])
def test_graph_document_bad_values(vertices, length):
    doc = {"vertices": vertices,
           "edges": [{"id": "e0", "from": "a", "to": "b", "length": length}]}
    with pytest.raises(GraphValidationError):
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
