import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphchase import (GraphPoint, GraphValidationError, PathBuilder,
                        PathValidationError,
                        TimedPath, build_graph, check_lipschitz, cycle_loop,
                        load_graph, load_path, min_clearance, path_from_dict,
                        path_pieces, path_to_dict,
                        reparameterize_max_speed, save_graph, save_path,
                        sweep_strategy, total_variation, transfer_scale,
                        transfer_shorten, truncate_path, verify, walk_length)
from graphchase.randgen import random_cop_path, random_graph
from graphchase.trajectory import (JSON_CHUNK, SPEED_TOL, PieceTable,
                                   clip_pieces, path_chunks)

from common import (hand_built_path, odd_graph, path_graph, star, triangle,
                    unit_path)

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_builder_basics():
    g = path_graph(2)
    pb = PathBuilder(g, "v0", 1.0)
    pb.move_to("v2", speed=1.0)
    p = pb.build({"kind": "demo"})
    assert p.duration == pytest.approx(2.0)
    assert p.metadata["kind"] == "demo"
    assert g.points_equal(p.evaluate(0.0), g.vertex_point("v0"))
    assert g.points_equal(p.evaluate(2.0), g.vertex_point("v2"))
    mid = p.evaluate(0.5)
    assert mid.edge == "e0" and abs(mid.offset - 0.5) < 1e-12
    mid = p.evaluate(1.5)
    assert mid.edge == "e1" and abs(mid.offset - 0.5) < 1e-12


def test_builder_wait_and_wait_until():
    g = unit_path()
    pb = PathBuilder(g, "a", 2.0)
    pb.wait(0.5)
    pb.move_to("b", speed=2.0)
    pb.wait_until(1.25)
    assert pb.now == pytest.approx(1.25)
    pb.wait_until(1.25)              # no-op
    with pytest.raises(PathValidationError):
        pb.wait_until(0.5)
    with pytest.raises(PathValidationError):
        pb.wait(0.0)
    p = pb.build()
    assert p.evaluate(0.25).offset == 0.0
    assert g.points_equal(p.evaluate(1.2), g.vertex_point("b"))


@pytest.mark.parametrize("call, value", [
    (lambda pb: pb.wait(math.nan), "nan"),
    (lambda pb: pb.wait(math.inf), "inf"),
    (lambda pb: pb.wait_until(math.inf), "inf"),
    (lambda pb: pb.move_runs([("e0", 0.0, 1.0)], math.nan), "nan"),
    (lambda pb: pb.move_runs([("e0", 0.0, 1.0)], math.inf), "inf"),
    (lambda pb: pb.move_to("b", speed=math.nan), "nan"),
    (lambda pb: pb.move_to("b", speed=math.inf), "inf"),
], ids=["wait-nan", "wait-inf", "wait_until-inf", "move_runs-nan",
        "move_runs-inf", "move_to-nan", "move_to-inf"])
def test_non_finite_times_and_speeds_are_refused_at_the_call(call, value):
    pb = PathBuilder(unit_path(), "a", 1.0)
    with pytest.raises(PathValidationError, match=f"finite.*got {value}$"):
        call(pb)
    assert pb.times == [0.0]        # nothing was appended
    p = pb.move_to("b").build()
    with pytest.raises(PathValidationError, match=f"finite.*got {value}$"):
        reparameterize_max_speed(p, float(value))


@pytest.mark.parametrize("bound", [math.nan, -1.0])
def test_builder_refuses_a_bad_speed_bound_at_the_call(bound):
    with pytest.raises(PathValidationError,
                       match=f"speed bound must be nonnegative, got {bound}$"):
        PathBuilder(unit_path(), "a", bound)
    # an infinite bound is a valid declaration, as in TimedPath
    assert PathBuilder(unit_path(), "a", math.inf).wait(1.0).build() \
        .speed_bound == math.inf


def test_speed_validation():
    g = unit_path()
    with pytest.raises(PathValidationError):
        TimedPath(g, (0.0, 0.1), (g.vertex_point("a"), g.vertex_point("b")),
                  ((("e0", 0.0, 1.0),),), 1.0, {})
    # exactly at the bound passes
    TimedPath(g, (0.0, 1.0), (g.vertex_point("a"), g.vertex_point("b")),
              ((("e0", 0.0, 1.0),),), 1.0, {})


def test_time_and_continuity_validation():
    g = unit_path()
    pa, pb_ = g.vertex_point("a"), g.vertex_point("b")
    with pytest.raises(PathValidationError):
        TimedPath(g, (0.0, 0.0), (pa, pb_), ((("e0", 0.0, 1.0),),), 5.0, {})
    with pytest.raises(PathValidationError):
        TimedPath(g, (0.5, 1.0), (pa, pa), ((),), 1.0, {})
    with pytest.raises(PathValidationError):
        # route does not end at the declared breakpoint
        TimedPath(g, (0.0, 1.0), (pa, pa), ((("e0", 0.0, 1.0),),), 5.0, {})
    with pytest.raises(PathValidationError, match="times: None is not a number"):
        TimedPath(g, (0.0, None), (pa, pa), ((),), 1.0, {})
    with pytest.raises(PathValidationError, match="times: '0' is not a number"):
        TimedPath(g, ("0", 1.0), (pa, pa), ((),), 1.0, {})


@pytest.mark.parametrize("times, n_points, n_routes, speed, message", [
    ((), 0, 0, 1.0, "at least one breakpoint"),
    ((0.0, 1.0), 1, 1, 1.0, "differ in count"),
    ((0.0, 1.0), 2, 0, 1.0, "one route per breakpoint gap"),
    ((0.0, 1.0), 2, 2, 1.0, "one route per breakpoint gap"),
    ((0.0,), 1, 0, -1.0, "speed bound must be nonnegative"),
    ((0.0,), 1, 0, math.nan, "speed bound must be nonnegative"),
])
def test_breakpoint_counts_and_speed_bound_checked(times, n_points, n_routes,
                                                   speed, message):
    g = unit_path()
    with pytest.raises(PathValidationError, match=message):
        TimedPath(g, times, (g.vertex_point("a"),) * n_points,
                  ((),) * n_routes, speed, {})


def test_evaluate_range_and_single_point():
    g = unit_path()
    p = PathBuilder(g, "a", 1.0).wait(1.0).build()
    with pytest.raises(ValueError):
        p.evaluate(2.0)
    with pytest.raises(ValueError):
        p.evaluate(-0.5)
    with pytest.raises(ValueError):
        p.evaluate(math.nan)
    single = TimedPath(g, (0.0,), (g.vertex_point("a"),), (), 1.0, {})
    assert single.duration == 0.0
    assert g.points_equal(single.evaluate(0.0), g.vertex_point("a"))


def test_move_runs_splits_segments():
    g = triangle()
    pb = PathBuilder(g, "a", 5.0)
    pb.move_runs([("e0", 0.0, 1.0), ("e1", 0.0, 1.0)], 1.0)
    p = pb.build()
    assert len(p.times) == 3
    assert all(len(r) == 1 for r in p.routes)
    assert p.times[1] == pytest.approx(0.5)


def test_lipschitz_and_variation():
    g = path_graph(2)
    pb = PathBuilder(g, "v0", 2.0)
    pb.move_to("v2", speed=2.0)
    pb.wait(1.0)
    pb.move_to("v0", speed=1.0)
    p = pb.build()
    assert check_lipschitz(p, 2.0)
    assert not check_lipschitz(p, 1.0)
    assert total_variation(p) == pytest.approx(4.0)
    # no segment is at most nan times its duration long
    assert not check_lipschitz(p, math.nan)


def test_reparameterize_full_speed():
    g = path_graph(2)
    pb = PathBuilder(g, "v0", 1.0)
    pb.wait(0.7)
    pb.move_to("v2", speed=0.8)
    pb.wait(0.3)
    pb.move_to("v0", speed=1.0)
    lazy = pb.build()
    for s in (0.5, 1.0, 2.0):
        fast = reparameterize_max_speed(lazy, s)
        assert abs(total_variation(fast) - s * fast.duration) < 1e-9
        assert check_lipschitz(fast, s)
        assert fast.graph.points_equal(fast.evaluate(0.0), lazy.evaluate(0.0))
        assert fast.graph.points_equal(fast.evaluate(fast.duration),
                                       lazy.evaluate(lazy.duration))


def test_reparameterize_stationary():
    g = unit_path()
    p = PathBuilder(g, "a", 1.0).wait(2.0).build()
    fast = reparameterize_max_speed(p, 1.0)
    assert fast.duration == 0.0


def test_truncate():
    g = path_graph(2)
    p = PathBuilder(g, "v0", 1.0).move_to("v2", speed=1.0).build()
    t = truncate_path(p, 1.3)
    assert t.duration == pytest.approx(1.3)
    assert g.points_equal(t.evaluate(1.3), p.evaluate(1.3))
    assert g.points_equal(t.evaluate(0.6), p.evaluate(0.6))
    assert truncate_path(p, 5.0) is p
    z = truncate_path(p, 0.0)
    assert z.duration == 0.0
    for t_end in (-0.5, math.nan):
        with pytest.raises(ValueError, match="cannot truncate"):
            truncate_path(p, t_end)


def test_truncate_inside_a_segment_of_several_runs():
    g = path_graph(3)
    runs = (("e0", 0.0, 1.0), ("e1", 0.0, 1.0), ("e2", 0.0, 1.0))
    p = TimedPath(g, (0.0, 3.0), (GraphPoint("e0", 0.0),
                                  GraphPoint("e2", 1.0)), (runs,), 1.0, {})
    t = truncate_path(p, 1.5)
    assert t.times == (0.0, 1.5)
    assert t.routes == ((("e0", 0.0, 1.0), ("e1", 0.0, 0.5)),)
    assert t.points[-1] == GraphPoint("e1", 0.5)


def test_transfer_scale_geometry():
    g = path_graph(2)
    p = PathBuilder(g, "v0", 1.0).move_to("v2", speed=1.0).build()
    q = transfer_scale(p, 2.0)
    assert q.duration == pytest.approx(4.0)
    assert q.graph.total_length == pytest.approx(4.0)
    at = q.evaluate(1.0)
    assert at.edge == "e0" and at.offset == pytest.approx(1.0)
    # the graph refuses the factor before any time is scaled to nan
    with pytest.raises(GraphValidationError, match="total edge length"):
        transfer_scale(p, math.inf)
    assert q.speed_bound == p.speed_bound


def test_transfer_shorten_projection():
    g = path_graph(2)
    p = PathBuilder(g, "v0", 1.0).move_to("v2", speed=1.0).build()
    q = transfer_shorten(p, "e1", 0.5)
    assert q.graph.edge("e1").length == 0.5
    assert q.duration == p.duration
    # positions on the kept part are unchanged, beyond the cut they clamp
    assert q.evaluate(0.5).offset == pytest.approx(0.5)
    end = q.evaluate(2.0)
    assert end.edge == "e1" and end.offset == pytest.approx(0.5)
    assert check_lipschitz(q, 1.0)


def test_transfers_move_every_offset_and_drop_runs_that_stop_moving():
    g = path_graph(2)
    p = PathBuilder(g, "v0", 1.0).move_to("v2", speed=1.0) \
        .move_runs([("e1", 1.0, 0.75)], 0.25).build()
    q = transfer_scale(p, 3.0)
    assert q.times == tuple(t * 3.0 for t in p.times)
    assert q.points == tuple(GraphPoint(x.edge, x.offset * 3.0)
                             for x in p.points)
    assert q.routes == tuple(tuple((e, x0 * 3.0, x1 * 3.0)
                                   for e, x0, x1 in runs)
                             for runs in p.routes)
    # beyond the new leaf the last run clamps to a wait
    q = transfer_shorten(p, "e1", 0.5)
    assert q.times == p.times
    assert q.points[2:] == (GraphPoint("e1", 0.5),) * 2
    assert q.routes == ((("e0", 0.0, 1.0),), (("e1", 0.0, 0.5),), ())


def test_transfer_shorten_u_side_leaf():
    g = path_graph(2)
    p = PathBuilder(g, "v2", 1.0).move_to("v0", speed=1.0).build()
    q = transfer_shorten(p, "e0", 0.25)
    assert q.graph.edge("e0").length == 0.25
    end = q.evaluate(q.duration)
    assert q.graph.points_equal(end, q.graph.vertex_point("v0"))


def test_transfer_shorten_refuses_a_non_leaf_edge():
    g = path_graph(3)
    p = PathBuilder(g, "v0", 1.0).move_to("v3", speed=1.0).build()
    with pytest.raises(GraphValidationError, match="not incident to a leaf"):
        transfer_shorten(p, "e1", 0.5)


def test_min_clearance_stationary():
    g = path_graph(2)
    cop = PathBuilder(g, "v0", 1.0).wait(1.0).build()
    rob = PathBuilder(g, "v2", 1.0).wait(1.0).build()
    assert min_clearance(cop, rob) == pytest.approx(2.0)


def test_min_clearance_crossing():
    g = unit_path()
    cop = PathBuilder(g, "a", 1.0).move_to("b", speed=1.0).build()
    rob = PathBuilder(g, "b", 1.0).move_to("a", speed=1.0).build()
    assert min_clearance(cop, rob) == pytest.approx(0.0, abs=1e-12)


def test_min_clearance_parallel():
    g = path_graph(2)
    cop = PathBuilder(g, "v0", 1.0).move_to("v1", speed=1.0).build()
    rob = PathBuilder(g, "v1", 1.0).move_to("v2", speed=1.0).build()
    assert min_clearance(cop, rob) == pytest.approx(1.0)


def test_min_clearance_refuses_paths_on_two_graphs(tmp_path):
    cop = sweep_strategy(unit_path(), 1.0)
    five = build_graph(["a", "b"], [("a", "b", 5.0)])
    rob = PathBuilder(five, "b", 1.0).wait(1.0).build()
    with pytest.raises(PathValidationError, match="different graphs"):
        min_clearance(cop, rob)
    with pytest.raises(PathValidationError, match="different graphs"):
        min_clearance(rob, cop)
    # equal graphs built or loaded apart are one graph
    save_graph(unit_path(), tmp_path / "g.json")
    rob = PathBuilder(load_graph(tmp_path / "g.json"), "b", 1.0).wait(1.0) \
        .build()
    assert min_clearance(cop, rob) == 0.0
    rob = PathBuilder(unit_path(), GraphPoint("e0", 0.75), 1.0).wait(3.0) \
        .build()
    assert min_clearance(cop, rob) == 0.0
    assert min_clearance(truncate_path(cop, 0.5), rob) == 0.25


def test_min_clearance_vs_sampling():
    rng = random.Random(11)
    for _ in range(15):
        g = random_graph(rng, max_vertices=5)
        a = random_cop_path(g, rng, moves=3)
        b = random_cop_path(g, rng, moves=3)
        t1 = min(a.duration, b.duration)
        if t1 <= 0:
            continue
        exact = min_clearance(a, b)
        sampled = min(g.distance(a.evaluate(min(t, a.duration)),
                                 b.evaluate(min(t, b.duration)))
                      for i in range(401)
                      for t in [t1 * i / 400])
        assert exact <= sampled + 1e-9
        # positions drift at most the combined speed between samples
        slack = (a.speed_bound + b.speed_bound) * (t1 / 400) / 2 + 1e-9
        assert exact >= sampled - slack


def _scalar_min_clearance(p, q):
    """The loop `min_clearance` replaced, kept as its reference: two
    `MetricGraph.distance` calls per interval between piece bounds, and
    the same-edge root test."""
    g = p.graph
    t1 = min(p.duration, q.duration)
    if t1 <= 0:
        return g.distance(p.evaluate(0.0), q.evaluate(0.0))
    pp = path_pieces(p, 0.0, t1)
    qq = path_pieces(q, 0.0, t1)

    def offset(piece, t):
        ta, tb, _, xa, xb = piece
        if tb <= ta:
            return xa
        u = (t - ta) / (tb - ta)
        return xa + (xb - xa) * min(max(u, 0.0), 1.0)

    cuts = sorted({t for piece in pp for t in piece[:2]}
                  | {t for piece in qq for t in piece[:2]})
    best = math.inf
    pi = qi = 0
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (a + b)
        while pi + 1 < len(pp) and pp[pi][1] <= mid:
            pi += 1
        while qi + 1 < len(qq) and qq[qi][1] <= mid:
            qi += 1
        P, Q = pp[pi], qq[qi]
        for t in (a, b):
            best = min(best, g.distance(GraphPoint(P[2], offset(P, t)),
                                        GraphPoint(Q[2], offset(Q, t))))
        if P[2] == Q[2] and b > a:
            da = offset(P, a) - offset(Q, a)
            db = offset(P, b) - offset(Q, b)
            if da * db < 0:
                best = 0.0
    return best


@st.composite
def clearance_pairs(draw):
    """Two paths on a random graph with loops and parallel edges: random
    moves and waits at random speeds, sometimes a single breakpoint, and
    sometimes opposite runs on one edge that cross."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    g = random_graph(rng, max_vertices=5, extra_edges=3, allow_multi=True)

    def point():
        e = rng.choice(g.edges)
        return GraphPoint(e.id, rng.choice([0.0, e.length,
                                            rng.uniform(0, e.length)]))

    def path():
        if rng.random() < 0.1:
            return TimedPath(g, (0.0,), (point(),), (), 1.0)
        pb = PathBuilder(g, point(), 3.0)
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.3:
                pb.wait(rng.uniform(0.05, 1.0))
            else:
                pb.move_to(point(), speed=rng.uniform(0.2, 3.0))
        return pb.build()

    if rng.random() < 0.3:
        e = rng.choice(g.edges)
        x, y = rng.uniform(0, e.length), rng.uniform(0, e.length)
        lag, span = rng.choice([0.0, rng.uniform(0, 0.5)]), rng.uniform(
            abs(y - x) / 2, 2.0)
        p = PathBuilder(g, GraphPoint(e.id, x), 3.0).wait(1.0) \
            .move_runs([(e.id, x, y)], span).build()
        q = PathBuilder(g, GraphPoint(e.id, y), 3.0).wait(1.0 + lag) \
            .move_runs([(e.id, y, x)], span).build()
        return p, q, lag == 0.0      # equal windows: they cross mid-run
    return path(), path(), False


def test_min_clearance_matches_scalar_reference():
    seen = {"roots": 0, "instants": 0, "unequal": 0}

    @settings(max_examples=150, deadline=None)
    @given(clearance_pairs())
    def check(case):
        p, q, crossing = case
        for a, b in ((p, q), (q, p)):
            got, want = min_clearance(a, b), _scalar_min_clearance(a, b)
            assert got == want and repr(got) == repr(want)
        # the crossing is between piece bounds: only the root test sees it
        assert want == 0.0 or not crossing
        seen["roots"] += crossing
        seen["instants"] += min(p.duration, q.duration) == 0
        seen["unequal"] += p.duration != q.duration

    check()
    assert min(seen.values()) > 0


def test_witness_clearance_does_not_import_numpy_ma():
    # on numpy 2.4 the first np.unique of a process imports numpy.ma, about
    # 1.2 MB of RSS; a survival's witness and its exact clearance need none
    code = textwrap.dedent("""
        import sys
        from graphchase import build_graph, cycle_loop, verify
        g = build_graph(["a"], [("a", "a", 1.0)])
        r = verify(cycle_loop(g, 1.0, 2.0), h=0.05)
        assert r.witness is not None and r.min_clearance > 0
        print("numpy.ma" in sys.modules)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def scalar_piece_table(p):
    """The loop the piece table's array passes replaced, kept as their
    reference: each run of each segment timed with scalar floats, the
    lengths before it added one by one, and each segment's length its
    `walk_length`."""
    rows, edges = [], []
    lengths = [walk_length(runs) for runs in p.routes]
    for i, (runs, seg_len) in enumerate(zip(p.routes, lengths)):
        a, b = p.times[i], p.times[i + 1]
        if seg_len == 0:
            q = p.points[i]
            rows.append((a, b, a, b, q.offset, q.offset))
            edges.append(p.graph.edge_index(q.edge))
            continue
        v = seg_len / (b - a)
        acc = 0.0
        for eid, x0, x1 in runs:
            ln = abs(x1 - x0)
            ra = a + acc / v
            rb = a + (acc + ln) / v
            acc += ln
            if min(rb, b) > max(ra, a):
                rows.append((max(ra, a), min(rb, b), ra, rb, x0, x1))
                edges.append(p.graph.edge_index(eid))
    cols = np.array(rows, dtype=float).reshape(len(rows), 6).T
    return PieceTable(*cols[:4], np.array(edges, dtype=np.int64), *cols[4:],
                      p.duration, np.array(lengths, dtype=float))


def _assert_same_table(p):
    got, want = p.table, scalar_piece_table(p)
    for name in PieceTable.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if name == "duration":
            assert repr(a) == repr(b)
        else:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    return want


@st.composite
def table_paths(draw):
    """A path on a random graph with loops and parallel edges whose
    segments wait, move along a route of one or more runs, move with
    zero-length runs before and after the route, or hold only a
    zero-length run; sometimes a single breakpoint."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    g = random_graph(rng, max_vertices=5, extra_edges=3, allow_multi=True)

    def point():
        e = rng.choice(g.edges)
        return GraphPoint(e.id, rng.choice([0.0, e.length,
                                            rng.uniform(0, e.length)]))

    times, points, routes = [0.0], [point()], []
    for _ in range(rng.choice([0, rng.randint(1, 8)])):
        here = points[-1]
        kind = rng.choice(["wait", "move", "move", "padded", "still"])
        there = here if kind in ("wait", "still") else point()
        runs = g.route(here, there)[1]
        if kind == "padded":
            runs = ((here.edge, here.offset, here.offset),) + runs + \
                ((there.edge, there.offset, there.offset),)
        elif kind == "still":
            runs = ((here.edge, here.offset, here.offset),)
        times.append(times[-1] + rng.choice([1.0, rng.uniform(0.01, 3.0)]))
        points.append(there)
        routes.append(runs)
    return TimedPath(g, tuple(times), tuple(points), tuple(routes), 1e6)


def test_piece_table_matches_scalar_reference():
    # the array passes give the loop's table bit for bit
    seen = {"stationary": 0, "vertex": 0, "fsum": 0, "zero": 0,
            "dropped": 0, "single": 0}

    @settings(max_examples=150, deadline=None)
    @given(table_paths())
    def check(p):
        want = _assert_same_table(p)
        counts = [len(runs) for runs in p.routes]
        moving = [walk_length(runs) > 0 for runs in p.routes]
        seen["stationary"] += not all(moving)
        seen["vertex"] += max(counts, default=0) >= 2
        seen["fsum"] += max(counts, default=0) >= 3
        seen["zero"] += any(x0 == x1 for runs in p.routes
                            for _, x0, x1 in runs)
        seen["dropped"] += len(want.start) < sum(
            c if m else 1 for c, m in zip(counts, moving))
        seen["single"] += len(p.times) == 1

    check()
    assert min(seen.values()) > 0, seen
    # int-valued times and offsets; and runs whose span is rounded away:
    # after 0.1 + 0.2 + 0.3 = 0.6000000000000001 run by run, the path has
    # walked past its fsum length 0.6, so the last, tiny run starts after
    # its segment ends and the loop drops it
    _assert_same_table(hand_built_path(odd_graph()))
    g = build_graph([f"v{i}" for i in range(5)],
                    [("v0", "v1", 0.1), ("v1", "v2", 0.2), ("v2", "v3", 0.3),
                     ("v3", "v4", 1.0)])
    runs = (("e0", 0.0, 0.1), ("e1", 0.0, 0.2), ("e2", 0.0, 0.3),
            ("e3", 0.0, 1e-17))
    p = TimedPath(g, (0.0, 1.0), (GraphPoint("e0", 0.0),
                                  GraphPoint("e3", 1e-17)), (runs,), 1.0)
    assert len(_assert_same_table(p).start) == 3


def test_evaluate_truncate_and_lengths_read_the_table():
    # evaluate(t) is the end of clip_pieces' last piece over [0, t] (its
    # start at t = 0), bit for bit; truncate_path keeps the runs before t
    # and ends at evaluate(t); the lengths are walk_length's
    seen = {"bound": 0, "inner": 0, "cut": 0, "wait": 0}

    @settings(max_examples=150, deadline=None)
    @given(table_paths(), st.lists(st.floats(0, 1), max_size=6))
    def check(p, fractions):
        g, tab = p.graph, p.table
        lengths = [walk_length(runs) for runs in p.routes]
        assert total_variation(p) == math.fsum(lengths)
        dt = [b - a for a, b in zip(p.times, p.times[1:])]
        for s in {0.0, 1.0} | {ln / d for ln, d in zip(lengths, dt)}:
            for s in (s, s - 2 * SPEED_TOL):
                assert check_lipschitz(p, s) == all(
                    ln <= s * d + SPEED_TOL for ln, d in zip(lengths, dt))
        assert not check_lipschitz(p, math.nan)
        if p.duration == 0:
            return
        bounds = np.concatenate([tab.start, tab.stop, [0.0, p.duration]])
        times = [p.duration * f for f in fractions] + list(p.times) + \
            bounds.tolist()
        for t in times:
            got = p.evaluate(t)
            _, ca, cb, edge, xa, xb = clip_pieces(
                tab, np.array([0.0, t if t > 0 else p.duration]))
            at = -1 if t > 0 else 0
            want = GraphPoint(g.edges[edge[at]].id,
                              float((xb if t > 0 else xa)[at]))
            assert got == want and repr(got) == repr(want)
            if not 0 < t < p.duration - 1e-12:
                continue
            q = truncate_path(p, t)
            i = len(q.times) - 1            # p's breakpoints before t
            assert q.times == p.times[:i] + (t,)
            assert q.points == p.points[:i] + (got,)
            assert q.routes[:-1] == p.routes[:i - 1]
            # the runs of the cut segment that walk, the last one cut at
            # t, or dropped where the cut walks nothing
            runs = [r for r in p.routes[i - 1] if r[1] != r[2]]
            cut = q.routes[-1]
            assert all(c == r for c, r in zip(cut[:-1], runs))
            if cut and cut[-1] != runs[len(cut) - 1]:
                assert cut[-1][:2] == runs[len(cut) - 1][:2]
                assert cut[-1][2] == got.offset
            for u in times:
                if u < p.times[i - 1]:
                    assert q.evaluate(u) == p.evaluate(u)
            seen["bound"] += t in p.times
            seen["inner"] += t not in bounds
            seen["cut"] += len(cut) > 1
            seen["wait"] += lengths[i - 1] == 0

    check()
    assert min(seen.values()) > 0, seen


def test_path_pieces_cover():
    g = path_graph(2)
    p = PathBuilder(g, "v0", 1.0).move_to("v2", speed=1.0).wait(0.5).build()
    pieces = path_pieces(p, 0.0, p.duration)
    assert pieces[0][0] == 0.0
    assert pieces[-1][1] == pytest.approx(p.duration)
    for (_, tb, _, _, xb), (ta2, _, _, xa2, _) in zip(pieces, pieces[1:]):
        assert tb == pytest.approx(ta2)


def test_serialization_roundtrip(tmp_path):
    g = star(3)
    pb = PathBuilder(g, "O", 2.0)
    pb.move_to("u1", speed=2.0)
    pb.wait(0.25)
    pb.move_to("u3", speed=1.5)
    p = pb.build({"kind": "zigzag"})
    doc = path_to_dict(p)
    q = path_from_dict(g, doc)
    assert q.times == p.times
    assert q.points == p.points
    assert q.routes == p.routes
    assert q.metadata == p.metadata
    f = tmp_path / "p.json"
    save_path(p, f)
    r = load_path(g, f)
    assert r.times == p.times


def test_serialization_geodesic_routes():
    g = star(3)
    p = PathBuilder(g, "u1", 1.0).move_to("u2", speed=1.0).build()
    doc = path_to_dict(p)
    for seg in doc["routes"]:
        assert all(isinstance(eid, str) for eid in seg)
    # dropping the routes field still reconstructs via geodesics
    doc2 = dict(doc)
    doc2["routes"] = None
    q = path_from_dict(g, doc2)
    assert min_clearance(p, q) == pytest.approx(0.0, abs=1e-9)


def test_serialization_multi_edge_routes():
    g = path_graph(3)
    runs = (("e0", 0.25, 1.0), ("e1", 0.0, 1.0), ("e2", 0.0, 0.5))
    p = TimedPath(g, (0.0, 2.25), (GraphPoint("e0", 0.25),
                                   GraphPoint("e2", 0.5)), (runs,), 1.0, {})
    doc = path_to_dict(p)
    assert doc["routes"] == [["e0", "e1", "e2"]]
    assert path_from_dict(g, doc).routes == (runs,)
    for ids, message in ((["e0", "e1"], "does not touch the segment end"),
                         (["e0", "e2"], "do not meet"),
                         (["e1", "e2"], "does not touch the current position")):
        doc["routes"] = [ids]
        with pytest.raises(PathValidationError, match=message):
            path_from_dict(g, doc)


def test_serialization_malformed(tmp_path):
    g = unit_path()
    with pytest.raises(PathValidationError):
        path_from_dict(g, {"speed": 1.0})
    with pytest.raises(PathValidationError):
        path_from_dict(g, {"speed": 1.0, "breakpoints": []})
    with pytest.raises(PathValidationError):
        path_from_dict(g, {"speed": 1.0,
                           "breakpoints": [{"t": 0.0, "edge": "nope",
                                            "offset": 0.0}]})
    f = tmp_path / "bad.json"
    f.write_text("{", encoding="utf-8")
    with pytest.raises(PathValidationError):
        load_path(g, f)


@pytest.mark.parametrize("field, value", [
    ("speed", True), ("speed", False), ("speed", "1"), ("t", "1"),
    ("t", True), ("offset", True), ("offset", " 0.5 ")])
def test_path_file_numbers_are_numbers(field, value):
    # the graph loader's rule: float() would read a bool as 1.0 or 0.0 and
    # a numeric string as its number, and every value here builds then
    g = unit_path()
    doc = {"speed": 1, "routes": None, "breakpoints": [
        {"t": 0, "edge": "e0", "offset": 0}, {"t": 1, "edge": "e0",
                                              "offset": 1.0}]}
    assert path_from_dict(g, doc).times == (0.0, 1.0)    # ints are numbers
    if field == "speed":
        doc["speed"] = value
    else:
        doc["breakpoints"][1][field] = value
    with pytest.raises(PathValidationError, match="is not a number"):
        path_from_dict(g, doc)


@pytest.mark.parametrize("where", ["edge", "routes"])
def test_path_file_edge_ids_are_strings(where):
    # the graph loader's rule: str() would read the number 0 as the edge
    # named "0", and the path would build
    g = build_graph(["a", "b"], [("a", "b", 1.0, "0")])
    doc = {"speed": 1, "routes": [["0"]], "breakpoints": [
        {"t": 0, "edge": "0", "offset": 0}, {"t": 1, "edge": "0",
                                             "offset": 1}]}
    assert path_from_dict(g, doc).routes == ((("0", 0.0, 1.0),),)
    if where == "edge":
        doc["breakpoints"][1]["edge"] = 0
    else:
        doc["routes"] = [[0]]
    with pytest.raises(PathValidationError, match="must be strings"):
        path_from_dict(g, doc)


@pytest.mark.parametrize("field", ["time", "offset", "run offset", "speed"])
@pytest.mark.parametrize("value", [True, np.bool_(False), "1"],
                         ids=["bool", "numpy-bool", "string"])
def test_path_numbers_in_python_are_no_bools(field, value):
    # the file loaders' rule: a bool or a string is no number, though
    # numpy reads (0.0, True) as (0.0, 1.0) and float(True) is 1.0
    g = unit_path()
    a, b = g.vertex_point("a"), g.vertex_point("b")
    args = {"times": (0.0, 1.0), "points": (a, b),
            "routes": ((("e0", 0.0, 1.0),),), "speed_bound": 1.0}
    TimedPath(g, **args)
    PathBuilder(g, "a", 1.0)
    named = re.escape(f"{value!r} is not a number")
    if field == "time":
        args["times"] = (0.0, value)
    elif field == "offset":
        args["points"] = (GraphPoint("e0", value), b)
    elif field == "run offset":
        args["routes"] = ((("e0", value, 1.0),),)
    else:
        args["speed_bound"] = value
        with pytest.raises(PathValidationError, match=named):
            PathBuilder(g, "a", value)
    with pytest.raises(PathValidationError, match=named):
        TimedPath(g, **args)


def test_path_files_equal_json_dumps_byte_for_byte(tmp_path):
    g = odd_graph()
    witness = verify(cycle_loop(g, 1.0, 6.0), h=0.05).witness
    for p in (hand_built_path(g), witness, PathBuilder(g, "a", 1.0).build()):
        f = tmp_path / "p.json"
        save_path(p, f)
        expected = json.dumps(path_to_dict(p), indent=2, sort_keys=True)
        assert f.read_bytes() == (expected + "\n").encode("utf-8")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from([math.nan, math.inf, -math.inf]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20)


@st.composite
def written_paths(draw):
    """A path on a line of three unit edges with int or float times,
    offsets and speed, whose segments wait or move over one or more runs,
    with any JSON metadata; sometimes a single breakpoint, and sometimes
    a pattern of moves repeated past JSON_CHUNK breakpoints."""
    offset = st.integers(0, 1) | st.floats(0, 1)
    stops = draw(st.lists(st.tuples(st.integers(0, 2), offset,
                                    st.integers(1, 3) | st.floats(0.5, 3)),
                          max_size=4))
    stops *= draw(st.integers(1, 3) | st.integers(JSON_CHUNK // 2, JSON_CHUNK))
    k, x = draw(st.integers(0, 2)), draw(offset)
    times = [draw(st.sampled_from([0, 0.0]))]
    points, routes = [GraphPoint(f"e{k}", x)], []
    for k1, x1, dt in stops:
        step = 1 if k1 >= k else -1
        out, into = (1, 0) if step == 1 else (0, 1)
        runs = [(f"e{k}", x, x1 if k1 == k else out)] + \
            [(f"e{j}", into, out) for j in range(k + step, k1, step)] + \
            ([(f"e{k1}", into, x1)] if k1 != k else [])
        times.append(times[-1] + dt)
        points.append(GraphPoint(f"e{k1}", x1))
        routes.append(tuple(r for r in runs if r[1] != r[2]))
        k, x = k1, x1
    metadata = draw(st.dictionaries(st.text(max_size=3), JSON_VALUES,
                                    max_size=3))
    return TimedPath(path_graph(3), tuple(times), tuple(points),
                     tuple(routes), draw(st.integers(6, 9) | st.floats(6, 99)),
                     metadata)


def test_write_json_is_json_dumps():
    # the path writer gives json.dumps' bytes for path_to_dict, at most
    # JSON_CHUNK breakpoints or routes a piece
    seen = {"int": 0, "float": 0, "nested": 0, "nonfinite": 0,
            "nonascii": 0, "wait": 0, "multi": 0, "single": 0, "long": 0}

    @settings(max_examples=150, deadline=None)
    @given(written_paths())
    def check(p):
        chunks = list(path_chunks(p))
        assert "".join(chunks) == \
            json.dumps(path_to_dict(p), indent=2, sort_keys=True)
        assert all(c.count("\n    {") + c.count("\n    [") <= JSON_CHUNK
                   for c in chunks)
        values = list(p.times) + [q.offset for q in p.points]
        meta = json.dumps(p.metadata, ensure_ascii=False)
        seen["int"] += int in map(type, values)
        seen["float"] += float in map(type, values)
        seen["nested"] += any(type(v) in (list, dict) and v
                              for v in p.metadata.values())
        seen["nonfinite"] += "NaN" in meta or "Infinity" in meta
        seen["nonascii"] += not meta.isascii()
        seen["wait"] += () in p.routes
        seen["multi"] += any(len(runs) > 1 for runs in p.routes)
        seen["single"] += len(p.times) == 1
        seen["long"] += len(p.times) > JSON_CHUNK

    check()
    assert min(seen.values()) > 0, seen


def test_rendered_text_nests_as_its_value():
    # the path writer's pieces, with two more spaces after each newline,
    # give json.dumps' bytes for the path nested one level down, as
    # save_report nests a witness
    seen = {"single": 0, "long": 0}

    @settings(max_examples=100, deadline=None)
    @given(written_paths())
    def check(p):
        nested = "".join(c.replace("\n", "\n  ") for c in path_chunks(p))
        assert '{\n  "w": ' + nested + "\n}" == \
            json.dumps({"w": path_to_dict(p)}, indent=2, sort_keys=True)
        seen["single"] += len(p.times) == 1
        seen["long"] += len(p.times) > JSON_CHUNK

    check()
    assert min(seen.values()) > 0, seen
