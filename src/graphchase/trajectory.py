"""Time-parameterized Lipschitz paths on a metric graph.

A path is a finite sequence of timed breakpoints joined by constant-speed
motion along explicitly recorded edge runs.  The module provides evaluation,
speed checking, total variation, maximal-speed reparameterization, the two
structure-preserving transfer maps (uniform scaling and leaf-edge
shortening), and a JSON serialization.
"""

from __future__ import annotations

import bisect
import json
import math
import numbers
from dataclasses import dataclass, field
from itertools import accumulate, islice

import numpy as np

from .graph import GEOM_TOL, GraphPoint, GraphValidationError, MetricGraph

SPEED_TOL = 1e-9


class PathValidationError(ValueError):
    """Raised when breakpoints, routes, and the speed bound are inconsistent."""


def _reals(values, what: str) -> np.ndarray:
    """The values as a float array; one that is not a real number raises
    TypeError, as comparing it would."""
    a = np.array(values)
    if a.ndim != 1 or a.dtype.kind not in "biufO" or (
            a.dtype.kind == "O"
            and not all(isinstance(v, numbers.Real) for v in values)):
        raise TypeError(f"{what} must be real numbers")
    return a.astype(float, copy=False)


@dataclass(frozen=True)
class PieceTable:
    """Every constant-speed run of a path as arrays, in time order.

    Run k moves from offset x0[k] to x1[k] on edge `graph.edges[edge[k]]`
    over [run_start[k], run_end[k]]; its part of the breakpoint segment is
    [start[k], stop[k]].  A wait is one run with x0 == x1 spanning its
    segment.  Runs whose part is empty are left out, so both `start` and
    `stop` increase with k.  Breakpoint segment i walks seg_len[i], the
    `walk_length` of its runs.  The layout is private to this module:
    other modules clip a table with `clip_pieces`.
    """

    start: np.ndarray
    stop: np.ndarray
    run_start: np.ndarray
    run_end: np.ndarray
    edge: np.ndarray
    x0: np.ndarray
    x1: np.ndarray
    duration: float
    seg_len: np.ndarray


def _piece_table(p: "TimedPath", t: np.ndarray) -> PieceTable:
    """Check p's points, routes and speed bound, and time its runs, in one
    array pass: the only walk over a path's routes that evaluation,
    truncation, the length checks, the pieces and `min_clearance` use.

    The order of the failures is a walk over the points (`clamp_point`),
    then segment by segment over each run (`clamp_point` on both offsets,
    then continuity from the position before it), the arrival at the next
    breakpoint and the speed bound; the first failure in that order raises
    that walk's exception and message.  Positions are compared as
    `points_equal` does, and each segment's length is `walk_length`.

    A segment whose runs have no length is one stationary row.  Otherwise
    run k of a segment [a, b] whose runs are `seg_len` long in all spans
    [a + acc / v, a + (acc + ln) / v], where v is seg_len / (b - a), ln
    its own length and acc the lengths of the runs before it added one by
    one; it is kept where that span meets [a, b].  The array passes take
    these floating-point operations in that order: acc is a cumulative sum
    along the segment, done per run count, and a segment of two or more
    runs takes its length from `math.fsum`.
    """
    g = p.graph
    eu, ev, length = g.edge_table

    def off_edge(e, x):         # clamp_point's test, which nan fails
        return (e < 0) | ~((-GEOM_TOL <= x) & (x <= length[e] + GEOM_TOL))

    def vertex(e, x):           # point_vertex as a vertex row, or -1
        return np.where(x <= GEOM_TOL, eu[e],
                        np.where(x >= length[e] - GEOM_TOL, ev[e], -1))

    def same_point(ea, xa, eb, xb):
        va, vb = vertex(ea, xa), vertex(eb, xb)
        return np.where((va >= 0) | (vb >= 0), va == vb,
                        (ea == eb) & (np.abs(xa - xb) <= GEOM_TOL))

    pe = g.edge_indices([q.edge for q in p.points])
    px = _reals([q.offset for q in p.points], "offsets")
    bad = off_edge(pe, px)
    if bad.any():
        g.clamp_point(p.points[int(np.argmax(bad))])    # raises

    runs = [(eid, x0, x1) for seg in p.routes for eid, x0, x1 in seg]
    ids, x0, x1 = zip(*runs) if runs else ((), (), ())
    re, r0, r1 = (g.edge_indices(ids), _reals(x0, "offsets"),
                  _reals(x1, "offsets"))
    count = np.array([len(seg) for seg in p.routes], dtype=np.int64)
    end = np.cumsum(count)
    head = end - count                  # each segment's first run
    seg = np.repeat(np.arange(len(count)), count)
    moved = count > 0
    # a run starts from its segment's breakpoint or the run before it
    first = np.zeros(len(runs), dtype=bool)
    first[head[moved]] = True
    he = np.where(first, pe[seg], np.roll(re, 1))
    hx = np.where(first, px[seg], np.roll(r1, 1))
    run_bad = off_edge(re, r0) | off_edge(re, r1)
    broken = run_bad | ~same_point(he, hx, re, r0)
    # a segment ends at its last run's end or stays at its breakpoint
    ae, ax = pe[:-1].copy(), px[:-1].copy()
    ae[moved], ax[moved] = re[end[moved] - 1], r1[end[moved] - 1]
    missed = ~same_point(ae, ax, pe[1:], px[1:])
    ln = np.abs(r1 - r0)
    seg_len, acc = np.zeros(len(count)), np.zeros(len(ln))
    sizes = np.flatnonzero(np.bincount(count))     # run counts present
    for c in sizes[sizes > 0].tolist():
        segs = np.flatnonzero(count == c)
        rows = head[segs, None] + np.arange(c)
        walked = np.cumsum(ln[rows], axis=1)     # one by one along a row
        acc[rows[:, 1:]] = walked[:, :-1]
        # math.fsum of one length is itself; of more it is correctly
        # rounded, and it raises where their sum overflows
        seg_len[segs] = (walked[:, -1] if c == 1 else
                         [math.fsum(row) for row in ln[rows].tolist()])
    a, b = t[:-1], t[1:]
    too_fast = seg_len > p.speed_bound * (b - a) + SPEED_TOL

    k = np.flatnonzero(broken)
    i = np.flatnonzero(missed | too_fast)
    if len(k) and (not len(i) or seg[k[0]] <= i[0]):
        k, i = int(k[0]), int(seg[k[0]])
        eid, o0, o1 = runs[k]
        if run_bad[k]:
            g.clamp_point(GraphPoint(eid, o0))
            g.clamp_point(GraphPoint(eid, o1))
        here = p.points[i] if first[k] else GraphPoint(ids[k - 1], x1[k - 1])
        raise PathValidationError(
            f"route of segment {i} breaks continuity at {here}")
    if len(i):
        i = int(i[0])
        if missed[i]:
            raise PathValidationError(
                f"route of segment {i} does not reach breakpoint {i + 1}")
        raise PathValidationError(
            f"segment {i} is faster than the declared bound {p.speed_bound}")

    moving = seg_len > 0
    # the runs of moving segments, then one row per stationary segment
    k = np.flatnonzero(np.repeat(moving, count))
    seg = seg[k]
    v = seg_len[seg] / (b[seg] - a[seg])
    ra = a[seg] + acc[k] / v
    rb = a[seg] + (acc[k] + ln[k]) / v
    start, stop = np.maximum(ra, a[seg]), np.minimum(rb, b[seg])
    kept = stop > start
    k = k[kept]
    still = np.flatnonzero(~moving)
    order = np.argsort(np.concatenate([seg[kept], still]), kind="stable")
    cols = [np.concatenate(pair)[order] for pair in (
        (start[kept], a[still]), (stop[kept], b[still]),
        (ra[kept], a[still]), (rb[kept], b[still]),
        (re[k], pe[still]), (r0[k], px[still]), (r1[k], px[still]))]
    return PieceTable(*cols, p.duration, seg_len)


@dataclass(frozen=True, eq=False)
class TimedPath:
    """An s-Lipschitz trajectory given by timed breakpoints and edge runs.

    `times` is strictly increasing and starts at 0.  `routes[i]` records the
    sub-path walked between breakpoints i and i+1 as contiguous
    (edge id, start offset, end offset) runs; an empty tuple is a wait.
    Instances are immutable and safe to evaluate concurrently.  `table`
    holds the runs as the piece table that validation times.
    """

    graph: MetricGraph
    times: tuple[float, ...]
    points: tuple[GraphPoint, ...]
    routes: tuple[tuple[tuple[str, float, float], ...], ...]
    speed_bound: float
    metadata: dict = field(default_factory=dict)
    table: PieceTable = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.times) == 0:
            raise PathValidationError("a path needs at least one breakpoint")
        if len(self.points) != len(self.times):
            raise PathValidationError("breakpoint times and positions differ in count")
        if len(self.routes) != len(self.times) - 1:
            raise PathValidationError("need exactly one route per breakpoint gap")
        if not abs(self.times[0]) <= 1e-12:
            raise PathValidationError(f"paths start at time 0, got {self.times[0]}")
        if not self.speed_bound >= 0:
            raise PathValidationError("speed bound must be nonnegative")
        t = _reals(self.times, "times")
        late = ~(t[1:] > t[:-1])
        if late.any():
            i = int(np.argmax(late))
            a, b = self.times[i], self.times[i + 1]
            raise PathValidationError(f"times must strictly increase ({a} -> {b})")
        if not math.isfinite(self.times[-1]):
            raise PathValidationError(f"paths end at a finite time, got {self.times[-1]}")
        with np.errstate(all="ignore"):     # values after a failure may be nan
            object.__setattr__(self, "table", _piece_table(self, t))

    @property
    def duration(self) -> float:
        return self.times[-1]

    def _row(self, t: float) -> int:
        """The row of `table` that holds time t: the last one starting
        before t, or the first at t = 0."""
        return max(int(np.searchsorted(self.table.start, t)) - 1, 0)

    def evaluate(self, t: float) -> GraphPoint:
        """Position at time t: the row of `table` that holds t,
        interpolated at t as `clip_pieces` does, with t clamped to the
        row's span."""
        if not -1e-9 <= t <= self.duration + 1e-9:
            raise ValueError(f"time {t} outside [0, {self.duration}]")
        if len(self.times) == 1:
            return self.points[0]
        tab, k = self.table, self._row(t)
        t = min(max(t, tab.start[k]), tab.stop[k])
        ra, rb, x0, x1 = (tab.run_start[k], tab.run_end[k], tab.x0[k],
                          tab.x1[k])
        return GraphPoint(self.graph.edges[tab.edge[k]].id,
                          float(x0 + (x1 - x0) * (t - ra) / (rb - ra)))


# ----------------------------------------------------------------------
# construction helper
# ----------------------------------------------------------------------

class PathBuilder:
    """Incrementally assemble a TimedPath starting at time 0."""

    def __init__(self, graph: MetricGraph, start, speed_bound: float):
        if isinstance(start, str):
            start = graph.vertex_point(start)
        self.graph = graph
        self.speed_bound = float(speed_bound)
        if not self.speed_bound >= 0:
            raise PathValidationError(
                f"speed bound must be nonnegative, got {speed_bound}")
        self.times = [0.0]
        self.points = [graph.clamp_point(start)]
        self.routes: list[tuple] = []

    @property
    def now(self) -> float:
        return self.times[-1]

    @property
    def position(self) -> GraphPoint:
        return self.points[-1]

    def wait(self, duration: float) -> "PathBuilder":
        if not 0 < duration < math.inf:
            raise PathValidationError(
                f"wait duration must be positive and finite, got {duration}")
        self.times.append(self.now + duration)
        self.points.append(self.position)
        self.routes.append(())
        return self

    def wait_until(self, t: float) -> "PathBuilder":
        if t <= self.now + 1e-15:
            if t < self.now - 1e-9:
                raise PathValidationError(f"cannot wait until past time {t}")
            return self
        return self.wait(t - self.now)

    def move_runs(self, runs, duration: float) -> "PathBuilder":
        """Walk explicit (edge id, x0, x1) runs over the given duration.

        The motion is constant-speed; each run becomes its own breakpoint
        segment so that serialized routes stay unambiguous.
        """
        runs = tuple((eid, float(x0), float(x1)) for eid, x0, x1 in runs
                     if abs(x1 - x0) > 0)
        if not 0 < duration < math.inf:
            raise PathValidationError(
                f"duration must be positive and finite, got {duration}")
        if not runs:
            return self.wait(duration)
        t_start = self.now
        # one plain running sum times every run, so the last quotient is
        # exactly 1 and the last run ends at t_start + duration
        acc = list(accumulate(abs(x1 - x0) for _, x0, x1 in runs))
        for (eid, x0, x1), a in zip(runs, acc):
            self.times.append(t_start + duration * (a / acc[-1]))
            self.points.append(self.graph.clamp_point(GraphPoint(eid, x1)))
            self.routes.append(((eid, x0, x1),))
        return self

    def move_to(self, target, *, speed: float | None = None) -> "PathBuilder":
        """Move along a shortest path to `target` (vertex id or point) at
        `speed`, by default the speed bound."""
        v = self.speed_bound if speed is None else speed
        if not 0 < v < math.inf:
            raise PathValidationError(
                f"need a positive finite speed to move, got {v}")
        if isinstance(target, str):
            target = self.graph.vertex_point(target)
        length, runs = self.graph.route(self.position, target)
        return self if length == 0 else self.move_runs(runs, length / v)

    def build(self, metadata: dict | None = None) -> TimedPath:
        return TimedPath(self.graph, tuple(self.times), tuple(self.points),
                         tuple(self.routes), self.speed_bound,
                         dict(metadata or {}))


# ----------------------------------------------------------------------
# path measurements
# ----------------------------------------------------------------------

def check_lipschitz(p: TimedPath, s: float) -> bool:
    """True iff every segment's length is at most s times its duration
    plus SPEED_TOL; never for s = nan."""
    return not math.isnan(s) and bool(
        np.all(p.table.seg_len <= s * np.diff(p.times) + SPEED_TOL))


def total_variation(p: TimedPath) -> float:
    return math.fsum(p.table.seg_len.tolist())


# ----------------------------------------------------------------------
# reparameterization and transfer maps
# ----------------------------------------------------------------------

def reparameterize_max_speed(p: TimedPath, s: float) -> TimedPath:
    """Collapse idle time: the same curve traversed at constant speed s.

    The result lives on [0, V/s] where V is the total variation of p, visits
    the same positions in the same order, and is exactly s-Lipschitz.  Zero
    total variation yields the single-instant path at the start position.
    """
    if not 0 < s < math.inf:
        raise PathValidationError(
            f"target speed must be positive and finite, got {s}")
    times = [0.0]
    points = [p.points[0]]
    routes = []
    for i, ln in enumerate(p.table.seg_len.tolist()):
        if ln == 0:
            continue
        times.append(times[-1] + ln / s)
        points.append(p.points[i + 1])
        routes.append(p.routes[i])
    return TimedPath(p.graph, tuple(times), tuple(points), tuple(routes), s,
                     dict(p.metadata))


def _transfer(p: TimedPath, target: MetricGraph, times, move) -> TimedPath:
    """p's motion on target at the given times: `move(edge id, offset)`
    moves every point and run offset, and runs that stop moving go."""
    points = tuple(GraphPoint(q.edge, move(q.edge, q.offset))
                   for q in p.points)
    routes = tuple(tuple(run for run in ((eid, move(eid, x0), move(eid, x1))
                                         for eid, x0, x1 in runs)
                         if run[1] != run[2])
                   for runs in p.routes)
    return TimedPath(target, tuple(times), points, routes, p.speed_bound,
                     dict(p.metadata))


def transfer_scale(p: TimedPath, c: float) -> TimedPath:
    """The same motion on the graph with all edge lengths multiplied by c.

    Positions scale coordinatewise and times scale by c, so the speed bound
    carries over unchanged.
    """
    return _transfer(p, p.graph.scale(c), (t * c for t in p.times),
                     lambda eid, x: x * c)


def transfer_shorten(p: TimedPath, edge_id: str,
                     new_length: float) -> TimedPath:
    """Project the motion onto the graph with one leaf edge shortened.

    Positions on the shortened edge beyond the new extent are clamped to the
    new leaf; everything else is untouched.  The projection is
    distance-nonincreasing, so the declared speed bound still holds.
    """
    target = p.graph.shorten_leaf_edge(edge_id, new_length)  # refuses non-leaf
    e = p.graph.edge(edge_id)
    leaf_v, removed = p.graph.leaf_end(edge_id) == e.v, e.length - new_length

    def move(eid: str, x: float) -> float:
        # keep distances from the anchor (non-leaf) end, clamp at the leaf
        if eid != edge_id:
            return x
        return min(x, new_length) if leaf_v else max(0.0, x - removed)

    return _transfer(p, target, p.times, move)


def truncate_path(p: TimedPath, t_end: float) -> TimedPath:
    """Restrict the path to [0, t_end], interpolating a final breakpoint."""
    if t_end >= p.duration - 1e-12:
        return p
    if not t_end >= 0:
        raise ValueError(f"cannot truncate to time {t_end}: it must be a "
                         f"non-negative number")
    if t_end == 0:
        return TimedPath(p.graph, (0.0,), (p.points[0],), (), p.speed_bound,
                         dict(p.metadata))
    i = bisect.bisect_left(p.times, t_end)      # breakpoints before t_end
    tab, end = p.table, p.evaluate(t_end)
    # the runs of segment i - 1 up to the one holding t_end, cut there; a
    # cut that walks nothing, such as a wait's, is left out
    k0, k = int(np.searchsorted(tab.start, p.times[i - 1])), p._row(t_end)
    x1 = tab.x1[k0:k].tolist() + [end.offset]
    part = tuple((p.graph.edges[e].id, a, b) for e, a, b in zip(
        tab.edge[k0:k + 1].tolist(), tab.x0[k0:k + 1].tolist(), x1) if a != b)
    return TimedPath(p.graph, (*p.times[:i], t_end), (*p.points[:i], end),
                     (*p.routes[:i - 1], part), p.speed_bound,
                     dict(p.metadata))


# ----------------------------------------------------------------------
# piecewise-linear motion pieces (shared by verification and rendering)
# ----------------------------------------------------------------------

def path_pieces(p: TimedPath, t0: float, t1: float):
    """Decompose motion over [t0, t1] into single-edge linear pieces.

    Yields (ta, tb, edge id, xa, xb): from time ta to tb the position moves
    linearly from offset xa to xb on that edge.  Waits yield stationary
    pieces.  Consecutive pieces abut in time.  The rows of `p.table` are
    clipped one at a time with scalar arithmetic, so this is a
    reference for `clip_pieces` that shares none of its indexing.
    """
    t0 = max(t0, 0.0)
    t1 = min(t1, p.duration)
    if t1 <= t0 or len(p.times) == 1:
        q = p.evaluate(t0) if len(p.times) > 1 else p.points[0]
        return [(t0, t1, q.edge, q.offset, q.offset)]
    tab = p.table
    pieces = []
    for start, stop, ra, rb, k, x0, x1 in zip(
            tab.start.tolist(), tab.stop.tolist(), tab.run_start.tolist(),
            tab.run_end.tolist(), tab.edge.tolist(), tab.x0.tolist(),
            tab.x1.tolist()):
        ca, cb = max(start, t0), min(stop, t1)
        if cb <= ca:
            continue
        xa = x0 + (x1 - x0) * (ca - ra) / (rb - ra)
        xb = x0 + (x1 - x0) * (cb - ra) / (rb - ra)
        pieces.append((ca, cb, p.graph.edges[k].id, xa, xb))
    return pieces


def clip_pieces(table: PieceTable, bounds: np.ndarray):
    """The pieces `path_pieces` gives for each window [bounds[w],
    min(bounds[w + 1], duration)], all at once.

    The windows abut, and each must start before the path ends.  Returns
    flat arrays (window w, start, end, edge index, start offset, end
    offset), one entry per piece, ordered by run of the table and so by
    window.  A run covers a range of consecutive windows, found by
    `searchsorted`, so the cost is linear in the pieces.  The clipping and
    interpolation are `path_pieces`' own floating-point operations.
    """
    t0, t1 = bounds[:-1], np.minimum(bounds[1:], table.duration)
    k0 = np.searchsorted(table.stop, t0[0], side="right")
    k1 = np.searchsorted(table.start, t1[-1], side="left")
    start, stop = table.start[k0:k1], table.stop[k0:k1]
    first = np.searchsorted(t1, start, side="right")
    count = np.searchsorted(t0, stop, side="left") - first
    # piece i: run k[i] in window w[i], counting up from the run's first
    k = np.repeat(np.arange(k0, k1), count)
    w = np.arange(len(k)) - np.repeat(np.cumsum(count) - count - first, count)
    ca = np.maximum(table.start[k], t0[w])
    cb = np.minimum(table.stop[k], t1[w])
    ra, rb = table.run_start[k], table.run_end[k]
    x0, x1 = table.x0[k], table.x1[k]
    xa = x0 + (x1 - x0) * (ca - ra) / (rb - ra)
    xb = x0 + (x1 - x0) * (cb - ra) / (rb - ra)
    return w, ca, cb, table.edge[k], xa, xb


def _offsets_at(pieces, i, t):
    """The offset of piece i[k] of `clip_pieces` output (without the
    window column) at time t[k]: interpolated and clamped to the piece,
    never extrapolated.  Every clipped piece has a positive time span."""
    ta, tb, _, xa, xb = (col[i] for col in pieces)
    u = (t - ta) / (tb - ta)
    return xa + (xb - xa) * np.minimum(np.maximum(u, 0.0), 1.0)


def check_same_graph(p: TimedPath, q: TimedPath) -> None:
    """Refuse, with PathValidationError, two paths whose graphs differ in
    vertices or edges, or in their order; equal graphs built apart pass."""
    if (p.graph.vertices, p.graph.edges) != (q.graph.vertices, q.graph.edges):
        raise PathValidationError("the two paths live on different graphs")


def min_clearance(p: TimedPath, q: TimedPath) -> float:
    """Exact minimum intrinsic distance between two paths over their common
    time span [0, min(p.duration, q.duration)].

    Both paths must live on one graph (`check_same_graph`).  Within a
    common linear piece the distance is a minimum of affine candidates plus
    the same-edge direct term, so the minimum is attained at piece
    boundaries or at the one root of the same-edge offset difference.  The
    intervals between the pieces' time bounds are handled as arrays, and
    each distance takes the same floating-point operations as
    `MetricGraph.route`.
    """
    check_same_graph(p, q)
    g = p.graph
    t1 = min(p.duration, q.duration)
    if t1 <= 0:
        return g.distance(p.evaluate(0.0), q.evaluate(0.0))
    pp = clip_pieces(p.table, np.array([0.0, t1]))[1:]
    qq = clip_pieces(q.table, np.array([0.0, t1]))[1:]
    cuts = np.concatenate([pp[0], pp[1], qq[0], qq[1]])
    cuts.sort()
    cuts = cuts[np.concatenate([[True], cuts[1:] != cuts[:-1]])]
    a, b = cuts[:-1], cuts[1:]
    mid = 0.5 * (a + b)
    # the piece of each path holding each interval: the first ending after
    # its midpoint, or the last piece
    pi = np.minimum(np.searchsorted(pp[1], mid, "right"), len(pp[1]) - 1)
    qi = np.minimum(np.searchsorted(qq[1], mid, "right"), len(qq[1]) - 1)
    pe, qe = pp[2][pi], qq[2][qi]
    same = pe == qe
    pa, qa = _offsets_at(pp, pi, a), _offsets_at(qq, qi, a)
    pb, qb = _offsets_at(pp, pi, b), _offsets_at(qq, qi, b)
    if np.any(same & ((pa - qa) * (pb - qb) < 0)):
        return 0.0          # same edge: the offset difference has a root
    length = g.edge_table[2]
    best = math.inf
    for x, y in ((pa, qa), (pb, qb)):
        x = np.minimum(np.maximum(x, 0.0), length[pe])      # clamp_point
        y = np.minimum(np.maximum(y, 0.0), length[qe])
        d = np.minimum(np.where(same, np.abs(x - y), np.inf),
                       g.legs(pe, x, qe, y))
        best = min(best, float(d.min()))
    return best


# ----------------------------------------------------------------------
# JSON trajectory files
# ----------------------------------------------------------------------

def path_to_dict(p: TimedPath) -> dict:
    doc = {
        "speed": p.speed_bound,
        "breakpoints": [{"t": t, "edge": q.edge, "offset": q.offset}
                        for t, q in zip(p.times, p.points)],
        "routes": [[eid for eid, _, _ in runs] for runs in p.routes],
    }
    if p.metadata:
        doc["metadata"] = dict(p.metadata)
    return doc


def _rebuild_runs(g: MetricGraph, start: GraphPoint, end: GraphPoint,
                  edge_ids) -> tuple:
    """Recover (edge, x0, x1) runs from the edge-id sequence of a segment."""
    runs = []
    pos = start
    for j, eid in enumerate(edge_ids):
        e = g.edge(eid)
        here = g.point_on_edge(pos, eid)
        if here is None:
            raise PathValidationError(
                f"route edge {eid!r} does not touch the current position")
        if j + 1 == len(edge_ids):
            there = g.point_on_edge(end, eid)
            if there is None:
                raise PathValidationError(
                    f"final route edge {eid!r} does not touch the segment end")
        else:
            nxt = g.edge(edge_ids[j + 1])
            shared = {e.u, e.v} & {nxt.u, nxt.v}
            if not shared:
                raise PathValidationError(
                    f"route edges {eid!r} and {nxt.id!r} do not meet")
            w = sorted(shared)[0]
            there = GraphPoint(eid, 0.0 if w == e.u else e.length)
        if abs(there.offset - here.offset) > 0:
            runs.append((eid, here.offset, there.offset))
        pos = there
    return tuple(runs)


def path_from_dict(g: MetricGraph, doc: dict) -> TimedPath:
    try:
        speed = float(doc["speed"])
        bps = doc["breakpoints"]
        times = tuple(float(b["t"]) for b in bps)
        points = tuple(GraphPoint(str(b["edge"]), float(b["offset"]))
                       for b in bps)
        raw_routes = doc.get("routes")
        if raw_routes is None:
            raw_routes = [None] * (len(times) - 1)
        metadata = dict(doc.get("metadata") or {})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PathValidationError(f"malformed trajectory document: {exc}") from None
    if not isinstance(raw_routes, list) or \
            not all(ids is None or isinstance(ids, list) for ids in raw_routes):
        raise PathValidationError(
            "malformed trajectory document: routes must be a list of edge-id "
            "lists or nulls")
    if len(raw_routes) != max(len(times) - 1, 0):
        raise PathValidationError("route count does not match breakpoints")
    try:
        routes = []
        for i, ids in enumerate(raw_routes):
            if ids is None:
                _, runs = g.route(points[i], points[i + 1])
            elif len(ids) == 0:
                runs = ()
            else:
                runs = _rebuild_runs(g, points[i], points[i + 1],
                                     [str(x) for x in ids])
            routes.append(runs)
        return TimedPath(g, times, points, tuple(routes), speed, metadata)
    except GraphValidationError as exc:
        # positions or routes that do not exist on this graph
        raise PathValidationError(f"malformed trajectory document: {exc}") from None


def save_path(p: TimedPath, path: str) -> None:
    """Write p to path as `json.dumps(path_to_dict(p), indent=2,
    sort_keys=True)` and a newline would, through `path_chunks`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(path_chunks(p))
        fh.write("\n")


JSON_CHUNK = 256        # breakpoints or routes per piece of path_chunks
_encode_str = json.encoder.encode_basestring_ascii


def _json_text(x, pad: str) -> str:
    """x as `json.dumps(x, indent=2, sort_keys=True)` renders it nested at
    indentation pad: a str or finite float with json's own scalar
    encoders, anything else with json.dumps."""
    if type(x) is str:
        return _encode_str(x)
    if type(x) is float and math.isfinite(x):
        return float.__repr__(x)
    return json.dumps(x, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _json_texts(values, pad: str) -> list:
    """`_json_text` of each value, with one type test for the whole list
    when every value is a str or every one a finite float."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return list(map(_encode_str, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return list(map(float.__repr__, values))
    return [_json_text(v, pad) for v in values]


def path_chunks(p: TimedPath):
    """The text of `json.dumps(path_to_dict(p), indent=2, sort_keys=True)`
    in pieces, each of at most JSON_CHUNK breakpoints or routes.

    The values are read from p's own columns and encoded a column at a
    time by `_json_texts`, so no document is built and no more than a
    piece of the text is held at once.  The pieces render the path at top
    level; with two more spaces after each of their newlines, they render
    it as a value one level down, as `verifier.save_report` nests it.
    """
    sep = ",\n    "
    row = '{{\n      "edge": {},\n      "offset": {},\n      "t": {}\n    }}'
    for a in range(0, len(p.times), JSON_CHUNK):
        points = p.points[a:a + JSON_CHUNK]
        rows = map(row.format,
                   _json_texts([q.edge for q in points], "      "),
                   _json_texts([q.offset for q in points], "      "),
                   _json_texts(p.times[a:a + JSON_CHUNK], "      "))
        yield ('{\n  "breakpoints": [\n    ' if a == 0 else sep) + \
            sep.join(rows)
    yield "\n  ]"
    if p.metadata:
        yield ',\n  "metadata": ' + _json_text(dict(p.metadata), "  ")
    for a in range(0, len(p.routes), JSON_CHUNK):
        routes = p.routes[a:a + JSON_CHUNK]
        ids = iter(_json_texts([eid for runs in routes for eid, _, _ in runs],
                               "      "))
        yield (',\n  "routes": [\n    ' if a == 0 else sep) + sep.join(
            "[\n      " + ",\n      ".join(islice(ids, len(runs))) + "\n    ]"
            if runs else "[]" for runs in routes)
    yield "\n  ]" if p.routes else ',\n  "routes": []'
    yield f',\n  "speed": {_json_text(p.speed_bound, "  ")}\n}}'


def load_path(g: MetricGraph, path: str) -> TimedPath:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise PathValidationError(f"malformed trajectory file: {exc}") from None
    if not isinstance(doc, dict):
        raise PathValidationError("malformed trajectory file: expected an object")
    return path_from_dict(g, doc)
