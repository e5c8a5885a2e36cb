"""Time-parameterized Lipschitz paths on a metric graph.

A path is a finite sequence of timed breakpoints joined by constant-speed
motion along explicitly recorded edge runs, held as `PathColumns`, which
`path_columns` reads from tuples.  The module provides evaluation, speed
checking, total variation, maximal-speed reparameterization, the two
structure-preserving transfer maps (uniform scaling and leaf-edge
shortening), each from columns to columns, and a JSON serialization.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from itertools import accumulate, islice
from typing import NamedTuple

import numpy as np

from .graph import (GEOM_TOL, GraphPoint, GraphValidationError, MetricGraph,
                    as_number, as_positive)

SPEED_TOL = 1e-9


class PathValidationError(ValueError):
    """Raised when breakpoints, routes, and the speed bound are inconsistent."""


def _real(x, what: str) -> float:
    """x as a float by `as_number`'s rule, or PathValidationError naming it."""
    try:
        return as_number(x)
    except (TypeError, OverflowError):
        raise PathValidationError(f"{what}: {x!r} is not a number") from None


def _reals(values, what: str) -> np.ndarray:
    """The values as a float array; the first that is no number by
    `as_number`'s rule raises PathValidationError naming it."""
    if any(not issubclass(t, float) for t in set(map(type, values))):
        for x in values:
            _real(x, what)
    return np.array(values, dtype=float)


def _off_edge(g: MetricGraph, e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Where offset x on edge index e fails clamp_point's test, which nan
    and a negative index fail."""
    length = g.edge_table[2]
    return (e < 0) | ~((-GEOM_TOL <= x) & (x <= length[e] + GEOM_TOL))


class PathColumns(NamedTuple):
    """A path's breakpoints and runs as arrays, the primary form of a path.

    Breakpoint i is at time t[i], at offset[i] on edge
    `graph.edges[edge[i]]`.  Segment i, from breakpoint i to i + 1, walks
    count[i] runs; the runs of all segments follow one another, run k
    moving from x0[k] to x1[k] on edge run_edge[k].
    """

    t: np.ndarray
    edge: np.ndarray
    offset: np.ndarray
    count: np.ndarray
    run_edge: np.ndarray
    x0: np.ndarray
    x1: np.ndarray


class PieceTable(NamedTuple):
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


def path_columns(graph: MetricGraph, times, points, routes) -> PathColumns:
    """Tuples of breakpoint times and GraphPoints, and for each segment
    its (edge id, start offset, end offset) runs, as `PathColumns`.
    Refuses counts that do not match and a value that is no number by
    `as_number`'s rule with PathValidationError, and an edge id that names
    no edge as `graph.edge` does, the points' before the runs'."""
    if len(points) != len(times):
        raise PathValidationError("breakpoint times and positions differ in count")
    if len(routes) != max(len(times) - 1, 0):
        raise PathValidationError("need exactly one route per breakpoint gap")
    runs = [run for seg in routes for run in seg]
    ids, x0, x1 = zip(*runs) if runs else ((), (), ())
    names = [q.edge for q in points]
    columns = PathColumns(
        _reals(times, "times"), graph.edge_indices(names),
        _reals([q.offset for q in points], "offsets"),
        np.array([len(seg) for seg in routes], dtype=np.int64),
        graph.edge_indices(ids), _reals(x0, "offsets"), _reals(x1, "offsets"))
    for named, edge in ((names, columns.edge), (ids, columns.run_edge)):
        if (edge < 0).any():
            graph.edge(named[int(np.argmax(edge < 0))])     # raises
    return columns


def _piece_table(p: "TimedPath") -> PieceTable:
    """Check p's columns against its graph and speed bound, and time its
    runs, in one array pass: the only walk over a path's routes that
    evaluation, truncation, the length checks, the pieces and
    `min_clearance` use.  A refusal names a point or run as the columns
    hold it, with float offsets.

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
    g, c = p.graph, p.columns
    eu, ev, length = g.edge_table

    def vertex(e, x):           # point_vertex as a vertex row, or -1
        return np.where(x <= GEOM_TOL, eu[e],
                        np.where(x >= length[e] - GEOM_TOL, ev[e], -1))

    def same_point(ea, xa, eb, xb):
        va, vb = vertex(ea, xa), vertex(eb, xb)
        return np.where((va >= 0) | (vb >= 0), va == vb,
                        (ea == eb) & (np.abs(xa - xb) <= GEOM_TOL))

    pe, px, t, count = c.edge, c.offset, c.t, c.count
    bad = _off_edge(g, pe, px)
    if bad.any():
        g.clamp_point(p.point(int(np.argmax(bad))))    # raises
    re, r0, r1 = c.run_edge, c.x0, c.x1
    end = np.cumsum(count)
    head = end - count                  # each segment's first run
    seg = np.repeat(np.arange(len(count)), count)
    moved = count > 0
    # a run starts from its segment's breakpoint or the run before it
    first = np.zeros(len(re), dtype=bool)
    first[head[moved]] = True
    he = np.where(first, pe[seg], np.roll(re, 1))
    hx = np.where(first, px[seg], np.roll(r1, 1))
    run_bad = _off_edge(g, re, r0) | _off_edge(g, re, r1)
    broken = run_bad | ~same_point(he, hx, re, r0)
    # a segment ends at its last run's end or stays at its breakpoint
    ae, ax = pe[:-1].copy(), px[:-1].copy()
    ae[moved], ax[moved] = re[end[moved] - 1], r1[end[moved] - 1]
    missed = ~same_point(ae, ax, pe[1:], px[1:])
    ln = np.abs(r1 - r0)
    seg_len, acc = np.zeros(len(count)), np.zeros(len(ln))
    sizes = np.flatnonzero(np.bincount(count))     # run counts present
    for n in sizes[sizes > 0].tolist():
        segs = np.flatnonzero(count == n)
        rows = head[segs, None] + np.arange(n)
        walked = np.cumsum(ln[rows], axis=1)     # one by one along a row
        acc[rows[:, 1:]] = walked[:, :-1]
        # math.fsum of one length is itself; of more it is correctly
        # rounded, and it raises where their sum overflows
        seg_len[segs] = (walked[:, -1] if n == 1 else
                         [math.fsum(row) for row in ln[rows].tolist()])
    a, b = t[:-1], t[1:]
    too_fast = seg_len > p.speed_bound * (b - a) + SPEED_TOL

    k = np.flatnonzero(broken)
    i = np.flatnonzero(missed | too_fast)
    if len(k) and (not len(i) or seg[k[0]] <= i[0]):
        k, i = int(k[0]), int(seg[k[0]])
        for x in (r0[k], r1[k]) if run_bad[k] else ():
            g.clamp_point(GraphPoint(g.edge_ids[re[k]], float(x)))
        here = p.point(i) if first[k] else GraphPoint(
            g.edge_ids[re[k - 1]], float(r1[k - 1]))
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


class TimedPath:
    """An s-Lipschitz trajectory given by timed breakpoints and edge runs.

    The times strictly increase from 0.  Segment i, from breakpoint i to
    i+1, walks its runs contiguously; a segment of no runs is a wait.  A
    path is kept as `columns`; `times`, `points` and `routes` are tuple
    views of them built on first use.  `table` holds the runs as the piece
    table that validation times.  Instances are not to be changed, and are
    safe to evaluate concurrently.
    """

    def __init__(self, graph: MetricGraph, columns: PathColumns,
                 speed_bound: float, metadata: dict | None = None):
        """Check the times and the speed bound, then keep the columns and
        time them into `table`, which checks the rest.  Every edge index
        of the columns must name an edge of graph."""
        t = columns.t
        if len(t) == 0:
            raise PathValidationError("a path needs at least one breakpoint")
        if not abs(t[0]) <= 1e-12:
            raise PathValidationError(
                f"paths start at time 0, got {float(t[0])}")
        if not _reals([speed_bound], "speed bound")[0] >= 0:
            raise PathValidationError("speed bound must be nonnegative")
        late = ~(t[1:] > t[:-1])
        if late.any():
            i = int(np.argmax(late))
            raise PathValidationError(f"times must strictly increase "
                                      f"({float(t[i])} -> {float(t[i + 1])})")
        if not math.isfinite(t[-1]):
            raise PathValidationError(
                f"paths end at a finite time, got {float(t[-1])}")
        self.graph, self.columns = graph, columns
        self.speed_bound = speed_bound
        self.metadata = {} if metadata is None else metadata
        self.duration = float(t[-1])
        with np.errstate(all="ignore"):     # values after a failure may be nan
            self.table = _piece_table(self)

    @cached_property
    def times(self) -> tuple[float, ...]:
        return tuple(self.columns.t.tolist())

    @cached_property
    def points(self) -> tuple[GraphPoint, ...]:
        ids = self.graph.edge_ids
        return tuple(map(GraphPoint,
                         [ids[k] for k in self.columns.edge.tolist()],
                         self.columns.offset.tolist()))

    @cached_property
    def routes(self) -> tuple[tuple[tuple[str, float, float], ...], ...]:
        c, ids = self.columns, self.graph.edge_ids
        runs = list(zip([ids[k] for k in c.run_edge.tolist()], c.x0.tolist(),
                        c.x1.tolist()))
        ends = np.cumsum(c.count).tolist()
        return tuple(tuple(runs[a:b]) for a, b in zip([0] + ends[:-1], ends))

    def __repr__(self):
        return (f"TimedPath(graph={self.graph!r}, times={self.times!r}, "
                f"points={self.points!r}, routes={self.routes!r}, "
                f"speed_bound={self.speed_bound!r}, "
                f"metadata={self.metadata!r})")

    def point(self, i: int) -> GraphPoint:
        """Breakpoint i as a GraphPoint, read from the columns."""
        c = self.columns
        return GraphPoint(self.graph.edge_ids[c.edge[i]], float(c.offset[i]))

    def _at(self, t: float) -> tuple[int, float]:
        """The row of `table` that holds time t, the last one starting
        before t or the first at t = 0, and the offset there: interpolated
        at t as `clip_pieces` does, with t clamped to the row's span."""
        tab = self.table
        k = max(int(np.searchsorted(tab.start, t)) - 1, 0)
        t = min(max(t, tab.start[k]), tab.stop[k])
        ra, rb, x0, x1 = (tab.run_start[k], tab.run_end[k], tab.x0[k],
                          tab.x1[k])
        return k, float(x0 + (x1 - x0) * (t - ra) / (rb - ra))

    def evaluate(self, t: float) -> GraphPoint:
        """Position at time t, as `_at` finds it."""
        if not -1e-9 <= t <= self.duration + 1e-9:
            raise ValueError(f"time {t} outside [0, {self.duration}]")
        if len(self.columns.t) == 1:
            return self.point(0)
        k, x = self._at(t)
        return GraphPoint(self.graph.edge_ids[self.table.edge[k]], x)


# ----------------------------------------------------------------------
# construction helper
# ----------------------------------------------------------------------

class PathBuilder:
    """Incrementally assemble a TimedPath starting at time 0.  The speed
    bound may be inf, a bound that every motion meets.

    The path grows as plain columns: the list `times`, and the other
    columns of `PathColumns` as lists that single moves append to and
    arrays that `extend` adds whole.  An edge id that names no edge, or an
    offset that is no number by `as_number`'s rule, is refused where it is
    passed in.  `build` snaps every breakpoint within GEOM_TOL of its edge
    onto it, as `clamp_point` does, and leaves the rest for TimedPath to
    refuse.
    """

    def __init__(self, graph: MetricGraph, start, speed_bound: float):
        if isinstance(start, str):
            start = graph.vertex_point(start)
        self.graph = graph
        self.speed_bound = float(_reals([speed_bound], "speed bound")[0])
        if not self.speed_bound >= 0:
            raise PathValidationError(
                f"speed bound must be nonnegative, got {speed_bound}")
        self.times = [0.0]
        self._here = (graph.edge_index(start.edge),
                      _real(start.offset, "offsets"))
        # the columns after `times`: lists of single moves, then arrays
        self._rows = ([self._here[0]], [self._here[1]], [], [], [], [])
        self._chunks = []

    @property
    def now(self) -> float:
        return self.times[-1]

    @property
    def position(self) -> GraphPoint:
        """The last breakpoint, snapped onto its edge as `build` snaps it."""
        e = self.graph.edges[self._here[0]]
        return GraphPoint(e.id, min(max(self._here[1], 0.0), e.length))

    def wait(self, duration: float) -> "PathBuilder":
        duration = as_positive(duration, "wait duration", PathValidationError)
        self.times.append(self.now + duration)
        for column, value in zip(self._rows, (*self._here, 0)):
            column.append(value)
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
        segment so that serialized routes stay unambiguous.  Runs of no
        length are left out.
        """
        index = self.graph.edge_index
        runs = [(index(eid), _real(x0, "offsets"), _real(x1, "offsets"))
                for eid, x0, x1 in runs]
        runs = [run for run in runs if abs(run[2] - run[1]) > 0]
        duration = as_positive(duration, "duration", PathValidationError)
        if not runs:
            return self.wait(duration)
        t_start = self.now
        # one plain running sum times every run, so the last quotient is
        # exactly 1 and the last run ends at t_start + duration
        acc = list(accumulate(abs(x1 - x0) for _, x0, x1 in runs))
        self.times += [t_start + duration * (a / acc[-1]) for a in acc]
        e, x0, x1 = zip(*runs)
        for column, values in zip(self._rows, (e, x1, [1] * len(e), e, x0,
                                               x1)):
            column.extend(values)
        self._here = (e[-1], x1[-1])
        return self

    def extend(self, times, *columns) -> "PathBuilder":
        """Append breakpoints, each with the segment that reaches it, as
        arrays: times, then the other columns of `PathColumns`."""
        if len(times):
            self.times += times.tolist()
            self._chunks += self._arrays(), columns
            self._here = (int(columns[0][-1]), float(columns[1][-1]))
        return self

    def _arrays(self) -> tuple:
        """The single moves not yet in `_chunks`, as arrays."""
        rows, self._rows = self._rows, ([], [], [], [], [], [])
        return tuple(np.array(r, dtype=np.int64 if i in (0, 2, 3) else float)
                     for i, r in enumerate(rows))

    def move_to(self, target, *, speed: float | None = None) -> "PathBuilder":
        """Move along a shortest path to `target` (vertex id or point) at
        `speed`, by default the speed bound."""
        v = as_positive(self.speed_bound if speed is None else speed,
                        "speed", PathValidationError)
        if isinstance(target, str):
            target = self.graph.vertex_point(target)
        length, runs = self.graph.route(self.position, target)
        return self if length == 0 else self.move_runs(runs, length / v)

    def build(self, metadata: dict | None = None) -> TimedPath:
        g = self.graph
        edge, x, *runs = map(np.concatenate,
                             zip(*self._chunks, self._arrays()))
        self._chunks = [(edge, x, *runs)]
        # clamp_point's snap, where its test passes
        x = np.where(_off_edge(g, edge, x), x,
                     np.minimum(np.maximum(x, 0.0), g.edge_table[2][edge]))
        return TimedPath(g, PathColumns(np.array(self.times), edge, x, *runs),
                         self.speed_bound, dict(metadata or {}))


# ----------------------------------------------------------------------
# path measurements
# ----------------------------------------------------------------------

def check_lipschitz(p: TimedPath, s: float) -> bool:
    """True iff every segment's length is at most s times its duration
    plus SPEED_TOL; never for s = nan."""
    return not math.isnan(s) and bool(
        np.all(p.table.seg_len <= s * np.diff(p.columns.t) + SPEED_TOL))


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
    s = as_positive(s, "target speed", PathValidationError)
    c, ln = p.columns, p.table.seg_len
    moved = ln > 0
    at = np.concatenate([[True], moved])    # the start and each move's end
    runs = np.repeat(moved, c.count)
    # each move's time added to the last, one by one
    times = np.concatenate([[0.0], np.cumsum(ln[moved] / s)])
    return TimedPath(p.graph, PathColumns(
        times, c.edge[at], c.offset[at], c.count[moved], c.run_edge[runs],
        c.x0[runs], c.x1[runs]), s, dict(p.metadata))


def _transfer(p: TimedPath, target: MetricGraph, times, move) -> TimedPath:
    """p's motion at the given times on target, whose edges are p's
    graph's in the same order: `move(edge index, offset)` moves the point
    and run offsets as arrays, and runs that stop moving go."""
    c = p.columns
    x0, x1 = move(c.run_edge, c.x0), move(c.run_edge, c.x1)
    kept = x0 != x1
    seg = np.repeat(np.arange(len(c.count)), c.count)
    return TimedPath(target, PathColumns(
        times, c.edge, move(c.edge, c.offset),
        np.bincount(seg[kept], minlength=len(c.count)), c.run_edge[kept],
        x0[kept], x1[kept]), p.speed_bound, dict(p.metadata))


def transfer_scale(p: TimedPath, c: float) -> TimedPath:
    """The same motion on the graph with all edge lengths multiplied by c.

    Positions scale coordinatewise and times scale by c, so the speed bound
    carries over unchanged.
    """
    return _transfer(p, p.graph.scale(c), p.columns.t * c,
                     lambda e, x: x * c)


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
    k = p.graph.edge_index(edge_id)

    def move(edge: np.ndarray, x: np.ndarray) -> np.ndarray:
        # keep distances from the anchor (non-leaf) end, clamp at the leaf
        return np.where(edge != k, x, np.minimum(x, new_length) if leaf_v
                        else np.maximum(x - removed, 0.0))

    return _transfer(p, target, p.columns.t, move)


def truncate_path(p: TimedPath, t_end: float) -> TimedPath:
    """Restrict the path to [0, t_end], interpolating a final breakpoint."""
    if t_end >= p.duration - 1e-12:
        return p
    if not t_end >= 0:
        raise ValueError(f"cannot truncate to time {t_end}: it must be a "
                         f"non-negative number")
    c, tab = p.columns, p.table
    if t_end <= c.t[0]:     # also a cut before a start up to 1e-12 after 0
        return TimedPath(p.graph, PathColumns(
            np.zeros(1), c.edge[:1], c.offset[:1],
            *(col[:0] for col in c[3:])), p.speed_bound, dict(p.metadata))
    i = int(np.searchsorted(c.t, t_end))        # breakpoints before t_end
    k, x = p._at(t_end)
    # the runs of segment i - 1 up to the one holding t_end, cut there; a
    # cut that walks nothing, such as a wait's, is left out
    part = slice(int(np.searchsorted(tab.start, c.t[i - 1])), k + 1)
    x1 = np.append(tab.x1[part][:-1], x)
    cut = tab.x0[part] != x1
    n = int(c.count[:i - 1].sum())              # the runs before it
    return TimedPath(p.graph, PathColumns(
        np.append(c.t[:i], t_end), np.append(c.edge[:i], tab.edge[k]),
        np.append(c.offset[:i], x), np.append(c.count[:i - 1], cut.sum()),
        np.append(c.run_edge[:n], tab.edge[part][cut]),
        np.append(c.x0[:n], tab.x0[part][cut]),
        np.append(c.x1[:n], x1[cut])), p.speed_bound, dict(p.metadata))


# ----------------------------------------------------------------------
# piecewise-linear motion pieces (shared by verification and rendering)
# ----------------------------------------------------------------------

def path_pieces(p: TimedPath, t0: float, t1: float):
    """Decompose motion over [t0, t1] into single-edge linear pieces.

    Yields (ta, tb, edge id, xa, xb): from time ta to tb the position moves
    linearly from offset xa to xb on that edge.  Waits yield stationary
    pieces.  Consecutive pieces abut in time.  The rows of `p.table` are
    clipped one at a time with scalar arithmetic, so this is a
    reference for `clip_pieces` that shares none of its indexing.  An
    offset interpolated inside a run may, rounded, fall up to one ulp of
    the edge length outside [0, length].
    """
    t0 = max(t0, 0.0)
    t1 = min(t1, p.duration)
    if t1 <= t0 or len(p.columns.t) == 1:
        q = p.evaluate(t0) if len(p.columns.t) > 1 else p.point(0)
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
        pieces.append((ca, cb, p.graph.edge_ids[k], xa, xb))
    return pieces


def clip_pieces(table: PieceTable, bounds: np.ndarray):
    """The pieces `path_pieces` gives for each window [bounds[w],
    min(bounds[w + 1], duration)], all at once.

    The windows abut, and each must start before the path ends.  Returns
    flat arrays (window w, start, end, edge index, start offset, end
    offset), one entry per piece, ordered by run of the table and so by
    window.  A run covers a range of consecutive windows, found by
    `searchsorted`, so the cost is linear in the pieces.  The clipping and
    interpolation are `path_pieces`' own floating-point operations, so an
    offset may fall one ulp of the edge length outside the edge, as there.
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
        speed = as_number(doc["speed"])
        bps = doc["breakpoints"]
        times = tuple(as_number(b["t"]) for b in bps)
        points = tuple(GraphPoint(b["edge"], as_number(b["offset"]))
                       for b in bps)
        if not all(isinstance(q.edge, str) for q in points):
            raise TypeError("edge ids must be strings")
        raw_routes = doc.get("routes")
        if raw_routes is None:
            raw_routes = [None] * (len(times) - 1)
        metadata = dict(doc.get("metadata") or {})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PathValidationError(f"malformed trajectory document: {exc}") from None
    if not isinstance(raw_routes, list) or not all(
            ids is None or isinstance(ids, list)
            and all(isinstance(x, str) for x in ids) for ids in raw_routes):
        raise PathValidationError(
            "malformed trajectory document: routes must be a list of edge-id "
            "lists or nulls, and edge ids must be strings")
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
                runs = _rebuild_runs(g, points[i], points[i + 1], ids)
            routes.append(runs)
        return TimedPath(g, path_columns(g, times, points, routes), speed,
                         metadata)
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

    The values are read from p's columns and encoded a column at a time
    by `_json_texts`, so no document is built and no more than a piece of
    the text is held at once.  The pieces render the path at top level;
    with two more spaces after each of their newlines, they render it as
    a value one level down, as `verifier.save_report` nests it.
    """
    c, ids, pad = p.columns, p.graph.edge_ids, "      "
    sep = ",\n    "
    row = '{{\n      "edge": {},\n      "offset": {},\n      "t": {}\n    }}'
    for a in range(0, len(c.t), JSON_CHUNK):
        b = a + JSON_CHUNK
        rows = map(row.format,
                   _json_texts([ids[k] for k in c.edge[a:b].tolist()], pad),
                   _json_texts(c.offset[a:b].tolist(), pad),
                   _json_texts(c.t[a:b].tolist(), pad))
        yield ('{\n  "breakpoints": [\n    ' if a == 0 else sep) + \
            sep.join(rows)
    yield "\n  ]"
    if p.metadata:
        yield ',\n  "metadata": ' + _json_text(dict(p.metadata), "  ")
    counts = c.count.tolist()
    ends = np.cumsum([0] + counts).tolist()
    for a in range(0, len(counts), JSON_CHUNK):
        b = min(a + JSON_CHUNK, len(counts))
        names = iter(_json_texts(
            [ids[k] for k in c.run_edge[ends[a]:ends[b]].tolist()], pad))
        yield (',\n  "routes": [\n    ' if a == 0 else sep) + sep.join(
            "[\n      " + ",\n      ".join(islice(names, n)) + "\n    ]"
            if n else "[]" for n in counts[a:b])
    yield "\n  ]" if counts else ',\n  "routes": []'
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
