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
from dataclasses import dataclass, field

from .graph import GraphPoint, GraphValidationError, MetricGraph

SPEED_TOL = 1e-9


class PathValidationError(ValueError):
    """Raised when breakpoints, routes, and the speed bound are inconsistent."""


def _runs_length(runs) -> float:
    return math.fsum(abs(x1 - x0) for _, x0, x1 in runs)


@dataclass(frozen=True, eq=False)
class TimedPath:
    """An s-Lipschitz trajectory given by timed breakpoints and edge runs.

    `times` is strictly increasing and starts at 0.  `routes[i]` records the
    sub-path walked between breakpoints i and i+1 as contiguous
    (edge id, start offset, end offset) runs; an empty tuple is a wait.
    Instances are immutable and safe to evaluate concurrently.
    """

    graph: MetricGraph
    times: tuple[float, ...]
    points: tuple[GraphPoint, ...]
    routes: tuple[tuple[tuple[str, float, float], ...], ...]
    speed_bound: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        g = self.graph
        if len(self.times) == 0:
            raise PathValidationError("a path needs at least one breakpoint")
        if len(self.points) != len(self.times):
            raise PathValidationError("breakpoint times and positions differ in count")
        if len(self.routes) != len(self.times) - 1:
            raise PathValidationError("need exactly one route per breakpoint gap")
        if abs(self.times[0]) > 1e-12:
            raise PathValidationError(f"paths start at time 0, got {self.times[0]}")
        if self.speed_bound < 0:
            raise PathValidationError("speed bound must be nonnegative")
        for a, b in zip(self.times[:-1], self.times[1:]):
            if not (b > a):
                raise PathValidationError(f"times must strictly increase ({a} -> {b})")
        for p in self.points:
            g.clamp_point(p)
        for i, runs in enumerate(self.routes):
            here = self.points[i]
            for eid, x0, x1 in runs:
                g.clamp_point(GraphPoint(eid, x0))
                g.clamp_point(GraphPoint(eid, x1))
                if not g.points_equal(here, GraphPoint(eid, x0)):
                    raise PathValidationError(
                        f"route of segment {i} breaks continuity at {here}")
                here = GraphPoint(eid, x1)
            if not g.points_equal(here, self.points[i + 1]):
                raise PathValidationError(
                    f"route of segment {i} does not reach breakpoint {i + 1}")
            dt = self.times[i + 1] - self.times[i]
            if _runs_length(runs) > self.speed_bound * dt + SPEED_TOL:
                raise PathValidationError(
                    f"segment {i} is faster than the declared bound "
                    f"{self.speed_bound}")

    @property
    def duration(self) -> float:
        return self.times[-1]

    def segment_length(self, i: int) -> float:
        return _runs_length(self.routes[i])

    def segment_index(self, t: float) -> int:
        """Index i with times[i] <= t <= times[i+1] (clamped at the ends)."""
        i = bisect.bisect_right(self.times, t) - 1
        return min(max(i, 0), max(len(self.times) - 2, 0))

    def evaluate(self, t: float) -> GraphPoint:
        """Position at time t, constant-speed along the recorded runs."""
        if t < -1e-9 or t > self.duration + 1e-9:
            raise ValueError(f"time {t} outside [0, {self.duration}]")
        t = min(max(t, 0.0), self.duration)
        if len(self.times) == 1:
            return self.points[0]
        i = self.segment_index(t)
        runs = self.routes[i]
        seg_len = _runs_length(runs)
        if seg_len == 0:
            return self.points[i]
        frac = (t - self.times[i]) / (self.times[i + 1] - self.times[i])
        target = frac * seg_len
        acc = 0.0
        for eid, x0, x1 in runs:
            ln = abs(x1 - x0)
            if acc + ln >= target - 1e-15:
                if ln == 0:
                    continue
                u = (target - acc) / ln
                return GraphPoint(eid, x0 + (x1 - x0) * min(max(u, 0.0), 1.0))
            acc += ln
        return self.points[i + 1]


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
        if duration <= 0:
            raise PathValidationError(f"wait duration must be positive, got {duration}")
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
        if duration <= 0:
            raise PathValidationError(f"duration must be positive, got {duration}")
        total = _runs_length(runs)
        if total == 0:
            return self.wait(duration)
        t_start = self.now
        acc = 0.0
        for eid, x0, x1 in runs:
            acc += abs(x1 - x0)
            self.times.append(t_start + duration * (acc / total))
            self.points.append(self.graph.clamp_point(GraphPoint(eid, x1)))
            self.routes.append(((eid, x0, x1),))
        self.times[-1] = t_start + duration
        return self

    def move_to(self, target, *, speed: float | None = None,
                duration: float | None = None) -> "PathBuilder":
        """Move along a shortest path to `target` (vertex id or point)."""
        if isinstance(target, str):
            target = self.graph.vertex_point(target)
        length, runs = self.graph.route(self.position, target)
        if duration is None:
            v = self.speed_bound if speed is None else speed
            if length == 0:
                return self
            if v <= 0:
                raise PathValidationError("need positive speed to move")
            duration = length / v
        if length == 0:
            return self.wait(duration)
        return self.move_runs(runs, duration)

    def build(self, metadata: dict | None = None) -> TimedPath:
        return TimedPath(self.graph, tuple(self.times), tuple(self.points),
                         tuple(self.routes), self.speed_bound,
                         dict(metadata or {}))


# ----------------------------------------------------------------------
# path measurements
# ----------------------------------------------------------------------

def check_lipschitz(p: TimedPath, s: float) -> bool:
    """True iff every segment's length over duration is at most s + 1e-9."""
    for i in range(len(p.routes)):
        dt = p.times[i + 1] - p.times[i]
        if p.segment_length(i) > s * dt + SPEED_TOL:
            return False
    return True


def total_variation(p: TimedPath) -> float:
    return math.fsum(p.segment_length(i) for i in range(len(p.routes)))


@dataclass(frozen=True)
class VariationProfile:
    """Cumulative arc length t -> V(t), piecewise linear between breakpoints."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    @property
    def total(self) -> float:
        return self.values[-1]

    def value(self, t: float) -> float:
        if t <= self.times[0]:
            return self.values[0]
        if t >= self.times[-1]:
            return self.values[-1]
        i = bisect.bisect_right(self.times, t) - 1
        dt = self.times[i + 1] - self.times[i]
        u = (t - self.times[i]) / dt
        return self.values[i] + u * (self.values[i + 1] - self.values[i])


def variation_profile(p: TimedPath) -> VariationProfile:
    acc = [0.0]
    for i in range(len(p.routes)):
        acc.append(acc[-1] + p.segment_length(i))
    return VariationProfile(p.times, tuple(acc))


# ----------------------------------------------------------------------
# reparameterization and transfer maps
# ----------------------------------------------------------------------

def reparameterize_max_speed(p: TimedPath, s: float) -> TimedPath:
    """Collapse idle time: the same curve traversed at constant speed s.

    The result lives on [0, V/s] where V is the total variation of p, visits
    the same positions in the same order, and is exactly s-Lipschitz.  Zero
    total variation yields the single-instant path at the start position.
    """
    if s <= 0:
        raise PathValidationError(f"target speed must be positive, got {s}")
    times = [0.0]
    points = [p.points[0]]
    routes = []
    for i in range(len(p.routes)):
        ln = p.segment_length(i)
        if ln == 0:
            continue
        times.append(times[-1] + ln / s)
        points.append(p.points[i + 1])
        routes.append(p.routes[i])
    return TimedPath(p.graph, tuple(times), tuple(points), tuple(routes), s,
                     dict(p.metadata))


def transfer_scale(p: TimedPath, c: float,
                   target: MetricGraph | None = None) -> TimedPath:
    """The same motion on the graph with all edge lengths multiplied by c.

    Positions scale coordinatewise and times scale by c, so the speed bound
    carries over unchanged.
    """
    if target is None:
        target = p.graph.scale(c)
    times = tuple(t * c for t in p.times)
    points = tuple(GraphPoint(q.edge, q.offset * c) for q in p.points)
    routes = tuple(tuple((eid, x0 * c, x1 * c) for eid, x0, x1 in runs)
                   for runs in p.routes)
    return TimedPath(target, times, points, routes, p.speed_bound,
                     dict(p.metadata))


def transfer_shorten(p: TimedPath, edge_id: str, new_length: float,
                     target: MetricGraph | None = None) -> TimedPath:
    """Project the motion onto the graph with one leaf edge shortened.

    Positions on the shortened edge beyond the new extent are clamped to the
    new leaf; everything else is untouched.  The projection is
    distance-nonincreasing, so the declared speed bound still holds.
    """
    e = p.graph.edge(edge_id)
    leaf = p.graph.leaf_end(edge_id)
    if leaf is None:
        raise GraphValidationError(
            f"edge {edge_id!r} is not incident to a leaf")
    if target is None:
        target = p.graph.shorten_leaf_edge(edge_id, new_length)
    removed = e.length - new_length

    def proj(x: float) -> float:
        # keep distances from the anchor (non-leaf) endpoint, clamp at the leaf
        if leaf == e.v:
            return min(x, new_length)
        return max(0.0, x - removed)

    def proj_point(q: GraphPoint) -> GraphPoint:
        if q.edge != edge_id:
            return q
        return GraphPoint(edge_id, proj(q.offset))

    points = tuple(proj_point(q) for q in p.points)
    routes = []
    for runs in p.routes:
        out = []
        for eid, x0, x1 in runs:
            if eid == edge_id:
                x0, x1 = proj(x0), proj(x1)
            if abs(x1 - x0) > 0:
                out.append((eid, x0, x1))
        routes.append(tuple(out))
    return TimedPath(target, p.times, points, tuple(routes), p.speed_bound,
                     dict(p.metadata))


def truncate_path(p: TimedPath, t_end: float) -> TimedPath:
    """Restrict the path to [0, t_end], interpolating a final breakpoint."""
    if t_end >= p.duration - 1e-12:
        return p
    if t_end < 0:
        raise ValueError(f"cannot truncate to negative time {t_end}")
    if t_end == 0:
        return TimedPath(p.graph, (0.0,), (p.points[0],), (), p.speed_bound,
                         dict(p.metadata))
    i = p.segment_index(t_end)
    times = list(p.times[:i + 1])
    points = list(p.points[:i + 1])
    routes = list(p.routes[:i])
    if t_end > p.times[i] + 1e-15:
        seg_len = p.segment_length(i)
        frac = (t_end - p.times[i]) / (p.times[i + 1] - p.times[i])
        part = []
        remaining = frac * seg_len
        for eid, x0, x1 in p.routes[i]:
            ln = abs(x1 - x0)
            if ln >= remaining:
                if remaining > 0:
                    part.append((eid, x0, x0 + math.copysign(remaining, x1 - x0)))
                break
            part.append((eid, x0, x1))
            remaining -= ln
        end = p.points[i] if not part else GraphPoint(part[-1][0], part[-1][2])
        times.append(t_end)
        points.append(p.graph.clamp_point(end))
        routes.append(tuple(part))
    return TimedPath(p.graph, tuple(times), tuple(points), tuple(routes),
                     p.speed_bound, dict(p.metadata))


# ----------------------------------------------------------------------
# piecewise-linear motion pieces (shared by verification and rendering)
# ----------------------------------------------------------------------

def path_pieces(p: TimedPath, t0: float, t1: float):
    """Decompose motion over [t0, t1] into single-edge linear pieces.

    Yields (ta, tb, edge id, xa, xb): from time ta to tb the position moves
    linearly from offset xa to xb on that edge.  Waits yield stationary
    pieces.  Consecutive pieces abut in time.
    """
    t0 = max(t0, 0.0)
    t1 = min(t1, p.duration)
    pieces = []
    if t1 <= t0 or len(p.times) == 1:
        q = p.evaluate(t0) if len(p.times) > 1 else p.points[0]
        return [(t0, t1, q.edge, q.offset, q.offset)]
    i0 = p.segment_index(t0)
    i1 = p.segment_index(t1)
    for i in range(i0, i1 + 1):
        a, b = p.times[i], p.times[i + 1]
        lo, hi = max(a, t0), min(b, t1)
        if hi <= lo:
            continue
        runs = p.routes[i]
        seg_len = _runs_length(runs)
        if seg_len == 0:
            q = p.points[i]
            pieces.append((lo, hi, q.edge, q.offset, q.offset))
            continue
        v = seg_len / (b - a)
        acc = 0.0
        for eid, x0, x1 in runs:
            ln = abs(x1 - x0)
            ra = a + acc / v
            rb = a + (acc + ln) / v
            acc += ln
            ca, cb = max(ra, lo), min(rb, hi)
            if cb <= ca:
                continue
            xa = x0 + (x1 - x0) * (ca - ra) / (rb - ra)
            xb = x0 + (x1 - x0) * (cb - ra) / (rb - ra)
            pieces.append((ca, cb, eid, xa, xb))
    return pieces


def _piece_offset(piece, t):
    ta, tb, _, xa, xb = piece
    if tb <= ta:
        return xa
    u = (t - ta) / (tb - ta)
    return xa + (xb - xa) * min(max(u, 0.0), 1.0)


def min_clearance(p: TimedPath, q: TimedPath, t0: float = 0.0,
                  t1: float | None = None) -> float:
    """Exact minimum intrinsic distance between two paths over [t0, t1].

    Both paths must live on the same graph.  Within a common linear piece the
    distance is a minimum of affine candidates plus the same-edge direct
    term, so the minimum is attained at piece boundaries or at the one root
    of the same-edge offset difference.
    """
    g = p.graph
    if t1 is None:
        t1 = min(p.duration, q.duration)
    if t1 <= t0:
        return g.distance(p.evaluate(min(t0, p.duration)),
                          q.evaluate(min(t0, q.duration)))
    pp = path_pieces(p, t0, t1)
    qq = path_pieces(q, t0, t1)
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
            best = min(best, g.distance(GraphPoint(P[2], _piece_offset(P, t)),
                                        GraphPoint(Q[2], _piece_offset(Q, t))))
        if P[2] == Q[2] and b > a:
            # same edge: check the root of the offset difference
            da = _piece_offset(P, a) - _piece_offset(Q, a)
            db = _piece_offset(P, b) - _piece_offset(Q, b)
            if da * db < 0:
                best = 0.0
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
    if not g.points_equal(pos, end):
        raise PathValidationError("route edge sequence does not reach the end")
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
    except (KeyError, TypeError, ValueError) as exc:
        raise PathValidationError(f"malformed trajectory document: {exc}") from None
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(path_to_dict(p), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_path(g: MetricGraph, path: str) -> TimedPath:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise PathValidationError(f"malformed trajectory file: {exc}") from None
    if not isinstance(doc, dict):
        raise PathValidationError("malformed trajectory file: expected an object")
    return path_from_dict(g, doc)
