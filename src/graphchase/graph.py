"""Compact metric graphs with an intrinsic shortest-path metric.

Every edge carries a positive length and is identified with a real interval
of that length.  `build_graph` subdivides loops and parallel edges with fresh
vertices, `MetricGraph` refuses any graph that is not connected and simple,
and exposes exact distance queries between arbitrary points on edges.
"""

from __future__ import annotations

import heapq
import json
import math
import numbers
from functools import cached_property
from typing import NamedTuple

import numpy as np

GEOM_TOL = 1e-9


class GraphValidationError(ValueError):
    """Raised when a graph (or a point on it) fails validation."""


class Edge(NamedTuple):
    id: str
    u: str
    v: str
    length: float

    def other(self, vertex: str) -> str:
        return self.v if vertex == self.u else self.u

    def run_from(self, vertex: str) -> tuple[str, float, float]:
        """The whole edge as one (id, x0, x1) run leaving from `vertex`."""
        return (self.id, 0.0, self.length) if vertex == self.u else \
            (self.id, self.length, 0.0)


class GraphPoint(NamedTuple):
    """A location on an edge: offset in length units from the edge's `u` end."""

    edge: str
    offset: float


class MetricGraph:
    """A connected, simple metric graph with string vertex and edge ids.

    Ids must be distinct, edge endpoints declared vertices, every edge
    length a number by `as_number`'s rule, kept as a float, and positive,
    the total length finite, and the edges at least one, free of loops and
    parallel pairs, and connected; the constructor refuses anything else
    with GraphValidationError, so no transform can make a zero-length
    edge.  Instances are immutable after construction and safe to share
    across threads; distance queries lazily cache per-source shortest-path
    trees.  Use :func:`build_graph` to normalize raw (possibly loopy or
    parallel) edge data into one.
    """

    def __init__(self, vertices, edges):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(
            e if type(e.length) is float else
            e._replace(length=_length(e.id, e.length)) for e in edges)
        self.edge_ids: tuple[str, ...] = tuple(e.id for e in self.edges)
        self._edge_index = {eid: k for k, eid in enumerate(self.edge_ids)}
        adj: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        if len(adj) != len(self.vertices):
            raise GraphValidationError("duplicate vertex ids")
        if len(self._edge_index) != len(self.edges):
            raise GraphValidationError("duplicate edge ids")
        if not self.edges:
            raise GraphValidationError("graph needs at least one edge")
        pairs: set[frozenset] = set()
        for e in self.edges:
            if not e.length > 0:
                raise GraphValidationError(
                    f"edge {e.id!r} has nonpositive length {e.length}")
            if e.u not in adj or e.v not in adj:
                raise GraphValidationError(
                    f"edge {e.id!r} references undeclared vertex")
            if e.u == e.v:
                raise GraphValidationError(f"edge {e.id!r} is a loop")
            if frozenset((e.u, e.v)) in pairs:
                raise GraphValidationError(
                    f"edge {e.id!r} is parallel to another edge")
            pairs.add(frozenset((e.u, e.v)))
            adj[e.u].append(e)
            adj[e.v].append(e)
        # every distance is a sum of lengths, so none overflows when the
        # total does not
        if not math.isfinite(self.total_length):
            raise GraphValidationError(
                f"total edge length {self.total_length} is not a finite "
                f"float")
        self._adj = {v: tuple(sorted(es, key=lambda e: e.id)) for v, es in adj.items()}
        self._sssp_cache: dict[str, tuple[dict, dict]] = {}
        # a pursuer confined to one component can never meet an evader in
        # another, so no winning strategy exists
        if len(self._sssp(self.vertices[0])[0]) != len(self.vertices):
            raise GraphValidationError(
                "disconnected metric graph: no winning strategy exists")

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        try:
            return self.edges[self._edge_index[edge_id]]
        except KeyError:
            raise GraphValidationError(f"unknown edge id {edge_id!r}") from None

    def edge_index(self, edge_id: str) -> int:
        """The position of an edge in `edges`."""
        self.edge(edge_id)          # an unknown id raises here
        return self._edge_index[edge_id]

    def edge_indices(self, ids) -> np.ndarray:
        """The position of each edge id in `edges`, or -1 for an id that
        names no edge; edge ids are strings, so any other value is -1."""
        index = self._edge_index
        return np.array([index.get(eid, -1) if isinstance(eid, str) else -1
                         for eid in ids], dtype=np.int64)

    def incident_edges(self, vertex: str) -> tuple[Edge, ...]:
        return self._adj[vertex]

    def degree(self, vertex: str) -> int:
        return len(self._adj[vertex])

    def is_leaf(self, vertex: str) -> bool:
        return self.degree(vertex) == 1

    def leaf_end(self, edge_id: str) -> str | None:
        """The leaf endpoint of an edge, preferring `v`, or None if neither is a leaf."""
        e = self.edge(edge_id)
        if self.is_leaf(e.v):
            return e.v
        if self.is_leaf(e.u):
            return e.u
        return None

    @property
    def total_length(self) -> float:
        return sum(e.length for e in self.edges)

    @property
    def min_edge_length(self) -> float:
        return min(e.length for e in self.edges)

    def __repr__(self):
        return (f"MetricGraph({len(self.vertices)} vertices, {len(self.edges)} edges, "
                f"total length {self.total_length:g})")

    # ------------------------------------------------------------------
    # points
    # ------------------------------------------------------------------

    def clamp_point(self, p: GraphPoint) -> GraphPoint:
        """Validate a point and snap offsets within GEOM_TOL onto [0, length];
        the offset must be a number by `as_number`'s rule."""
        e = self.edge(p.edge)
        x = as_real(p.offset, f"offset on edge {e.id!r}", GraphValidationError)
        if not -GEOM_TOL <= x <= e.length + GEOM_TOL:   # also rejects nan
            raise GraphValidationError(
                f"offset {x} outside [0, {e.length}] on edge {e.id!r}")
        return GraphPoint(p.edge, min(max(x, 0.0), e.length))

    def point_vertex(self, p: GraphPoint) -> str | None:
        """The vertex a point is identified with, or None for interior points."""
        e = self.edge(p.edge)
        if p.offset <= GEOM_TOL:
            return e.u
        if p.offset >= e.length - GEOM_TOL:
            return e.v
        return None

    def points_equal(self, a: GraphPoint, b: GraphPoint) -> bool:
        """Equality up to the identification of endpoint offsets with vertices."""
        va, vb = self.point_vertex(a), self.point_vertex(b)
        if va is not None or vb is not None:
            return va == vb
        return a.edge == b.edge and abs(a.offset - b.offset) <= GEOM_TOL

    def vertex_point(self, vertex: str) -> GraphPoint:
        """Canonical GraphPoint for a vertex (on its lowest-id incident edge)."""
        edges = self._adj.get(vertex)
        if not edges:
            raise GraphValidationError(f"unknown or isolated vertex {vertex!r}")
        e = edges[0]
        return GraphPoint(e.id, 0.0 if e.u == vertex else e.length)

    def point_on_edge(self, p: GraphPoint, edge_id: str) -> GraphPoint | None:
        """Re-express `p` as a point of the given edge, if it lies on it."""
        if p.edge == edge_id:
            return p
        v = self.point_vertex(p)
        if v is None:
            return None
        e = self.edge(edge_id)
        if v == e.u:
            return GraphPoint(edge_id, 0.0)
        if v == e.v:
            return GraphPoint(edge_id, e.length)
        return None

    # ------------------------------------------------------------------
    # metric
    # ------------------------------------------------------------------

    def _sssp(self, source: str):
        """Dijkstra from a vertex; returns (distance map, predecessor edge map)."""
        cached = self._sssp_cache.get(source)
        if cached is not None:
            return cached
        dist = {source: 0.0}
        pred: dict[str, Edge] = {}
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, math.inf):
                continue
            for e in self._adj[u]:
                w = e.other(u)
                nd = d + e.length
                if nd < dist.get(w, math.inf) - 1e-15:
                    dist[w] = nd
                    pred[w] = e
                    heapq.heappush(heap, (nd, w))
        self._sssp_cache[source] = (dist, pred)
        return dist, pred

    def vertex_distance(self, u: str, v: str) -> float:
        return self._sssp(u)[0][v]

    @cached_property
    def vertex_rows(self) -> dict:
        """Vertex id -> row in the vertex tables, in sorted-id order."""
        return {v: i for i, v in enumerate(sorted(self.vertices))}

    @cached_property
    def edge_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u row, v row, length) arrays of the edges, in `edges` order."""
        return (np.array([self.vertex_rows[e.u] for e in self.edges]),
                np.array([self.vertex_rows[e.v] for e in self.edges]),
                np.array([e.length for e in self.edges]))

    @cached_property
    def vertex_distance_matrix(self) -> np.ndarray:
        """Dense vertex distance matrix in `vertex_rows` order."""
        rows = self.vertex_rows
        m = np.zeros((len(rows), len(rows)))
        for u, i in rows.items():
            dist = self._sssp(u)[0]
            for v, j in rows.items():
                m[i, j] = dist[v]
        return m

    def _vertex_runs(self, u: str, v: str) -> list[tuple[str, float, float]]:
        """Edge runs of the shortest u->v vertex path."""
        _, pred = self._sssp(u)
        runs = []
        cur = v
        while cur != u:
            e = pred[cur]
            cur = e.other(cur)
            runs.append(e.run_from(cur))
        runs.reverse()
        return runs

    def legs(self, ea, xa, eb, xb) -> np.ndarray:
        """The shortest way from each point (edge index ea, offset xa) to
        (eb, xb) through an endpoint of each one's edge: the least of the
        four `leg + vertex distance + leg` sums, each the floating-point
        sum `route` forms for it.  Offsets must lie in [0, length]."""
        eu, ev, length = self.edge_table
        vv = self.vertex_distance_matrix
        return np.minimum.reduce([
            da + vv[ua, ub] + db
            for ua, da in ((eu[ea], xa), (ev[ea], length[ea] - xa))
            for ub, db in ((eu[eb], xb), (ev[eb], length[eb] - xb))])

    def distance(self, a: GraphPoint, b: GraphPoint) -> float:
        """Intrinsic (shortest-path) distance between two points."""
        return self.route(a, b)[0]

    def route(self, a: GraphPoint, b: GraphPoint):
        """(length, edge runs) of a shortest path between two points.

        The runs are (edge id, start offset, end offset) triples, contiguous
        and free of zero-length entries; an empty tuple means a == b.  The
        length is the least of the direct run (on one edge) and the four
        ways `leg + vertex distance + leg` through the edges' endpoints,
        taken in that order; a tie goes to the first of them.
        """
        a = self.clamp_point(a)
        b = self.clamp_point(b)
        ea, eb = self.edge(a.edge), self.edge(b.edge)
        length = abs(a.offset - b.offset) if a.edge == b.edge else math.inf
        via = None
        for va, da, xa in ((ea.u, a.offset, 0.0),
                           (ea.v, ea.length - a.offset, ea.length)):
            for vb, db, xb in ((eb.u, b.offset, 0.0),
                               (eb.v, eb.length - b.offset, eb.length)):
                through = da + self.vertex_distance(va, vb) + db
                if through < length:
                    length, via = through, (va, xa, vb, xb)
        if via is None:
            runs = [(a.edge, a.offset, b.offset)]
        else:
            va, xa, vb, xb = via
            runs = [(a.edge, a.offset, xa), *self._vertex_runs(va, vb),
                    (b.edge, xb, b.offset)]
        runs = [(eid, x0, x1) for eid, x0, x1 in runs if abs(x1 - x0) > GEOM_TOL]
        return length, tuple(runs)

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------

    def scale(self, c: float) -> "MetricGraph":
        """Uniformly rescale all edge lengths by c; a factor that is no
        number, or leaves a length nonpositive or the total infinite, is
        refused."""
        c = as_real(c, "scale factor", GraphValidationError)
        return MetricGraph(self.vertices,
                           [Edge(e.id, e.u, e.v, e.length * c) for e in self.edges])

    def shorten_leaf_edge(self, edge_id: str, new_length: float) -> "MetricGraph":
        """Shorten an edge incident to a leaf vertex to a number in (0,
        its length); structure is otherwise kept."""
        e = self.edge(edge_id)
        new_length = as_real(new_length, "new length", GraphValidationError)
        if self.leaf_end(edge_id) is None:
            raise GraphValidationError(
                f"edge {edge_id!r} is not incident to a leaf; only leaf edges "
                f"may be shortened")
        if not (0 < new_length < e.length):
            raise GraphValidationError(
                f"new length must lie in (0, {e.length}), got {new_length}")
        return MetricGraph(
            self.vertices,
            [Edge(x.id, x.u, x.v, new_length if x.id == edge_id else x.length)
             for x in self.edges])


# ----------------------------------------------------------------------
# construction / normalization
# ----------------------------------------------------------------------

def as_number(x) -> float:
    """x as a float if it is a real number, numpy ones included, but no
    bool or str; TypeError otherwise (OverflowError for a huge int)."""
    if type(x) is float:        # the common case, without the ABC check
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


def as_real(x, what: str, error: type[Exception]) -> float:
    """`as_number(x)`, or an `error` naming x where it is no number."""
    try:
        return as_number(x)
    except (TypeError, OverflowError):
        raise error(f"{what}: {x!r} is not a number") from None


def _length(eid: str, x) -> float:
    """An edge's length as a float by `as_number`'s rule."""
    try:
        return as_number(x)
    except (TypeError, OverflowError):
        raise GraphValidationError(
            f"edge {eid!r} has non-numeric length {x!r}") from None


def as_positive(x, what: str, error: type[Exception]) -> float:
    """`as_number(x)` if it is in (0, inf), else an `error` naming x."""
    try:
        v = as_number(x)
    except (TypeError, OverflowError):
        v = math.nan
    if not 0 < v < math.inf:
        raise error(f"{what} must be finite and positive, got {x!r}")
    return v


def build_graph(vertices, edges) -> MetricGraph:
    """Normalize raw edge data into a metric graph.

    `vertices` is a list of distinct string ids, and `edges` an iterable of
    (u, v, length) or (u, v, length, edge_id) with string endpoints and
    ids, distinct among the raw edges; a missing id is `e<index>`.  Lengths
    must be numbers.  Loops become 3-vertex cycles of the same total length
    and every parallel duplicate is subdivided with one midpoint; the
    `MetricGraph` constructor then refuses what is still not a connected,
    simple graph with positive lengths and a finite total.
    """
    vertices = list(vertices)
    if not all(isinstance(v, str) for v in vertices):
        raise GraphValidationError("vertex ids must be strings")

    raw = []
    used_ids: set[str] = set()
    for i, item in enumerate(edges):
        if len(item) not in (3, 4):
            raise GraphValidationError(
                f"edge {i} has {len(item)} entries, not 3 or 4")
        u, v, length, eid = (*item, f"e{i}")[:4]
        if not all(isinstance(x, str) for x in (eid, u, v)):
            raise GraphValidationError(
                f"edge {eid!r} needs a string id and string endpoints")
        if eid in used_ids:
            raise GraphValidationError(f"duplicate edge id {eid!r}")
        used_ids.add(eid)
        raw.append(Edge(eid, u, v, _length(eid, length)))

    used_names = set(vertices) | used_ids

    def fresh(suffix):     # a name for a piece of e that nothing has yet
        name = f"{e.id}~{suffix}"
        while name in used_names:
            name += "~"
        used_names.add(name)
        return name

    out_vertices = list(vertices)
    out_edges: list[Edge] = []
    seen_pairs: set[frozenset] = set()
    for e in raw:
        if e.u == e.v:
            a, b = fresh("a"), fresh("b")
            out_vertices += [a, b]
            third = e.length / 3.0
            out_edges += [Edge(fresh(0), e.u, a, third),
                          Edge(fresh(1), a, b, third),
                          Edge(fresh(2), b, e.u, third)]
        elif frozenset((e.u, e.v)) in seen_pairs:
            m = fresh("m")
            out_vertices.append(m)
            half = e.length / 2.0
            out_edges += [Edge(fresh(0), e.u, m, half),
                          Edge(fresh(1), m, e.v, half)]
        else:
            seen_pairs.add(frozenset((e.u, e.v)))
            out_edges.append(e)

    return MetricGraph(out_vertices, out_edges)


# ----------------------------------------------------------------------
# edge-covering walks
# ----------------------------------------------------------------------

def double_tree_walk(g: MetricGraph, start: str):
    """An edge-covering walk from the vertex `start` of total length at most
    twice the total edge length.

    Depth-first traversal of a spanning tree walks each tree edge twice and
    takes an out-and-back detour over each non-tree edge; the trailing part
    of the walk that only re-traverses covered edges is dropped.  Returns a
    tuple of (edge id, start offset, end offset) runs.  A start that is not
    a vertex of g raises GraphValidationError.
    """
    g.vertex_point(start)           # a start that is no vertex raises here

    # Iterative depth-first traversal: tree edges are walked down and later
    # back up, non-tree edges become immediate out-and-back detours.
    steps: list[tuple[Edge, str]] = []   # (edge, walked starting from vertex)
    used: set[str] = set()
    visited = {start}
    stack = [(start, iter(g.incident_edges(start)), None)]
    while stack:
        u, it, entry_edge = stack[-1]
        for e in it:
            if e.id in used:
                continue
            used.add(e.id)
            w = e.other(u)
            if w in visited:
                steps.append((e, u))
                steps.append((e, w))
            else:
                visited.add(w)
                steps.append((e, u))
                stack.append((w, iter(g.incident_edges(w)), e))
            break
        else:
            stack.pop()
            if entry_edge is not None:
                steps.append((entry_edge, u))

    covered: set[str] = set()
    last_new = -1
    for i, (e, _) in enumerate(steps):
        if e.id not in covered:
            covered.add(e.id)
            last_new = i
    steps = steps[:last_new + 1]

    return tuple(e.run_from(frm) for e, frm in steps)


def walk_length(runs) -> float:
    """The length of (edge id, x0, x1) runs, correctly rounded."""
    return math.fsum(abs(x1 - x0) for _, x0, x1 in runs)


def walk_covers(g: MetricGraph, runs) -> bool:
    """True when the runs jointly cover every edge end-to-end."""
    per_edge: dict[str, list[tuple[float, float]]] = {}
    for eid, x0, x1 in runs:
        per_edge.setdefault(eid, []).append((min(x0, x1), max(x0, x1)))
    for e in g.edges:
        ivs = sorted(per_edge.get(e.id, []))
        reach = 0.0
        for lo, hi in ivs:
            if lo > reach + GEOM_TOL:
                return False
            reach = max(reach, hi)
        if reach < e.length - GEOM_TOL:
            return False
    return True


# ----------------------------------------------------------------------
# spatial discretization
# ----------------------------------------------------------------------

def interval_count(length: float, h: float) -> int:
    """The number of equal pieces an edge is cut into at resolution h."""
    return max(1, int(math.ceil(length / h - 1e-12)))


class DiscretizedGraph:
    """Uniform per-edge samples at spacing <= h, with endpoint samples merged
    at vertices and exact arc distances between consecutive samples.

    Sample order is deterministic: vertex samples first (sorted by vertex id),
    then interior samples sorted by (edge id, offset).  So the interior
    samples of each edge fill one contiguous index range in offset order,
    and two of them k spacings apart are k indices apart; the verifier's
    banded propagation (`build_reach`) relies on this.  Edge k of
    `graph.edges` is cut into `edge_intervals[k]` pieces `edge_spacing[k]`
    long, and its interior samples, the i-th at offset i * spacing, start
    at index `edge_inner_start[k]`; its end samples are the vertex samples
    of its `u` and `v`.  `vertex_sample_dist` holds the exact distance from
    every vertex (rows in `graph.vertex_rows`) to every sample, and
    `sample_edge` and `sample_offset` each sample's edge index and offset;
    `points` makes GraphPoints of them only when asked.
    """

    def __init__(self, graph: MetricGraph, h: float):
        self.graph = graph
        self.h = as_positive(h, "resolution h", GraphValidationError)

        ends = [graph.vertex_point(v) for v in graph.vertex_rows]
        n_vert = len(ends)
        eu, ev, length = graph.edge_table
        self.edge_intervals = np.array([interval_count(x, self.h)
                                        for x in length.tolist()])
        self.edge_spacing = length / self.edge_intervals
        self.max_spacing = float(self.edge_spacing.max())
        # interior samples go in edge id order
        order = sorted(range(len(length)), key=lambda k: graph.edges[k].id)
        count = self.edge_intervals[order] - 1
        self.edge_inner_start = np.empty(len(order), dtype=np.int64)
        self.edge_inner_start[order] = n_vert + np.cumsum(count) - count
        offsets = [np.arange(1, self.edge_intervals[k]) * self.edge_spacing[k]
                   for k in order]
        self.sample_edge = np.concatenate([
            graph.edge_indices([p.edge for p in ends]),
            np.repeat(order, count)])
        self.sample_offset = np.concatenate(
            [[p.offset for p in ends]] + offsets)
        self.n = len(self.sample_offset)

        vv = graph.vertex_distance_matrix
        dist = np.empty((n_vert, self.n))
        # a vertex sample ends each edge through it: the vertex itself or
        # the edge's other end plus its length, whichever is nearer
        dist[:, :n_vert] = vv
        np.minimum.at(dist[:, :n_vert].T, np.concatenate([eu, ev]),
                      (vv[:, np.concatenate([ev, eu])]
                       + np.concatenate([length, length])).T)
        # an interior sample: the nearer way through either end of its edge
        x, k = self.sample_offset[n_vert:], self.sample_edge[n_vert:]
        inner = np.take(vv, eu[k], axis=1, out=dist[:, n_vert:])
        inner += x
        np.minimum(inner, vv[:, ev[k]] + (length[k] - x), out=inner)
        self.vertex_sample_dist = dist

    @cached_property
    def points(self) -> tuple[GraphPoint, ...]:
        """Every sample as a GraphPoint, in sample order."""
        ids = self.graph.edge_ids
        return tuple(map(GraphPoint,
                         [ids[k] for k in self.sample_edge.tolist()],
                         self.sample_offset.tolist()))

    def distances_to_point(self, p: GraphPoint) -> np.ndarray:
        """Exact intrinsic distance from every sample to the point."""
        p = self.graph.clamp_point(p)
        return self.distances_to_intervals([(p.edge, p.offset, p.offset)])

    def distances_to_intervals(self, intervals) -> np.ndarray:
        """Exact distance from every sample to a union of edge sub-intervals.

        `intervals` holds (edge id, lo, hi) with lo <= hi, each within one
        ulp of the edge length of [0, length]: the piece ends of
        `path_pieces` and `clip_pieces` may fall that far outside.
        """
        dist = self.vertex_sample_dist
        eu, ev, length = self.graph.edge_table
        out = np.full(self.n, np.inf)
        for eid, lo, hi in intervals:
            k = self.graph.edge_index(eid)
            first = self.edge_inner_start[k]
            inner = np.arange(first, first + self.edge_intervals[k] - 1)
            # the edge's samples in offset order, its end vertices included
            index = np.concatenate([[eu[k]], inner, [ev[k]]])
            offs = np.concatenate([[0.0], self.sample_offset[inner],
                                   [length[k]]])
            np.minimum(out, dist[eu[k]] + lo, out=out)
            np.minimum(out, dist[ev[k]] + (offs[-1] - hi), out=out)
            direct = np.maximum(0.0, np.maximum(lo - offs, offs - hi))
            np.minimum.at(out, index, direct)
        return out


def discretize(g: MetricGraph, h: float) -> DiscretizedGraph:
    """Sample every edge uniformly at spacing <= h (endpoints included)."""
    return DiscretizedGraph(g, h)


# ----------------------------------------------------------------------
# JSON graph files
# ----------------------------------------------------------------------

def graph_to_dict(g: MetricGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"id": e.id, "from": e.u, "to": e.v, "length": e.length}
                  for e in g.edges],
    }


def graph_from_dict(data: dict) -> MetricGraph:
    try:
        vertices = data["vertices"]
        edges = [(e["from"], e["to"], e["length"], e["id"]) for e in data["edges"]]
    except (KeyError, TypeError) as exc:
        raise GraphValidationError(f"malformed graph document: {exc}") from exc
    if not isinstance(vertices, list):
        raise GraphValidationError(
            "malformed graph document: vertices must be a list")
    return build_graph(vertices, edges)


def save_graph(g: MetricGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh, indent=2)
        fh.write("\n")


def load_graph(path) -> MetricGraph:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise GraphValidationError(f"invalid JSON in {path}: {exc}") from exc
    return graph_from_dict(data)
