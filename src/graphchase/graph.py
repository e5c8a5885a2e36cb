"""Compact metric graphs with an intrinsic shortest-path metric.

Every edge carries a positive length and is identified with a real interval
of that length.  Construction normalizes loops and parallel edges away by
subdividing them with fresh vertices, rejects disconnected input, and exposes
exact distance queries between arbitrary points on edges.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

import numpy as np

GEOM_TOL = 1e-9


class GraphValidationError(ValueError):
    """Raised when a graph (or a point on it) fails validation."""


@dataclass(frozen=True)
class Edge:
    id: str
    u: str
    v: str
    length: float

    def other(self, vertex: str) -> str:
        return self.v if vertex == self.u else self.u


@dataclass(frozen=True)
class GraphPoint:
    """A location on an edge: offset in length units from the edge's `u` end."""

    edge: str
    offset: float


class MetricGraph:
    """A connected, simple metric graph.

    Instances are immutable after construction and safe to share across
    threads; distance queries lazily cache per-source shortest-path trees.
    Use :func:`build_graph` to construct one from raw (possibly loopy or
    parallel) edge data.
    """

    def __init__(self, vertices, edges):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._edge_by_id = {e.id: e for e in self.edges}
        adj: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.u].append(e)
            adj[e.v].append(e)
        self._adj = {v: tuple(sorted(es, key=lambda e: e.id)) for v, es in adj.items()}
        self._sssp_cache: dict[str, tuple[dict, dict]] = {}
        self._vv_cache = None

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise GraphValidationError(f"unknown edge id {edge_id!r}") from None

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
        """Validate a point and snap offsets within GEOM_TOL onto [0, length]."""
        e = self.edge(p.edge)
        x = p.offset
        if x < -GEOM_TOL or x > e.length + GEOM_TOL:
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

    def vertex_distance_matrix(self):
        """(sorted vertex ids, dense distance matrix) - cached."""
        if self._vv_cache is None:
            ids = tuple(sorted(self.vertices))
            m = np.zeros((len(ids), len(ids)))
            for i, u in enumerate(ids):
                dist = self._sssp(u)[0]
                for j, v in enumerate(ids):
                    m[i, j] = dist[v]
            self._vv_cache = (ids, m)
        return self._vv_cache

    def _vertex_runs(self, u: str, v: str) -> list[tuple[str, float, float]]:
        """Edge runs of the shortest u->v vertex path."""
        _, pred = self._sssp(u)
        runs = []
        cur = v
        while cur != u:
            e = pred[cur]
            prev = e.other(cur)
            if prev == e.u:
                runs.append((e.id, 0.0, e.length))
            else:
                runs.append((e.id, e.length, 0.0))
            cur = prev
        runs.reverse()
        return runs

    def _endpoint_legs(self, p: GraphPoint):
        e = self.edge(p.edge)
        return ((e.u, p.offset), (e.v, e.length - p.offset))

    def distance(self, a: GraphPoint, b: GraphPoint) -> float:
        """Intrinsic (shortest-path) distance between two points."""
        a = self.clamp_point(a)
        b = self.clamp_point(b)
        best = math.inf
        if a.edge == b.edge:
            best = abs(a.offset - b.offset)
        for va, da in self._endpoint_legs(a):
            for vb, db in self._endpoint_legs(b):
                best = min(best, da + self.vertex_distance(va, vb) + db)
        return best

    def route(self, a: GraphPoint, b: GraphPoint):
        """(length, edge runs) of a shortest path between two points.

        The runs are (edge id, start offset, end offset) triples, contiguous
        and free of zero-length entries; an empty tuple means a == b.
        """
        a = self.clamp_point(a)
        b = self.clamp_point(b)
        candidates = []
        if a.edge == b.edge:
            candidates.append((abs(a.offset - b.offset),
                               [(a.edge, a.offset, b.offset)]))
        for va, da in self._endpoint_legs(a):
            for vb, db in self._endpoint_legs(b):
                length = da + self.vertex_distance(va, vb) + db
                candidates.append((length, None, va, vb))
        candidates.sort(key=lambda c: c[0])
        length = candidates[0][0]
        chosen = candidates[0]
        if chosen[1] is None:
            _, _, va, vb = chosen
            ea, eb = self.edge(a.edge), self.edge(b.edge)
            runs = [(a.edge, a.offset, 0.0 if va == ea.u else ea.length)]
            runs += self._vertex_runs(va, vb)
            runs.append((b.edge, 0.0 if vb == eb.u else eb.length, b.offset))
        else:
            runs = chosen[1]
        runs = [(eid, x0, x1) for eid, x0, x1 in runs if abs(x1 - x0) > GEOM_TOL]
        return length, tuple(runs)

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------

    def scale(self, c: float) -> "MetricGraph":
        """Uniformly rescale all edge lengths by c > 0."""
        if not (c > 0):
            raise GraphValidationError(f"scale factor must be positive, got {c}")
        return MetricGraph(self.vertices,
                           [Edge(e.id, e.u, e.v, e.length * c) for e in self.edges])

    def shorten_leaf_edge(self, edge_id: str, new_length: float) -> "MetricGraph":
        """Shorten an edge incident to a leaf vertex; structure is otherwise kept."""
        e = self.edge(edge_id)
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

def _fresh_name(base: str, used: set[str]) -> str:
    name = base
    while name in used:
        name += "~"
    used.add(name)
    return name


def build_graph(vertices, edges) -> MetricGraph:
    """Build and normalize a metric graph.

    `edges` is an iterable of (u, v, length) or (u, v, length, edge_id).
    Loops become 3-vertex cycles of the same total length and every parallel
    duplicate is subdivided with one midpoint, so the result is simple.
    Disconnected input is rejected: a pursuer confined to one component can
    never meet an evader in another, so no winning strategy exists.
    """
    try:
        vertices = list(vertices)
        vset = set(vertices)
    except TypeError as exc:
        raise GraphValidationError(
            f"vertex ids must be a list of hashable values: {exc}") from None
    if len(vset) != len(vertices):
        raise GraphValidationError("duplicate vertex ids")
    if not vertices:
        raise GraphValidationError("graph needs at least one vertex")

    raw = []
    used_ids: set[str] = set()
    for i, item in enumerate(edges):
        if len(item) == 3:
            u, v, length = item
            eid = f"e{i}"
        else:
            u, v, length, eid = item
        if eid in used_ids:
            raise GraphValidationError(f"duplicate edge id {eid!r}")
        used_ids.add(eid)
        if u not in vset or v not in vset:
            raise GraphValidationError(f"edge {eid!r} references undeclared vertex")
        try:
            length = float(length)
        except (TypeError, ValueError):
            raise GraphValidationError(
                f"edge {eid!r} has non-numeric length {length!r}") from None
        if not (length > 0) or not math.isfinite(length):
            raise GraphValidationError(
                f"edge {eid!r} has nonpositive length {length}")
        raw.append(Edge(eid, u, v, length))
    if not raw:
        raise GraphValidationError("graph needs at least one edge")

    used_names = set(vset) | used_ids
    out_vertices = list(vertices)
    out_edges: list[Edge] = []
    seen_pairs: set[frozenset] = set()
    for e in raw:
        if e.u == e.v:
            a = _fresh_name(f"{e.id}~a", used_names)
            b = _fresh_name(f"{e.id}~b", used_names)
            out_vertices += [a, b]
            third = e.length / 3.0
            out_edges += [Edge(f"{e.id}~0", e.u, a, third),
                          Edge(f"{e.id}~1", a, b, third),
                          Edge(f"{e.id}~2", b, e.u, third)]
        elif frozenset((e.u, e.v)) in seen_pairs:
            m = _fresh_name(f"{e.id}~m", used_names)
            out_vertices.append(m)
            half = e.length / 2.0
            out_edges += [Edge(f"{e.id}~0", e.u, m, half),
                          Edge(f"{e.id}~1", m, e.v, half)]
        else:
            seen_pairs.add(frozenset((e.u, e.v)))
            out_edges.append(e)

    # connectivity
    adj: dict[str, list[str]] = {v: [] for v in out_vertices}
    for e in out_edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    seen = {out_vertices[0]}
    stack = [out_vertices[0]]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(out_vertices):
        raise GraphValidationError(
            "disconnected metric graph: no winning strategy exists")

    return MetricGraph(out_vertices, out_edges)


# ----------------------------------------------------------------------
# edge-covering walks
# ----------------------------------------------------------------------

def double_tree_walk(g: MetricGraph, start):
    """An edge-covering walk from `start` of total length at most twice the
    total edge length.

    `start` is a GraphPoint or a vertex id.  Depth-first traversal of a
    spanning tree walks each tree edge twice and takes an out-and-back detour
    over each non-tree edge; the trailing part of the walk that only
    re-traverses covered edges is dropped.  Returns a tuple of
    (edge id, start offset, end offset) runs.
    """
    if isinstance(start, str):
        start = g.vertex_point(start)
    start = g.clamp_point(start)
    start_vertex = g.point_vertex(start)
    if start_vertex is None:
        # split the start edge at the interior point and walk the refined graph
        e = g.edge(start.edge)
        mid = "~walkstart"
        verts = list(g.vertices) + [mid]
        edges = []
        for x in g.edges:
            if x.id == e.id:
                edges.append(Edge(e.id + "~s0", e.u, mid, start.offset))
                edges.append(Edge(e.id + "~s1", mid, e.v, e.length - start.offset))
            else:
                edges.append(x)
        refined = MetricGraph(verts, edges)
        runs = double_tree_walk(refined, refined.vertex_point(mid))
        # map split-edge runs back to the original coordinates; the two split
        # pieces jointly cover the original edge exactly when both appear
        back = []
        for eid, x0, x1 in runs:
            if eid == e.id + "~s0":
                back.append((e.id, x0, x1))
            elif eid == e.id + "~s1":
                back.append((e.id, start.offset + x0, start.offset + x1))
            else:
                back.append((eid, x0, x1))
        return tuple(back)

    # Iterative depth-first traversal: tree edges are walked down and later
    # back up, non-tree edges become immediate out-and-back detours.
    steps: list[tuple[Edge, str]] = []   # (edge, walked starting from vertex)
    used: set[str] = set()
    visited = {start_vertex}
    stack = [(start_vertex, iter(g.incident_edges(start_vertex)), None)]
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

    runs = []
    for e, frm in steps:
        if frm == e.u:
            runs.append((e.id, 0.0, e.length))
        else:
            runs.append((e.id, e.length, 0.0))
    return tuple(runs)


def walk_length(runs) -> float:
    return sum(abs(x1 - x0) for _, x0, x1 in runs)


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

class DiscretizedGraph:
    """Uniform per-edge samples at spacing <= h, with endpoint samples merged
    at vertices and exact arc distances between consecutive samples.

    Sample order is deterministic: vertex samples first (sorted by vertex id),
    then interior samples sorted by (edge id, offset).
    """

    def __init__(self, graph: MetricGraph, h: float):
        if not (h > 0):
            raise GraphValidationError(f"resolution h must be positive, got {h}")
        self.graph = graph
        self.h = float(h)

        vertex_ids = sorted(graph.vertices)
        self.vertex_index = {v: i for i, v in enumerate(vertex_ids)}
        points: list[GraphPoint] = [graph.vertex_point(v) for v in vertex_ids]
        self.vertex_of: list[str | None] = list(vertex_ids)

        self.edge_samples: dict[str, np.ndarray] = {}
        self.edge_offsets: dict[str, np.ndarray] = {}
        self.spacing: dict[str, float] = {}
        for e in sorted(graph.edges, key=lambda e: e.id):
            n_int = int(math.ceil(e.length / self.h - 1e-12))
            sp = e.length / n_int
            self.spacing[e.id] = sp
            idx = [self.vertex_index[e.u]]
            offs = [0.0]
            for i in range(1, n_int):
                idx.append(len(points))
                offs.append(i * sp)
                points.append(GraphPoint(e.id, i * sp))
                self.vertex_of.append(None)
            idx.append(self.vertex_index[e.v])
            offs.append(e.length)
            self.edge_samples[e.id] = np.asarray(idx, dtype=np.int64)
            self.edge_offsets[e.id] = np.asarray(offs)

        self.points: tuple[GraphPoint, ...] = tuple(points)
        self.n = len(points)
        self.max_spacing = max(self.spacing.values())

        ids, vv = graph.vertex_distance_matrix()
        order = [ids.index(v) for v in vertex_ids]
        self.vv = vv[np.ix_(order, order)]

        # exact distance from every vertex to every sample
        self.vertex_sample_dist = np.full((len(vertex_ids), self.n), np.inf)
        for vi in range(len(vertex_ids)):
            row = self.vertex_sample_dist[vi]
            for e in graph.edges:
                idx = self.edge_samples[e.id]
                offs = self.edge_offsets[e.id]
                du = self.vv[vi, self.vertex_index[e.u]]
                dv = self.vv[vi, self.vertex_index[e.v]]
                cand = np.minimum(du + offs, dv + (e.length - offs))
                np.minimum.at(row, idx, cand)

    def distances_to_point(self, p: GraphPoint) -> np.ndarray:
        """Exact intrinsic distance from every sample to the point."""
        p = self.graph.clamp_point(p)
        e = self.graph.edge(p.edge)
        out = np.minimum(
            self.vertex_sample_dist[self.vertex_index[e.u]] + p.offset,
            self.vertex_sample_dist[self.vertex_index[e.v]] + (e.length - p.offset))
        idx = self.edge_samples[p.edge]
        offs = self.edge_offsets[p.edge]
        np.minimum.at(out, idx, np.abs(offs - p.offset))
        return out

    def distances_to_intervals(self, intervals) -> np.ndarray:
        """Exact distance from every sample to a union of edge sub-intervals.

        `intervals` holds (edge id, lo, hi) with 0 <= lo <= hi <= length.
        """
        out = np.full(self.n, np.inf)
        for eid, lo, hi in intervals:
            e = self.graph.edge(eid)
            np.minimum(out, self.vertex_sample_dist[self.vertex_index[e.u]] + lo,
                       out=out)
            np.minimum(out, self.vertex_sample_dist[self.vertex_index[e.v]]
                       + (e.length - hi), out=out)
            idx = self.edge_samples[eid]
            offs = self.edge_offsets[eid]
            direct = np.maximum(0.0, np.maximum(lo - offs, offs - hi))
            np.minimum.at(out, idx, direct)
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
    return build_graph(vertices, edges)


def save_graph(g: MetricGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh, indent=2)
        fh.write("\n")


def load_graph(path) -> MetricGraph:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphValidationError(f"invalid JSON in {path}: {exc}") from exc
    return graph_from_dict(data)
