"""Resolution-bounded verification of pursuit trajectories.

Given a cop trajectory, decide whether every speed-1 evader is forced within
capture radius eps by propagating the evader's surviving positions over a
space-time grid.  The grid game is exact: evader steps use true intrinsic
distances between samples, and the cop's swept region per time step is
computed analytically from the trajectory's runs, so the only discretization
is the sample spacing, which is also the time step.

On survival the verifier extracts an explicit evader trajectory that
maximizes its minimum grid clearance, then recomputes that trajectory's true
continuous-time clearance against the cop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (GEOM_TOL, DiscretizedGraph, MetricGraph,
                    discretize, max_spacing, sample_count)
from .trajectory import (PieceTable, TimedPath, clip_pieces, min_clearance,
                         path_pieces, path_to_dict, piece_table, write_json)

REACH_SLACK = 1e-12
MAX_SAMPLES = 10 ** 6   # grid size limit: about 240 bytes per sample
MAX_STEPS = 10 ** 6     # step count limit: duration / spacing
MAX_TABLE_CELLS = 10 ** 7   # vertex-to-sample table limit: 80 MB
CHECKPOINTS = 16        # score arrays a propagation keeps for the witness
SWEEP_STEPS = 256       # steps per swept_block call
CHUNK_FLOATS = 16384    # clearance values filled per chunk: 128 KB


class ParameterError(ValueError):
    """Raised when resolution parameters are not finite, the resolution is
    not positive, the capture radius violates the soundness floor, or they
    ask for a grid above MAX_SAMPLES samples, a vertex-to-sample table above
    MAX_TABLE_CELLS cells or more than MAX_STEPS steps."""


class SizeLimitError(ValueError):
    """Raised when an instance is too large for exhaustive enumeration."""


class StateError(RuntimeError):
    """Raised when an operation needs a different verdict than the one found."""


# ----------------------------------------------------------------------
# evader step structure
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReachStructure:
    """All sample pairs within one evader step, and the plan that runs them.

    `src[starts[q] : starts[q + 1]]` lists the samples from which q is
    reachable within one step (always including q itself).  The relation is
    symmetric, so the same arrays serve as successor lists.

    The CSR defines the relation; `propagate_step` runs on scores laid out
    in `n_slots` slots.  Sample q sits in slot `slot[q]`: the vertex
    samples come first, then the interior block of each edge, all in sample
    order, with `width` guard slots after every vertex and every block.  A
    guard always holds -inf.  `width` is the narrowest same-edge window
    among edges with interior samples, so any two samples of one block at
    most `width` slots apart form a CSR pair, and a band of that half-width
    over the slots realizes exactly those pairs.  Every other non-self pair
    is one `(junction_src, junction_dst)` entry, in slots.  `copies` holds
    one (sample slice, slot slice) per vertex list and block, `guards` the
    guard slots in order, and `window`
    the 2 * width + 1 shifted views of a scratch row with `width` -inf
    slots on either side, the middle one the slots themselves; the scratch
    makes a ReachStructure serve one propagation at a time.
    """

    src: np.ndarray
    dst: np.ndarray
    starts: np.ndarray
    slot: np.ndarray
    n_slots: int
    width: int
    copies: tuple
    guards: np.ndarray
    window: tuple
    junction_src: np.ndarray
    junction_dst: np.ndarray

    def predecessors(self, q: int) -> np.ndarray:
        return self.src[self.starts[q]:self.starts[q + 1]]


def build_reach(grid: DiscretizedGraph, radius: float) -> ReachStructure:
    """Pairs of samples at intrinsic distance <= radius.

    Same-edge pairs come from offset windows; cross-edge pairs are routed
    through a vertex, which every cross-edge shortest path must pass.  The
    band half-width is the largest k up to every interior edge's
    `floor(radius / spacing)` for which each pair of one block at most k
    samples apart is a CSR pair; pairs farther apart, between blocks or
    with a vertex go to the junction list.
    """
    n = grid.n
    pair_keys = [np.arange(n, dtype=np.int64) * (n + 1)]  # self loops: dst*n+src
    for rec in grid.edges:
        idx, offs = rec.index, rec.offsets
        lo = np.searchsorted(offs, offs - radius, side="left")
        hi = np.searchsorted(offs, offs + radius, side="right")
        dsts = np.repeat(idx, hi - lo)
        srcs = np.concatenate([idx[a:b] for a, b in zip(lo, hi)])
        pair_keys.append(dsts * n + srcs)
    for vi in range(grid.vertex_sample_dist.shape[0]):
        row = grid.vertex_sample_dist[vi]
        near = np.nonzero(row <= radius)[0]
        if len(near) == 0:
            continue
        d = row[near]
        ok = d[:, None] + d[None, :] <= radius
        ii, jj = np.nonzero(ok)
        pair_keys.append(near[ii] * n + near[jj])
    keys = np.unique(np.concatenate(pair_keys))
    dst = (keys // n).astype(np.int64)
    src = (keys % n).astype(np.int64)
    starts = np.searchsorted(dst, np.arange(n + 1), side="left")

    # group of each sample: its own for a vertex, its block's for the rest
    n_vert = grid.vertex_sample_dist.shape[0]
    inner = sorted(rec.inner.start for rec in grid.edges
                   if len(rec.index) > 2)
    head = np.zeros(n, dtype=np.int64)
    head[inner] = 1
    group = np.arange(n)
    group[n_vert:] = n_vert - 1 + np.cumsum(head[n_vert:])
    gap = np.abs(src - dst)
    same = (group[src] == group[dst]) & (src >= n_vert)
    cap = min((math.floor(radius / rec.spacing) for rec in grid.edges
               if len(rec.index) > 2), default=0)
    # a block of m samples holds 2 * (m - k) ordered pairs k apart: the
    # band may reach k only if the CSR holds all of them, for every block
    sizes = np.diff(inner + [n])
    found = np.bincount(gap[same], minlength=cap + 1)[1:cap + 1]
    whole = [2 * int(np.maximum(sizes - k, 0).sum())
             for k in range(1, cap + 1)]
    short = np.flatnonzero(found != whole)
    width = int(short[0]) if len(short) else cap

    slot = np.arange(n) + width * group
    n_slots = n + width * (n_vert + len(inner))
    guards = np.ones(n_slots, dtype=bool)
    guards[slot] = False
    copies = [(slice(0, n_vert), slice(0, n_vert * (width + 1), width + 1))]
    copies += [(slice(a, b), slice(a + width * g, b + width * g))
               for g, (a, b) in enumerate(zip(inner, inner[1:] + [n]),
                                          n_vert)]
    pad = np.full(n_slots + 2 * width, -np.inf)
    window = tuple(pad[width + d:width + d + n_slots]
                   for d in range(-width, width + 1))
    far = (gap > 0) & ~(same & (gap <= width))
    return ReachStructure(src, dst, starts, slot, n_slots, width,
                          tuple(copies), np.flatnonzero(guards), window,
                          slot[src[far]], slot[dst[far]])


# ----------------------------------------------------------------------
# maximin propagation
# ----------------------------------------------------------------------

def propagate_step(score: np.ndarray, clearance: np.ndarray,
                   reach: ReachStructure) -> np.ndarray:
    """One grid step of the surviving evader positions, in slots.

    `score[slot[q]]` is the largest clearance an evader reaching sample q
    alive can have kept so far, checked at both endpoints of every step
    against that step's swept cop region; q survives iff its score exceeds
    eps.  The start score is the distance to the cop's start point.  The
    new score of a target is min(arrival clearance, best over predecessors
    of min(their score, their departure clearance)).  Guard slots hold
    -inf in score and clearance, and so in the result.

    The maximum over predecessors runs as 2 * width unmasked `np.maximum`
    calls over shifted views of the whole slot row, the band, plus one
    `np.maximum.at` over the junction list; max and min are exact, so the
    result does not depend on the pair order.
    """
    window = reach.window
    val = np.minimum(score, clearance, out=window[reach.width])
    best = np.maximum(window[0], window[-1])
    for shifted in window[1:-1]:
        np.maximum(best, shifted, out=best)
    np.maximum.at(best, reach.junction_dst, val[reach.junction_src])
    return np.minimum(best, clearance, out=best)


def swept_intervals(cop: TimedPath, t0: float, t1: float):
    """The cop's covered (edge, lo, hi) intervals during [t0, t1]."""
    return [(eid, min(xa, xb), max(xa, xb))
            for _, _, eid, xa, xb in path_pieces(cop, t0, t1)]


def swept_block(table: PieceTable, tau: float, j0: int, j1: int):
    """The intervals `swept_intervals` gives for the steps j0 <= j < j1.

    Step j spans [j * tau, min((j + 1) * tau, duration)] and must start
    before the path ends, as every step of `verify` does.  Returns flat
    arrays (step, edge index, lo, hi), one entry per piece of
    `clip_pieces` over the step bounds, ordered by run of the piece table
    and so by step.
    """
    bounds = np.arange(j0, j1 + 1, dtype=float) * tau
    step, _, _, edge, xa, xb = clip_pieces(table, bounds)
    return step + j0, edge, np.minimum(xa, xb), np.maximum(xa, xb)


def _to_slots(reach: ReachStructure, values: np.ndarray) -> np.ndarray:
    """values, indexed by sample along the last axis, laid out in slots,
    with -inf in the guard slots: one slice copy per vertex list and
    block."""
    out = np.empty(values.shape[:-1] + (reach.n_slots,))
    out[..., reach.guards] = -np.inf
    for samples, slots in reach.copies:
        out[..., slots] = values[..., samples]
    return out


def _clearance_rows(grid: DiscretizedGraph, reach: ReachStructure,
                    table: PieceTable, tau: float, j0: int, j1: int):
    """Yield (first step, rows) chunks of the clearance rows of the steps
    j0 <= j < j1, in slots: row j laid out by `_to_slots` is
    `grid.distances_to_intervals(swept_intervals(cop, j*tau, (j+1)*tau))`.

    The pieces come from `swept_block` for blocks of about SWEEP_STEPS
    steps, and the rows are filled in chunks of at most CHUNK_FLOATS sample
    values (at least one row) so that a chunk stays in cache.  Every row is
    computed on its own, so it does not depend on j0 or the block bounds.
    """
    chunk = max(1, CHUNK_FLOATS // grid.n)
    block = chunk * max(1, SWEEP_STEPS // chunk)
    for b0 in range(j0, j1, block):
        b1 = min(b0 + block, j1)
        step, edge, lo, hi = swept_block(table, tau, b0, b1)
        ends = list(range(b0, b1, chunk)) + [b1]
        cuts = np.searchsorted(step, ends, side="left").tolist()
        for c0, c1, a, b in zip(ends[:-1], ends[1:], cuts[:-1], cuts[1:]):
            yield c0, _to_slots(reach, grid.distances_to_interval_rows(
                c1 - c0, step[a:b] - c0, edge[a:b], lo[a:b], hi[a:b]))


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

@dataclass
class VerifierResult:
    verdict: str                      # "capture" or "survival"
    time_bound: float | None          # capture: all evaders within eps by here
    witness: TimedPath | None         # survival: explicit evading trajectory
    min_clearance: float | None       # witness's true continuous clearance
    h: float
    eps: float
    spacing: float
    tau: float
    n_steps: int
    n_samples: int

    @property
    def dt(self) -> float:
        """The time step: always the grid spacing."""
        return self.spacing

    @property
    def captured(self) -> bool:
        return self.verdict == "capture"


def result_to_dict(r: VerifierResult) -> dict:
    return {
        "verdict": r.verdict,
        "time_bound": r.time_bound,
        "params": {"h": r.h, "dt": r.dt, "eps": r.eps, "spacing": r.spacing,
                   "tau": r.tau, "steps": r.n_steps, "samples": r.n_samples},
        "witness": None if r.witness is None else path_to_dict(r.witness),
        "min_clearance": r.min_clearance,
    }


def save_report(r: VerifierResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json(result_to_dict(r), fh)


# ----------------------------------------------------------------------
# the decision procedure
# ----------------------------------------------------------------------

def _resolve_params(cop: TimedPath, h, eps):
    """The grid, h, eps, step count and step length of a verification of
    cop, whose time step is the grid's `max_spacing`.  The resolution must
    be positive, and the sizes are checked from the edge lengths before the
    grid is built.
    """
    g = cop.graph
    for name, x in (("resolution", h), ("capture radius", eps)):
        if x is not None and not math.isfinite(float(x)):
            raise ParameterError(f"{name} must be finite, got {x}")
    h = g.min_edge_length / 50 if h is None else float(h)
    if h <= 0:
        raise ParameterError(f"resolution must be positive, got {h}")
    samples = sample_count(g, h)
    if samples > MAX_SAMPLES:
        raise ParameterError(
            f"resolution {h} asks for {samples:.4g} grid samples, above "
            f"the limit of {MAX_SAMPLES}")
    if len(g.vertices) * samples > MAX_TABLE_CELLS:
        raise ParameterError(
            f"resolution {h} asks for a vertex-to-sample table of "
            f"{len(g.vertices)} x {samples:.4g} cells, above the limit "
            f"of {MAX_TABLE_CELLS}")
    n_steps, tau = _step_grid(cop.duration, max_spacing(g, h))
    grid = discretize(g, h)
    sp = grid.max_spacing
    eps = 2 * sp if eps is None else float(eps)
    if eps <= sp:
        raise ParameterError(
            f"capture radius {eps} is below the soundness floor: it must "
            f"exceed the sample spacing {sp}")
    return grid, h, eps, n_steps, tau


def _step_grid(duration: float, spacing: float) -> tuple[int, float]:
    """The step count and step length of a path of this duration."""
    if duration <= 0:
        return 0, 0.0
    steps = duration / spacing  # a float: an infinite quotient is refused
    if steps > MAX_STEPS:
        raise ParameterError(
            f"grid spacing {spacing:.4g} asks for {steps:.4g} steps over "
            f"duration {duration:g}, above the limit of {MAX_STEPS}")
    n = max(1, int(math.floor(steps + 1e-9)))
    return n, duration / n


def verify(cop: TimedPath, h: float | None = None, eps: float | None = None,
           want_witness: bool = True) -> VerifierResult:
    """Decide eps-capture of every speed-1 evader against the cop trajectory.

    Capture means: by the reported time bound, every evader trajectory of
    speed at most 1 (on the grid) has come within eps of the cop.  Survival
    returns a witness trajectory together with its recomputed continuous
    clearance.  The time step is the grid's sample spacing.

    The capture test runs once per clearance chunk: the largest score
    never rises from one step to the next, since each new score is a min
    of a max over old scores, so when the chunk's last score passes, the
    first capturing step is the first of the chunk's scores that passes.

    The propagation keeps the score array of every `every`-th step as a
    checkpoint, starting with every step; when more than CHECKPOINTS are
    kept, `every` doubles and every other checkpoint is dropped, so a run
    holds at most CHECKPOINTS + 1 score arrays and nothing per step.  The
    witness is backtracked by replaying the steps between checkpoints.
    """
    grid, h, eps, n_steps, tau = _resolve_params(cop, h, eps)
    table = piece_table(cop)

    def result(verdict, caught_at=None, witness=None, clearance=None):
        time_bound = None if caught_at is None else min(caught_at,
                                                        cop.duration)
        return VerifierResult(verdict, time_bound, witness, clearance, h,
                              eps, grid.max_spacing, tau, n_steps, grid.n)

    score = grid.distances_to_point(cop.points[0])
    if score.max() <= eps:
        return result("capture", 0.0)
    reach = build_reach(grid, tau + REACH_SLACK)
    score = _to_slots(reach, score)
    checkpoints, every = [], 1      # (step j, score before step j)
    for j0, rows in _clearance_rows(grid, reach, table, tau, 0, n_steps):
        kept = []
        for j, clr in enumerate(rows, j0):
            if j % every == 0:
                checkpoints.append((j, score))
                if len(checkpoints) > CHECKPOINTS:
                    checkpoints, every = checkpoints[::2], 2 * every
            score = propagate_step(score, clr, reach)
            kept.append(score)
        if score.max() <= eps:
            k = next(k for k, s in enumerate(kept) if s.max() <= eps)
            return result("capture", (j0 + k + 1) * tau)
    if not want_witness:
        return result("survival")
    witness = _backtrack_witness(cop, grid, reach, table, tau, n_steps,
                                 checkpoints, score)
    return result("survival", None, witness, min_clearance(cop, witness))


def _backtrack_witness(cop: TimedPath, grid: DiscretizedGraph,
                       reach: ReachStructure, table: PieceTable, tau: float,
                       n_steps: int, checkpoints,
                       score: np.ndarray) -> TimedPath:
    """The grid path ending at the best final sample.

    `checkpoints` holds (step j, score before step j) in step order, the
    first at step 0, and `score` is the score after the last step, all in
    slots.  The segments between checkpoints are replayed from the last:
    each from its checkpoint with `propagate_step`, then stepped back.
    Stepping back over step j from sample q picks the first of q's
    predecessors (ascending in the CSR) that maximizes min(score,
    clearance) at step j: the lowest-index predecessor attaining q's
    maximin.  The best final sample is the first in sample order.
    """
    final = score[reach.slot]
    idx = [int(np.argmax(final))]
    stops = [j for j, _ in checkpoints[1:]] + [n_steps]
    for (j0, s), j1 in reversed(list(zip(checkpoints, stops))):
        vals = []
        for _, rows in _clearance_rows(grid, reach, table, tau, j0, j1):
            for clr in rows:
                vals.append(np.minimum(s, clr))
                if len(vals) < j1 - j0:
                    s = propagate_step(s, clr, reach)
        for val in reversed(vals):
            preds = reach.predecessors(idx[-1])
            idx.append(int(preds[np.argmax(val[reach.slot[preds]])]))
    idx.reverse()
    g = grid.graph
    points = [grid.points[i] for i in idx]
    times = ([j * tau for j in range(n_steps)] + [cop.duration]
             if n_steps else [0.0])
    return TimedPath(g, tuple(times), tuple(points),
                     tuple(_step_routes(g, points)), 1.0,
                     {"kind": "witness", "grid_clearance": float(final[idx[-1]])})


def _step_routes(g: MetricGraph, points) -> list:
    """The runs of `g.route(a, b)` for each step a -> b of the points.

    A step within one edge whose direct run is no longer than each way
    through the edge's endpoints, compared as route compares them, gets
    the direct run that route's stable sort picks (none if it is at most
    GEOM_TOL long, as route drops it); only the other steps call route.
    """
    e = np.array([g.edge_index(q.edge) for q in points], dtype=np.int64)
    x = np.array([q.offset for q in points])
    eu, ev, length = g.edge_table
    vv = g.vertex_distance_matrix
    ea, eb, xa, xb = e[:-1], e[1:], x[:-1], x[1:]
    direct = np.abs(xa - xb)
    short = ea == eb
    for ua, da in ((eu[ea], xa), (ev[ea], length[ea] - xa)):
        for ub, db in ((eu[eb], xb), (ev[eb], length[eb] - xb)):
            short &= direct <= da + vv[ua, ub] + db
    routes = []
    for a, b, ok, moves in zip(points[:-1], points[1:], short.tolist(),
                               (direct > GEOM_TOL).tolist()):
        if not ok:
            routes.append(g.route(a, b)[1])
        elif moves:
            routes.append(((a.edge, a.offset, b.offset),))
        else:
            routes.append(())
    return routes


def extract_witness(result: VerifierResult) -> TimedPath:
    """The survival witness of a verification, or a state error on capture."""
    if result.verdict != "survival":
        raise StateError("no witness: the trajectory captures every evader")
    if result.witness is None:
        raise StateError("verification was run without witness extraction")
    return result.witness


def min_capture_time(cop: TimedPath, h: float | None = None,
                     eps: float | None = None) -> float:
    """Earliest grid time at which no evader position survives."""
    r = verify(cop, h, eps, want_witness=False)
    if not r.captured:
        raise StateError("trajectory does not capture at this resolution")
    return r.time_bound


def continuous_clearance(cop: TimedPath, evader: TimedPath) -> float:
    """Exact minimum distance between the two trajectories over their overlap."""
    return min_clearance(cop, evader)


# ----------------------------------------------------------------------
# exhaustive oracle for small instances
# ----------------------------------------------------------------------

ORACLE_MAX_SAMPLES = 12
ORACLE_MAX_STEPS = 12


def brute_force_oracle(cop: TimedPath, h: float | None = None,
                       eps: float | None = None) -> VerifierResult:
    """Decide the same grid game by per-state recursion over all step plans.

    Independent of the vectorized propagation, of `build_reach` and of the
    block clearance: liveness of (step, sample) is computed by memoized
    recursion over predecessor lists read from each sample's exact
    distances to all others, against clearances computed one step at a
    time with `swept_intervals` and `distances_to_intervals`.  Refuses
    instances beyond ORACLE_MAX_SAMPLES samples or ORACLE_MAX_STEPS steps.
    """
    grid, h, eps, n_steps, tau = _resolve_params(cop, h, eps)
    if grid.n > ORACLE_MAX_SAMPLES:
        raise SizeLimitError(
            f"{grid.n} samples exceed the oracle limit {ORACLE_MAX_SAMPLES}")
    if n_steps > ORACLE_MAX_STEPS:
        raise SizeLimitError(
            f"{n_steps} steps exceed the oracle limit {ORACLE_MAX_STEPS}")
    init = grid.distances_to_point(cop.points[0])
    clearances = [grid.distances_to_intervals(
        swept_intervals(cop, j * tau, (j + 1) * tau)) for j in range(n_steps)]
    preds = [np.nonzero(grid.distances_to_point(grid.points[q])
                        <= tau + REACH_SLACK)[0] for q in range(grid.n)]

    alive: dict[tuple[int, int], bool] = {}

    def is_alive(j: int, q: int) -> bool:
        key = (j, q)
        if key in alive:
            return alive[key]
        if j == 0:
            out = init[q] > eps
        else:
            clr = clearances[j - 1]
            out = False
            if clr[q] > eps:
                for p in preds[q]:
                    if clr[p] > eps and is_alive(j - 1, int(p)):
                        out = True
                        break
        alive[key] = out
        return out

    time_bound = None
    for j in range(n_steps + 1):
        if not any(is_alive(j, q) for q in range(grid.n)):
            time_bound = j * tau
            break
    if time_bound is not None:
        time_bound = min(time_bound, cop.duration)
    return VerifierResult("survival" if time_bound is None else "capture",
                          time_bound, None, None, h, eps, grid.max_spacing,
                          tau, n_steps, grid.n)
