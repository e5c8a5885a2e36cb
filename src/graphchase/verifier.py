"""Resolution-bounded verification of pursuit trajectories.

Given a cop trajectory, decide whether every speed-1 evader is forced within
capture radius eps by propagating the evader's surviving positions over a
space-time grid.  The grid game is exact: evader steps use true intrinsic
distances between samples, and the cop's swept region per time step is
computed analytically from the trajectory's runs, so the only
discretizations are the sample spacing and the time step `tau`: the cop's
duration cut into whole steps, each at least the largest spacing long.

Every verdict is decided by a boolean game over which samples are alive,
which needs only the grid cells within the capture radius of the cop.  On
a survival that wants a witness, a maximin game then propagates each
sample's best clearance so far, and the verifier extracts an explicit
evader trajectory that maximizes its minimum grid clearance and recomputes
that trajectory's true continuous-time clearance against the cop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (GEOM_TOL, DiscretizedGraph, RowLayout, discretize,
                    max_spacing, sample_count)
from .trajectory import (JSONTee, PieceTable, TimedPath, clip_pieces,
                         min_clearance, path_pieces, path_to_dict, write_json)

REACH_SLACK = 1e-12
MAX_SAMPLES = 10 ** 6   # grid size limit: about 240 bytes per sample
MAX_STEPS = 10 ** 6     # step count limit: duration / spacing
MAX_TABLE_CELLS = 10 ** 7   # vertex-to-sample table limit: 80 MB
SWEEP_STEPS = 256       # steps per swept_block call
CHUNK_FLOATS = 16384    # clearance values filled per chunk: 128 KB


class ParameterError(ValueError):
    """Raised when resolution parameters are not finite, the resolution is
    not positive, the grid spacing is not above 1e3 * GEOM_TOL (absolute
    tolerances would decide finer grids), the capture radius violates the
    soundness floor, or they ask for a grid above MAX_SAMPLES samples, a
    vertex-to-sample table above MAX_TABLE_CELLS cells or more than
    MAX_STEPS steps."""


class SizeLimitError(ValueError):
    """Raised when an instance is too large for exhaustive enumeration."""


class GameMismatchError(RuntimeError):
    """Raised when the maximin game captures where the boolean game found a
    survival.  Both games decide the same grid game, so this is an internal
    error, never a verdict."""


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
    is one `(junction_src, junction_dst)` entry, in slots.  `guards` lists
    the guard slots in order, and `window` holds the 2 * width + 1 shifted
    views of a scratch row with `width` -inf slots on either side, the
    middle one the slots themselves; the scratch makes a ReachStructure
    serve one propagation at a time.
    """

    src: np.ndarray
    starts: np.ndarray
    slot: np.ndarray
    n_slots: int
    width: int
    guards: np.ndarray
    window: tuple
    junction_src: np.ndarray
    junction_dst: np.ndarray


def build_reach(grid: DiscretizedGraph, radius: float) -> ReachStructure:
    """Pairs of samples at intrinsic distance <= radius.

    The predecessors of sample q are the samples within radius of its
    point, `grid.points[q]`, taken as a zero-length interval on its edge:
    `cells_within` row q, the cells where `grid.distances_to_point` of
    that point is at most radius.  The band half-width is the largest k
    up to every interior edge's `floor(radius / spacing)` for which each
    pair of one block at most k samples apart is a CSR pair; pairs
    farther apart, between blocks or with a vertex go to the junction
    list.
    """
    n, x = grid.n, grid.sample_offset
    dst, src = grid.cells_within(np.arange(n), grid.sample_edge, x, x, radius)
    starts = np.searchsorted(dst, np.arange(n + 1), side="left")

    # group of each sample: its own for a vertex, its block's for the rest
    n_vert = grid.vertex_sample_dist.shape[0]
    blocks = grid.edge_intervals > 1        # edges with interior samples
    inner = sorted(grid.edge_inner_start[blocks].tolist())
    head = np.zeros(n, dtype=np.int64)
    head[inner] = 1
    group = np.arange(n)
    group[n_vert:] = n_vert - 1 + np.cumsum(head[n_vert:])
    gap = np.abs(src - dst)
    same = (group[src] == group[dst]) & (src >= n_vert)
    cap = min((math.floor(radius / sp)
               for sp in grid.edge_spacing[blocks].tolist()), default=0)
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
    pad = np.full(n_slots + 2 * width, -np.inf)
    window = tuple(pad[width + d:width + d + n_slots]
                   for d in range(-width, width + 1))
    far = (gap > 0) & ~(same & (gap <= width))
    return ReachStructure(src, starts, slot, n_slots, width,
                          np.flatnonzero(guards), window,
                          slot[src[far]], slot[dst[far]])


# ----------------------------------------------------------------------
# maximin propagation
# ----------------------------------------------------------------------

def propagate_step(score: np.ndarray, clearance: np.ndarray,
                   reach: ReachStructure, *,
                   attains: np.ndarray | None = None) -> np.ndarray:
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

    `attains`, if given, is a bool row that receives a bit per predecessor
    pair: whether its min(score, clearance) equals the target's best before
    the arrival clearance.  Entry `k * n_slots + t` is the pair from slot
    `t + k - width` to slot t; the junction pairs follow, in list order.
    """
    window = reach.window
    val = np.minimum(score, clearance, out=window[reach.width])
    best = np.maximum(window[0], window[-1])
    for shifted in window[1:-1]:
        np.maximum(best, shifted, out=best)
    jval = val[reach.junction_src]
    np.maximum.at(best, reach.junction_dst, jval)
    if attains is not None:
        n = reach.n_slots
        for k, shifted in enumerate(window):
            np.equal(shifted, best, out=attains[k * n:(k + 1) * n])
        np.equal(jval, best[reach.junction_dst], out=attains[len(window) * n:])
    return np.minimum(best, clearance, out=best)


def _alive_rows(reach: ReachStructure):
    """Two zeroed bool rows of `reach.n_slots` slots with `width` False
    slots on either side, each as its 2 * width + 1 shifted views like
    `reach.window`: the middle view is the row itself."""
    w, n = reach.width, reach.n_slots
    pads = (np.zeros(n + 2 * w, dtype=bool) for _ in range(2))
    return [tuple(pad[w + d:w + d + n] for d in range(-w, w + 1))
            for pad in pads]


def _alive_step(src, dst, kill: np.ndarray,
                reach: ReachStructure) -> np.ndarray:
    """One grid step of the alive mask, in slots: `propagate_step`'s
    `score > eps`.

    `src` and `dst` are the views of two rows from `_alive_rows`; the
    middle of `src` is the alive mask, False in the guard slots.  `kill`
    lists the step's dead slots, whose clearance is at most eps, and the
    guard slots.  A target is alive after the step iff it is not dead and
    some predecessor was alive and not dead: `kill` is cleared in `src`,
    the band and the junction list are ORed into the middle of `dst`, and
    `kill` is cleared there (the band sets guards), which is returned.
    """
    w = reach.width
    alive = src[w]
    alive[kill] = False
    out = np.logical_or(src[0], src[-1], out=dst[w])
    for shifted in src[1:-1]:
        out |= shifted
    out[reach.junction_dst[alive[reach.junction_src]]] = True
    out[kill] = False
    return out


def _first_empty_step(grid: DiscretizedGraph, reach: ReachStructure,
                      table: PieceTable, tau: float, n_steps: int,
                      eps: float, start: np.ndarray) -> int | None:
    """The first step after which no sample is alive, or None: the boolean
    game, which decides every verdict of `verify` as the maximin game
    would.

    A sample is alive at step 0 iff `start > eps`, and after step j iff
    its score exceeds eps, which, max and min being monotone, holds iff it
    is outside step j's dead cells (clearance at most eps, from
    `cells_within`) and some predecessor was alive and outside them.  The
    steps run in blocks of SWEEP_STEPS.  An empty mask stays empty, so
    emptiness is tested once per block, and a block that ends empty is
    replayed from its first mask to find the step.
    """
    rows = _alive_rows(reach)
    alive = rows[0][reach.width]
    alive[reach.slot] = start > eps
    for b0 in range(0, n_steps, SWEEP_STEPS):
        b1 = min(b0 + SWEEP_STEPS, n_steps)
        first = alive.copy()
        kills = _dead_slots(grid, reach, table, tau, b0, b1, eps)
        for cells in kills:
            _alive_step(rows[0], rows[1], cells, reach)
            rows.reverse()
        alive = rows[0][reach.width]
        if not alive.any():
            alive[:] = first
            for j, cells in enumerate(kills, b0):
                if not _alive_step(rows[0], rows[1], cells, reach).any():
                    return j
                rows.reverse()
        del kills       # before the next block's cells are made
    return None


def _dead_slots(grid: DiscretizedGraph, reach: ReachStructure,
                table: PieceTable, tau: float, b0: int, b1: int,
                eps: float) -> list:
    """For each step b0 <= j < b1, the slots `_alive_step` clears: the
    cells of step j's swept region within eps, then the guards; views
    into one array."""
    step, edge, lo, hi = swept_block(table, tau, b0, b1)
    row, q = grid.cells_within(step - b0, edge, lo, hi, eps)
    guards = reach.guards
    ends = np.searchsorted(row, np.arange(1, b1 - b0 + 1))
    kill = np.insert(reach.slot[q], np.repeat(ends, len(guards)),
                     np.tile(guards, b1 - b0))
    cuts = (ends + len(guards) * np.arange(1, b1 - b0 + 1)).tolist()
    return [kill[c0:c1] for c0, c1 in zip([0] + cuts, cuts)]


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


def _clearance_rows(grid: DiscretizedGraph, layout: RowLayout,
                    table: PieceTable, tau: float, n_steps: int):
    """Yield the clearance rows of the steps j < n_steps in chunks, in the
    columns of `layout` (the slots, for the maximin game): row j holds
    `grid.distances_to_intervals(swept_intervals(cop, j*tau, (j+1)*tau))`.

    The pieces come from `swept_block` for blocks of about SWEEP_STEPS
    steps, and the rows are filled in chunks of at most CHUNK_FLOATS sample
    values (at least one row) so that a chunk stays in cache.  Every row is
    computed on its own, so it does not depend on the block bounds.
    """
    chunk = max(1, CHUNK_FLOATS // grid.n)
    block = chunk * max(1, SWEEP_STEPS // chunk)
    for b0 in range(0, n_steps, block):
        b1 = min(b0 + block, n_steps)
        step, edge, lo, hi = swept_block(table, tau, b0, b1)
        ends = list(range(b0, b1, chunk)) + [b1]
        cuts = np.searchsorted(step, ends, side="left").tolist()
        for c0, c1, a, b in zip(ends[:-1], ends[1:], cuts[:-1], cuts[1:]):
            yield grid.distances_to_interval_rows(
                c1 - c0, step[a:b] - c0, edge[a:b], lo[a:b], hi[a:b], layout)


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
        """The largest grid spacing, under the name the report and the
        frontier CSV give it; the time step is `tau`, at least this."""
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


def save_report(r: VerifierResult, path: str,
                witness_path: str | None = None) -> None:
    """Write `result_to_dict(r)` to path as `write_json` renders it.

    With witness_path, a survival's witness also goes to that file, byte
    for byte as `save_path` writes it.  The witness is rendered once, into
    both files in the same pass (`JSONTee`).  A capture has no witness and
    writes no witness file.
    """
    doc = result_to_dict(r)
    with open(path, "w", encoding="utf-8") as fh:
        if witness_path is None or doc["witness"] is None:
            write_json(doc, fh)
            return
        with open(witness_path, "w", encoding="utf-8") as wfh:
            doc["witness"] = JSONTee(doc["witness"], wfh)
            write_json(doc, fh)


# ----------------------------------------------------------------------
# the decision procedure
# ----------------------------------------------------------------------

def _resolve_params(cop: TimedPath, h, eps):
    """The grid, h, eps, step count and step length tau of a verification
    of cop: its duration cut into the most whole steps no shorter than the
    grid's `max_spacing` (`_step_grid`).  The resolution must
    be positive, and the sizes and the spacing floor are checked from the
    edge lengths before the grid is built.
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
    spacing = max_spacing(g, h)
    if not spacing > 1e3 * GEOM_TOL:
        raise ParameterError(f"grid spacing {spacing:.4g} is not above "
                             f"the floor of {1e3 * GEOM_TOL:g}")
    n_steps, tau = _step_grid(cop.duration, spacing)
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
    clearance.  The time step is `tau` (see `_resolve_params`).

    The boolean game `_first_empty_step` decides every verdict: it keeps
    only which samples are alive and needs clearances only at the cells
    within eps of the cop.  A capture returns from it, whatever
    `want_witness` says.  Only a survival that wants a witness plays the
    maximin game, once, and backtracks the witness from the bits
    `propagate_step` writes of which predecessors attain each best; if its
    final scores show a capture after all, the games disagree and
    GameMismatchError is raised.
    """
    grid, h, eps, n_steps, tau = _resolve_params(cop, h, eps)

    def result(verdict, caught_at=None, witness=None, clearance=None):
        time_bound = None if caught_at is None else min(caught_at,
                                                        cop.duration)
        return VerifierResult(verdict, time_bound, witness, clearance, h,
                              eps, grid.max_spacing, tau, n_steps, grid.n)

    start = grid.distances_to_point(cop.points[0])
    if start.max() <= eps:
        return result("capture", 0.0)
    reach = build_reach(grid, tau + REACH_SLACK)
    j = _first_empty_step(grid, reach, cop.table, tau, n_steps, eps, start)
    if j is not None:
        return result("capture", (j + 1) * tau)
    if not want_witness:
        return result("survival")
    layout = grid.row_layout(reach.slot, reach.n_slots)
    score = np.full(reach.n_slots, -np.inf)
    score[reach.slot] = start
    n_bits = len(reach.window) * reach.n_slots + len(reach.junction_src)
    table = []      # the packed attains rows of each chunk of steps
    for rows in _clearance_rows(grid, layout, cop.table, tau, n_steps):
        bits = np.empty((len(rows), n_bits), dtype=bool)
        for clr, row in zip(rows, bits):
            score = propagate_step(score, clr, reach, attains=row)
        table.append(np.packbits(bits, axis=1))
    if score.max() <= eps:
        raise GameMismatchError(
            f"the boolean game leaves evaders alive after {n_steps} steps, "
            f"but the maximin game's best final score {score.max()!r} is "
            f"within eps={eps!r}")
    witness = _backtrack_witness(cop, grid, reach, tau, n_steps, table,
                                 score)
    return result("survival", None, witness, min_clearance(cop, witness))


def _backtrack_witness(cop: TimedPath, grid: DiscretizedGraph,
                       reach: ReachStructure, tau: float, n_steps: int,
                       table: list, score: np.ndarray) -> TimedPath:
    """The grid path ending at the best final sample.

    `table` holds the `attains` rows of `propagate_step`, packed, one array
    per chunk of steps in step order, and `score` the final score, in
    slots.  The chunks are popped, so freed, and unpacked from the last.
    Stepping back over step j from sample q picks the first of q's
    predecessors (ascending in the CSR) whose bit in row j is set: the
    lowest-index predecessor attaining q's maximin.  A CSR pair is a band
    pair iff its slot offset equals its sample offset (no guard between)
    and is at most width; the others are the junction list, in CSR order.
    The bits are read one by one through memoryviews, with no numpy call
    per step.  The best final sample is the first in sample order.
    """
    final = score[reach.slot]
    q = int(np.argmax(final))
    idx = [q]
    dst = np.repeat(np.arange(len(reach.starts) - 1), np.diff(reach.starts))
    off = reach.slot[reach.src] - reach.slot[dst]
    bit = (off + reach.width) * reach.n_slots + reach.slot[dst]
    far = (off != reach.src - dst) | (np.abs(off) > reach.width)
    bit[far] = len(reach.window) * reach.n_slots + np.arange(far.sum())
    src, starts, bit = map(memoryview, (reach.src, reach.starts, bit))
    while table:
        bits = memoryview(np.unpackbits(table.pop(), axis=1))
        for k in range(len(bits) - 1, -1, -1):
            i = starts[q]
            while not bits[k, bit[i]]:
                i += 1
            q = src[i]
            idx.append(q)
    idx.reverse()
    g = grid.graph
    points = grid.points_at(idx)
    times = ([j * tau for j in range(n_steps)] + [cop.duration]
             if n_steps else [0.0])
    return TimedPath(g, tuple(times), tuple(points),
                     tuple(g.step_runs(points)), 1.0,
                     {"kind": "witness", "grid_clearance": float(final[idx[-1]])})


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
