"""Resolution-bounded verification of pursuit trajectories.

Given a cop trajectory, decide whether every speed-1 evader is forced within
capture radius eps by propagating the evader's surviving positions over a
space-time grid.  The grid game is exact: evader steps use true intrinsic
distances between samples, and the cop's swept region per time step is
computed analytically from the trajectory's runs, so the only
discretizations are the sample spacing and the time step `tau`: the cop's
duration cut into whole steps, each at least the largest spacing long, or
one step when the duration is shorter.

Every verdict, a capture at time 0 included, is decided by a boolean game over
which samples are alive from the start on.  It needs only the runs of grid
cells within eps of the cop: its alive mask and each step's dead cells are
Python ints with a bit per slot, and a step is a few whole-int shifts, ORs and
ANDs.  On a survival that wants a witness, a maximin game then propagates each
sample's best clearance so far a chunk of steps at a time, and the verifier
extracts an explicit evader trajectory that maximizes its minimum grid
clearance and recomputes its true continuous-time clearance against the cop.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .graph import (GEOM_TOL, DiscretizedGraph, MetricGraph, RowLayout,
                    _flat_ranges, discretize, interval_count)
from .trajectory import (PieceTable, TimedPath, clip_pieces, min_clearance,
                         path_chunks, path_pieces, path_to_dict)

REACH_SLACK = 1e-12
MAX_SAMPLES = 10 ** 6   # grid size limit: about 240 bytes per sample
MAX_STEPS = 10 ** 6     # step count limit: duration / spacing
MAX_TABLE_CELLS = 10 ** 7   # vertex-to-sample table limit: 80 MB
SWEEP_STEPS = 1024      # steps per swept block
CHUNK_FLOATS = 16384    # clearance values filled per chunk: 128 KB


class ParameterError(ValueError):
    """Raised when `resolution` refuses the resolution parameters, or they
    ask for more than MAX_STEPS steps."""


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
    is one `(junction_src, junction_dst)` entry, in slots, in CSR order.
    `bit[i]` is CSR pair i's column in a step's packed witness row:
    `(slot[src] - slot[dst] + width) * n_slots + slot[dst]` for a band
    pair, `(2 * width + 1) * n_slots + j` for junction entry j.  It holds
    no scratch, so any number of propagations may use it at once.
    """

    src: np.ndarray
    starts: np.ndarray
    slot: np.ndarray
    n_slots: int
    width: int
    junction_src: np.ndarray
    junction_dst: np.ndarray
    bit: np.ndarray


def build_reach(grid: DiscretizedGraph, radius: float) -> ReachStructure:
    """Pairs of samples at intrinsic distance <= radius.

    The predecessors of sample q are the samples within radius of its
    point, `grid.points[q]`, taken as a zero-length interval on its edge:
    the cells of `runs_within` row q, where `grid.distances_to_point` of
    that point is at most radius.  The band half-width is the largest k
    up to every interior edge's `floor(radius / spacing)` for which each
    pair of one block at most k samples apart is a CSR pair; pairs
    farther apart, between blocks or with a vertex go to the junction
    list.
    """
    n, x = grid.n, grid.sample_offset
    row, first, count = grid.runs_within(np.arange(n), grid.sample_edge, x,
                                         x, radius)
    i, q = _flat_ranges(first, first + count)
    keys = np.sort(row[i] * n + q)
    dst, src = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
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
    far = (gap > 0) & ~(same & (gap <= width))
    bit = (slot[src] - slot[dst] + width) * n_slots + slot[dst]
    bit[far] = (2 * width + 1) * n_slots + np.arange(np.count_nonzero(far))
    return ReachStructure(src, starts, slot, n_slots, width,
                          slot[src[far]], slot[dst[far]], bit)


# ----------------------------------------------------------------------
# maximin propagation
# ----------------------------------------------------------------------

def propagate_step(row: tuple, best: np.ndarray,
                   reach: ReachStructure) -> None:
    """Write into `best` each slot's best over its predecessors for one step.

    A sample's value in a step is min(score, clearance): its score, the
    largest clearance an evader reaching it alive can have kept so far,
    cut to the step's clearance.  `row` holds the 2 * width + 1 shifted
    views of one value row padded with `width` -inf slots on either side:
    view k holds at t the value of slot t + k - width.  A guard slot's
    best is left to the clearance, -inf there, to cut.  The band is 2 *
    width unmasked `np.maximum` calls over the views, the junction list
    one `np.maximum.at`; max is exact, so the pair order does not matter.
    """
    np.maximum(row[0], row[-1], out=best)
    for shifted in row[1:-1]:
        np.maximum(best, shifted, out=best)
    jval = row[reach.width][reach.junction_src]
    np.maximum.at(best, reach.junction_dst, jval)


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


def _swept_blocks(table: PieceTable, tau: float, n_steps: int):
    """Yield (j0, j1, `swept_block(table, tau, j0, j1)`) for blocks of
    SWEEP_STEPS steps j < n_steps, the last possibly shorter: both games
    read the cop's pieces block by block."""
    for j0 in range(0, n_steps, SWEEP_STEPS):
        j1 = min(j0 + SWEEP_STEPS, n_steps)
        yield j0, j1, swept_block(table, tau, j0, j1)


def _bits(row: np.ndarray) -> int:
    """A bool row as an int with bit i set iff row[i] is."""
    return int.from_bytes(np.packbits(row, bitorder="little"), "little")


def _alive_masks(grid: DiscretizedGraph, reach: ReachStructure,
                 table: PieceTable, tau: float, n_steps: int, eps: float,
                 start: np.ndarray):
    """Yield the alive mask, one bit per slot, after i = 0 .. n_steps
    steps: the boolean game, which decides every verdict as the maximin
    game would.  A slot is alive at the start iff its `start` score, in
    slots, exceeds eps, and after step j iff its score does, which, max and
    min being monotone, holds iff it is kept, neither a guard nor in step
    j's dead runs (`runs_within`), and some predecessor was alive and kept.
    The mask is cut to the kept slots, ORed with its shifts over the band
    and with the junction targets of its alive sources (ORed by source
    when those change), and cut again."""
    groups = {}
    for s, t in zip(reach.junction_src.tolist(), reach.junction_dst.tolist()):
        groups[1 << s] = groups.get(1 << s, 0) | 1 << t
    sources = sum(groups)       # the keys are distinct bits
    full, alive = _bits(start > -np.inf), _bits(start > eps)   # guards: -inf
    seen = jump = 0
    yield alive
    for j0, j1, (step, edge, lo, hi) in _swept_blocks(table, tau, n_steps):
        row, first, count = grid.runs_within(step - j0, edge, lo, hi, eps)
        order = np.argsort(row, kind="stable")
        runs = zip(reach.slot[first[order]].tolist(), count[order].tolist())
        for k in np.bincount(row, minlength=j1 - j0).tolist():
            dead = 0
            for s, c in islice(runs, k):
                dead |= ((1 << c) - 1) << s
            keep = full ^ dead
            alive &= keep
            out = alive
            for d in range(1, reach.width + 1):
                out |= (alive << d) | (alive >> d)
            if alive & sources != seen:
                seen, jump = alive & sources, 0
                for bit, targets in groups.items():
                    if seen & bit:
                        jump |= targets
            alive = (out | jump) & keep
            yield alive


def _clearance_rows(grid: DiscretizedGraph, layout: RowLayout,
                    table: PieceTable, tau: float, n_steps: int):
    """Yield the clearance rows of the steps j < n_steps in chunks, in the
    columns of `layout` (the slots, for the maximin game): row j holds
    `grid.distances_to_intervals(swept_intervals(cop, j*tau, (j+1)*tau))`.

    The pieces come from `_swept_blocks`, and each block's rows are filled
    in chunks of at most CHUNK_FLOATS sample values (at least one row) so
    that a chunk stays in cache.  Every row is computed on its own, so it
    does not depend on the block or chunk bounds.
    """
    chunk = max(1, CHUNK_FLOATS // grid.n)
    for j0, j1, (step, edge, lo, hi) in _swept_blocks(table, tau, n_steps):
        ends = list(range(j0, j1, chunk)) + [j1]
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
    def captured(self) -> bool:
        return self.verdict == "capture"


def result_to_dict(r: VerifierResult) -> dict:
    return {
        "verdict": r.verdict,
        "time_bound": r.time_bound,
        "params": {"h": r.h, "eps": r.eps, "spacing": r.spacing,
                   "tau": r.tau, "steps": r.n_steps, "samples": r.n_samples},
        "witness": None if r.witness is None else path_to_dict(r.witness),
        "min_clearance": r.min_clearance,
    }


def save_report(r: VerifierResult, path: str,
                witness_path: str | None = None) -> None:
    """Write `result_to_dict(r)` to path as `json.dumps(doc, indent=2,
    sort_keys=True)` and a newline would.

    json.dumps renders every field but the witness.  A survival's witness,
    under "witness", the key that sorts last, is streamed from
    `path_chunks` without building its document.  With witness_path, each
    piece also goes to that file as is, so it holds the witness byte for
    byte as `save_path` writes it.  A capture has no witness and writes no
    witness file.
    """
    head = json.dumps(result_to_dict(replace(r, witness=None)), indent=2,
                      sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        if r.witness is None:
            fh.write(head + "\n")
            return
        # "witness", the key that sorts last, ends the head as null
        fh.write(head[:-len("null\n}")])
        chunks = path_chunks(r.witness)
        if witness_path is None:
            fh.writelines(chunk.replace("\n", "\n  ") for chunk in chunks)
        else:
            with open(witness_path, "w", encoding="utf-8") as wfh:
                for chunk in chunks:
                    wfh.write(chunk)
                    fh.write(chunk.replace("\n", "\n  "))
                wfh.write("\n")
        fh.write("\n}\n")


# ----------------------------------------------------------------------
# the decision procedure
# ----------------------------------------------------------------------

def resolution(g: MetricGraph, h=None, eps=None):
    """The resolution h, capture radius eps and grid spacing of a
    verification on g: h defaults to the shortest edge / 50 and eps to
    twice the spacing.  From the edge lengths, before any grid is built,
    it refuses a value that is not finite, an h at or below 0, a grid
    above MAX_SAMPLES samples or a vertex-to-sample table above
    MAX_TABLE_CELLS cells, a spacing not above 1e3 * GEOM_TOL (absolute
    tolerances would decide finer grids), and an eps not above the
    spacing (the soundness floor).
    """
    for name, x in (("resolution", h), ("capture radius", eps)):
        if x is not None and not math.isfinite(float(x)):
            raise ParameterError(f"{name} must be finite, got {x}")
    h = g.min_edge_length / 50 if h is None else float(h)
    if h <= 0:
        raise ParameterError(f"resolution must be positive, got {h}")
    try:        # length / h, or the count, may not be a finite float
        pieces = [interval_count(e.length, h) for e in g.edges]
        samples = float(len(g.vertices) + sum(pieces) - len(pieces))
    except OverflowError:
        samples = math.inf
    if samples > MAX_SAMPLES:
        raise ParameterError(
            f"resolution {h} asks for {samples:.4g} grid samples, above "
            f"the limit of {MAX_SAMPLES}")
    if len(g.vertices) * samples > MAX_TABLE_CELLS:
        raise ParameterError(
            f"resolution {h} asks for a vertex-to-sample table of "
            f"{len(g.vertices)} x {samples:.4g} cells, above the limit "
            f"of {MAX_TABLE_CELLS}")
    spacing = max(e.length / n for e, n in zip(g.edges, pieces))
    if not spacing > 1e3 * GEOM_TOL:
        raise ParameterError(f"grid spacing {spacing:.4g} is not above "
                             f"the floor of {1e3 * GEOM_TOL:g}")
    eps = 2 * spacing if eps is None else float(eps)
    if eps <= spacing:
        raise ParameterError(
            f"capture radius {eps} is below the soundness floor: it must "
            f"exceed the sample spacing {spacing}")
    return h, eps, spacing


def _resolve_params(cop: TimedPath, h, eps):
    """The grid, h, eps, step count and step length tau of a verification
    of cop: `resolution`'s values, and `_step_grid` on its spacing."""
    h, eps, spacing = resolution(cop.graph, h, eps)
    n_steps, tau = _step_grid(cop.duration, spacing)
    return discretize(cop.graph, h), h, eps, n_steps, tau


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

    The boolean game `_alive_masks` decides every verdict: its first empty
    alive mask, after i steps, is a capture at i * tau, returned whatever
    `want_witness` says.  Only a survival that wants a witness plays the
    maximin game, once, a chunk of clearance rows (`_clearance_rows`) at a
    time: the steps' values, min(score, clearance), fill a block padded
    with `width` -inf slots, whose shifted row views `propagate_step`
    reads, and each step's best overwrites its clearance row once that is
    used.  After each chunk, one `np.equal` per shift and one over the
    junction list give the bits of which predecessors attain each best,
    packed with `np.packbits`.  The witness is backtracked from them; if the
    final scores show a capture after all, the games disagree and
    GameMismatchError is raised.
    """
    grid, h, eps, n_steps, tau = _resolve_params(cop, h, eps)

    def result(verdict, time_bound=None, witness=None, clearance=None):
        return VerifierResult(verdict, time_bound, witness, clearance, h,
                              eps, grid.max_spacing, tau, n_steps, grid.n)

    reach = build_reach(grid, tau + REACH_SLACK)
    score = np.full(reach.n_slots, -np.inf)
    score[reach.slot] = grid.distances_to_point(cop.points[0])
    alive = _alive_masks(grid, reach, cop.table, tau, n_steps, eps, score)
    j = next((j for j, mask in enumerate(alive) if not mask), None)
    if j is not None:
        return result("capture", min(j * tau, cop.duration))
    if not want_witness:
        return result("survival")
    layout = grid.row_layout(reach.slot, reach.n_slots)
    n, w = reach.n_slots, reach.width
    band, jsrc = (2 * w + 1) * n, w + reach.junction_src
    rows, table = [], []    # the views of the value rows; the packed bits
    for clr in _clearance_rows(grid, layout, cop.table, tau, n_steps):
        m = len(clr)
        if len(rows) <= m:      # grown to the largest chunk so far
            pad = np.full((m + 1, n + 2 * w), -np.inf)
            rows = [tuple(r[k:k + n] for k in range(2 * w + 1)) for r in pad]
            bits = np.empty((m, band + len(jsrc)), dtype=bool)
        vals, out = pad[:m + 1, w:w + n], bits[:m]
        np.minimum(score, clr[0], out=vals[0])  # first: score may be a row
        np.minimum(clr[:-1], clr[1:], out=vals[1:m])
        vals[m] = clr[-1]
        for i, c in enumerate(clr):
            propagate_step(rows[i], c, reach)
            np.minimum(rows[i + 1][w], c, out=rows[i + 1][w])
        score = vals[m]
        for k in range(2 * w + 1):
            np.equal(pad[:m, k:k + n], clr, out=out[:, k * n:(k + 1) * n])
        np.equal(pad[:m, jsrc], clr[:, reach.junction_dst], out=out[:, band:])
        table.append(np.packbits(out, axis=1))
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

    `table` holds the bits `verify` packs, one array per chunk of steps in
    step order, a row per step: bit `reach.bit[i]` says whether CSR pair i
    attains its target's best.  `score` is the final score, in slots.  The
    chunks are popped, so freed, and unpacked from the last.  Stepping back
    over step j from sample q picks the first of q's predecessors
    (ascending in the CSR) whose bit in row j is set: the lowest-index
    predecessor attaining q's maximin.  The bits are read one by one
    through memoryviews, with no numpy call per step.  The best final
    sample is the first in sample order.
    """
    final = score[reach.slot]
    q = int(np.argmax(final))
    idx = [q]
    src, starts, bit = map(memoryview, (reach.src, reach.starts, reach.bit))
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
    times = tuple(j * tau for j in range(n_steps)) + (cop.duration,)
    return TimedPath(g, times, tuple(points),
                     tuple(g.step_runs(points)), 1.0,
                     {"kind": "witness", "grid_clearance": float(final[idx[-1]])})


def continuous_clearance(cop: TimedPath, evader: TimedPath) -> float:
    """Exact minimum distance between the two trajectories over their overlap."""
    return min_clearance(cop, evader)


# ----------------------------------------------------------------------
# the reference oracle: the same game by a plain loop
# ----------------------------------------------------------------------

ORACLE_MAX_CELLS = 10 ** 7     # samples x (samples + steps): about 80 MB


def _oracle_step(score: np.ndarray, clearance: np.ndarray, src: np.ndarray,
                 heads: np.ndarray, dst: np.ndarray):
    """One step of `brute_force_oracle`: the new scores, and each target's
    lowest-index predecessor attaining its maximin.  `src[heads[q]:]`
    lists q's predecessors, ascending, up to the next head; `dst` is the
    target of each entry."""
    cand = np.minimum(score, clearance)[src]
    best = np.maximum.reduceat(cand, heads)
    back = np.minimum.reduceat(np.where(cand == best[dst], src, len(score)),
                               heads)
    return np.minimum(best, clearance), back


def brute_force_oracle(cop: TimedPath, h: float | None = None,
                       eps: float | None = None) -> VerifierResult:
    """Decide the same grid game, and build the same witness, as `verify`,
    by a plain loop over the steps.

    Independent of the slot layout, of `build_reach`, of both games and of
    the block clearance: each sample's predecessors are read from its exact
    distances to all others, and each step's clearance is computed on its
    own with `swept_intervals` and `distances_to_intervals`.  A step is one
    gather and `np.maximum.reduceat` over the predecessor lists
    (`_oracle_step`), then a capture test.  A survival steps back from the
    first best final sample to the lowest-index predecessor attaining each
    maximin, routes every witness step with `MetricGraph.route` and
    measures the witness with `min_clearance`.  Refuses instances of more
    than ORACLE_MAX_CELLS samples x (samples + steps).
    """
    grid, h, eps, n_steps, tau = _resolve_params(cop, h, eps)
    if grid.n * (grid.n + n_steps) > ORACLE_MAX_CELLS:
        raise SizeLimitError(
            f"{grid.n} samples x ({grid.n} samples + {n_steps} steps) "
            f"exceed the oracle limit of {ORACLE_MAX_CELLS} cells")
    preds = [np.flatnonzero(grid.distances_to_point(p) <= tau + REACH_SLACK)
             for p in grid.points]
    sizes = [len(p) for p in preds]
    src, dst = np.concatenate(preds), np.repeat(np.arange(grid.n), sizes)
    heads = np.cumsum([0] + sizes[:-1])
    score, backs = grid.distances_to_point(cop.points[0]), []
    while score.max() > eps and len(backs) < n_steps:
        j = len(backs)
        clr = grid.distances_to_intervals(
            swept_intervals(cop, j * tau, (j + 1) * tau))
        score, back = _oracle_step(score, clr, src, heads, dst)
        backs.append(back)

    def result(verdict, time_bound=None, witness=None):
        return VerifierResult(
            verdict, time_bound, witness,
            None if witness is None else min_clearance(cop, witness), h, eps,
            grid.max_spacing, tau, n_steps, grid.n)

    if score.max() <= eps:
        return result("capture", min(len(backs) * tau, cop.duration))
    idx = [int(np.argmax(score))]
    for back in reversed(backs):
        idx.append(int(back[idx[-1]]))
    g, points = cop.graph, tuple(grid.points[q] for q in reversed(idx))
    times = tuple(j * tau for j in range(n_steps)) + (cop.duration,)
    routes = tuple(g.route(a, b)[1] for a, b in zip(points, points[1:]))
    return result("survival", None, TimedPath(
        g, times, points, routes, 1.0,
        {"kind": "witness", "grid_clearance": float(score[idx[0]])}))
