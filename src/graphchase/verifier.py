"""Resolution-bounded verification of pursuit trajectories.

Given a cop trajectory, decide whether every grid evader is forced within
capture radius eps by propagating the surviving positions over a space-time
grid.  A grid evader sits on a sample at each step time, moves at most tau
of true intrinsic distance to a sample in a step (`tau` cuts the cop's
duration into whole steps at least the largest spacing long), and dies when
the cop's region swept in that step, computed exactly from its runs, comes
within eps of either end of the move.  A capture covers these evaders only:
a continuous unit-speed evader may sit between samples and outrun them
where the spacing is below tau, and the evaders of the four strict xfails
in tests/test_verifier.py are such misses (ROADMAP item 1).

The step relation is the runs of samples within one evader step of each
sample (`build_reach`), and the games play it as a plan read off those
runs: a band of fixed half-width over the slots and a short junction list.
Only a witness backtrack reads the relation as a list of pairs, which is
derived from the runs when first read.

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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .graph import (GEOM_TOL, DiscretizedGraph, GraphPoint, MetricGraph,
                    as_positive, discretize, interval_count)
from .trajectory import (PathColumns, PieceTable, TimedPath, clip_pieces,
                         min_clearance, path_chunks, path_columns,
                         path_pieces, path_to_dict)

REACH_SLACK = 1e-12
MAX_SAMPLES = 10 ** 6   # grid size limit: about 240 bytes per sample
MAX_STEPS = 10 ** 6     # step count limit: duration / spacing
MAX_TABLE_CELLS = 10 ** 7   # vertex-to-sample table limit: 80 MB
SWEEP_STEPS = 1024      # steps per swept block
CHUNK_FLOATS = 16384    # clearance values filled per chunk: 128 KB


class ParameterError(ValueError):
    """Raised when `resolution` refuses the resolution parameters, they ask
    for more than MAX_STEPS steps, or `verify` mixes a board with them."""


class SizeLimitError(ValueError):
    """Raised when an instance is too large for exhaustive enumeration."""


class GameMismatchError(RuntimeError):
    """Raised when the maximin game captures where the boolean game found a
    survival.  Both games decide the same grid game, so this is an internal
    error, never a verdict."""


# ----------------------------------------------------------------------
# evader step structure
# ----------------------------------------------------------------------

class VertexCells(NamedTuple):
    """What `runs_within` needs of a grid at threshold eps, built once per
    board: for each vertex w, the candidates c within eps of w,
    `cand[heads[w]:heads[w + 1]]` in ascending c, and each one's distance
    from w, `base`.  A candidate is a vertex sample (c < n_vert) or, at
    c - n_vert in `ends`, the u end and then the v end of each edge with
    interior samples, at the vertex distance of that end.  Every test
    against eps, here and in `runs_within`, narrows `bounds` if set."""

    grid: DiscretizedGraph
    eps: float
    heads: np.ndarray
    cand: np.ndarray
    base: np.ndarray
    ends: np.ndarray
    bounds: list | None = None


def vertex_cells(grid: DiscretizedGraph, eps: float,
                 bounds: list | None = None) -> VertexCells:
    """The `VertexCells` of grid at eps, narrowing bounds if given."""
    dist, vv = grid.vertex_sample_dist, grid.graph.vertex_distance_matrix
    eu, ev, _ = grid.graph.edge_table
    inner = np.flatnonzero(grid.edge_intervals - 1)
    near = np.hstack([dist[:, :len(dist)], vv[:, eu[inner]],
                      vv[:, ev[inner]]])
    kept = near <= eps
    if bounds is not None:
        _narrow(bounds, near, kept)
    w, cand = np.nonzero(kept)
    heads = np.searchsorted(w, np.arange(len(dist) + 1))
    return VertexCells(grid, eps, heads, cand, near[w, cand],
                       np.tile(inner, 2), bounds)


def _narrow(bounds: list, terms: np.ndarray, kept: np.ndarray) -> None:
    """Narrow bounds, [radius_in, radius_out), to the largest of the terms
    that a test against a radius kept and the smallest it dropped."""
    bounds[0] = max(bounds[0], float(terms[kept].max(initial=-math.inf)))
    bounds[1] = min(bounds[1], float(terms[~kept].min(initial=math.inf)))


def runs_within(cells: VertexCells, rows, edges, lo, hi):
    """The cells at most `cells.eps` of the rows `distances_to_interval_rows`
    fills, in sample order, as runs of consecutive samples: arrays (row,
    first sample, count) in no order, each run non-empty, one vertex
    sample or inside one edge's interior block, runs possibly overlapping.
    An interval's direct term is at most eps on one run of its edge; its
    term through an end vertex w, at a leg of lo or length - hi, on vertex
    samples and, w's distance being the smaller of a term rising from an
    edge's u end and one falling to its v end, on a prefix and a suffix of
    each edge whose end is within eps of w: w's candidates in `cells`,
    which `vertex_cells` builds once per board and threshold.  `_run_ends`
    finds each run's end with the floating-point terms themselves, so the
    runs are exact.  With `cells.bounds`, each test's terms narrow it."""
    grid, eps, n = cells.grid, cells.eps, len(edges)
    n_vert = len(cells.heads) - 1
    eu, ev, length = grid.graph.edge_table
    top = grid.edge_intervals - 1
    # interval ends within eps of a vertex, and each one's candidates
    legs = np.concatenate([lo, length[edges] - hi])
    t = np.flatnonzero(legs <= eps)
    leg, vert = legs[t], np.concatenate([eu[edges], ev[edges]])[t]
    i, j = _flat_ranges(cells.heads[vert], cells.heads[vert + 1])
    base, c = cells.base[j], cells.cand[j]
    on, vrow = c >= n_vert, np.concatenate([rows, rows])[t[i]]
    # walk half runs: each interval's direct term to its last end and
    # from its first (rev), a prefix from a u end, a suffix to a v end
    e = np.concatenate([edges, edges, cells.ends[c[on] - n_vert]])
    rev = np.concatenate([np.arange(2 * n) >= n,
                          c[on] >= n_vert + len(cells.ends) // 2])
    end = _run_ends(eps, top[e], grid.edge_spacing[e], rev,
                    np.concatenate([-hi, np.zeros(n), base[on]]),
                    np.concatenate([lo, lo, length[e[2 * n:]]]),
                    np.concatenate([np.zeros(2 * n), leg[i[on]]]),
                    cells.bounds)
    first = grid.edge_inner_start[e] + np.where(rev, end, 0)
    last = grid.edge_inner_start[e] - 1 + np.where(rev, top[e], end)
    near = base + leg[i]
    ok = ~on & (near <= eps)
    if cells.bounds is not None:    # the leg and vertex-sample tests
        _narrow(cells.bounds, np.concatenate([legs, near[~on]]),
                np.concatenate([legs <= eps, ok[~on]]))
    row = np.concatenate([rows, vrow[on], vrow[ok]])
    first = np.concatenate([first[n:], c[ok]])
    count = np.concatenate([last[:n], last[2 * n:], c[ok]]) - first + 1
    keep = (count > 0) & (eps >= 0)     # no term is below 0
    return row[keep], first[keep], count[keep]


def _run_ends(eps, top, sp, rev, base, start, leg, bounds=None):
    """Each entry's largest p in 0 .. top with (base + along) + leg at most
    eps (above it where rev) at positions 1 .. p, along being p * sp (start
    - p * sp where rev).  The term is monotone in p, as rounding is, so an
    estimate from the offsets is moved one position at a time to p.  The
    terms at p (if p > 0) and p + 1 (if p < top) fix p, and narrow bounds."""
    room = eps - leg - base
    p = np.floor(np.where(rev, start - room, room) / sp)
    p = np.minimum(np.maximum(p, 0), top)   # the estimate, within 0 .. top
    while True:
        x = (p + [[0], [1]]) * sp           # positions p and p + 1
        term = base + np.where(rev, start - x, x) + leg
        here, ahead = (term <= eps) != rev
        up, down = (p < top) & ahead, (p > 0) & ~here
        if not (up.any() or down.any()):
            if bounds is not None:
                fixed = np.stack([p > 0, p < top])
                _narrow(bounds, term[fixed], (term <= eps)[fixed])
            return p.astype(np.int64)
        p = p + up - down


def _flat_ranges(start: np.ndarray, stop: np.ndarray):
    """(i, v) over every v in range(start[i], stop[i]), in order of i,
    then v; stop must not be below start."""
    count = stop - start
    i = np.repeat(np.arange(len(count)), count)
    v = np.repeat(start - np.cumsum(count) + count, count)
    v += np.arange(len(i))
    return i, v


@dataclass
class ReachStructure:
    """All sample pairs within one evader step, and the plan that runs them.

    The runs define the relation: `runs = (row, first, count)`, the cells
    of `runs_within` row q, are the samples from which q is reachable
    within one step (always including q itself).  `propagate_step` and
    `_play` run on scores laid out in `n_slots` slots.  Sample q sits in
    slot `slot[q]`: the vertex samples come first, then the interior
    block of each edge, all in sample order, with `width` guard slots
    after every vertex and every block.  A guard always holds -inf.
    `width` is how far every interior sample's cells cover its own block
    on both sides, at most every interior edge's `floor(radius /
    spacing)`, so any two samples of one block at most `width` slots
    apart are a pair, and a band of that half-width over the slots
    realizes exactly those pairs.  Every other non-self pair is one
    `(junction_src, junction_dst)` entry, in slots, in the order (target,
    source).

    The CSR and the witness bit columns are derived from the runs only
    when first read, as the witness backtrack does (`_reach_pairs`):
    `src[starts[q] : starts[q + 1]]` lists q's predecessors in ascending
    order, and the relation is symmetric, so the same arrays serve as
    successor lists.  `bit[i]` is CSR pair i's column in a step's packed
    witness row: `(slot[src] - slot[dst] + width) * n_slots + slot[dst]`
    for a band pair, `(2 * width + 1) * n_slots + j` for junction entry
    j.  The plan holds no scratch, so any number of propagations may use
    it at once, and a `Board` hands it to every verification whose radius
    lies in the interval `build_reach` noted for it.
    """

    runs: tuple
    slot: np.ndarray
    n_slots: int
    width: int
    junction_src: np.ndarray
    junction_dst: np.ndarray

    @cached_property
    def _csr(self):
        return _reach_pairs(self)

    src = property(lambda self: self._csr[0])
    starts = property(lambda self: self._csr[1])
    bit = property(lambda self: self._csr[2])


def _reach_pairs(reach: ReachStructure):
    """(src, starts, bit) of reach: its runs expanded into sorted unique
    (target, source) cells, and each pair's witness bit column, a band
    pair being one whose slot offset is its sample offset, at most width
    (no guard between)."""
    row, first, count = reach.runs
    slot, w, n_slots = reach.slot, reach.width, reach.n_slots
    n = len(slot)
    dst, src = _cells(row, first, first + count, n)
    starts = np.searchsorted(dst, np.arange(n + 1), side="left")
    off = slot[src] - slot[dst]
    far = (off != src - dst) | (np.abs(off) > w)
    bit = (off + w) * n_slots + slot[dst]
    bit[far] = (2 * w + 1) * n_slots + np.arange(np.count_nonzero(far))
    return src, starts, bit


def _cells(row, start, stop, n: int):
    """(row, sample) arrays of the cells of the runs, sample start[i] to
    stop[i] - 1 in row[i], sorted and without repeats."""
    i, q = _flat_ranges(start, stop)
    keys = np.sort(row[i] * n + q)
    return np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)


def build_reach(grid: DiscretizedGraph, radius: float,
                bounds: list | None = None) -> ReachStructure:
    """Pairs of samples at intrinsic distance <= radius, and their plan.

    The predecessors of sample q are the samples within radius of its
    point, `grid.points[q]`, taken as a zero-length interval on its edge:
    the cells of `runs_within` row q, where `grid.distances_to_point` of
    that point is at most radius.  The plan is read off those runs.  Each
    interior sample's cells in its own block, the union of its row's runs
    there, form one stretch around it; the band half-width is the least
    distance from a sample to a stretch end short of its block's end, at
    most every interior edge's `floor(radius / spacing)`.  The cells of a
    run outside its row's band, between blocks, with a vertex or farther
    along a block, are the junction list.

    Every comparison with radius narrows bounds, if given as [-inf, inf],
    to [radius_in, radius_out): any radius there with the same `_band_cap`
    makes every comparison, and so the plan, the same.
    """
    n, x = grid.n, grid.sample_offset
    row, first, count = runs_within(vertex_cells(grid, radius, bounds),
                                    np.arange(n), grid.sample_edge, x, x)
    last = first + count - 1

    # group of each sample: its own for a vertex, its block's for the
    # rest, and one past the last sample, a group of its own
    n_vert = grid.vertex_sample_dist.shape[0]
    blocks = grid.edge_intervals > 1        # edges with interior samples
    head = np.zeros(n + 1, dtype=np.int64)
    head[grid.edge_inner_start[blocks]] = head[n] = 1
    group = np.arange(n + 1)
    group[n_vert:] = n_vert - 1 + np.cumsum(head[n_vert:])
    same = group[first] == group[row]       # a vertex's own run, or a block's
    cap = _band_cap(grid, radius)
    # merge each interior row's runs in its block into stretches: the one
    # holding the row's own sample ends the band where it stops short of
    # the block's ends
    own = np.flatnonzero(same & (first >= n_vert))
    key = row[own] * (n + 1)
    at = np.argsort(key + first[own])
    own, key = own[at], key[at]
    # a stretch starts past the last cell of the runs before it in its row
    reached = np.maximum.accumulate(np.append(-2, key + last[own]))[:-1]
    heads = np.flatnonzero(key + first[own] > reached + 1)
    r, start = row[own[heads]], first[own[heads]]
    stop = np.maximum.reduceat(last[own], heads)
    hold, g = (start <= r) & (r <= stop), group[r]
    short = np.minimum(
        np.where(hold & (group[start - 1] == g), r - start, cap),
        np.where(hold & (group[stop + 1] == g), stop - r, cap))
    width = int(short.min(initial=cap))

    slot = np.arange(n) + width * group[:n]
    n_slots = n + width * int(group[n])
    # each run's cells outside its row's band: before it and after it
    lo = np.concatenate([first, np.where(
        same, np.maximum(first, row + width + 1), last + 1)])
    hi = np.concatenate([np.where(
        same, np.minimum(last, row - width - 1), last), last]) + 1
    k = np.flatnonzero(hi > lo)
    dst, src = _cells(np.concatenate([row, row])[k], lo[k], hi[k], n)
    return ReachStructure((row, first, count), slot, n_slots, width,
                          slot[src], slot[dst])


def _band_cap(grid: DiscretizedGraph, radius: float) -> int:
    """The least `floor(radius / spacing)` of the edges with a block."""
    return min((math.floor(radius / sp) for sp in
                grid.edge_spacing[grid.edge_intervals > 1].tolist()), default=0)


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


def _play(cells: VertexCells, reach: ReachStructure, table: PieceTable,
          tau: float, n_steps: int, start: np.ndarray):
    """The boolean game, which decides every verdict as the maximin game
    would, played from the start until its alive mask, one bit per slot,
    is empty or n_steps steps are played: (j, mask) after the j steps
    played.  A slot is alive at the start iff its `start` score, in slots,
    exceeds eps = `cells.eps`, and after step j iff its score does, which,
    max and min being monotone, holds iff it is kept, neither a guard nor
    in step j's dead runs (`runs_within` over the kill table `cells`), and
    some predecessor was alive and kept.
    The mask is cut to the kept slots, ORed with its shifts over the band
    and with the junction targets of its alive sources (ORed by source
    once for each set of them, of which the last SWEEP_STEPS or fewer are
    kept), and cut again.  A block is read as one stream in step order:
    each step's (slot, count) runs, then (j + 1, 0), which plays step j."""
    groups = {}
    for s, t in zip(reach.junction_src.tolist(), reach.junction_dst.tolist()):
        groups[1 << s] = groups.get(1 << s, 0) | 1 << t
    sources = sum(groups)       # the keys are distinct bits
    shifts = tuple(range(1, reach.width + 1))
    full, alive = _bits(start > -np.inf), _bits(start > cells.eps)
    seen = jump = dead = 0      # guards: -inf, never alive
    jumps = {}          # the junction targets of each alive source set
    if not alive:
        return 0, alive
    for j0, j1, (step, edge, lo, hi) in _swept_blocks(table, tau, n_steps):
        row, first, count = runs_within(cells, step - j0, edge, lo, hi)
        at = np.argsort(np.append(row, np.arange(j1 - j0)), kind="stable")
        slots = np.append(reach.slot[first], np.arange(j0 + 1, j1 + 1))
        counts = np.append(count, np.zeros(j1 - j0, np.int64))
        for s, c in zip(slots[at].tolist(), counts[at].tolist()):
            if c:
                dead |= ((1 << c) - 1) << s
                continue
            keep, dead = full ^ dead, 0
            alive &= keep
            out = alive
            for d in shifts:
                out |= (alive << d) | (alive >> d)
            if alive & sources != seen:
                seen = alive & sources
                jump = jumps.get(seen)
                if jump is None:
                    if len(jumps) > SWEEP_STEPS:    # a bound on its memory
                        jumps.clear()
                    jump = 0
                    for bit, targets in groups.items():
                        if seen & bit:
                            jump |= targets
                    jumps[seen] = jump
            alive = (out | jump) & keep
            if not alive:
                return s, alive
    return n_steps, alive


def distances_to_interval_rows(grid: DiscretizedGraph, slots, n_rows: int,
                               rows, edges, lo, hi) -> np.ndarray:
    """`grid.distances_to_intervals` for many interval sets at once, in
    the `slots` of `_clearance_rows`, -inf in the guards: row r for the
    intervals i with rows[i] == r, interval i being (graph.edges[edges[i]],
    lo[i], hi[i]); a row without intervals is +inf.  Each term is the
    floating-point operation `distances_to_intervals` takes.  A stretch of
    intervals on one edge in consecutive rows is done in one pass: the two
    vertex terms over the whole rows, the direct term over the edge's
    interior slice.  An endpoint sample needs no direct term, since its
    own vertex term is the same number."""
    dist, blank, inner = slots
    eu, ev, length = grid.graph.edge_table
    out = np.empty((n_rows, len(blank)))
    filled = 0          # rows below this one hold distances
    first = np.ones(len(rows), dtype=bool)   # starts a new stretch
    first[1:] = (edges[1:] != edges[:-1]) | (rows[1:] != rows[:-1] + 1)
    bounds = np.flatnonzero(first).tolist() + [len(rows)]
    for a, b in zip(bounds[:-1], bounds[1:]):
        k = edges[a]
        lo_k, hi_k = lo[a:b, None], hi[a:b, None]
        r0, r1 = rows[a], rows[a] + b - a
        fresh = r0 >= filled
        out[filled:r0 if fresh else r1] = blank
        # rows not written yet take the terms in place
        near = np.add(dist[eu[k]], lo_k, out=out[r0:r1] if fresh else None)
        np.minimum(near, dist[ev[k]] + (length[k] - hi_k), out=near)
        cols = inner[k]
        if cols is not None:
            q = grid.edge_inner_start[k]
            offs = grid.sample_offset[q:q + grid.edge_intervals[k] - 1]
            direct = np.maximum(0.0, np.maximum(lo_k - offs, offs - hi_k))
            np.minimum(near[:, cols], direct, out=near[:, cols])
        if not fresh:
            np.minimum(out[r0:r1], near, out=out[r0:r1])
        filled = max(filled, r1)
    out[filled:] = blank
    return out


def _clearance_rows(grid: DiscretizedGraph, reach: ReachStructure,
                    table: PieceTable, tau: float, n_steps: int):
    """Yield the clearance rows of the steps j < n_steps in chunks, in the
    slots of reach: row j holds `grid.distances_to_intervals(
    swept_intervals(cop, j*tau, (j+1)*tau))`, -inf in the guards.

    The pieces come from `_swept_blocks`, and each block's rows are filled
    by `distances_to_interval_rows` in chunks of at most CHUNK_FLOATS
    sample values (at least one row) so that a chunk stays in cache, from
    `slots`, laid out once: the vertex-to-sample distances, a row without
    intervals (+inf) and each edge's interior block (None if it has none).
    Every row is computed on its own, so it does not depend on the block
    or chunk bounds.
    """
    slot = reach.slot
    dist = np.full((len(grid.vertex_sample_dist), reach.n_slots), -np.inf)
    dist[:, slot] = grid.vertex_sample_dist
    blank = np.full(reach.n_slots, -np.inf)
    blank[slot] = np.inf
    slots = dist, blank, tuple(
        slice(int(slot[s]), int(slot[s]) + c) if c else None
        for s, c in zip(grid.edge_inner_start.tolist(),
                        (grid.edge_intervals - 1).tolist()))
    chunk = max(1, CHUNK_FLOATS // grid.n)
    for j0, j1, (step, edge, lo, hi) in _swept_blocks(table, tau, n_steps):
        ends = list(range(j0, j1, chunk)) + [j1]
        cuts = np.searchsorted(step, ends, side="left").tolist()
        for c0, c1, a, b in zip(ends[:-1], ends[1:], cuts[:-1], cuts[1:]):
            yield distances_to_interval_rows(
                grid, slots, c1 - c0, step[a:b] - c0, edge[a:b], lo[a:b],
                hi[a:b])


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

@dataclass(frozen=True)
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
    it refuses an h or eps that `as_positive` refuses, a grid above
    MAX_SAMPLES samples or a vertex-to-sample table above MAX_TABLE_CELLS
    cells, a spacing not above 1e3 * GEOM_TOL (absolute tolerances would
    decide finer grids), and an eps not above the spacing (the spacing
    floor; the module docstring says what a capture covers).
    """
    h = (g.min_edge_length / 50 if h is None
         else as_positive(h, "resolution", ParameterError))
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
    eps = (2 * spacing if eps is None
           else as_positive(eps, "capture radius", ParameterError))
    if eps <= spacing:
        raise ParameterError(
            f"capture radius {eps} is below the spacing floor: it must "
            f"exceed the sample spacing {spacing}")
    return h, eps, spacing


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


class Board:
    """What the verifications of paths on one graph at one (h, eps) share:
    `resolution`'s values, found at construction so that every size
    refusal comes before any grid, the grid and its eps kill table, built
    on first use, and the last reach plan with the interval of radii that
    `build_reach` noted for it.  A radius in that interval, with the same
    `_band_cap`, gets that plan; any other builds and keeps a new one.  A
    plain `verify` makes a board without keeping its plan.
    """

    def __init__(self, g: MetricGraph, h=None, eps=None):
        self.graph = g
        self._last = None   # (plan, radius_in, radius_out, band cap)
        self.h, self.eps, self.spacing = resolution(g, h, eps)

    @cached_property
    def grid(self) -> DiscretizedGraph:
        return discretize(self.graph, self.h)

    @cached_property
    def cells(self) -> VertexCells:
        return vertex_cells(self.grid, self.eps)

    def reach(self, radius: float) -> ReachStructure:
        """The plan of `build_reach(self.grid, radius)`; a radius that is
        not finite and positive is a ParameterError."""
        radius = as_positive(radius, "reach radius", ParameterError)
        cap, last = _band_cap(self.grid, radius), self._last
        if last and last[1] <= radius < last[2] and cap == last[3]:
            return last[0]
        bounds = [-math.inf, math.inf]
        plan = build_reach(self.grid, radius, bounds)
        self._last = plan, *bounds, cap
        return plan


def verify(cop: TimedPath, h: float | None = None, eps: float | None = None,
           want_witness: bool = True, *,
           board: Board | None = None) -> VerifierResult:
    """Decide eps-capture of every speed-1 evader against the cop trajectory.

    Capture means: by the reported time bound, every evader trajectory of
    speed at most 1 (on the grid) has come within eps of the cop.  Survival
    returns a witness trajectory together with its recomputed continuous
    clearance.  A `board` of the cop's graph, given without h or eps,
    supplies them, the grid, the kill table and the plan; a plain call
    makes its own board and calls `build_reach` itself, since its one plan
    needs no interval of radii (which costs 1-2% of a star-ladder
    verification).  `_step_grid` of the duration and its spacing gives
    the step tau, refused before any grid is built.

    The boolean game `_play` decides every verdict: an alive mask that
    empties after j steps is a capture at j * tau, returned whatever
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
    one_use = board is None
    if one_use:
        board = Board(cop.graph, h, eps)
    elif h is not None or eps is not None:
        raise ParameterError("a board fixes h and eps: pass neither with it")
    elif cop.graph is not board.graph:
        raise ParameterError("the cop's graph is not the board's graph")
    n_steps, tau = _step_grid(cop.duration, board.spacing)
    grid, h, eps = board.grid, board.h, board.eps

    def result(verdict, time_bound=None, witness=None, clearance=None):
        return VerifierResult(verdict, time_bound, witness, clearance, h,
                              eps, grid.max_spacing, tau, n_steps, grid.n)

    reach = (build_reach(grid, tau + REACH_SLACK) if one_use
             else board.reach(tau + REACH_SLACK))
    score = np.full(reach.n_slots, -np.inf)
    score[reach.slot] = grid.distances_to_point(cop.point(0))
    j, alive = _play(board.cells, reach, cop.table, tau, n_steps, score)
    if not alive:
        return result("capture", min(j * tau, cop.duration))
    if not want_witness:
        return result("survival")
    n, w = reach.n_slots, reach.width
    band, jsrc = (2 * w + 1) * n, w + reach.junction_src
    rows, table = [], []    # the views of the value rows; the packed bits
    for clr in _clearance_rows(grid, reach, cop.table, tau, n_steps):
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
    chunks are popped, so freed, from the last.  Stepping back over step j
    from sample q picks the first of q's predecessors (ascending in the
    CSR) whose bit in row j is set: the lowest-index predecessor attaining
    q's maximin.  The bits are read one by one in their packed bytes,
    through memoryviews, with no numpy call per step.  The best final
    sample is the first in sample order.
    """
    final = score[reach.slot]
    q = int(np.argmax(final))
    idx = [q]
    src, starts, bit = map(memoryview, (reach.src, reach.starts, reach.bit))
    while table:
        packed = memoryview(table.pop())
        for k in range(len(packed) - 1, -1, -1):
            i = starts[q]
            while not packed[k, bit[i] >> 3] & 128 >> (bit[i] & 7):
                i += 1
            q = src[i]
            idx.append(q)
    idx.reverse()
    times = np.append(np.arange(n_steps) * tau, cop.duration)
    return TimedPath(grid.graph, PathColumns(
        times, grid.sample_edge[idx], grid.sample_offset[idx],
        *_witness_runs(grid, idx)), 1.0,
        {"kind": "witness", "grid_clearance": float(final[idx[-1]])})


def _witness_runs(grid: DiscretizedGraph, idx: list):
    """The runs of `route(a, b)` for each step a -> b of the samples idx,
    as the columns (count, run_edge, x0, x1) of `PathColumns`.  A step
    within one edge whose direct run is no longer than `legs` gets the
    direct run that route's tie rule picks (none if it is at most
    GEOM_TOL long, as route drops it); only the other steps call route."""
    g = grid.graph
    e, x = grid.sample_edge[idx], grid.sample_offset[idx]
    direct = np.abs(x[:-1] - x[1:])
    short = (e[:-1] == e[1:]) & (direct <= g.legs(e[:-1], x[:-1], e[1:],
                                                   x[1:]))
    count = (short & (direct > GEOM_TOL)).astype(np.int64)
    routed = np.flatnonzero(~short).tolist()
    el, xl, ids = e.tolist(), x.tolist(), g.edge_ids
    runs = [g.route(GraphPoint(ids[el[i]], xl[i]),
                    GraphPoint(ids[el[i + 1]], xl[i + 1]))[1] for i in routed]
    count[routed] = [len(r) for r in runs]
    # a step's run is the step itself, or its routed runs written over it
    run_edge, x0, x1 = (np.repeat(col, count)
                        for col in (e[:-1], x[:-1], x[1:]))
    flat = [run for r in runs for run in r]
    if flat:
        head = np.cumsum(count)[routed] - count[routed]
        _, at = _flat_ranges(head, head + count[routed])
        names, a, b = zip(*flat)
        run_edge[at], x0[at], x1[at] = g.edge_indices(names), a, b
    return count, run_edge, x0, x1


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
    h, eps, spacing = resolution(cop.graph, h, eps)
    n_steps, tau = _step_grid(cop.duration, spacing)
    grid = discretize(cop.graph, h)
    if grid.n * (grid.n + n_steps) > ORACLE_MAX_CELLS:
        raise SizeLimitError(
            f"{grid.n} samples x ({grid.n} samples + {n_steps} steps) "
            f"exceed the oracle limit of {ORACLE_MAX_CELLS} cells")
    preds = [np.flatnonzero(grid.distances_to_point(p) <= tau + REACH_SLACK)
             for p in grid.points]
    sizes = [len(p) for p in preds]
    src, dst = np.concatenate(preds), np.repeat(np.arange(grid.n), sizes)
    heads = np.cumsum([0] + sizes[:-1])
    score, backs = grid.distances_to_point(cop.point(0)), []
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
        g, path_columns(g, times, points, routes), 1.0,
        {"kind": "witness", "grid_clearance": float(score[idx[0]])}))
