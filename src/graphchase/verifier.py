"""Resolution-bounded verification of pursuit trajectories.

Given a cop trajectory, decide whether every speed-1 evader is forced within
capture radius eps by propagating the evader's surviving positions over a
space-time grid.  The grid game is exact: evader steps use true intrinsic
distances between samples, and the cop's swept region per time step is
computed analytically from the trajectory's runs, so the only discretization
is the sample spacing h and the step length.

On survival the verifier extracts an explicit evader trajectory that
maximizes its minimum grid clearance, then recomputes that trajectory's true
continuous-time clearance against the cop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import DiscretizedGraph, GraphPoint, MetricGraph, discretize
from .trajectory import TimedPath, min_clearance, path_pieces, path_to_dict

REACH_SLACK = 1e-12


class ParameterError(ValueError):
    """Raised when resolution parameters violate the soundness floor."""


class SizeLimitError(ValueError):
    """Raised when an instance is too large for exhaustive enumeration."""


class StateError(RuntimeError):
    """Raised when an operation needs a different verdict than the one found."""


# ----------------------------------------------------------------------
# evader step structure
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReachStructure:
    """All sample pairs within one evader step, in CSR form grouped by target.

    `src[starts[q] : starts_end[q]]` lists the samples from which q is
    reachable within one step (always including q itself).  The relation is
    symmetric, so the same arrays serve as successor lists.
    """

    radius: float
    src: np.ndarray
    dst: np.ndarray
    starts: np.ndarray

    def predecessors(self, q: int) -> np.ndarray:
        end = self.starts[q + 1] if q + 1 < len(self.starts) else len(self.src)
        return self.src[self.starts[q]:end]


def build_reach(grid: DiscretizedGraph, radius: float) -> ReachStructure:
    """Pairs of samples at intrinsic distance <= radius.

    Same-edge pairs come from offset windows; cross-edge pairs are routed
    through a vertex, which every cross-edge shortest path must pass.
    """
    n = grid.n
    pair_keys = [np.arange(n, dtype=np.int64) * (n + 1)]  # self loops: dst*n+src
    for eid, idx in grid.edge_samples.items():
        offs = grid.edge_offsets[eid]
        lo = np.searchsorted(offs, offs - radius, side="left")
        hi = np.searchsorted(offs, offs + radius, side="right")
        counts = hi - lo
        dsts = np.repeat(idx, counts)
        srcs = np.concatenate([idx[a:b] for a, b in zip(lo, hi)]) if len(idx) else \
            np.empty(0, dtype=np.int64)
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
    return ReachStructure(radius, src, dst, starts)


# ----------------------------------------------------------------------
# avoid-set propagation
# ----------------------------------------------------------------------

@dataclass
class AvoidSet:
    """Surviving evader positions at one grid time, with maximin clearances.

    `score[q]` is the largest clearance an evader reaching q alive can have
    maintained so far (clearance checked at both endpoints of every step
    against that step's swept cop region).  A sample survives iff its score
    exceeds eps.  `backpointers[q]` is the score-maximizing predecessor at
    the previous grid time (lowest sample index on ties), or -1 before the
    first step.
    """

    step: int
    score: np.ndarray
    eps: float
    backpointers: np.ndarray | None = None

    @property
    def live(self) -> np.ndarray:
        return self.score > self.eps

    @property
    def any_live(self) -> bool:
        return bool(np.any(self.score > self.eps))


def initial_avoid_set(grid: DiscretizedGraph, cop_start: GraphPoint,
                      eps: float) -> AvoidSet:
    """Evader may start anywhere at distance > eps from the cop's start."""
    return AvoidSet(0, grid.distances_to_point(cop_start), eps)


def propagate_step(a: AvoidSet, clearance: np.ndarray, reach: ReachStructure,
                   want_backpointers: bool = False) -> AvoidSet:
    """One grid step: move within reach, killed at either endpoint within eps.

    The new score of a target is min(arrival clearance, best over
    predecessors of min(their score, their departure clearance)).
    """
    val = np.minimum(a.score, clearance)
    incoming = val[reach.src]
    best = np.maximum.reduceat(incoming, reach.starts[:-1])
    bp = None
    if want_backpointers:
        cand = np.where(incoming >= best[reach.dst], reach.src, len(a.score))
        bp = np.minimum.reduceat(cand, reach.starts[:-1]).astype(np.int32)
    return AvoidSet(a.step + 1, np.minimum(best, clearance), a.eps, bp)


def swept_intervals(cop: TimedPath, t0: float, t1: float):
    """The cop's covered (edge, lo, hi) intervals during [t0, t1]."""
    return [(eid, min(xa, xb), max(xa, xb))
            for _, _, eid, xa, xb in path_pieces(cop, t0, t1)]


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
    dt: float
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
        "params": {"h": r.h, "dt": r.dt, "eps": r.eps, "spacing": r.spacing,
                   "tau": r.tau, "steps": r.n_steps, "samples": r.n_samples},
        "witness": None if r.witness is None else path_to_dict(r.witness),
        "min_clearance": r.min_clearance,
    }


def save_report(r: VerifierResult, path: str) -> None:
    import json
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result_to_dict(r), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# the decision procedure
# ----------------------------------------------------------------------

def _resolve_params(g: MetricGraph, grid_or_h, dt, eps):
    h_given = None if isinstance(grid_or_h, DiscretizedGraph) else grid_or_h
    for name, x in (("resolution", h_given), ("time step", dt),
                    ("capture radius", eps)):
        if x is not None and not math.isfinite(float(x)):
            raise ParameterError(f"{name} must be finite, got {x}")
    if isinstance(grid_or_h, DiscretizedGraph):
        grid = grid_or_h
        h = grid.h
    else:
        h = g.min_edge_length / 50 if grid_or_h is None else float(grid_or_h)
        grid = discretize(g, h)
    sp = grid.max_spacing
    if dt is None:
        dt = sp
    dt = float(dt)
    if dt <= 0:
        raise ParameterError(f"time step must be positive, got {dt}")
    if dt > h + 1e-12:
        raise ParameterError(f"time step {dt} exceeds spatial resolution {h}")
    floor = max(sp, dt)
    if eps is None:
        eps = sp + dt
    eps = float(eps)
    if eps <= floor:
        raise ParameterError(
            f"capture radius {eps} is below the soundness floor: it must "
            f"exceed max(sample spacing, time step) = {floor}")
    return grid, h, dt, eps


def _step_grid(duration: float, dt: float) -> tuple[int, float]:
    if duration <= 0:
        return 0, 0.0
    n = max(1, int(math.floor(duration / dt + 1e-9)))
    return n, duration / n


def verify(cop: TimedPath, h: float | None = None, dt: float | None = None,
           eps: float | None = None, want_witness: bool = True,
           grid: DiscretizedGraph | None = None) -> VerifierResult:
    """Decide eps-capture of every speed-1 evader against the cop trajectory.

    Capture means: by the reported time bound, every evader trajectory of
    speed at most 1 (on the grid) has come within eps of the cop.  Survival
    returns a witness trajectory together with its recomputed continuous
    clearance.  Witness extraction reruns the propagation with backpointers
    only when needed, keeping capture runs light.
    """
    g = cop.graph
    grid, h, dt, eps = _resolve_params(g, grid if grid is not None else h,
                                       dt, eps)
    n_steps, tau = _step_grid(cop.duration, dt)
    reach = build_reach(grid, tau + REACH_SLACK) if n_steps else None

    def run(with_bp: bool):
        # history is only accumulated when backpointers are wanted, so the
        # common capture pass stays at O(samples) memory
        a = initial_avoid_set(grid, cop.points[0], eps)
        history = [a]
        if not a.any_live:
            return a, history, 0.0
        for j in range(n_steps):
            clr = grid.distances_to_intervals(
                swept_intervals(cop, j * tau, (j + 1) * tau))
            a = propagate_step(a, clr, reach, want_backpointers=with_bp)
            if with_bp:
                history.append(a)
            if not a.any_live:
                return a, history, (j + 1) * tau
        return a, history, None

    final, history, caught_at = run(False)
    if caught_at is not None:
        return VerifierResult("capture", min(caught_at, cop.duration), None,
                              None, h, dt, eps, grid.max_spacing, tau,
                              n_steps, grid.n)
    if want_witness:
        final, history, _ = run(True)
        witness = _backtrack_witness(grid, history, tau, cop.duration, eps)
        clearance = min_clearance(cop, witness, 0.0, cop.duration)
    else:
        witness, clearance = None, None
    return VerifierResult("survival", None, witness, clearance, h, dt, eps,
                          grid.max_spacing, tau, n_steps, grid.n)


def _backtrack_witness(grid: DiscretizedGraph, history, tau: float,
                       duration: float, eps: float) -> TimedPath:
    final = history[-1]
    order = np.argmax(final.score)
    idx = [int(order)]
    for a in reversed(history[1:]):
        idx.append(int(a.backpointers[idx[-1]]))
    idx.reverse()
    g = grid.graph
    times = [0.0]
    points = [grid.points[idx[0]]]
    routes = []
    for j in range(1, len(idx)):
        t = j * tau if j < len(idx) - 1 else duration
        _, runs = g.route(grid.points[idx[j - 1]], grid.points[idx[j]])
        times.append(t if duration > 0 else float(j))
        points.append(grid.points[idx[j]])
        routes.append(runs)
    return TimedPath(g, tuple(times), tuple(points), tuple(routes), 1.0,
                     {"kind": "witness", "grid_clearance": float(final.score[idx[-1]])})


def extract_witness(result: VerifierResult) -> TimedPath:
    """The survival witness of a verification, or a state error on capture."""
    if result.verdict != "survival":
        raise StateError("no witness: the trajectory captures every evader")
    if result.witness is None:
        raise StateError("verification was run without witness extraction")
    return result.witness


def min_capture_time(cop: TimedPath, h: float | None = None,
                     dt: float | None = None, eps: float | None = None) -> float:
    """Earliest grid time at which no evader position survives."""
    r = verify(cop, h, dt, eps, want_witness=False)
    if not r.captured:
        raise StateError("trajectory does not capture at this resolution")
    return r.time_bound


def continuous_clearance(cop: TimedPath, evader: TimedPath) -> float:
    """Exact minimum distance between the two trajectories over their overlap."""
    return min_clearance(cop, evader, 0.0, min(cop.duration, evader.duration))


# ----------------------------------------------------------------------
# exhaustive oracle for small instances
# ----------------------------------------------------------------------

ORACLE_MAX_SAMPLES = 12
ORACLE_MAX_STEPS = 12


def brute_force_oracle(cop: TimedPath, h: float | None = None,
                       dt: float | None = None,
                       eps: float | None = None) -> VerifierResult:
    """Decide the same grid game by per-state recursion over all step plans.

    Independent of the vectorized propagation: liveness of (step, sample) is
    computed by memoized recursion over explicit predecessor lists.  Refuses
    instances beyond ORACLE_MAX_SAMPLES samples or ORACLE_MAX_STEPS steps.
    """
    g = cop.graph
    grid, h, dt, eps = _resolve_params(g, h, dt, eps)
    if grid.n > ORACLE_MAX_SAMPLES:
        raise SizeLimitError(
            f"{grid.n} samples exceed the oracle limit {ORACLE_MAX_SAMPLES}")
    n_steps, tau = _step_grid(cop.duration, dt)
    if n_steps > ORACLE_MAX_STEPS:
        raise SizeLimitError(
            f"{n_steps} steps exceed the oracle limit {ORACLE_MAX_STEPS}")
    init = grid.distances_to_point(cop.points[0])
    clearances = [grid.distances_to_intervals(
        swept_intervals(cop, j * tau, (j + 1) * tau)) for j in range(n_steps)]
    reach = build_reach(grid, tau + REACH_SLACK) if n_steps else None

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
                for p in reach.predecessors(q):
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
        return VerifierResult("capture", min(time_bound, cop.duration), None,
                              None, h, dt, eps, grid.max_spacing, tau,
                              n_steps, grid.n)
    return VerifierResult("survival", None, None, None, h, dt, eps,
                          grid.max_spacing, tau, n_steps, grid.n)
