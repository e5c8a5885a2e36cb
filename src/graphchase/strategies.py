"""Constructors for pursuit trajectories on special graph families.

The central tool is a geometric excursion cascade from a hub vertex: probe
durations grow by a factor lambda chosen so that, between visits, certified
evader-free radii on the non-probed arms grow by the same factor.  The star
clearing, the comb station clearing, and the per-vertex securing step used by
the generic traversal strategy all instantiate this cascade with different
stopping rules.  Every constructor returns a finite TimedPath; capture claims
are checked downstream by the verifier at chosen resolution.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .graph import MetricGraph, as_positive, double_tree_walk
from .trajectory import PathBuilder, PathValidationError, TimedPath

LADDER_TOL = 1e-9
CLEAR_TOL = 1e-12
STATION_PROBES = 10000  # probes one comb station may take before a refusal
CYCLE_RUNS = 10 ** 6    # runs one cycle loop may take before a refusal
STAR_EXCURSIONS = 10 ** 6   # excursion budget a star may plan before one


class StrategyError(ValueError):
    """Raised when a constructor's speed or shape preconditions fail."""


# ----------------------------------------------------------------------
# the cascade growth factor
# ----------------------------------------------------------------------

def lambda_root(k: int, s: float) -> float:
    """Positive root of x^(k-2) + ... + x = (s-1)/2, by bisection.

    This is the per-excursion growth factor of the k-arm cascade; it exceeds
    1 exactly when s > 2k-3.  Speeds at or below that threshold are rejected.
    """
    if k < 3:
        raise StrategyError(f"cascade needs at least 3 arms, got k={k}")
    if not math.isfinite(s):
        raise StrategyError(f"cascade growth needs a finite speed, got {s}")
    if not s > 2 * k - 3:
        raise StrategyError(
            f"cascade growth needs speed above {2 * k - 3}, got {s}")
    target = (s - 1) / 2
    if k == 3:
        return target
    lo, hi = 1.0, target + 1.0

    def poly(x: float) -> float:
        try:
            return math.fsum(x ** i for i in range(1, k - 1)) - target
        except OverflowError:       # past float range: above the target
            return math.inf

    mid = 0.5 * (lo + hi)
    while mid != lo and mid != hi:  # each halving shrinks the bracket
        if poly(mid) < 0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    # poly increases from below 0 at 1 to above 0 at target + 1, so the
    # bracket holds the root wherever the bisection stops
    return mid


def cascade_truncation(g: MetricGraph, eps: float | None = None) -> float:
    """The truncation scale of a cascade on g: the shortest edge / 100,
    capped at eps / 4 when the path is to capture at radius eps.

    A star path certifies only an eps above its opening ladder
    (`_ladder_init`), whose largest radius the cap bounds only by
    eps * (s - 1) / (8 lam): below eps on three arms, and on four up to
    s = 25, but not beyond (1.67 eps on five 0.5 arms at s = 27)."""
    cap = (math.inf if eps is None
           else as_positive(eps, "capture radius", StrategyError) / 4)
    return min(g.min_edge_length / 100, cap)


def _truncation(truncation: float | None, default: float | None = None):
    """`truncation`, or `default` when it is None: a finite positive scale."""
    return as_positive(default if truncation is None else truncation,
                       "truncation scale", StrategyError)


# ----------------------------------------------------------------------
# cascade bookkeeping
# ----------------------------------------------------------------------

def _cascade_update(radii: dict, extents: dict, target: str,
                    duration: float, s: float) -> bool:
    """One probe of `target` for `duration` time units at speed s; True
    when the target's radius reaches its extent (within CLEAR_TOL).

    `radii[arm]` is a distance from the hub below which the evader provably
    cannot sit on that arm (provided it was never captured).  Non-probed
    arms decay by the probe duration (the evader closes in); the probed arm
    is pushed out to (s-1)/2 times the duration.  Radii are clamped to the
    arm extents, which only the target's can reach.  While every other
    radius covers the probe duration, the evader cannot slip past the hub.
    """
    for arm, r in radii.items():
        if arm != target and r < duration - LADDER_TOL:
            raise StrategyError(
                f"cascade safety violated: arm {arm!r} radius {r} below "
                f"probe duration {duration}")
    boost = (s - 1) * duration / 2
    for arm, r in radii.items():
        # min(max(r - duration, ...), extent) as the builtins pick, which
        # the star schedule runs once per excursion
        r -= duration
        if arm == target and boost > r:
            r = boost
        if 0.0 > r:
            r = 0.0
        radii[arm] = extents[arm] if extents[arm] < r else r
    return radii[target] >= extents[target] - CLEAR_TOL


def _ladder_init(arms, lam: float, d0: float) -> dict:
    """Assumed starting radii: 0 on the first target, then a geometric ladder.

    The assumption is harmless at verification time whenever the capture
    radius exceeds the largest ladder value: an evader violating it sits
    within that distance of the hub, where the cop is standing.  A path
    built on it certifies capture only at such radii, and a ladder value
    that reaches an arm's extent would clear the arm unprobed, which
    `build_star_schedule` refuses.
    """
    radii = {}
    acc = 0.0
    for arm in arms:
        radii[arm], acc = acc, acc * lam + d0
    return radii


def _probe_depth(s: float, duration: float, limit: float) -> float:
    """How far a probe of `duration` time units at speed s walks out: half
    the distance it covers, and at most `limit`."""
    return min(s * duration / 2, limit)


def _probes(pb: PathBuilder, hub: str, arms, starts, durations,
            limits) -> None:
    """The excursions of a cascade from the hub, handed to `pb.extend` as
    its four columns: for each arm, start, duration and limit, wait at the
    hub until the start, then walk along the arm to `_probe_depth` and
    back at the speed bound.  The times are those of one `wait_until` and
    two `move_runs` each, and a probe too short to leave the hub's offset
    has x0 == x1, so it is a wait, as `move_runs` makes it."""
    g, s, now = pb.graph, pb.speed_bound, pb.now
    depart = []         # the builder's clock, one probe after the other
    for start, duration, limit in zip(starts, durations, limits):
        if start > now + 1e-15:
            now = now + (start - now)
        elif start < now - 1e-9:
            raise PathValidationError(f"cannot wait until past time {start}")
        depart.append(now)
        leg = _probe_depth(s, duration, limit) / s
        now = now + leg + leg
    if not depart:
        return
    index = {a: g.edge_index(a) for a in set(arms)}
    arm = np.fromiter(map(index.get, arms), np.int64, len(depart))
    depth = np.minimum(s * np.array(durations) / 2, limits)
    ln, depart = g.edge_table[2][arm], np.array(depart)
    out = g.edge_table[0][arm] == g.vertex_rows[hub]    # the arm leaves at u
    near, far = np.where(out, 0.0, ln), np.where(out, depth, ln - depth)
    turn = depart + depth / s
    back = turn + depth / s
    here = pb.position
    # each probe's wait from where the last one ended, walk out and back
    e = np.concatenate(([g.edge_index(here.edge)], arm[:-1]))
    x = np.concatenate(([here.offset], near[:-1]))

    def rows(*cols, dtype=float):   # each probe's rows, one after the other
        out = np.empty((len(depart), len(cols)), dtype)
        for i, col in enumerate(cols):
            out[:, i] = col
        return out.ravel()
    waits = rows(depart > np.concatenate(([pb.now], back[:-1])), True, True,
                 dtype=bool)
    pb.extend(*(col[waits] for col in (
        rows(depart, turn, back), rows(e, arm, arm, dtype=np.int64),
        rows(x, near, far), rows(x, far, near))))


# ----------------------------------------------------------------------
# star clearing
# ----------------------------------------------------------------------

class StarSchedule(NamedTuple):
    """The excursion plan of a star clearing run.

    `excursions` lists (arm edge id, absolute start time, duration); probe
    durations grow by `lam` from `d0` while more than one arm stays
    uncleared.  `phase1_end` is when the initial out-and-back on the last arm
    finishes and the cascade clock starts.  `last_arm` is the cascade arm
    still uncleared after the final excursion.
    `clearings` lists (excursion index, arm) for each cleared cascade arm,
    in the order the arms clear: the index is that of the excursion that
    probed the arm and after which its radius first covers it.
    """

    k: int
    s: float
    lam: float
    d0: float
    m_start: int
    center: str
    arm_order: tuple[str, ...]     # cascade arms, rotation order
    final_arm: str                 # probed once in phase 1
    phase1_end: float
    excursions: tuple[tuple[str, float, float], ...]
    last_arm: str
    clearings: tuple[tuple[int, str], ...]


def _detect_star(g: MetricGraph):
    hubs = [v for v in g.vertices if g.degree(v) >= 2]
    if len(hubs) != 1 or any(g.degree(v) != 1 for v in g.vertices
                             if v != hubs[0]):
        raise StrategyError("graph is not a star: need one hub, all other "
                            "vertices leaves")
    center = hubs[0]
    arms = [e.id for e in g.incident_edges(center)]
    if len(arms) < 3:
        raise StrategyError(f"star clearing needs at least 3 arms, "
                            f"got {len(arms)}")
    return center, arms


def build_star_schedule(g: MetricGraph, s: float,
                        truncation: float) -> StarSchedule:
    """Plan the full excursion cascade for a star at speed s.

    The first probe duration is the largest member of the geometric grid
    lam^(-m(k-1)+1) below the truncation scale; probes then grow by lam,
    rotating over all arms but the last, dropping arms as they clear, until
    one arm remains.  A truncation whose opening ladder would clear an arm
    in the first excursion, before that arm is probed, raises
    StrategyError; every arm then clears at a probe of its own.

    Just above the threshold the excursions grow slowly.  A plan whose
    excursion budget, known before planning, is above STAR_EXCURSIONS
    raises StrategyError at once.  The clock of `star_strategy`'s
    PathBuilder is tracked with the builder's own float operations, and
    the first closed-form start more than 1e-9 behind it raises
    StrategyError before any path is built.
    """
    center, arms = _detect_star(g)
    k = len(arms)
    truncation = _truncation(truncation)
    lam = lambda_root(k, s)
    log_lam = math.log(lam)
    m_start = max(1, math.floor((1 - math.log(truncation) / log_lam)
                                / (k - 1)) + 1)
    while lam ** (-m_start * (k - 1) + 1) >= truncation:
        m_start += 1
    d0 = lam ** (-m_start * (k - 1) + 1)

    final_arm = arms[-1]
    cascade_arms = arms[:-1]
    extents = {eid: g.edge(eid).length for eid in cascade_arms}
    phase1_end = 2 * g.edge(final_arm).length / s
    now = phase1_end        # = L/s + L/s exactly: doubling is exact

    radii = _ladder_init(cascade_arms, lam, d0)
    for arm in cascade_arms[1:]:
        if radii[arm] - d0 >= extents[arm] - CLEAR_TOL:
            raise StrategyError(
                f"truncation {truncation} is too large for arm {arm!r} of "
                f"length {extents[arm]}: the opening ladder's radius "
                f"{radii[arm]} would clear it before any probe")
    max_extent = max(extents.values())
    budget = (k - 1) * (math.ceil(math.log(max(2 * max_extent / ((s - 1) * d0),
                                               1.0)) / log_lam) + k + 2)
    if budget > STAR_EXCURSIONS:
        raise StrategyError(f"speed {s} is too close to the threshold "
                            f"{2 * k - 3}: the cascade's budget of {budget} "
                            f"excursions is above the limit of "
                            f"{STAR_EXCURSIONS}")
    rotation = deque(cascade_arms)
    excursions, clearings = [], []
    j = 0
    while len(rotation) > 1:
        if j > budget:
            raise StrategyError("cascade failed to terminate within its "
                                "excursion budget")
        target = rotation[0]
        rotation.rotate(-1)
        duration = d0 * lam ** j
        start = phase1_end + duration / (lam - 1)
        if start < now - 1e-9:
            raise StrategyError(f"speed {s} is too close to the threshold "
                                f"{2 * k - 3}: excursion start {start} "
                                f"is behind the path's clock {now}")
        if start > now + 1e-15:
            now = now + (start - now)
        leg = _probe_depth(s, duration, extents[target]) / s
        now = now + leg + leg
        excursions.append((target, start, duration))
        if _cascade_update(radii, extents, target, duration, s):
            clearings.append((j, target))   # a leaf-ended arm stays clear
            rotation.remove(target)
            del radii[target]
        j += 1
    return StarSchedule(k, s, lam, d0, m_start, center, tuple(cascade_arms),
                        final_arm, phase1_end, tuple(excursions), rotation[0],
                        tuple(clearings))


def star_strategy(g: MetricGraph, s: float,
                  truncation: float | None = None) -> TimedPath:
    """A capturing trajectory on a star with k arms at any speed s > 2k-3.

    Phase 1 walks the last arm out and back.  Phase 2 runs the excursion
    cascade over the other arms, idling at the hub whenever a probe is
    clamped at a leaf, until all arms but one are cleared.  Phase 3 walks to
    the remaining arm's leaf.
    """
    truncation = _truncation(truncation, cascade_truncation(g))
    sched = build_star_schedule(g, s, truncation)
    pb = PathBuilder(g, sched.center, s)
    # phase 1 walks the whole last arm out and back, then the cascade runs
    arms, starts, durations = zip((sched.final_arm, 0.0, math.inf),
                                  *sched.excursions)
    lengths = dict(zip(g.edge_ids, g.edge_table[2].tolist()))
    _probes(pb, sched.center, arms, starts, durations,
            list(map(lengths.get, arms)))
    pb.move_to(g.leaf_end(sched.last_arm))
    return pb.build({"kind": "star", "lambda": sched.lam,
                     "truncation": truncation, "m_start": sched.m_start})


# ----------------------------------------------------------------------
# comb clearing
# ----------------------------------------------------------------------

def _detect_comb(g: MetricGraph):
    """Backbone vertices in path order plus their teeth; rejects non-combs.
    A connected backbone of degree at most 2 with two ends is a path, so
    distance from its lesser end puts it in path order."""
    backbone = [v for v in g.vertices if g.degree(v) >= 2]
    teeth = {}
    ends = []
    for v in backbone:
        leaf_edges = [e for e in g.incident_edges(v)
                      if g.is_leaf(e.other(v))]
        spine_count = g.degree(v) - len(leaf_edges)
        if len(leaf_edges) != 1 or not 1 <= spine_count <= 2:
            raise StrategyError("graph is not a comb: each backbone vertex "
                                "needs exactly one tooth")
        teeth[v] = leaf_edges[0]
        if spine_count == 1:
            ends.append(v)
    if len(backbone) < 2:
        raise StrategyError("comb clearing needs at least 2 backbone vertices")
    if len(ends) != 2:
        raise StrategyError("graph is not a comb: backbone is not a path")
    start = min(ends)
    return sorted(backbone, key=lambda v: g.vertex_distance(start, v)), teeth


def comb_strategy(g: MetricGraph, s: float,
                  truncation: float | None = None) -> TimedPath:
    """A trajectory on an equal-length comb at speed s > 3, which need not
    capture: unit comb(3) survives at s = 3.1 and 3.6 (h = 0.005, eps = 0.01).

    Opens by sweeping the first tooth and the first backbone edge.  At each
    interior backbone vertex the two unknown edges (tooth, next backbone
    edge) are cleared by a 2-arm cascade whose probe durations are capped at
    the clearing threshold; equal edge lengths make the cap compatible with
    the safety ladder.  Ends by sweeping the last tooth.

    A station that is not cleared within STATION_PROBES probes raises
    StrategyError.  The cascade needs more probes the closer s is to 3, so
    this refuses speeds just above it: on a comb of 6 unit teeth, 3.001
    builds and 3.0009 is refused.
    """
    if not s > 3:
        raise StrategyError(f"comb clearing needs speed above 3, got {s}")
    order, teeth = _detect_comb(g)
    lengths = {e.id: e.length for e in g.edges}
    base = g.edges[0].length
    if any(abs(l - base) > 1e-9 * max(base, 1.0) for l in lengths.values()):
        raise StrategyError("comb clearing needs all edge lengths equal")
    truncation = _truncation(truncation, cascade_truncation(g))
    lam = lambda_root(3, s)
    cap = 2 * base / (s - 1)
    d0 = min(truncation, cap)

    first_tooth = teeth[order[0]]
    leaf0 = first_tooth.other(order[0])
    pb = PathBuilder(g, leaf0, s)
    pb.move_to(order[0])
    pb.move_to(order[1])

    for v, nxt in zip(order[1:-1], order[2:]):
        tooth = teeth[v].id
        spine = next(e.id for e in g.incident_edges(v) if e.other(v) == nxt)
        extents = {tooth: lengths[tooth], spine: lengths[spine]}
        radii = _ladder_init([tooth, spine], lam, d0)
        station_start = pb.now
        elapsed = 0.0
        j = 0
        cleared = False
        plan = []           # (arm, start, duration, limit) of each probe
        while not cleared:
            if j > STATION_PROBES:
                raise StrategyError(
                    f"comb clearing at speed {s} is too close to the "
                    f"threshold 3: the station at {v!r} is not cleared "
                    f"within the {STATION_PROBES}-probe station limit")
            target = tooth if j % 2 == 0 else spine
            duration = min(d0 * lam ** j, cap)
            plan.append((target, station_start + elapsed, duration,
                         extents[target]))
            cleared = (_cascade_update(radii, extents, target, duration, s)
                       and target == tooth)  # a spine's far end stays open
            elapsed += duration
            j += 1
        _probes(pb, v, *zip(*plan))
        pb.wait_until(station_start + elapsed)
        pb.move_to(nxt)
    pb.move_to(teeth[order[-1]].other(order[-1]))
    return pb.build({"kind": "comb", "lambda": lam, "truncation": truncation})


# ----------------------------------------------------------------------
# cycles and sweeps
# ----------------------------------------------------------------------

def cycle_loop(g: MetricGraph, s: float, duration: float,
               metadata: dict | None = None) -> TimedPath:
    """Loop around a cycle in a fixed direction at speed s for the duration.

    The lap is `double_tree_walk` from the least vertex id, which on a cycle
    walks every edge once in one direction; the laps are repeated and cut
    at s * duration, and a loop at speed 0 (or one shorter than 1e-12)
    waits at that vertex.  A loop of more than CYCLE_RUNS runs is refused.
    """
    if not (0 <= s < math.inf and 0 < duration < math.inf):
        raise StrategyError(f"cycle loop needs a finite nonnegative speed and "
                            f"a finite positive duration, got {s}, {duration}")
    if any(g.degree(v) != 2 for v in g.vertices):
        raise StrategyError("graph is not a cycle: every vertex must have "
                            "degree 2")
    start = min(g.vertices)
    lap = double_tree_walk(g, start)
    total = s * duration
    count = len(lap) * total / g.total_length   # laps x runs per lap
    if count > CYCLE_RUNS:
        raise StrategyError(f"cycle loop asks for {count:.6g} runs, above "
                            f"the limit of {CYCLE_RUNS}")
    pb = PathBuilder(g, start, s)
    # the laps as columns, more than the loop walks: the runs before the
    # first one it cuts or leaves out are whole, and it walks the rest
    e, x0, x1 = (np.tile(col, int(total / g.total_length) + 2)
                 for col in _run_columns(g, lap))
    ln = np.abs(x1 - x0)
    walked = np.concatenate([[0.0], np.cumsum(ln)])     # added one by one
    whole = (walked[:-1] < total - 1e-12) & (ln <= total - walked[:-1])
    m = int(np.argmin(np.append(whole, False)))
    runs, walked = [], float(walked[m])
    while walked < total - 1e-12:
        eid, a, b = lap[(m + len(runs)) % len(lap)]
        take = min(abs(b - a), total - walked)
        runs.append((eid, a, a + math.copysign(take, b - a)))
        walked += take
    cut = _run_columns(g, runs)
    e, x0, x1 = (np.concatenate([col[:m], rest]) for col, rest in zip(
        (e, x0, x0 + np.copysign(ln, x1 - x0)), cut))
    if not len(e):
        return pb.wait(duration).build(metadata)
    # move_runs' running sum, one by one, times every run from 0
    acc = np.cumsum(np.abs(x1 - x0))
    return pb.extend(duration * (acc / acc[-1]), e, x0, x1).build(metadata)


def _run_columns(g: MetricGraph, runs):
    """(edge id, x0, x1) runs as three arrays, edges by index."""
    ids, x0, x1 = zip(*runs) if runs else ((), (), ())
    return g.edge_indices(ids), np.array(x0, float), np.array(x1, float)


def cycle_strategy(g: MetricGraph, s: float) -> TimedPath:
    """Full-speed single-direction loop of duration total/(s-1) on a cycle.

    At relative speed s-1 the uncovered arc shrinks to nothing within that
    time; speeds at or below 1 admit indefinite evasion and are rejected.
    """
    if not s > 1:
        raise StrategyError(
            f"cycle pursuit needs speed above 1, got {s}: the evader can "
            f"hold the antipode forever")
    duration = g.total_length / (s - 1)
    return cycle_loop(g, s, duration, {"kind": "cycle"})


def sweep_strategy(g: MetricGraph, s: float) -> TimedPath:
    """Walk an edge-covering double-tree route once at speed s.

    This is the naive baseline: it captures only at speeds far above the
    cascade thresholds, and serves as honest low-speed evidence elsewhere.
    """
    s = as_positive(s, "sweep speed", StrategyError)
    start = min(g.vertices)
    pb = PathBuilder(g, start, s)
    for run in double_tree_walk(g, start):
        pb.move_runs([run], abs(run[2] - run[1]) / s)
    return pb.build({"kind": "sweep"})


# ----------------------------------------------------------------------
# vertex securing and the generic strategy
# ----------------------------------------------------------------------

def _secure_schedule(g: MetricGraph, v: str, s: float, truncation: float):
    """Probe plan around one vertex: (arm, duration) list, radius, total time.

    All incident arms rotate with no pre-cleared arm, so the growth factor
    solves x^(k-1) + ... + x = (s-1)/2, requiring s > 2k-1; the stated
    precondition s > 2k+1 leaves working margin.  Probe depths stay at half
    the shortest incident edge so no neighboring vertex is reached; durations
    grow to the depth cap and hold for one full round.
    """
    g.vertex_point(v)               # a v that is no vertex raises here
    k = g.degree(v)
    if not 2 * k + 1 < s < math.inf:
        raise StrategyError(
            f"securing a degree-{k} vertex needs a finite speed above "
            f"{2 * k + 1}, got {s}")
    arms = [e.id for e in g.incident_edges(v)]
    cap = min(g.edge(a).length for a in arms) / 2
    d_cap = 2 * cap / s
    lam = lambda_root(k + 1, s) if k >= 2 else 2.0
    d0 = min(truncation, d_cap)
    extents = {a: cap for a in arms}
    radii = {a: min(r, cap) for a, r in _ladder_init(arms, lam, d0).items()}
    plan = []
    elapsed = 0.0
    capped = 0
    j = 0
    while capped < k:
        duration = min(d0 * lam ** j, d_cap)
        if duration >= d_cap - 1e-15:
            capped += 1
        target = arms[j % k]
        plan.append((target, duration))
        _cascade_update(radii, extents, target, duration, s)
        elapsed += duration
        j += 1
        if j > 100000:
            raise StrategyError("vertex securing failed to terminate")
    eps_v = min(radii.values())
    return plan, eps_v, elapsed


def _secure_into(pb: PathBuilder, v: str, plan) -> None:
    """Run a securing plan from v, probing each arm at most half its length."""
    arms, durations = zip(*plan)
    starts = list(accumulate(durations, initial=pb.now))
    _probes(pb, v, arms, starts[:-1], durations,
            [pb.graph.edge(a).length / 2 for a in arms])
    pb.wait_until(starts[-1])


def secure_vertex(g: MetricGraph, v: str, s: float,
                  truncation: float | None = None):
    """Out-and-back cascade over all arms of v, ending back at v.

    Returns (trajectory fragment starting and ending at v, guaranteed
    evader-free radius around v, elapsed time).
    """
    truncation = _truncation(truncation, cascade_truncation(g))
    plan, eps_v, total = _secure_schedule(g, v, s, truncation)
    pb = PathBuilder(g, v, s)
    _secure_into(pb, v, plan)
    return pb.build({"kind": "secure", "vertex": v}), eps_v, total


def sufficient_speed(g: MetricGraph, truncation: float | None = None) -> float:
    """A speed at which the two-pass traversal strategy provably captures.

    Doubles the speed until the smallest secured radius strictly dominates
    the time the evader has to reach a vertex after its securing: two full
    covering walks plus all securing times, with a 10% margin.
    """
    truncation = _truncation(truncation, cascade_truncation(g))
    s = max(2 * g.degree(v) + 1 for v in g.vertices) + 1.0
    for _ in range(200):
        metrics = [_secure_schedule(g, v, s, truncation) for v in g.vertices]
        eps_min = min(m[1] for m in metrics)
        t_total = 4 * g.total_length / s + sum(m[2] for m in metrics)
        if eps_min > 1.1 * t_total:
            return s
        s *= 2
    raise StrategyError("no sufficient speed found")


def finiteness_strategy(g: MetricGraph, s: float,
                        truncation: float | None = None) -> TimedPath:
    """Capture on an arbitrary connected graph at any high enough speed.

    Pass 1 walks an edge-covering route, securing an evader-free radius
    around every vertex at its first visit; pass 2 repeats the covering walk,
    reaching every point before the evader can slip past a vertex.
    """
    truncation = _truncation(truncation, cascade_truncation(g))
    s_needed = sufficient_speed(g, truncation)
    if s < s_needed:
        raise StrategyError(
            f"two-pass traversal needs speed at least {s_needed:g} on this "
            f"graph, got {s}")
    start = min(g.vertices)
    runs = double_tree_walk(g, start)
    pb = PathBuilder(g, start, s)
    visited = {start}
    _secure_into(pb, start, _secure_schedule(g, start, s, truncation)[0])
    for eid, x0, x1 in runs:
        pb.move_runs([(eid, x0, x1)], abs(x1 - x0) / s)
        e = g.edge(eid)
        w = e.v if x1 > x0 else e.u
        if w not in visited:
            visited.add(w)
            _secure_into(pb, w, _secure_schedule(g, w, s, truncation)[0])
    pb.move_to(start)
    for eid, x0, x1 in runs:
        pb.move_runs([(eid, x0, x1)], abs(x1 - x0) / s)
    return pb.build({"kind": "finiteness", "truncation": truncation,
                     "sufficient_speed": s_needed})
