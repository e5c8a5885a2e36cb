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
from dataclasses import dataclass

from .graph import MetricGraph, double_tree_walk
from .trajectory import PathBuilder, TimedPath

LADDER_TOL = 1e-9
CLEAR_TOL = 1e-12
STATION_PROBES = 10000  # probes one comb station may take before a refusal


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
        return math.fsum(x ** i for i in range(1, k - 1)) - target

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if poly(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    if abs(poly(root)) > 1e-12:
        raise StrategyError(f"growth factor did not converge for k={k}, s={s}")
    return root


def _truncation(truncation: float | None, default: float | None = None):
    """`truncation`, or `default` when it is None: a finite positive scale."""
    t = default if truncation is None else truncation
    if t is None or not 0 < t < math.inf:
        raise StrategyError(f"truncation scale must be finite and positive, "
                            f"got {t}")
    return t


# ----------------------------------------------------------------------
# cascade bookkeeping
# ----------------------------------------------------------------------

def _cascade_update(radii: dict, cleared: set, extents: dict, target: str,
                    duration: float, s: float) -> None:
    """One probe of `target` for `duration` time units at speed s.

    `radii[arm]` is a distance from the hub below which the evader provably
    cannot sit on that arm (provided it was never captured).  Non-probed
    arms decay by the probe duration (the evader closes in); the probed arm
    is pushed out to (s-1)/2 times the duration.  A radius reaching the arm
    extent marks the arm cleared.  Radii of arms already cleared are left
    alone: while every active radius covers the probe duration, the evader
    can never slip past the hub.
    """
    for arm, r in radii.items():
        if arm in cleared:
            continue
        if arm != target and r < duration - LADDER_TOL:
            raise StrategyError(
                f"cascade safety violated: arm {arm!r} radius {r} below "
                f"probe duration {duration}")
    boost = (s - 1) * duration / 2
    for arm in radii:
        if arm in cleared:
            continue
        r = radii[arm] - duration
        if arm == target:
            r = max(r, boost)
        radii[arm] = min(max(r, 0.0), extents[arm])
        if radii[arm] >= extents[arm] - CLEAR_TOL:
            cleared.add(arm)


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
    for i, arm in enumerate(arms):
        if i == 0:
            radii[arm] = 0.0
        else:
            acc = acc * lam + d0 if i > 1 else d0
            radii[arm] = acc
    return radii


def _probe_depth(s: float, duration: float, limit: float) -> float:
    """How far a probe of `duration` time units at speed s walks out: half
    the distance it covers, and at most `limit`."""
    return min(s * duration / 2, limit)


def _probe(pb: PathBuilder, hub: str, arm: str, start: float,
           duration: float, limit: float) -> None:
    """One excursion of the cascade: wait at the hub until `start`, then
    walk along the arm to `_probe_depth` and back at the speed bound."""
    s = pb.speed_bound
    depth = _probe_depth(s, duration, limit)
    pb.wait_until(start)
    e = pb.graph.edge(arm)
    near, far = (0.0, depth) if e.u == hub else (e.length, e.length - depth)
    pb.move_runs([(arm, near, far)], depth / s)
    pb.move_runs([(arm, far, near)], depth / s)


# ----------------------------------------------------------------------
# star clearing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StarSchedule:
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

    The clock of `star_strategy`'s PathBuilder is tracked with the
    builder's own float operations.  Just above the threshold the
    closed-form starts fall behind it, and the first start more than 1e-9
    behind raises StrategyError before any path is built.
    """
    center, arms = _detect_star(g)
    k = len(arms)
    _truncation(truncation)
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
    cleared: set[str] = set()
    rotation = deque(cascade_arms)
    excursions = []
    clearings = []
    max_extent = max(extents.values())
    budget = (k - 1) * (math.ceil(math.log(max(2 * max_extent / ((s - 1) * d0),
                                               1.0)) / log_lam) + k + 2)
    j = 0
    while len(rotation) > 1:
        if j > budget:
            raise StrategyError("cascade failed to terminate within its "
                                "excursion budget")
        target = rotation[0]
        rotation.rotate(-1)
        duration = d0 * lam ** j
        start = phase1_end + d0 * lam ** j / (lam - 1)
        if start < now - 1e-9:
            raise StrategyError(f"speed {s} is too close to the threshold "
                                f"{2 * k - 3}: excursion start {start} "
                                f"is behind the path's clock {now}")
        if start > now + 1e-15:
            now = now + (start - now)
        leg = _probe_depth(s, duration, g.edge(target).length) / s
        now = now + leg + leg
        excursions.append((target, start, duration))
        _cascade_update(radii, cleared, extents, target, duration, s)
        if target in cleared:
            clearings.append((j, target))
            rotation.remove(target)
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
    truncation = _truncation(truncation, g.min_edge_length / 100)
    sched = build_star_schedule(g, s, truncation)
    pb = PathBuilder(g, sched.center, s)
    _probe(pb, sched.center, sched.final_arm, 0.0, math.inf,
           g.edge(sched.final_arm).length)     # the whole arm, out and back
    for target, start, duration in sched.excursions:
        _probe(pb, sched.center, target, start, duration,
               g.edge(target).length)
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
    """A capturing trajectory on an equal-length comb at speed s > 3.

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
    truncation = _truncation(truncation, base / 100)
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
        cleared: set[str] = set()
        station_start = pb.now
        elapsed = 0.0
        j = 0
        while tooth not in cleared:
            if j > STATION_PROBES:
                raise StrategyError(
                    f"comb clearing at speed {s} is too close to the "
                    f"threshold 3: the station at {v!r} is not cleared "
                    f"within the {STATION_PROBES}-probe station limit")
            target = tooth if j % 2 == 0 else spine
            duration = min(d0 * lam ** j, cap)
            _probe(pb, v, target, station_start + elapsed, duration,
                   extents[target])
            _cascade_update(radii, cleared, extents, target, duration, s)
            cleared.discard(spine)   # evader may re-enter from the far end
            elapsed += duration
            j += 1
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
    waits at that vertex.
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
    runs = []
    walked = 0.0
    while walked < total - 1e-12:
        eid, x0, x1 = lap[len(runs) % len(lap)]
        take = min(abs(x1 - x0), total - walked)
        runs.append((eid, x0, x0 + math.copysign(take, x1 - x0)))
        walked += take
    return PathBuilder(g, start, s).move_runs(runs, duration).build(metadata)


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
    if not 0 < s < math.inf:
        raise StrategyError(f"sweep needs a finite positive speed, got {s}")
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
    k = g.degree(v)
    if not s > 2 * k + 1:
        raise StrategyError(
            f"securing a degree-{k} vertex needs speed above {2 * k + 1}, "
            f"got {s}")
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
        cleared: set[str] = set()
        _cascade_update(radii, cleared, extents, target, duration, s)
        elapsed += duration
        j += 1
        if j > 100000:
            raise StrategyError("vertex securing failed to terminate")
    eps_v = min(radii.values())
    return plan, eps_v, elapsed


def _secure_into(pb: PathBuilder, v: str, plan) -> None:
    """Run a securing plan from v, probing each arm at most half its length."""
    t = pb.now
    for target, duration in plan:
        _probe(pb, v, target, t, duration, pb.graph.edge(target).length / 2)
        t += duration
    pb.wait_until(t)


def secure_vertex(g: MetricGraph, v: str, s: float,
                  truncation: float | None = None):
    """Out-and-back cascade over all arms of v, ending back at v.

    Returns (trajectory fragment starting and ending at v, guaranteed
    evader-free radius around v, elapsed time).
    """
    truncation = _truncation(truncation, g.min_edge_length / 100)
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
    truncation = _truncation(truncation, g.min_edge_length / 100)
    lam_total = g.total_length
    s = max(2 * g.degree(v) + 1 for v in g.vertices) + 1.0
    for _ in range(200):
        metrics = [_secure_schedule(g, v, s, min(truncation, lam_total / s))
                   for v in g.vertices]
        eps_min = min(m[1] for m in metrics)
        t_total = 4 * lam_total / s + sum(m[2] for m in metrics)
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
    truncation = _truncation(truncation, g.min_edge_length / 100)
    s_needed = sufficient_speed(g, truncation)
    if s < s_needed:
        raise StrategyError(
            f"two-pass traversal needs speed at least {s_needed:g} on this "
            f"graph, got {s}")
    trunc = min(truncation, g.total_length / s)
    start = min(g.vertices)
    runs = double_tree_walk(g, start)
    pb = PathBuilder(g, start, s)
    visited = {start}
    _secure_into(pb, start, _secure_schedule(g, start, s, trunc)[0])
    for eid, x0, x1 in runs:
        pb.move_runs([(eid, x0, x1)], abs(x1 - x0) / s)
        e = g.edge(eid)
        w = e.v if x1 > x0 else e.u
        if w not in visited:
            visited.add(w)
            _secure_into(pb, w, _secure_schedule(g, w, s, trunc)[0])
    pb.move_to(start)
    for eid, x0, x1 in runs:
        pb.move_runs([(eid, x0, x1)], abs(x1 - x0) / s)
    return pb.build({"kind": "finiteness", "truncation": trunc,
                     "sufficient_speed": s_needed})
