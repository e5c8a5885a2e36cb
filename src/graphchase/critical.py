"""Critical-speed estimation: bisection brackets and frontier tables.

A winning trajectory stays winning at any higher declared speed bound, so the
set of speeds at which a given strategy family verifiably captures is (up to
resolution artifacts) an up-set; bisection brackets its boundary.  Numbers
reported here are upper-bound evidence at the chosen verification resolution,
never lower bounds on the true critical speed.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace

from .graph import MetricGraph
from .strategies import (StrategyError, comb_strategy, cycle_strategy,
                         finiteness_strategy, star_strategy, sweep_strategy)
from .trajectory import TimedPath
from .verifier import VerifierResult, verify

# Family name -> constructor(g, s, truncation).  The lambdas look each
# constructor up at call time, so rebinding a module attribute (for example
# to trace it) takes effect here too.
FAMILIES = {
    "star": lambda g, s, t: star_strategy(g, s, t),
    "comb": lambda g, s, t: comb_strategy(g, s, t),
    "cycle": lambda g, s, t: cycle_strategy(g, s),
    "finiteness": lambda g, s, t: finiteness_strategy(g, s, t),
    "sweep": lambda g, s, t: sweep_strategy(g, s),
}


class EvidenceError(RuntimeError):
    """A bracket endpoint failed to produce the required verifier evidence."""


def build_family(g: MetricGraph, family: str, s: float,
                 truncation: float | None = None) -> TimedPath:
    """Construct the named strategy family on g at speed s."""
    if family not in FAMILIES:
        raise StrategyError(f"unknown strategy family {family!r}; "
                            f"choose one of {', '.join(FAMILIES)}")
    return FAMILIES[family](g, s, truncation)


@dataclass(frozen=True)
class SpeedBracket:
    """A verified speed interval around a family's capture threshold.

    `lower` failed to produce a verified capture (constructor rejection or a
    survival witness); `upper` carries a verified capture certificate.  Width
    is at most `tol` on return from bisection.
    """

    lower: float
    upper: float
    family: str
    params: dict
    tol: float
    upper_evidence: VerifierResult
    lower_evidence: VerifierResult | str
    probes: tuple[tuple[float, str], ...] = field(default=())


def _probe(g, family, s, truncation, h, dt, eps):
    """Build + verify at one speed; a constructor rejection is a non-capture."""
    try:
        path = build_family(g, family, s, truncation)
    except StrategyError as exc:
        return "rejected", str(exc)
    return "verified", verify(path, h=h, dt=dt, eps=eps)


def upper_bound_bisect(g: MetricGraph, family: str, s_low: float,
                       s_high: float, tol: float,
                       truncation: float | None = None,
                       h: float | None = None, dt: float | None = None,
                       eps: float | None = None) -> SpeedBracket:
    """Shrink [s_low, s_high] to width <= tol around the capture boundary.

    Every probe is constructed and verified independently; no monotonicity
    across re-constructed schedules is assumed.  The upper endpoint must
    verify as capture up front and after every shrink, so the returned
    bracket always carries evidence on both sides.
    """
    if not (s_low < s_high):
        raise EvidenceError(f"need s_low < s_high, got [{s_low}, {s_high}]")
    if tol <= 0:
        raise EvidenceError(f"tolerance must be positive, got {tol}")

    kind, high_ev = _probe(g, family, s_high, truncation, h, dt, eps)
    if kind == "rejected" or not high_ev.captured:
        raise EvidenceError(
            f"upper speed {s_high} did not verify as capture for family "
            f"{family!r}; raise the upper endpoint or refine resolution")
    kind, low_ev = _probe(g, family, s_low, truncation, h, dt, eps)
    if kind == "verified" and low_ev.captured:
        raise EvidenceError(
            f"lower speed {s_low} already captures for family {family!r}; "
            f"lower the lower endpoint")

    probes = [(s_low, "non-capture"), (s_high, "capture")]
    lower, upper = s_low, s_high
    while upper - lower > tol:
        mid = 0.5 * (lower + upper)
        if mid <= lower or mid >= upper:
            break
        kind, ev = _probe(g, family, mid, truncation, h, dt, eps)
        if kind == "verified" and ev.captured:
            upper, high_ev = mid, ev
            probes.append((mid, "capture"))
        else:
            lower, low_ev = mid, ev
            probes.append((mid, "non-capture"))
    params = {"h": high_ev.h, "dt": high_ev.dt, "eps": high_ev.eps,
              "truncation": truncation}
    return SpeedBracket(lower, upper, family, params, tol, high_ev, low_ev,
                        tuple(probes))


# ----------------------------------------------------------------------
# frontier tables
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FrontierRow:
    s: float
    verdict: str                 # "capture" or "survival"
    time_bound: float | None     # capture rows
    clearance: float | None      # survival rows: witness clearance
    h: float
    dt: float
    eps: float
    note: str = ""


def frontier_table(g: MetricGraph, family: str, speeds,
                   truncation: float | None = None, h: float | None = None,
                   dt: float | None = None,
                   eps: float | None = None) -> list[FrontierRow]:
    """Verify the family at each speed and tabulate verdicts.

    Speeds below a family's construction threshold fall back to the naive
    sweep at the same speed, so every row carries honest evidence.  Across
    capture rows, capture times are checked to be nonincreasing in s; when a
    violation appears between independently re-constructed schedules, the
    slower row's trajectory is re-declared at the faster bound and verified,
    which restores the guarantee or flags a real inconsistency.
    """
    speeds = sorted(float(s) for s in speeds)
    if not speeds:
        return []
    rows: list[FrontierRow] = []
    paths: list[TimedPath | None] = []
    for s in speeds:
        note = ""
        try:
            path = build_family(g, family, s, truncation)
        except StrategyError as exc:
            path = sweep_strategy(g, s)
            note = f"constructor rejected ({exc}); naive sweep substituted"
        res = verify(path, h=h, dt=dt, eps=eps)
        rows.append(FrontierRow(s, res.verdict, res.time_bound,
                                res.min_clearance, res.h, res.dt, res.eps,
                                note))
        paths.append(path)

    prev = None   # (index, time_bound) of the previous capture row
    for i, row in enumerate(rows):
        if row.verdict != "capture":
            continue
        if prev is not None:
            pi, pt = prev
            slack = 3 * (row.h + row.dt)
            if row.time_bound > pt + slack:
                redeclared = replace(paths[pi], speed_bound=row.s)
                check = verify(redeclared, h=h, dt=dt, eps=eps,
                               want_witness=False)
                if not check.captured or check.time_bound > pt + slack:
                    raise EvidenceError(
                        f"capture time increased with speed ({pt} at "
                        f"s={rows[pi].s} vs {row.time_bound} at s={row.s}) "
                        f"and the re-declared slow trajectory failed to "
                        f"restore it")
                rows[i] = replace(row, note=(row.note + "; " if row.note
                                             else "") +
                                  f"capture time above slower row at "
                                  f"s={rows[pi].s}; re-declared check passed")
        if prev is None or row.time_bound < prev[1]:
            prev = (i, row.time_bound)
    return rows


_COLUMNS = ("s", "verdict", "time_bound", "clearance", "h", "dt", "eps")


def frontier_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_COLUMNS)
    for r in rows:
        w.writerow([repr(r.s), r.verdict,
                    "" if r.time_bound is None else repr(r.time_bound),
                    "" if r.clearance is None else repr(r.clearance),
                    repr(r.h), repr(r.dt), repr(r.eps)])
    return buf.getvalue()


def frontier_to_json(rows) -> str:
    docs = [{c: getattr(r, c) for c in _COLUMNS} for r in rows]
    return json.dumps(docs, indent=2, sort_keys=True) + "\n"
