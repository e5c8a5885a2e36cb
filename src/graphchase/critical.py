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

from .graph import MetricGraph, as_number, as_positive
from .strategies import (StrategyError, cascade_truncation, comb_strategy,
                         cycle_strategy, finiteness_strategy, star_strategy,
                         sweep_strategy)
from .trajectory import PathValidationError, TimedPath
from .verifier import VerifierResult, resolution, verify

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


def _constructor(family: str):
    """FAMILIES[family], or a StrategyError for an unknown family."""
    if family not in FAMILIES:
        raise StrategyError(f"unknown strategy family {family!r}; "
                            f"choose one of {', '.join(FAMILIES)}")
    return FAMILIES[family]


def build_family(g: MetricGraph, family: str, s: float,
                 eps: float | None = None) -> TimedPath:
    """Construct the named strategy family on g at speed s, for capture
    radius eps: a cascade truncates at `cascade_truncation(g, eps)`.  A
    speed that is not finite and positive, a schedule out of float range
    or an invalid path is a StrategyError."""
    s = as_positive(s, "speed", StrategyError)
    try:
        return _constructor(family)(g, s, cascade_truncation(g, eps))
    except ArithmeticError as exc:
        raise StrategyError(f"{family} schedule at speed {s} is out of "
                            f"float range: {exc}") from None
    except PathValidationError as exc:
        raise StrategyError(f"{family} path at speed {s} is invalid: "
                            f"{exc}") from None


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
    tol: float
    upper_evidence: VerifierResult
    lower_evidence: VerifierResult | str
    probes: tuple[tuple[float, str], ...] = field(default=())


def _probe(g, family, s, h, eps):
    """Build + verify at one speed, without a witness: ("rejected",
    message, None) or ("verified", result, path).  A constructor rejection
    is a non-capture."""
    try:
        path = build_family(g, family, s, eps)
    except StrategyError as exc:
        return "rejected", str(exc), None
    return "verified", verify(path, h=h, eps=eps, want_witness=False), path


def upper_bound_bisect(g: MetricGraph, family: str, s_low: float,
                       s_high: float, tol: float, h: float | None = None,
                       eps: float | None = None) -> SpeedBracket:
    """Shrink [s_low, s_high] to width <= tol around the capture boundary.

    Every probe is constructed and verified independently; no monotonicity
    across re-constructed schedules is assumed.  The upper endpoint must
    verify as capture up front and after every shrink, so the returned
    bracket always carries evidence on both sides.  Probes need only
    verdicts and play `verify`'s boolean game; a lower end that survived
    is verified once more with a witness, its evidence.  Every path is
    built for the eps that `resolution` gives, which every probe verifies.
    Ends must be numbers, and tol finite and positive (else EvidenceError).
    """
    _constructor(family)
    try:
        s_low, s_high = as_number(s_low), as_number(s_high)
    except (TypeError, OverflowError) as exc:
        raise EvidenceError(f"bracket ends must be numbers: {exc}") from None
    if not (s_low < s_high):
        raise EvidenceError(f"need s_low < s_high, got [{s_low}, {s_high}]")
    tol = as_positive(tol, "tolerance", EvidenceError)
    h, eps, _ = resolution(g, h, eps)

    kind, high_ev, _ = _probe(g, family, s_high, h, eps)
    if kind == "rejected" or not high_ev.captured:
        raise EvidenceError(
            f"upper speed {s_high} did not verify as capture for family "
            f"{family!r}; raise the upper endpoint or refine resolution")
    kind, low_ev, low_path = _probe(g, family, s_low, h, eps)
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
        kind, ev, path = _probe(g, family, mid, h, eps)
        if kind == "verified" and ev.captured:
            upper, high_ev = mid, ev
            probes.append((mid, "capture"))
        else:
            lower, low_path, low_ev = mid, path, ev
            probes.append((mid, "non-capture"))
    if low_path is not None:        # a survival: its evidence is a witness
        low_ev = verify(low_path, h=h, eps=eps)
    return SpeedBracket(lower, upper, family, tol, high_ev, low_ev,
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
    dt: float                    # the largest grid spacing
    eps: float
    note: str = ""


def frontier_table(g: MetricGraph, family: str, speeds,
                   h: float | None = None,
                   eps: float | None = None) -> list[FrontierRow]:
    """Verify the family at each speed and tabulate verdicts.

    Speeds below a family's construction threshold fall back to the naive
    sweep at the same speed, so every row carries honest evidence.  Across
    capture rows, capture times should not increase with s.  When an
    independently re-constructed faster schedule captures later than a
    slower row, the slower row's trajectory, re-declared at the faster
    bound, is evidence of the earlier capture: a path that keeps to one
    speed bound keeps to every larger one, and `verify` never reads the
    bound.  The faster row's note says so.  Every path is built for the
    eps that `resolution` gives, which every row verifies.
    """
    _constructor(family)
    h, eps, _ = resolution(g, h, eps)
    speeds = sorted(as_positive(s, "speed", StrategyError) for s in speeds)
    rows: list[FrontierRow] = []
    for s in speeds:
        note = ""
        try:
            path = build_family(g, family, s, eps)
        except StrategyError as exc:
            path = sweep_strategy(g, s)
            note = f"constructor rejected ({exc}); naive sweep substituted"
        res = verify(path, h=h, eps=eps)
        rows.append(FrontierRow(s, res.verdict, res.time_bound,
                                res.min_clearance, res.h, res.spacing, res.eps,
                                note))

    prev = None   # (index, time_bound) of the previous capture row
    for i, row in enumerate(rows):
        if row.verdict != "capture":
            continue
        if prev is not None:
            pi, pt = prev
            if row.time_bound > pt + 3 * (row.h + row.dt):
                rows[i] = replace(row, note=(row.note + "; " if row.note
                                             else "") +
                                  f"capture time above slower row at "
                                  f"s={rows[pi].s}, whose trajectory, "
                                  f"re-declared at this speed, captures by "
                                  f"{pt:.6g}")
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
