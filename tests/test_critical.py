import json
import math
import sys
from pathlib import Path
from unittest import mock

import pytest

from graphchase import (EvidenceError, FrontierRow, PathBuilder,
                        PathValidationError, SpeedBracket, StrategyError,
                        build_family, build_graph, comb_strategy, critical,
                        cycle_strategy, finiteness_strategy, frontier_table,
                        frontier_to_csv, frontier_to_json, star_strategy,
                        sweep_strategy, upper_bound_bisect, verifier,
                        verify)

from common import comb, path_graph, star, triangle, unit_cycle, unit_path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def test_build_family_dispatch():
    g = unit_cycle()
    p = build_family(g, "cycle", 2.0)
    assert p.metadata["kind"] == "cycle"
    with pytest.raises(StrategyError, match="unknown strategy family"):
        build_family(g, "zigzag", 2.0)


@pytest.mark.parametrize("call", [
    lambda g: frontier_table(g, "cycel", [2.0, 4.0], h=0.05),
    lambda g: upper_bound_bisect(g, "cycel", 1.5, 4.0, 0.5, h=0.05),
], ids=["frontier", "bisect"])
def test_unknown_family_is_refused_before_any_probe(call):
    # a misspelt family is no rejected probe: no table of sweeps, and no
    # "upper speed did not verify"
    with mock.patch.object(critical, "verify") as probe, \
            pytest.raises(StrategyError,
                          match="unknown strategy family 'cycel'"):
        call(triangle())
    assert not probe.called


@pytest.mark.parametrize("family, g, s, default", [
    ("star", star(3, 0.5), 3.5, star_strategy),
    ("comb", comb(3), 3.5, comb_strategy),
    ("cycle", unit_cycle(), 1.5, cycle_strategy),
    ("finiteness", star(3), 64.0, finiteness_strategy),
    ("sweep", unit_path(), 1.0, sweep_strategy),
])
def test_build_family_at_a_coarse_eps_is_the_default_path(family, g, s,
                                                          default):
    # eps / 4 caps the truncation only below the shortest edge / 100
    want = default(g, s)
    for eps in (None, g.min_edge_length / 25, 1.0):
        p = build_family(g, family, s, eps)
        assert (p.times, p.points) == (want.times, want.points)


def test_build_family_refuses_a_radius_that_is_not_finite_and_positive():
    for eps in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(StrategyError, match="capture radius"):
            build_family(unit_cycle(), "cycle", 2.0, eps)


@pytest.mark.parametrize("s", ["2", True, 0.0, -2.0, math.nan, math.inf])
def test_build_family_refuses_a_speed_that_is_not_finite_and_positive(s):
    # "2" raised a bare TypeError from a comparison inside the constructor
    for family in critical.FAMILIES:
        with pytest.raises(StrategyError,
                           match=f"speed must be finite and positive, "
                                 f"got {s!r}$"):
            build_family(unit_cycle(), family, s)


def test_cycle_bracket_straddles_one():
    g = unit_cycle()
    br = upper_bound_bisect(g, "cycle", 0.5, 2.0, tol=0.25, h=0.05)
    assert isinstance(br, SpeedBracket)
    assert br.upper - br.lower <= 0.25 + 1e-12
    assert br.lower < 1.0 + 0.25 and br.upper > 1.0 - 0.25
    assert br.upper_evidence.captured
    assert br.family == "cycle"
    # every probe recorded with its outcome
    assert br.probes[0] == (0.5, "non-capture")
    assert br.probes[1] == (2.0, "capture")
    assert all(kind in ("capture", "non-capture") for _, kind in br.probes)


def test_bisect_rejects_bad_endpoints():
    g = unit_cycle()
    with pytest.raises(EvidenceError, match="did not verify as capture"):
        upper_bound_bisect(g, "cycle", 0.2, 0.8, tol=0.1, h=0.05)
    with pytest.raises(EvidenceError, match="already captures"):
        upper_bound_bisect(g, "cycle", 3.0, 6.0, tol=0.5, h=0.05)
    with pytest.raises(EvidenceError, match="s_low < s_high"):
        upper_bound_bisect(g, "cycle", 2.0, 2.0, tol=0.1, h=0.05)
    with pytest.raises(EvidenceError, match="tolerance"):
        upper_bound_bisect(g, "cycle", 0.5, 2.0, tol=0.0, h=0.05)


def test_bisect_refuses_bools_and_strings_as_numbers():
    # tol=True and a bool low end gave a bracket with lower True and tol
    # True; a string end raised a bare TypeError
    g = path_graph(2)
    with pytest.raises(EvidenceError,
                       match="tolerance must be finite and positive, got "
                             "True"):
        upper_bound_bisect(g, "sweep", 1.0, 8.0, tol=True, h=0.25)
    for low, high in ((True, 8.0), ("1", 8.0), (1.0, "8")):
        bad = low if not isinstance(low, float) else high
        with pytest.raises(EvidenceError,
                           match=f"bracket ends must be numbers: {bad!r} "
                                 f"is not a number"):
            upper_bound_bisect(g, "sweep", low, high, tol=1.0, h=0.25)
    # an end need not be positive, and an int end is read as its float
    br = upper_bound_bisect(g, "sweep", -1, 8, tol=4, h=0.25)
    assert (br.lower, br.upper, br.tol) == (-1.0, 1.25, 4.0)
    assert all(type(s) is float for s, _ in br.probes)
    assert type(br.lower) is float and type(br.tol) is float


def test_bisect_rejects_nan_tolerance():
    # a nan tolerance passed `tol <= 0` and came back as the unshrunk
    # bracket [0.5, 2.0]
    with pytest.raises(EvidenceError, match="tolerance"):
        upper_bound_bisect(unit_cycle(), "cycle", 0.5, 2.0, tol=math.nan,
                           h=0.05)


def test_bisect_stops_at_float_resolution():
    # no float lies strictly between two adjacent ones, so a tolerance
    # below the bracket's ulp ends the bisection when the midpoint rounds
    # onto an end, with evidence on both sides
    b = upper_bound_bisect(star(3, 0.5), "sweep", 1.0, 64.0, 5e-324, h=0.05)
    assert b.upper == math.nextafter(b.lower, math.inf)
    assert b.upper - b.lower > b.tol
    assert len(b.probes) == 59
    assert b.upper_evidence.captured
    assert b.lower_evidence.verdict == "survival"


def test_constructor_rejection_counts_as_non_capture():
    g = star(3, arm=0.5)
    # s=2.5 is below the 3-arm threshold: construction fails, still a valid
    # lower endpoint
    br = upper_bound_bisect(g, "star", 2.5, 4.0, tol=0.5, h=0.02)
    assert br.upper_evidence.captured
    assert isinstance(br.lower_evidence, str) or \
        not br.lower_evidence.captured


def test_frontier_cycle_verdict_pattern():
    g = unit_cycle()
    rows = frontier_table(g, "cycle", [0.5, 1.0, 1.5, 2.0], h=0.05)
    assert [r.verdict for r in rows] == ["survival", "survival",
                                        "capture", "capture"]
    # sub-threshold speeds fall back to the naive sweep, and say so
    assert "sweep substituted" in rows[0].note
    assert rows[0].clearance is not None and rows[0].clearance > 0
    assert rows[2].time_bound is not None
    # capture time shrinks (or stays within slack) as speed grows
    assert rows[3].time_bound <= rows[2].time_bound + 3 * (rows[3].h +
                                                           rows[3].dt)


def test_frontier_slower_capture_at_higher_speed_is_noted(monkeypatch):
    # the faster schedule waits before it sweeps, so it captures later;
    # the slower row's sweep, re-declared at the faster bound, is the
    # evidence, and it needs no second verification
    def late_when_fast(g, s, t):
        pb = PathBuilder(g, "v0", s)
        if s > 1:
            pb.wait(3.0)
        return pb.move_to("v1").build({"kind": "fake"})

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return verify(*args, **kwargs)

    monkeypatch.setitem(critical.FAMILIES, "fake", late_when_fast)
    monkeypatch.setattr(critical, "verify", counted)
    slow, fast = frontier_table(path_graph(1), "fake", [1.0, 2.0], h=0.05)
    assert slow.verdict == fast.verdict == "capture"
    assert fast.time_bound > slow.time_bound + 3 * (fast.h + fast.dt)
    assert slow.note == ""
    assert "re-declared" in fast.note and "s=1.0" in fast.note
    assert len(calls) == 2


def test_invalid_constructor_path_is_a_rejected_probe(monkeypatch):
    # a constructor whose path fails validation below s = 1.5 is rejected
    # there like any other: the bracket records non-capture, and the
    # frontier substitutes the sweep and says why
    def invalid_when_slow(g, s, t):
        if s < 1.5:
            raise PathValidationError(f"bad path at {s}")
        return cycle_strategy(g, s)

    monkeypatch.setitem(critical.FAMILIES, "fake", invalid_when_slow)
    g = unit_cycle()
    with pytest.raises(StrategyError,
                       match="fake path at speed 1.0 is invalid: bad path"):
        build_family(g, "fake", 1.0)
    b = upper_bound_bisect(g, "fake", 1.0, 2.0, 0.1, h=0.05)
    assert b.lower < 1.5 <= b.upper
    assert all(outcome == "non-capture" for s, outcome in b.probes
               if s < 1.5)
    assert "is invalid: bad path" in b.lower_evidence
    slow, fast = frontier_table(g, "fake", [1.0, 2.0], h=0.05)
    assert slow.verdict == "survival" and fast.verdict == "capture"
    assert slow.note == ("constructor rejected (fake path at speed 1.0 is "
                         "invalid: bad path at 1.0); naive sweep substituted")


def test_frontier_path_sweep_all_capture():
    g = path_graph(1)
    rows = frontier_table(g, "sweep", [0.1, 1.0, 10.0], h=0.05)
    assert all(r.verdict == "capture" for r in rows)


def test_frontier_rows_sorted_by_speed():
    g = unit_cycle()
    rows = frontier_table(g, "cycle", [2.0, 1.5], h=0.05)
    assert [r.s for r in rows] == [1.5, 2.0]


def test_frontier_csv_format():
    rows = [FrontierRow(1.5, "capture", 2.0, None, 0.05, 0.05, 0.1),
            FrontierRow(0.5, "survival", None, 0.25, 0.05, 0.05, 0.1)]
    text = frontier_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "s,verdict,time_bound,clearance,h,dt,eps"
    assert lines[1] == "1.5,capture,2.0,,0.05,0.05,0.1"
    assert lines[2] == "0.5,survival,,0.25,0.05,0.05,0.1"


def test_frontier_json_parses():
    g = unit_cycle()
    rows = frontier_table(g, "cycle", [1.5], h=0.05)
    docs = json.loads(frontier_to_json(rows))
    assert docs[0]["s"] == 1.5
    assert docs[0]["verdict"] == "capture"
    assert set(docs[0]) == {"s", "verdict", "time_bound", "clearance",
                            "h", "dt", "eps"}


def test_fine_eps_bracket_of_star3_contains_its_threshold():
    # at the default truncation (0.005) this bracket was [3.53125, 3.625]:
    # paths truncated above eps / 4 do not capture at eps
    br = upper_bound_bisect(star(3, 0.5), "star", 2.5, 4.0, 0.1, h=5e-4,
                            eps=0.0015)
    assert br.lower <= 3.0 <= br.upper
    assert br.upper - br.lower <= 0.1


def test_fine_eps_frontier_rows_of_star4_capture():
    # at the default truncation the rows at 5.2 and 5.5 were survivals
    # with witness clearances 0.002 and 0.0025
    rows = frontier_table(star(4, 0.5), "star", [5.2, 5.5, 7.0], h=5e-4,
                          eps=0.0015)
    assert [r.verdict for r in rows] == ["capture"] * 3
    assert all(r.eps == 0.0015 and not r.note for r in rows)


def test_star_bracket_straddles_threshold():
    # 3-arm star: construction needs s > 3, capture verified just above
    g = star(3, arm=0.5)
    br = upper_bound_bisect(g, "star", 2.5, 3.5, tol=0.5, h=5e-3, eps=0.02)
    assert br.lower >= 2.5
    assert br.upper <= 3.5
    assert br.upper_evidence.captured


@pytest.mark.parametrize("g, family, s_low, s_high, tol, h, eps", [
    (star(3, 0.5), "sweep", 1.0, 16.0, 0.5, 0.05, None),
    (star(3, 0.5), "star", 2.0, 4.0, 0.25, 5e-3, 0.02),
    (unit_cycle(), "cycle", 0.5, 2.0, 0.05, 0.05, None),
], ids=["sweep-survival", "star-rejection", "cycle-rejection"])
def test_bracket_equals_bracket_with_witness_probes(g, family, s_low, s_high,
                                                     tol, h, eps):
    # probes verify without a witness and a surviving lower end once more
    # with one: the bracket equals one whose every probe has a witness
    calls = []

    def spy(path, h=None, eps=None, want_witness=True, *, board=None):
        calls.append(want_witness)
        return verify(path, h=h, eps=eps, want_witness=want_witness,
                      board=board)

    def with_witness(path, h=None, eps=None, want_witness=True, *,
                     board=None):
        return verify(path, h=h, eps=eps, board=board)

    with mock.patch.object(critical, "verify", spy):
        br = upper_bound_bisect(g, family, s_low, s_high, tol, h=h, eps=eps)
    with mock.patch.object(critical, "verify", with_witness):
        ref = upper_bound_bisect(g, family, s_low, s_high, tol, h=h, eps=eps)
    assert repr(br) == repr(ref)
    assert br.probes == ref.probes
    survived = not isinstance(br.lower_evidence, str)
    assert survived == (family == "sweep")
    assert calls == [False] * (len(calls) - survived) + [True] * survived
    if survived:
        assert br.lower_evidence.verdict == "survival"
        assert repr(br.lower_evidence.witness) == \
            repr(ref.lower_evidence.witness)
        assert br.lower_evidence.min_clearance > 0


def _frontier_bisect_jobs(tmp_path):
    """The library jobs of the frontier-bisect benchmark on seed 0, and a
    star with one 0.051 arm, whose 2 * spacing, 0.051, lies between the
    reach radii of its probes, so that its bracket and its frontier each
    need two reach plans."""
    inputs = workloads.make_inputs("frontier-bisect", 0, str(tmp_path))
    short = build_graph(["O", "a", "b", "c", "d"],
                        [("O", "a", 0.5), ("O", "b", 0.5), ("O", "c", 0.5),
                         ("O", "d", 0.051)])
    return {
        "bisect-star3": (1, lambda: upper_bound_bisect(
            inputs["star3"], "star", 2.0, 4.0, 0.05, h=2e-3, eps=0.02)),
        "bisect-cycle": (1, lambda: upper_bound_bisect(
            inputs["cycle"], "cycle", 0.5, 2.0, 0.01, h=0.02)),
        "frontier-comb6": (1, lambda: frontier_table(
            inputs["comb6"], "comb", workloads.FRONTIER_SPEEDS, h=0.02,
            eps=0.06)),
        "bisect-short-arm": (2, lambda: upper_bound_bisect(
            short, "star", 4.0, 8.0, 0.25, h=0.05, eps=0.12)),
        "frontier-short-arm": (2, lambda: frontier_table(
            short, "sweep", [0.5, 1, 2, 3, 5, 8], h=0.05)),
    }


@pytest.mark.parametrize("job", ["bisect-star3", "bisect-cycle",
                                 "frontier-comb6", "bisect-short-arm",
                                 "frontier-short-arm"])
def test_board_answers_equal_a_fresh_grid_per_probe(job, tmp_path):
    # a bracket or frontier builds one grid, and a reach plan only when a
    # probe's radius leaves the last plan's interval or band cap; its
    # answer is the one that a fresh grid and plan per probe give
    plans, run = _frontier_bisect_jobs(tmp_path)[job]
    with mock.patch.object(verifier, "discretize",
                           wraps=verifier.discretize) as grids, \
            mock.patch.object(verifier, "build_reach",
                              wraps=verifier.build_reach) as reaches:
        got = run()
    assert (grids.call_count, reaches.call_count) == (1, plans)

    calls = []

    def fresh(path, want_witness=True, *, board):
        calls.append(path)
        return verify(path, board.h, board.eps, want_witness)

    with mock.patch.object(critical, "verify", fresh), \
            mock.patch.object(verifier, "discretize",
                              wraps=verifier.discretize) as grids:
        want = run()
    assert grids.call_count == len(calls) > 2
    assert repr(got) == repr(want)
