import json
import math
from unittest import mock

import pytest

from graphchase import (EvidenceError, FrontierRow, PathBuilder, SpeedBracket,
                        StrategyError, build_family, critical, frontier_table,
                        frontier_to_csv, frontier_to_json, upper_bound_bisect,
                        verify)

from common import path_graph, star, unit_cycle


def test_build_family_dispatch():
    g = unit_cycle()
    p = build_family(g, "cycle", 2.0)
    assert p.metadata["kind"] == "cycle"
    with pytest.raises(StrategyError, match="unknown strategy family"):
        build_family(g, "zigzag", 2.0)


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


def test_bisect_rejects_nan_tolerance():
    # a nan tolerance passed `tol <= 0` and came back as the unshrunk
    # bracket [0.5, 2.0]
    with pytest.raises(EvidenceError, match="tolerance"):
        upper_bound_bisect(unit_cycle(), "cycle", 0.5, 2.0, tol=math.nan,
                           h=0.05)


def test_constructor_rejection_counts_as_non_capture():
    g = star(3, arm=0.5)
    # s=2.5 is below the 3-arm threshold: construction fails, still a valid
    # lower endpoint
    br = upper_bound_bisect(g, "star", 2.5, 4.0, tol=0.5, h=0.02,
                            truncation=5e-3)
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


def test_star_bracket_straddles_threshold():
    # 3-arm star: construction needs s > 3, capture verified just above
    g = star(3, arm=0.5)
    br = upper_bound_bisect(g, "star", 2.5, 3.5, tol=0.5, h=5e-3,
                            truncation=1e-2, eps=0.02)
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

    def spy(path, h=None, eps=None, want_witness=True):
        calls.append(want_witness)
        return verify(path, h=h, eps=eps, want_witness=want_witness)

    def with_witness(path, h=None, eps=None, want_witness=True):
        return verify(path, h=h, eps=eps)

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
