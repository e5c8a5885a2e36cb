import dataclasses
import hashlib

import pytest

from graphchase import (Edge, FrontierRow, GraphPoint, build_star_schedule,
                        sweep_strategy, upper_bound_bisect, verify)

from common import comb, star, unit_cycle


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# (record, a field, its repr's text or the sha256 of that text)
RECORDS = {
    "GraphPoint": (lambda: GraphPoint("e0", 0.5), "offset",
                   "GraphPoint(edge='e0', offset=0.5)"),
    "Edge": (lambda: Edge("x", "a", "b", 1.0), "length",
             "Edge(id='x', u='a', v='b', length=1.0)"),
    "FrontierRow": (lambda: FrontierRow(1.5, "capture", 2.0, None, 0.05,
                                        0.05, 0.1), "verdict",
                    "FrontierRow(s=1.5, verdict='capture', time_bound=2.0, "
                    "clearance=None, h=0.05, dt=0.05, eps=0.1, note='')"),
    "StarSchedule": (lambda: build_star_schedule(star(3), 4.0, 1e-2), "lam",
                     "8578ecbeac7fb28265326d35b4e5a37e9b6b8fec81018073a1e7c2ee"
                     "a76f4751"),
    "SpeedBracket": (lambda: upper_bound_bisect(unit_cycle(), "cycle", 0.5,
                                                2.0, 0.5, h=0.05), "upper",
                     "0613031ff0d6a15efa8d6c73e2a70f620a2b9f9e7f3c22e6b4fc88"
                     "4c653ab97c"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_named_tuples_with_unchanged_reprs(name):
    make, field, text = RECORDS[name]
    rec = make()
    assert isinstance(rec, tuple) and type(rec).__name__ == name
    assert text in (repr(rec), _sha(repr(rec)))
    # a record is its fields: it equals, unpacks and indexes as a tuple
    assert rec == tuple(rec) and rec[rec._fields.index(field)] == \
        getattr(rec, field)
    copy = rec._replace(**{field: "new"})
    assert getattr(copy, field) == "new" and getattr(rec, field) != "new"
    assert copy._replace(**{field: getattr(rec, field)}) == rec
    with pytest.raises(AttributeError):
        setattr(rec, field, "new")


def test_a_verdict_is_frozen():
    assert GraphPoint("e0", 0.5) == ("e0", 0.5)
    res = verify(sweep_strategy(comb(3), 20.0), h=0.1)
    assert res.captured
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.verdict = "survival"
    assert res.verdict == "capture"
    assert dataclasses.replace(res, verdict="survival").verdict == "survival"
