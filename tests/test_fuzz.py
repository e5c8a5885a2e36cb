"""Generated input documents and flags end in a result or a typed error.

Graph documents go to `graph_from_dict`, strategy documents to `load_path`
through a file, and numeric strings to `verify --resolution/--eps`,
`generate --speed/--delta` and `frontier --speeds/--delta` through
`cli.main`.  Every case must either succeed or raise the loader's typed
error (CLI: exit 2 or 4); a traceback from any other exception fails.
"""

import contextlib
import copy
import io
import json
import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from graphchase import (GraphPoint, GraphValidationError, MetricGraph,
                        PathBuilder, PathValidationError, TimedPath,
                        graph_from_dict, load_path, path_to_dict, save_graph,
                        save_path, sweep_strategy, truncate_path)
from graphchase.cli import main

from common import comb, star, triangle, unit_cycle

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

ODD_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0,
                               10 ** 400, -10 ** 400, 1e-320, True])
JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=True, allow_infinity=True)
                | st.text(max_size=3) | ODD_NUMBERS)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


def _slots(doc):
    """Every (container, key) location inside a JSON document."""
    out, stack = [], [doc]
    while stack:
        c = stack.pop()
        for k in (list(c) if isinstance(c, dict) else range(len(c))):
            out.append((c, k))
            if isinstance(c[k], (dict, list)):
                stack.append(c[k])
    return out


@st.composite
def mutated(draw, base):
    """`base` with one to three values replaced by junk or deleted."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc)
        if not slots:
            break
        c, k = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            c[k] = draw(ODD_NUMBERS | JSON_VALUES)
        else:
            del c[k]
    return doc


# ------------------------------------------------------------ graph documents

def _edge(eid, u, v, length):
    return {"id": eid, "from": u, "to": v, "length": length}


GRAPH_DOCS = [
    {"vertices": ["a", "b", "c"],
     "edges": [_edge("e0", "a", "b", 1.0), _edge("e1", "b", "c", 0.5),
               _edge("e2", "c", "a", 2.0)]},
    {"vertices": ["a", "b"],   # a loop and a parallel pair
     "edges": [_edge("x", "a", "a", 1.0), _edge("y", "a", "b", 1.0),
               _edge("z", "b", "a", 0.25)]},
    {"vertices": [0, 1, 2],
     "edges": [_edge(0, 0, 1, 1.0), _edge(1, 1, 2, 1.0)]},
]


@FUZZ
@given(st.sampled_from(GRAPH_DOCS).flatmap(mutated) | JSON_VALUES)
@example({"vertices": ["a", "b"], "edges": [_edge("e", "a", "b", 10 ** 400)]})
def test_graph_documents_load_or_raise_typed_error(doc):
    try:
        g = graph_from_dict(doc)
    except GraphValidationError:
        return
    assert isinstance(g, MetricGraph)
    assert all(math.isfinite(e.length) and e.length > 0 for e in g.edges)


# --------------------------------------------------------- strategy documents

GRAPH = triangle()      # edges e0 (a-b), e1 (b-c), e2 (c-a), length 1


def _stand(t=0.0, offset=0.5, **doc):
    return {"speed": 1.0, "breakpoints": [{"t": 0.0, "edge": "e0",
                                           "offset": offset}]
            + ([{"t": t, "edge": "e0", "offset": offset}] if t else []),
            **doc}


STRATEGY_DOCS = [
    path_to_dict(truncate_path(sweep_strategy(GRAPH, 1.0), 2.5)),
    path_to_dict(PathBuilder(GRAPH, GraphPoint("e1", 0.25), 2.0)
                 .wait(0.5).move_to("a").build({"kind": "hand"})),
]


@FUZZ
@given(doc=st.sampled_from(STRATEGY_DOCS).flatmap(mutated) | JSON_VALUES)
@example(doc=_stand(speed=10 ** 400))
@example(doc=_stand(t=10 ** 400))
@example(doc=_stand(t=math.inf))
@example(doc=_stand(offset=math.nan))
@example(doc=_stand(routes=5))
@example(doc=_stand(t=1.0, routes=[5]))
def test_strategy_documents_load_or_raise_typed_error(doc, tmp_path):
    f = tmp_path / "strategy.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    try:
        p = load_path(GRAPH, str(f))
    except PathValidationError:
        return
    assert isinstance(p, TimedPath)
    assert math.isfinite(p.duration)
    assert all(math.isfinite(q.offset) for q in p.points)


# ----------------------------------------------------------- numeric flags

# Positive values from 3e-6 to 0.05 are left out: they are valid requests
# whose grid (~3/h samples on the triangle) is large but allowed.  Values
# below 2e-6 ask for more than MAX_SAMPLES samples as a resolution, and
# must be refused before any grid or step is built.
FLAG_VALUES = st.sampled_from(
    ["nan", "NaN", "inf", "-inf", "Infinity", "-0", "0", "1e400", "-1e400",
     "1e-400", "", " ", "abc", "0x10", "1_0", "+0.5", "-0.1", "0.1", "0.25",
     "1", "3", "1e20", "1e300"]) | st.floats(0.05, 4.0).map(repr)
TINY_VALUES = st.sampled_from(["5e-324", "1e-320", "1e-9"]) \
    | st.floats(5e-324, 2e-6).map(repr)


def _flag(name):
    values = FLAG_VALUES if name == "--eps" else FLAG_VALUES | TINY_VALUES
    return st.tuples(st.just(name), values)


def _run(argv):
    """`cli.main(argv)`'s exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:       # argparse rejects the string
            rc = exc.code
    return rc, err.getvalue()


@FUZZ
@given(flags=st.lists(st.sampled_from(["--resolution", "--eps"])
                      .flatmap(_flag),
                      max_size=2, unique_by=lambda kv: kv[0]))
@example(flags=[("--resolution", "1e20")])
@example(flags=[("--resolution", "1e-9")])
@example(flags=[("--resolution", "1.1125369292536007e-308")])
def test_verify_numeric_flags_exit_cleanly(flags, tmp_path):
    graph_file = tmp_path / "graph.json"
    strategy_file = tmp_path / "strategy.json"
    if not strategy_file.exists():
        save_graph(GRAPH, graph_file)
        save_path(sweep_strategy(GRAPH, 1.0), str(strategy_file))
    argv = ["verify", "--graph", str(graph_file), "--strategy",
            str(strategy_file)]
    for name, value in flags:
        argv += [name, value]
    rc, err = _run(argv)
    assert rc in (0, 2, 3, 4), (argv, rc)
    if rc in (2, 4):
        assert "error:" in err


# Speeds are quarters, so none lies just above a family's threshold, where
# a cascade takes millions of excursions and seconds to build.
STRATEGY_GRAPHS = {"star": star(3), "comb": comb(3), "cycle": unit_cycle(),
                   "finiteness": star(3), "sweep": star(3)}
ODD_FLAGS = ["nan", "inf", "-inf", "0", "-0", "-1", "1e400", "1e-400",
             "5e-324", "1e-300", "", "abc", "1e300"]
SPEEDS = st.sampled_from(ODD_FLAGS + ["1e6"]) \
    | st.integers(1, 240).map(lambda i: repr(i / 4))
DELTAS = st.none() | st.sampled_from(ODD_FLAGS + ["1e-9", "0.01", "1"])


def _rejected_delta(delta):
    """Whether --delta must be refused: it takes a finite positive float."""
    try:
        return delta is not None and not 0 < float(delta) < math.inf
    except ValueError:
        return True


def _strategy_argv(command, family, tmp_path, delta):
    graph_file = tmp_path / f"{family}.json"
    if not graph_file.exists():
        save_graph(STRATEGY_GRAPHS[family], graph_file)
    kind = "--kind" if command == "generate" else "--family"
    argv = [command, "--graph", str(graph_file), kind, family]
    return argv + ([] if delta is None else ["--delta", delta])


@FUZZ
@given(family=st.sampled_from(sorted(STRATEGY_GRAPHS)), speed=SPEEDS,
       delta=DELTAS)
@example(family="star", speed="4", delta="nan")
@example(family="star", speed="4", delta="inf")
@example(family="star", speed="inf", delta=None)
@example(family="finiteness", speed="100", delta="nan")
@example(family="star", speed="1e300", delta=None)
@example(family="comb", speed="3.5", delta="5e-324")
def test_generate_strategy_flags_exit_cleanly(family, speed, delta,
                                              tmp_path):
    argv = _strategy_argv("generate", family, tmp_path, delta)
    rc, err = _run(argv + ["--speed", speed,
                           "--out", str(tmp_path / "out.json")])
    assert rc in (0, 2), (argv, speed, rc)
    assert rc == 2 or not _rejected_delta(delta)
    if rc == 2:
        assert "error:" in err


@settings(FUZZ, max_examples=40)
@given(family=st.sampled_from(sorted(STRATEGY_GRAPHS)),
       speeds=st.lists(SPEEDS, min_size=1, max_size=3).map(",".join),
       delta=DELTAS)
@example(family="star", speeds="inf", delta=None)
@example(family="star", speeds="4", delta="-1")
def test_frontier_strategy_flags_exit_cleanly(family, speeds, delta,
                                              tmp_path):
    argv = _strategy_argv("frontier", family, tmp_path, delta)
    rc, err = _run(argv + ["--speeds", speeds, "--resolution", "0.1"])
    assert rc in (0, 2, 4), (argv, speeds, rc)
    assert rc == 2 or not _rejected_delta(delta)
    if rc in (2, 4):
        assert "error:" in err


# ------------------------------------------------------ generated graphs

# Names that the normalizations and the interior-start walk also make, so
# that fresh names have to step around them.
NAMES = st.sampled_from(["a", "b", "c", "O", "e0", "e0~a", "e1~0", "x",
                         "x~s0", "x~s1", "~walkstart", "é\""])
TINY_LENGTHS = st.sampled_from([5e-324, 1e-323])


@st.composite
def graph_docs(draw):
    """Connected graph documents whose ids are all strings or, one time in
    four, all integers: a random tree and up to three more edges, with
    loops, parallel edges, repeated and colliding names, lengths from 1e-3
    to 10 and, one time in eight, one so small that a loop's thirds or a
    parallel edge's halves round to 0.0."""
    names = NAMES if draw(st.integers(0, 3)) else st.integers(0, 4)
    vertices = draw(st.lists(names, min_size=1, max_size=5, unique=True))
    ends = [(vertices[draw(st.integers(0, i - 1))], v)
            for i, v in enumerate(vertices) if i]
    pick = st.sampled_from(vertices)
    ends += draw(st.lists(st.tuples(pick, pick), min_size=not ends,
                          max_size=3))
    return {"vertices": vertices, "edges": [
        _edge(f"e{i}" if draw(st.integers(0, 3)) else draw(names), u, v,
              draw(TINY_LENGTHS if not draw(st.integers(0, 7))
                   else st.floats(1e-3, 10.0)))
        for i, (u, v) in enumerate(ends)]}


# Speeds are quarters, away from every family's threshold (see above).
@FUZZ
@given(doc=graph_docs(),
       speeds=st.lists(st.integers(1, 240).map(lambda i: repr(i / 4)),
                       min_size=4, max_size=4))
def test_every_accepted_graph_generates_or_exits_2(doc, speeds, tmp_path):
    try:
        graph_from_dict(doc)
    except GraphValidationError:
        return
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(doc), encoding="utf-8")
    for family in sorted(STRATEGY_GRAPHS):
        for speed in speeds:
            rc, err = _run(["generate", "--graph", str(graph_file), "--kind",
                            family, "--speed", speed, "--out",
                            str(tmp_path / "out.json")])
            assert rc in (0, 2), (doc, family, speed, rc)
            if rc == 2:
                assert err.startswith("error: ") and err.count("\n") == 1
