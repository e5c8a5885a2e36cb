"""Shared fixture graphs and helpers for the test suite."""

import math

import numpy as np

from graphchase import (GraphPoint, PathBuilder, TimedPath, build_graph,
                        double_tree_walk, path_columns)


def to_slots(reach, values):
    """values, indexed by sample along the last axis, in the slots of a
    reach plan, with -inf in the guard slots."""
    out = np.full(values.shape[:-1] + (reach.n_slots,), -np.inf)
    out[..., reach.slot] = values
    return out


def sweeps(g, s, rounds):
    """`sweep_strategy`'s route walked `rounds` times at speed s, every
    other pass reversed so that consecutive passes join."""
    start = min(g.vertices)
    runs = double_tree_walk(g, start)
    back = [(eid, x1, x0) for eid, x0, x1 in reversed(runs)]
    pb = PathBuilder(g, start, s)
    for r in range(rounds):
        for run in back if r % 2 else runs:
            pb.move_runs([run], abs(run[2] - run[1]) / s)
    return pb.build()


def tuple_path(g, times, points, routes, speed_bound, metadata=None):
    """A TimedPath of tuples of times, GraphPoints and per-segment runs,
    read into columns by `path_columns`."""
    return TimedPath(g, path_columns(g, times, points, routes), speed_bound,
                     metadata)


def unit_path():
    return build_graph(["a", "b"], [("a", "b", 1.0)])


def path_graph(n, length=1.0):
    verts = [f"v{i}" for i in range(n + 1)]
    return build_graph(verts, [(f"v{i}", f"v{i+1}", length) for i in range(n)])


def unit_cycle():
    # single loop edge; normalization splits it into three arcs
    return build_graph(["a"], [("a", "a", 1.0)])


def triangle(l0=1.0, l1=1.0, l2=1.0):
    return build_graph(["a", "b", "c"],
                       [("a", "b", l0), ("b", "c", l1), ("c", "a", l2)])


def star(k, arm=1.0):
    verts = ["O"] + [f"u{i}" for i in range(1, k + 1)]
    return build_graph(verts, [("O", f"u{i}", arm) for i in range(1, k + 1)])


def comb(k, length=1.0):
    verts = [f"v{i}" for i in range(1, k + 1)] + \
            [f"u{i}" for i in range(1, k + 1)]
    edges = [(f"v{i}", f"v{i+1}", length) for i in range(1, k)]
    edges += [(f"v{i}", f"u{i}", length) for i in range(1, k + 1)]
    return build_graph(verts, edges)


# edge ids that need escaping in JSON: non-ASCII, quotes and backslashes
ODD_IDS = ('\u00e9"\\e', "snow\u2603\\", '"q"\t')
ALL_JSON_TYPES = {"str": 'h\u00e9 "\\', "int": 3, "big": 10 ** 20,
                  "float": 0.1, "neg_zero": -0.0, "tiny": 5e-324,
                  "inf": math.inf, "nan": math.nan, "true": True,
                  "false": False, "null": None, "empty": {}, "none": [],
                  "list": [1, "two", [3.5, {}], []],
                  "dict": {"z": {"y": []}, "a": [None, -1]}}


def odd_graph():
    """A unit triangle whose edge and vertex ids need escaping in JSON."""
    return build_graph(["a", "b", "\u00e7"],
                       [("a", "b", 1.0, ODD_IDS[0]),
                        ("b", "\u00e7", 1.0, ODD_IDS[1]),
                        ("\u00e7", "a", 1.0, ODD_IDS[2])])


def hand_built_path(g):
    """A path on odd_graph() with int-valued times, offsets and speed
    bound, and metadata of every JSON type."""
    e0, e1, _ = (e.id for e in g.edges)
    return tuple_path(g, (0, 1, 3), (GraphPoint(e0, 0), GraphPoint(e0, 1),
                                     GraphPoint(e1, 0.5)),
                      (((e0, 0, 1),), ((e1, 0, 0.5),)), 1,
                      dict(ALL_JSON_TYPES))
