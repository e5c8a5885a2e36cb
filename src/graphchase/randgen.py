"""Seeded random instances for property tests and the CLI selftest.

Everything takes an explicit random.Random so runs are reproducible from a
single seed.  Graphs are generated as a random spanning tree plus optional
extra edges (possibly loops or parallels, which normalization subdivides).
"""

from __future__ import annotations

import random

from .graph import MetricGraph, build_graph, discretize
from .trajectory import PathBuilder, TimedPath, truncate_path


def random_graph(rng: random.Random, max_vertices: int = 7,
                 extra_edges: int = 2, min_len: float = 0.5,
                 max_len: float = 2.0, allow_multi: bool = False) -> MetricGraph:
    """Random connected graph: spanning tree plus a few extra edges."""
    n = rng.randint(2, max_vertices)
    names = [f"v{i}" for i in range(n)]
    edges = []
    present = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((names[j], names[i], rng.uniform(min_len, max_len)))
        present.add((j, i))
    for _ in range(rng.randint(0, extra_edges)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        key = (min(i, j), max(i, j))
        if not allow_multi and (i == j or key in present):
            continue
        present.add(key)
        edges.append((names[i], names[j], rng.uniform(min_len, max_len)))
    return build_graph(names, edges)


def random_cop_path(g: MetricGraph, rng: random.Random,
                    moves: int = 4) -> TimedPath:
    """Random vertex-to-vertex walk with occasional pauses."""
    speed = rng.uniform(0.4, 3.0)
    start = rng.choice(list(g.vertices))
    pb = PathBuilder(g, start, speed)
    for _ in range(moves):
        if rng.random() < 0.25:
            pb.wait(rng.uniform(0.1, 0.6))
            continue
        target = rng.choice(list(g.vertices))
        pb.move_to(target, speed=speed * rng.uniform(0.5, 1.0))
    if pb.now == 0:     # neither moved nor waited
        pb.wait(rng.uniform(0.2, 1.0))
    return pb.build({"kind": "random"})


def oracle_instance(rng: random.Random):
    """A tiny verification instance, for checks against the brute-force
    oracle: (cop path, h, eps) with at most 12 samples and 12 steps.
    """
    for _ in range(200):
        g = random_graph(rng, max_vertices=4, extra_edges=1,
                         min_len=0.8, max_len=1.6)
        h = max(e.length for e in g.edges) / rng.choice([2, 3])
        grid = discretize(g, h)
        if grid.n > 12:
            continue
        cop = random_cop_path(g, rng, moves=rng.randint(1, 3))
        limit = 12 * grid.max_spacing
        if cop.duration > limit:
            cop = truncate_path(cop, limit * rng.uniform(0.6, 1.0))
        eps = grid.max_spacing * rng.uniform(1.05, 2.5)
        return cop, h, eps
    raise RuntimeError("failed to generate a tiny instance")
