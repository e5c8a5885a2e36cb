"""Seeded random instances for property tests and the CLI selftest.

Everything takes an explicit random.Random so runs are reproducible from a
single seed.  Graphs are generated as a random spanning tree plus optional
extra edges (possibly loops or parallels, which normalization subdivides).
"""

from __future__ import annotations

import random

from .graph import MetricGraph, build_graph, discretize
from .trajectory import PathBuilder, TimedPath


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
                    speed: float | None = None,
                    moves: int = 4) -> TimedPath:
    """Random vertex-to-vertex walk with occasional pauses."""
    if speed is None:
        speed = rng.uniform(0.4, 3.0)
    start = rng.choice(list(g.vertices))
    pb = PathBuilder(g, start, speed)
    moved = False
    for _ in range(moves):
        if rng.random() < 0.25:
            pb.wait(rng.uniform(0.1, 0.6))
            continue
        target = rng.choice(list(g.vertices))
        before = pb.now
        pb.move_to(target, speed=speed * rng.uniform(0.5, 1.0))
        moved = moved or pb.now > before
    if not moved and pb.now == 0:
        pb.wait(rng.uniform(0.2, 1.0))
    return pb.build({"kind": "random"})


def oracle_instance(rng: random.Random, max_samples: int = 12,
                    max_steps: int = 12):
    """A tiny verification instance within brute-force oracle limits.

    Returns (cop path, h, dt, eps) with the derived grid at most
    `max_samples` samples and the step count at most `max_steps`.
    """
    from .trajectory import truncate_path

    for _ in range(200):
        g = random_graph(rng, max_vertices=4, extra_edges=1,
                         min_len=0.8, max_len=1.6)
        h = max(e.length for e in g.edges) / rng.choice([2, 3])
        grid = discretize(g, h)
        if grid.n > max_samples:
            continue
        dt = grid.max_spacing * rng.uniform(0.3, 1.0)
        cop = random_cop_path(g, rng, moves=rng.randint(1, 3))
        if cop.duration <= 0:
            continue
        limit = max_steps * dt
        if cop.duration > limit:
            cop = truncate_path(cop, limit * rng.uniform(0.6, 1.0))
        if cop.duration <= 0:
            continue
        eps = max(grid.max_spacing, dt) * rng.uniform(1.05, 2.5)
        return cop, h, dt, eps
    raise RuntimeError("failed to generate an oracle-sized instance")
