"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single pass/fail line with
the measured numbers.  Run directly (python3 tests/test_acceptance.py) or
via pytest.
"""

import math
import random
import sys
import time

import pytest

from graphchase import (PathBuilder, StrategyError, build_graph,
                        brute_force_oracle, comb_strategy, cycle_loop,
                        cycle_strategy, lambda_root, reparameterize_max_speed,
                        star_strategy, sweep_strategy, total_variation,
                        transfer_scale, transfer_shorten, verify)
from graphchase.graph import double_tree_walk, walk_covers
from graphchase.randgen import oracle_instance, random_graph

from common import comb, star, unit_cycle, unit_path


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def random_tree(rng: random.Random):
    n = rng.randint(3, 5)
    verts = [f"v{i}" for i in range(n)]
    edges = [(verts[rng.randrange(i)], verts[i], rng.uniform(0.5, 2.0))
             for i in range(1, n)]
    return build_graph(verts, edges)


def winning_sweep(rng: random.Random, speed: float, pad: bool):
    """A verified-capturing (optionally wait-padded) sweep on a random tree."""
    for _ in range(60):
        g = random_tree(rng)
        cop = sweep_strategy(g, speed)
        if pad:
            pb = PathBuilder(g, min(g.vertices), speed)
            for i, runs in enumerate(cop.routes):
                if rng.random() < 0.5:
                    pb.wait(rng.uniform(0.05, 0.3))
                pb.move_runs(list(runs), cop.times[i + 1] - cop.times[i])
            cop = pb.build(dict(cop.metadata))
        h = g.min_edge_length / 10
        res = verify(cop, h=h, want_witness=False)
        if res.captured:
            return g, cop, h, res
    raise AssertionError("could not sample a verified winning sweep")


# 1 ------------------------------------------------------------------------

def test_criterion_01_path_capture_at_any_speed():
    t0 = time.monotonic()
    g = unit_path()
    cop = PathBuilder(g, "a", 0.1).move_to("b", speed=0.1).build()
    res = verify(cop, h=0.01, want_witness=False)
    elapsed = time.monotonic() - t0
    ok = res.captured and elapsed < 5.0
    assert report(1, ok,
                  f"unit path swept at s=0.1 -> {res.verdict} "
                  f"(t_bound={res.time_bound}, eps={res.eps:.4g}, "
                  f"{elapsed:.2f}s)")


# 2 ------------------------------------------------------------------------

def test_criterion_02_cycle_evasion_at_unit_speed():
    t0 = time.monotonic()
    g = unit_cycle()
    cop = cycle_loop(g, 1.0, 10.0)
    res = verify(cop, h=0.01)
    elapsed = time.monotonic() - t0
    ok = (res.verdict == "survival" and res.min_clearance is not None
          and res.min_clearance >= 0.4 and elapsed < 10.0)
    assert report(2, ok,
                  f"unit cycle, s=1 loop for T=10 -> {res.verdict}, witness "
                  f"clearance {res.min_clearance:.4f} >= 0.4 "
                  f"({elapsed:.2f}s)")


# 3 ------------------------------------------------------------------------

def test_criterion_03_cycle_capture_time():
    g = unit_cycle()
    h = 1.0 / 150
    cop = cycle_strategy(g, 2.0)
    res = verify(cop, h=h, eps=1.5 / 150, want_witness=False)
    assert res.captured
    t = res.time_bound
    tol = 6 * h
    ok = abs(t - 1.0) <= tol
    assert report(3, ok,
                  f"unit cycle, s=2 loop captures at t={t:.4f}, "
                  f"|t-1| <= {tol:.4f}")


# 4 ------------------------------------------------------------------------

def test_criterion_04_star_speed_threshold():
    details = []
    ok = True
    for k in (3, 4):
        t0 = time.monotonic()
        g = star(k)
        s_hi = 2 * k - 3 + 0.5
        s_lo = 2 * k - 3 - 0.5
        cop = star_strategy(g, s_hi, truncation=1e-3)
        res = verify(cop, h=1e-3, eps=4e-3, want_witness=False)
        try:
            star_strategy(g, s_lo, truncation=1e-3)
            rejected = False
        except StrategyError:
            rejected = True
        naive = verify(sweep_strategy(g, s_lo), h=1e-3, eps=4e-3,
                       want_witness=False)
        elapsed = time.monotonic() - t0
        case_ok = (res.captured and rejected
                   and naive.verdict == "survival" and elapsed < 60.0)
        ok = ok and case_ok
        details.append(f"k={k}: s={s_hi} {res.verdict}, "
                       f"s={s_lo} rejected={rejected}/"
                       f"sweep {naive.verdict} ({elapsed:.1f}s)")
    assert report(4, ok, "star threshold 2k-3 -- " + "; ".join(details))


# 5 ------------------------------------------------------------------------

def test_criterion_05_lambda_identities():
    worst_poly = 0.0
    worst_gap = 0.0
    for k in range(3, 9):
        for s in (2 * k - 3 + 0.5, 2 * k - 3 + 2.0, 2 * k + 10.0):
            lam = lambda_root(k, s)
            worst_poly = max(worst_poly, abs(
                math.fsum(lam ** i for i in range(1, k - 1)) - (s - 1) / 2))
        worst_gap = max(worst_gap, lambda_root(k, 2 * k - 3 + 1e-6) - 1.0)
    closed = max(abs(lambda_root(3, s) - (s - 1) / 2)
                 for s in (3.5, 4.0, 7.25, 100.0))
    ok = worst_poly <= 1e-12 and 0 < worst_gap < 1e-3 and closed <= 1e-12
    assert report(5, ok,
                  f"growth root: max poly residual {worst_poly:.2e} <= 1e-12, "
                  f"lambda-1 at threshold {worst_gap:.2e} < 1e-3, "
                  f"k=3 closed form off by {closed:.2e}")


# 6 ------------------------------------------------------------------------

def test_criterion_06_comb_capture():
    t0 = time.monotonic()
    g = comb(3)
    cop = comb_strategy(g, 3.5, truncation=1e-3)
    res = verify(cop, h=1e-3, eps=4e-3, want_witness=False)
    elapsed = time.monotonic() - t0
    ok = res.captured and elapsed < 120.0
    assert report(6, ok,
                  f"comb B_3 at s=3.5 -> {res.verdict} "
                  f"(t_bound={None if res.time_bound is None else round(res.time_bound, 3)}, "
                  f"{elapsed:.1f}s)")


# 7 ------------------------------------------------------------------------

def test_criterion_07_scaling_and_shortening_transfer():
    rng = random.Random(7)
    factors = (0.5, 2.0, 4.0)
    passed = 0
    for i in range(20):
        g, cop, h, res = winning_sweep(rng, speed=6.0, pad=False)
        c = factors[i % 3]
        scaled = transfer_scale(cop, c)
        r_scale = verify(scaled, h=c * h, eps=c * res.eps,
                         want_witness=False)
        leaf_edges = [e.id for e in g.edges if g.leaf_end(e.id) is not None]
        eid = rng.choice(sorted(leaf_edges))
        new_len = rng.uniform(0.3, 0.9) * g.edge(eid).length
        short = transfer_shorten(cop, eid, new_len)
        r_short = verify(short, h=h, eps=res.eps + 3 * res.dt,
                         want_witness=False)
        if (r_scale.captured
                and abs(r_scale.time_bound - c * res.time_bound) < 1e-9 * c
                and r_short.captured):
            passed += 1
    ok = passed == 20
    assert report(7, ok,
                  f"scaling and leaf-shortening preserved capture on "
                  f"{passed}/20 random winning strategies")


# 8 ------------------------------------------------------------------------

def test_criterion_08_max_speed_reparameterization():
    rng = random.Random(8)
    passed = 0
    worst = 0.0
    for _ in range(20):
        g, padded, h, res = winning_sweep(rng, speed=4.0, pad=True)
        fast = reparameterize_max_speed(padded, padded.speed_bound)
        gap = abs(total_variation(fast)
                  - padded.speed_bound * fast.duration)
        worst = max(worst, gap)
        r2 = verify(fast, h=h, want_witness=False)
        if gap < 1e-9 and r2.captured:
            passed += 1
    ok = passed == 20
    assert report(8, ok,
                  f"full-speed reparameterization kept capture on "
                  f"{passed}/20 padded strategies; worst |V - sT'| = "
                  f"{worst:.2e}")


# 9 ------------------------------------------------------------------------

def test_criterion_09_oracle_equivalence():
    rng = random.Random(9)
    disagreements = 0
    verdicts = {"capture": 0, "survival": 0}
    for _ in range(200):
        cop, h, eps = oracle_instance(rng)
        fast = verify(cop, h=h, eps=eps, want_witness=False)
        slow = brute_force_oracle(cop, h=h, eps=eps)
        if (fast.verdict, fast.time_bound) != (slow.verdict, slow.time_bound):
            disagreements += 1
        verdicts[fast.verdict] += 1
    ok = disagreements == 0 and min(verdicts.values()) > 0
    assert report(9, ok,
                  f"verify vs brute-force oracle: 200 cases "
                  f"({verdicts['capture']} capture / "
                  f"{verdicts['survival']} survival), "
                  f"{disagreements} disagreements")


# 10 -----------------------------------------------------------------------

def test_criterion_10_double_tree_bound():
    rng = random.Random(10)
    worst_ratio = 0.0
    failures = 0
    for _ in range(100):
        g = random_graph(rng)
        runs = double_tree_walk(g, min(g.vertices))
        length = sum(abs(x1 - x0) for _, x0, x1 in runs)
        if not walk_covers(g, runs) or length > 2 * g.total_length + 1e-9:
            failures += 1
        worst_ratio = max(worst_ratio, length / g.total_length)
    ok = failures == 0
    assert report(10, ok,
                  f"covering walk on 100 random graphs: length <= 2*total "
                  f"always (worst ratio {worst_ratio:.3f}), all edges "
                  f"covered")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v", "-s"]))
