"""The benchmark's tracer wraps graphchase attributes by name.

A refactor that renames or drops one of them breaks the benchmark, so these
tests install the tracer, check that it finds every attribute and sees the
package call through it, and check that each one is put back.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

from graphchase import critical, strategies, verifier  # noqa: E402

from common import comb, star, unit_cycle, unit_path  # noqa: E402


def test_tracer_wraps_and_restores_every_attribute():
    tr = tracing.Tracer()
    try:
        tracing.install(tr)
        wrapped = list(tr._saved)
        assert wrapped
        for owner, attr, fn in wrapped:
            assert getattr(owner, attr).__wrapped__ is fn
    finally:
        tr.uninstall()
    for owner, attr, fn in wrapped:
        assert getattr(owner, attr) is fn


@pytest.mark.parametrize("family, graph, speed", [
    ("star", star(3), 4.0),
    ("comb", comb(3), 4.0),
    ("cycle", unit_cycle(), 2.0),
    ("finiteness", unit_path(), 64.0),
    ("sweep", unit_path(), 1.0),
])
def test_family_registry_calls_through_traced_constructors(family, graph,
                                                           speed):
    tr = tracing.Tracer()
    try:
        tracing.install(tr)
        with tr.job(family):
            critical.build_family(graph, family, speed)
    finally:
        tr.uninstall()
    assert tr.names.count("strategies.build") == 1


def test_tracer_sees_both_propagation_passes():
    # the boolean game calls no propagate_step, and the maximin game one
    # per step: the witness is read from its bits, with no replay
    tr = tracing.Tracer()
    try:
        tracing.install(tr)
        with tr.job("survival"):
            cop = strategies.cycle_loop(unit_cycle(), 1.0, 2.0)
            r = verifier.verify(cop, h=0.05)
    finally:
        tr.uninstall()
    assert r.verdict == "survival"
    names = tr.names
    assert r.n_steps > 1
    assert names.count("verifier.propagate_step") == r.n_steps
    assert names.count("verifier.propagate_step_bp") == 0
    assert names.count("verifier.backtrack_witness") == 1


def test_tracer_sees_the_block_clearance_layers():
    # the blocked clearance and the boolean game are called through
    # module attributes, so a tracer can wrap them; here one call of the
    # boolean game, with one block of steps, which decides the verdict
    # without clearance rows, since its first block, SWEEP_STEPS long,
    # holds every step, and one block for the maximin game's single pass
    tr = tracing.Tracer()
    try:
        tracing.install(tr)
        tr.wrap(verifier, "swept_block", "verifier.swept_block")
        tr.wrap(verifier, "distances_to_interval_rows",
                "verifier.distances_to_interval_rows")
        tr.wrap(verifier, "_play", "verifier.play")
        with tr.job("survival"):
            cop = strategies.cycle_loop(unit_cycle(), 1.0, 2.0)
            r = verifier.verify(cop, h=0.05)
    finally:
        tr.uninstall()
    assert r.verdict == "survival"
    assert r.n_steps <= verifier.SWEEP_STEPS
    names = tr.names
    assert names.count("verifier.play") == 1
    assert names.count("verifier.swept_block") == 2
    assert names.count("verifier.distances_to_interval_rows") == 1
    assert names.count("verifier.propagate_step") == r.n_steps
