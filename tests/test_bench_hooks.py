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

from graphchase import critical  # noqa: E402

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
