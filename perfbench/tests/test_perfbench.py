"""Fast tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import itertools
import types

import pytest

import run
import tracing
import workloads
from graphchase import graph_to_dict, star_strategy, verify


@pytest.fixture(scope="module")
def capture():
    cop = star_strategy(workloads.star([0.5, 0.5, 0.5]), 3.5, 1e-2)
    return cop, verify(cop, h=0.02, eps=0.05)


def job(name, out, check, answer=lambda out: {"out": repr(out)}):
    return workloads.Job(name, lambda: out, check, answer)


def test_tampered_answer_fails_and_gets_no_timing(capture):
    cop, res = capture
    honest = job("honest", (cop, res), workloads._capture_problems,
                 workloads._verdict_answer)
    forged = job("forged", (cop, dataclasses.replace(res, verdict="survival")),
                 workloads._capture_problems, workloads._verdict_answer)
    off_pin = job("off-pin", 2, lambda out: [])
    pins = {"honest": workloads._verdict_answer((cop, res)),
            "off-pin": {"out": "1"}}
    m, metrics, _ = run.end_to_end([honest, forged, off_pin], pins,
                                   {"honest": 1, "forged": 1, "off-pin": 1},
                                   rounds=run.MIN_ROUNDS, setup_s=1.0)
    rounds = run.MIN_ROUNDS + 1                    # with the warm-up
    assert m.attempted == 3 * rounds
    assert m.failed == 2 * rounds
    assert metrics["error_rate"] == pytest.approx(2 / 3)
    assert set(m.times) == {"honest"}
    assert len(m.times["honest"]) == run.MIN_ROUNDS
    assert any("expected capture" in p for p in m.problems)
    assert any("differs from pin" in p for p in m.problems)


def test_job_that_raises_is_a_failure():
    def boom():
        raise ValueError("no")
    m = run.Measurement()
    run.run_round([workloads.Job("boom", boom, lambda out: [],
                                 lambda out: {})], {}, m)
    assert (m.attempted, m.failed, m.times) == (1, 1, {})


def test_self_times_on_hand_made_tree():
    #   0 root [0, 10]
    #   1   a [1, 4]      2   b [3, 6] overlaps a: children cover 1..6
    #   3     a1 [2, 3]   4   c [8, 12] clipped to the root at 10
    parents = [-1, 0, 0, 1, 0]
    starts = [0.0, 1.0, 3.0, 2.0, 8.0]
    ends = [10.0, 4.0, 6.0, 3.0, 12.0]
    assert tracing.self_times(parents, starts, ends) == [3.0, 2.0, 3.0, 1.0,
                                                         4.0]


def test_recorded_self_times_add_up_to_job_wall():
    ticks = itertools.count()
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    owner = types.SimpleNamespace(route=lambda: None,
                                  verify=lambda: owner.route() or 7)
    tr.wrap(owner, "route", "graph.route")
    tr.wrap(owner, "verify", "verifier.verify")
    assert owner.verify() == 7                     # outside a job: no span
    with tr.job("j"):
        owner.verify()
        owner.route()
    tr.uninstall()
    assert owner.verify.__name__ == "<lambda>"
    metrics = tracing.layer_metrics(tr)
    # ticks: job 0, verify 1, route 2-3, verify ends 4, route 5-6, job 7
    assert metrics["job.wall_s"] == 7.0
    assert metrics["graph.route.calls"] == 2
    assert metrics["graph.route.self_s"] == 2.0
    assert metrics["verifier.verify.self_s"] == 2.0
    assert metrics["job.other_s"] == 3.0
    assert tracing.accounting_gap(metrics) == 0.0


def test_tail_keeps_ten_values_beyond():
    assert run.tail([float(i) for i in range(30)]) == (19.0, 200 / 3)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    def graphs(seed):
        inputs = workloads.make_inputs(workload, seed, str(tmp_path))
        return {k: graph_to_dict(v) for k, v in inputs.items()
                if hasattr(v, "edges")}
    assert graphs(3) == graphs(3)
    assert graphs(3) != graphs(4)
