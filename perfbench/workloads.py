"""Seeded inputs, jobs and answer checks of the three benchmark workloads.

A job is one user-level call: ``verify`` of a freshly built trajectory, one
speed bracket, one frontier table, or one in-process CLI invocation.  Its
``run`` is what gets timed; its ``check`` runs afterwards, untimed, and
returns the problems it found (an empty list means the answer is correct).

The seed perturbs edge lengths only where the family's theory does not
depend on them, so every verdict is fixed by theory on every seed:

* star clearing captures above speed 2k-3 whatever the arm lengths;
* a unit-speed loop never captures on a cycle of any length;
* the naive sweep leaves an evader room to slip behind it on any star or
  comb at these speeds.

The perturbation also keeps each job's work (samples x steps) nearly the
same on every seed, so that the spread between seeds measures the machine
and not the inputs.  Perturbed graphs keep their total length, which fixes
the sample count and a sweep's duration; the cycle is looped for ten laps,
which fixes its step count; and star clearing, whose excursion count is a
step function of the arm lengths, is perturbed by 2% rather than 10%.

The comb of ``frontier-bisect`` keeps equal unit lengths (comb clearing
requires them) and its cycle stays the unit cycle, so those jobs have the
same answer on every seed and are compared with the pins on every seed.
All other pins apply on ``PIN_SEED`` only.  ``dt`` is left at its default,
the grid spacing, everywhere.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from graphchase import cli, critical, graph, strategies, trajectory, verifier

PIN_SEED = 0
WORKLOADS = ("star-ladder", "witness-survival", "frontier-bisect")
JITTER = 0.1          # relative length perturbation
CASCADE_JITTER = 0.02  # the same for star clearing
LAPS = 10
FRONTIER_SPEEDS = (2.5, 3.0, 3.25, 3.5, 4.0, 5.0)
# typical wall time of one round of every job on the reference machine;
# run.py turns --seconds into a round count with it
ROUND_SECONDS = {"star-ladder": 1.8, "witness-survival": 1.8,
                 "frontier-bisect": 2.1}


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    answer: Callable[[object], dict]   # the pinned part of the outcome
    seeded: bool = True                # inputs depend on the seed
    # turns run's result into what check and answer see; untimed
    outcome: Callable[[object], object] = lambda out: out


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def star(arms):
    verts = ["O"] + [f"u{i}" for i in range(1, len(arms) + 1)]
    return graph.build_graph(
        verts, [("O", f"u{i}", a) for i, a in enumerate(arms, 1)])


def comb(lengths):
    """Comb on k backbone vertices: k-1 spine lengths, then k teeth."""
    k = (len(lengths) + 1) // 2
    verts = [f"v{i}" for i in range(1, k + 1)] + \
            [f"u{i}" for i in range(1, k + 1)]
    edges = [(f"v{i}", f"v{i + 1}") for i in range(1, k)]
    edges += [(f"v{i}", f"u{i}") for i in range(1, k + 1)]
    return graph.build_graph(verts, [(u, v, ln) for (u, v), ln
                                     in zip(edges, lengths)])


def cycle(length):
    return graph.build_graph(["a"], [("a", "a", length)])


def make_inputs(workload: str, seed: int, workdir: str) -> dict:
    """Graphs (and CLI input files) of one workload, a function of the seed."""
    rng = random.Random(f"{workload}/{seed}")

    def jitter(base, n, amount=JITTER):
        """n lengths near base, perturbed, with total n * base."""
        xs = [rng.uniform(1 - amount, 1 + amount) for _ in range(n)]
        return [base * x * n / sum(xs) for x in xs]

    if workload == "star-ladder":
        return {"star3": star(jitter(0.5, 3, CASCADE_JITTER)),
                "star4": star(jitter(0.5, 4, CASCADE_JITTER))}
    if workload == "witness-survival":
        length = rng.uniform(1 - JITTER, 1 + JITTER)
        inputs = {"cycle": cycle(length), "cycle_h": length / 400,
                  "cycle_duration": LAPS * length,
                  "comb6": comb(jitter(1.0, 11)), "star4": star(jitter(0.5, 4))}
        inputs["cycle_cop"] = strategies.cycle_loop(
            inputs["cycle"], 1.0, inputs["cycle_duration"])
        inputs["files"] = _write_files(workdir, inputs["cycle"],
                                       inputs["cycle_cop"])
        return inputs
    if workload == "frontier-bisect":
        inputs = {"star3": star(jitter(0.5, 3, CASCADE_JITTER)),
                  "cycle": cycle(1.0), "comb6": comb([1.0] * 11)}
        inputs["files"] = _write_files(workdir, inputs["comb6"])
        return inputs
    raise ValueError(f"unknown workload {workload!r}")


def _write_files(workdir, g, cop=None) -> dict:
    files = {name: os.path.join(workdir, f"{name}.json")
             for name in ("graph", "strategy", "report", "witness")}
    graph.save_graph(g, files["graph"])
    if cop is not None:
        trajectory.save_path(cop, files["strategy"])
    return files


# ----------------------------------------------------------------------
# answers and checks
# ----------------------------------------------------------------------

def _verdict_answer(out) -> dict:
    _, r = out
    return {"verdict": r.verdict, "time_bound": repr(r.time_bound),
            "min_clearance": repr(r.min_clearance)}


def _capture_problems(out) -> list:
    cop, r = out
    if r.verdict != "capture":
        return [f"expected capture, got {r.verdict}"]
    if not r.time_bound <= cop.duration:
        return [f"time bound {r.time_bound} exceeds duration {cop.duration}"]
    return []


def _witness_problems(cop, witness, clearance) -> list:
    if witness is None:
        return ["survival without a witness"]
    problems = []
    if not trajectory.check_lipschitz(witness, 1 + 1e-9):
        problems.append("witness moves faster than unit speed")
    if not clearance > 0:
        problems.append(f"witness clearance {clearance} is not positive")
    exact = verifier.continuous_clearance(cop, witness)
    if exact != clearance:
        problems.append(f"reported clearance {clearance!r} differs from the "
                        f"continuous clearance {exact!r}")
    return problems


def _survival_problems(out) -> list:
    cop, r = out
    if r.verdict != "survival":
        return [f"expected survival, got {r.verdict}"]
    return _witness_problems(cop, r.witness, r.min_clearance)


def _quiet(argv):
    """cli.main with its stdout captured: (exit code, printed text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------

def _star_jobs(inputs) -> list[Job]:
    jobs = []
    for h in (1e-3, 5e-4):
        for k in (3, 4):
            g, s = inputs[f"star{k}"], 2 * k - 3 + 0.5

            def run(g=g, s=s, h=h):
                cop = strategies.star_strategy(g, s, 1e-2)
                return cop, verifier.verify(cop, h=h, eps=0.02)
            jobs.append(Job(f"star{k}-h{h:g}", run, _capture_problems,
                            _verdict_answer))
    return jobs


def _witness_jobs(inputs) -> list[Job]:
    cyc, comb6, star4 = inputs["cycle"], inputs["comb6"], inputs["star4"]
    files = inputs["files"]

    def cycle_loop():
        cop = strategies.cycle_loop(cyc, 1.0, inputs["cycle_duration"])
        return cop, verifier.verify(cop, h=inputs["cycle_h"])

    def comb_sweep():
        cop = strategies.sweep_strategy(comb6, 3.5)
        return cop, verifier.verify(cop, h=5e-3)

    def star_sweep():
        cop = strategies.sweep_strategy(star4, 5.5)
        return cop, verifier.verify(cop, h=1e-3)

    def cli_verify():
        return _quiet(["verify", "--graph", files["graph"],
                       "--strategy", files["strategy"],
                       "--resolution", repr(inputs["cycle_h"]),
                       "--report", files["report"],
                       "--witness", files["witness"]])

    def cli_outcome(out):
        # read and remove the written files, so a later run cannot pass on
        # a stale copy
        code, _ = out
        try:
            with open(files["report"], encoding="utf-8") as fh:
                report = json.load(fh)
            witness = trajectory.load_path(cyc, files["witness"])
        except (OSError, ValueError) as exc:
            return code, None, None, str(exc)
        finally:
            for key in ("report", "witness"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(files[key])
        return code, report, witness, None

    def cli_answer(out):
        code, report, _, _ = out
        return {"exit": repr(code), "verdict": report["verdict"],
                "time_bound": repr(report["time_bound"]),
                "min_clearance": repr(report["min_clearance"])}

    def cli_problems(out):
        code, report, witness, error = out
        if error is not None:
            return [f"CLI outputs unreadable: {error}"]
        problems = [] if code == cli.EXIT_SURVIVAL else [f"exit code {code}"]
        if report["verdict"] != "survival":
            return problems + [f"expected survival, got {report['verdict']}"]
        return problems + _witness_problems(inputs["cycle_cop"], witness,
                                            report["min_clearance"])

    return [Job("cycle-loop", cycle_loop, _survival_problems, _verdict_answer),
            Job("comb6-sweep", comb_sweep, _survival_problems,
                _verdict_answer),
            Job("star4-sweep", star_sweep, _survival_problems,
                _verdict_answer),
            Job("cli-verify-cycle", cli_verify, cli_problems, cli_answer,
                outcome=cli_outcome)]


def _frontier_jobs(inputs) -> list[Job]:
    star3, cyc, comb6 = inputs["star3"], inputs["cycle"], inputs["comb6"]
    files = inputs["files"]

    def bisect_star():
        return critical.upper_bound_bisect(star3, "star", 2.0, 4.0, 0.05,
                                           h=2e-3, eps=0.02)

    def bisect_cycle():
        return critical.upper_bound_bisect(cyc, "cycle", 0.5, 2.0, 0.01,
                                           h=0.02)

    def frontier():
        return critical.frontier_table(comb6, "comb", FRONTIER_SPEEDS,
                                       h=0.02, eps=0.06)

    def cli_frontier():
        return _quiet(["frontier", "--graph", files["graph"],
                       "--family", "comb",
                       "--speeds", ",".join(map(repr, FRONTIER_SPEEDS)),
                       "--resolution", "0.02", "--eps", "0.06"])

    def bracket_answer(b):
        return {"lower": repr(b.lower), "upper": repr(b.upper),
                "probes": repr(b.probes)}

    def bracket_problems(b, threshold):
        problems = []
        if not b.upper - b.lower <= b.tol:
            problems.append(f"bracket [{b.lower}, {b.upper}] wider than "
                            f"{b.tol}")
        if not b.upper_evidence.captured:
            problems.append("upper end carries no capture certificate")
        if b.family == "star" and not b.upper > threshold:
            problems.append(f"star bracket upper end {b.upper} not above "
                            f"{threshold}")
        if b.family == "cycle" and not b.lower <= threshold <= b.upper:
            problems.append(f"cycle bracket [{b.lower}, {b.upper}] misses "
                            f"{threshold}")
        return problems

    def rows_problems(rows):
        problems = []
        if tuple(r.s for r in rows) != FRONTIER_SPEEDS:
            problems.append(f"rows at speeds {[r.s for r in rows]}")
        for r in rows:
            if r.s <= 3 and "constructor rejected" not in r.note:
                problems.append(f"comb constructor accepted speed {r.s}")
            if r.verdict == "survival" and not r.clearance > 0:
                problems.append(f"survival at {r.s} without clearance")
        return problems

    def csv_problems(out):
        code, text = out
        lines = text.splitlines()
        problems = [] if code == cli.EXIT_OK else [f"exit code {code}"]
        if len(lines) != len(FRONTIER_SPEEDS) + 1:
            problems.append(f"{len(lines)} CSV lines")
        return problems

    return [Job("bisect-star3", bisect_star,
                lambda b: bracket_problems(b, 3.0), bracket_answer),
            Job("bisect-cycle", bisect_cycle,
                lambda b: bracket_problems(b, 1.0), bracket_answer,
                seeded=False),
            Job("frontier-comb6", frontier, rows_problems,
                lambda rows: {"rows": [repr(r) for r in rows]}, seeded=False),
            Job("cli-frontier-comb6", cli_frontier, csv_problems,
                lambda out: {"exit": repr(out[0]), "csv": out[1]},
                seeded=False)]


def make_jobs(workload: str, inputs: dict) -> list[Job]:
    return {"star-ladder": _star_jobs, "witness-survival": _witness_jobs,
            "frontier-bisect": _frontier_jobs}[workload](inputs)
