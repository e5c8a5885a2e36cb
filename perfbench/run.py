"""graphchase benchmark: one workload per process, every answer checked.

    python3 perfbench/run.py --workload star-ladder --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics of a traced run (see README.md beside this
file).  Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

The package is imported from ``src/`` of the checkout that holds this
directory; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# one thread: set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
WORK = HERE / ".work"
OUT = HERE / "out"

# A run is one untimed warm-up round, then a fixed number of rounds of
# every job of its workload: --seconds over the workload's typical round
# time on the reference machine (workloads.ROUND_SECONDS), and at least
# MIN_ROUNDS.  The count does not follow the
# machine's momentary speed, so both sides of a comparison time the same
# jobs and the tail is the same order statistic on both.  With four jobs a
# round and at least 12 rounds, the tail (the eleventh-slowest job) falls
# among the samples of the slowest job rather than between two jobs.
MIN_ROUNDS = 12
TAIL_BEYOND = 10
SETUP_PROBES = 5
PROBE_TIMEOUT = 60
# Median time of one speed probe on the reference machine (README.md).
REFERENCE_PROBE_S = 16e-3
PROBE_WINDOW = 2
# Median start-up time of the numpy-only baseline process on the reference
# machine (setup_seconds).
REFERENCE_IMPORT_S = 0.155

END_TO_END = (("setup_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("sample_steps_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("error_rate", "share"))
# error_rate is reported in the text lines and by the attempted and failed
# counts of the result line; it is 0 on a correct run, so it is no metric
# a relative bound can guard.
RESULT_METRICS = tuple(m for m in END_TO_END if m[0] != "error_rate")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

@dataclass
class Measurement:
    """Timings of the jobs that passed their checks, plus every failure."""

    times: dict[str, list[float]] = field(default_factory=dict)
    # index of the speed probe taken just before each timed job
    probe_at: dict[str, list[int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def all_times(self) -> list[float]:
        return [t for ts in self.times.values() for t in ts]


class SpeedProbe:
    """A fixed kernel shaped like the verifier's work, timed before each job.

    The benchmark was tuned on a shared 2-vCPU virtual machine whose speed
    changes by up to 2x within minutes, and by 25% within seconds, as its
    neighbours' load changes.  End-to-end job times are therefore reported
    at reference speed: each measured time x REFERENCE_PROBE_S / (the
    median time of the probes taken before the nearest jobs, PROBE_WINDOW
    either side).  The kernel is half numpy work shaped like propagation
    steps and half interpreter work (tuples and a dict), on fixed data,
    and uses no graphchase code, so a change to the program moves reported
    times exactly as it moves measured ones.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        n, degree = 4000, 7
        self.src = np.clip(np.repeat(np.arange(n), degree)
                           + np.tile(np.arange(degree) - degree // 2, n),
                           0, n - 1)
        self.starts = np.arange(0, n * degree, degree)
        self.score = rng.random(n)
        self.clearance = rng.random(n)
        self.samples: list[float] = []

    def _kernel(self) -> None:
        score = self.score
        for _ in range(30):
            best = np.maximum.reduceat(
                np.minimum(score, self.clearance)[self.src], self.starts)
            score = np.minimum(best, self.clearance)
            bool(np.any(score > 0.01))
        table = {}
        for k in range(24000):
            table[k & 255] = (k, k * 1.5, min(k, 7))

    def __call__(self) -> None:
        # the first pass refills the caches the last job evicted, so the
        # timed pass does not depend on what that job left behind
        self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def factor(self, k: int) -> float:
        """Reference speed over the local speed around probe k."""
        near = self.samples[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW + 1]
        return REFERENCE_PROBE_S / statistics.median(near)


def settle(job, out, pin):
    """(answer, problems): the job's own checks, then the answer against the
    pin if one applies.  A check that raises is a problem, not a crash."""
    try:
        out = job.outcome(out)
        problems = list(job.check(out))
        answer = job.answer(out)
    except Exception as exc:   # a malformed answer is a failed job
        return None, [f"check raised {type(exc).__name__}: {exc}"]
    if pin is not None and answer != pin:
        problems.append(f"answer {answer} differs from pin {pin}")
    return answer, problems


def run_round(jobs, pins, m: Measurement, timed: bool = True,
              tracer=None, probe: SpeedProbe | None = None) -> None:
    """Run every job once; a job that fails its check gets no timing.

    The probe, if given, is taken (untimed) before each job.
    """
    clock = time.perf_counter
    for job in jobs:
        if probe is not None:
            probe()
        m.attempted += 1
        try:
            if tracer is None:
                t0 = clock()
                out = job.run()
                elapsed = clock() - t0
            else:
                with tracer.job(job.name):
                    t0 = clock()
                    out = job.run()
                    elapsed = clock() - t0
        except Exception as exc:   # the program failed this job
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            _, problems = settle(job, out, pins.get(job.name))
        if problems:
            m.failed += 1
            m.problems += [f"{job.name}: {p}" for p in problems]
        elif timed:
            m.times.setdefault(job.name, []).append(elapsed)
            if probe is not None:
                m.probe_at.setdefault(job.name, []).append(
                    len(probe.samples) - 1)


def scaled(m: Measurement, probe: SpeedProbe | None) -> dict:
    """Each job's timings at reference speed (as measured without a probe)."""
    if probe is None:
        return m.times
    return {name: [t * probe.factor(k) for t, k in zip(ts, m.probe_at[name])]
            for name, ts in m.times.items()}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with TAIL_BEYOND values above.

    With too few values for that, the maximum and percentile 100.
    """
    xs = sorted(values)
    i = len(xs) - 1 - TAIL_BEYOND
    if i < 0:
        return xs[-1], 100.0
    return xs[i], 100.0 * (i + 1) / len(xs)


# ----------------------------------------------------------------------
# machine and environment
# ----------------------------------------------------------------------

def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "limits": "single process, single thread; no CPU pinning; "
                      "no file-cache dropping; ru_maxrss is the process-wide "
                      "peak"}


def import_package():
    """Put the checkout's src/ first on the path and import graphchase."""
    if not (SRC / "graphchase" / "__init__.py").is_file():
        raise SetupError(f"no graphchase package under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphchase
    if Path(graphchase.__file__).resolve().parent != SRC / "graphchase":
        raise SetupError(f"graphchase imported from {graphchase.__file__}, "
                         f"not from {SRC}")


def load_pins(workload: str, seed: int, jobs, pin_seed: int):
    """(answer pins that apply to this run, nominal sample-steps per job)."""
    try:
        with open(PINS, encoding="utf-8") as fh:
            doc = json.load(fh)["workloads"][workload]
    except (OSError, KeyError, ValueError) as exc:
        raise SetupError(f"pins for {workload} unreadable: {exc}") from None
    missing = [j.name for j in jobs if j.name not in doc]
    if missing:
        raise SetupError(f"no pins for jobs {missing}")
    answers = {j.name: doc[j.name]["answer"] for j in jobs
               if seed == pin_seed or not j.seeded}
    nominal = {j.name: doc[j.name]["nominal_sample_steps"] for j in jobs}
    return answers, nominal


def _time_to_ready(argv) -> float:
    """Wall time from starting a process until it prints its ready line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        proc.wait(timeout=PROBE_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SetupError(f"{argv[1:]} failed (exit {proc.returncode})")
    return elapsed


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """(at reference speed, measured) median time of fresh processes from
    start until the first job can run.

    Each is paired with a baseline process that only imports numpy, started
    just before it, and scaled by REFERENCE_IMPORT_S / (that baseline's
    time): process start-up drifts with the machine like computation does.
    """
    setup = [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-probe"]
    baseline = [sys.executable, "-c", "import numpy; print('ready')"]
    at_reference, measured = [], []
    for _ in range(SETUP_PROBES):
        base = _time_to_ready(baseline)
        t = _time_to_ready(setup)
        at_reference.append(t * REFERENCE_IMPORT_S / base)
        measured.append(t)
    return statistics.median(at_reference), statistics.median(measured)


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------

def end_to_end(jobs, pins, nominal, rounds: int, setup_s: float,
               probe: SpeedProbe | None = None):
    """End-to-end metrics; job times at reference speed if a probe is given.

    A round's jobs differ in size by up to 6x, so the median job is taken
    over each job's median: the median of all samples pooled would fall
    between two jobs' samples, where it reads the slowest of one and the
    fastest of the other.
    """
    m = Measurement()
    run_round(jobs, pins, m, timed=False, probe=probe)   # warm-up, checked
    for _ in range(rounds):
        run_round(jobs, pins, m, probe=probe)
    times = scaled(m, probe)
    metrics = {"setup_s": setup_s,
               "peak_rss_mb":
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "error_rate": m.failed / m.attempted}
    notes = {"setup_s": f"median of {SETUP_PROBES} fresh processes"}
    if times:
        medians = {name: statistics.median(ts) for name, ts in times.items()}
        measured = {name: statistics.median(ts)
                    for name, ts in m.times.items()}
        for name, t in medians.items():
            notes[name] = f"median {t:.6g} s over {len(times[name])} runs, " \
                          f"{measured[name]:.6g} s measured"
        pooled = [t for ts in times.values() for t in ts]
        value, pct = tail(pooled)
        metrics.update(
            job_p50_s=statistics.median(medians.values()), job_tail_s=value,
            sample_steps_per_s=sum(nominal[name] for name in medians)
            / sum(medians.values()))
        notes["job_p50_s"] = f"median over {len(medians)} job medians; " \
            f"{statistics.median(measured.values()):.6g} s measured"
        notes["job_tail_s"] = f"p{pct:.4g} of {len(pooled)} jobs; " \
            f"{tail(m.all_times)[0]:.6g} s measured"
        notes["sample_steps_per_s"] = \
            "nominal work of one round / sum of the job medians"
    return m, metrics, notes


def traced(jobs, pins, rounds: int, trace_path: Path, info: dict):
    """Alternate untraced and traced rounds; layer metrics of the traced.

    The tracing overhead compares the two kinds of round at reference speed.
    """
    import tracing
    tr = tracing.Tracer()
    probe = SpeedProbe()
    plain, marked = Measurement(), Measurement()
    run_round(jobs, pins, plain, timed=False, probe=probe)   # warm-up
    for r in range(rounds):
        if r % 2 == 0:
            run_round(jobs, pins, plain, probe=probe)
            continue
        tracing.install(tr)
        try:
            run_round(jobs, pins, marked, tracer=tr, probe=probe)
        finally:
            tr.uninstall()
    metrics = tracing.layer_metrics(tr)
    untraced, traced_times = scaled(plain, probe), scaled(marked, probe)
    overhead = {}
    for name, ts in traced_times.items():
        if untraced.get(name):
            overhead[name] = (statistics.median(ts),
                              statistics.median(untraced[name]))
    base = sum(u for _, u in overhead.values())
    metrics["trace.overhead_share"] = \
        sum(t for t, _ in overhead.values()) / base - 1 if base else 0.0
    OUT.mkdir(exist_ok=True)
    with gzip.open(trace_path, "wt", encoding="utf-8") as fh:
        json.dump({"machine": info, "metrics": metrics,
                   "spans": tr.to_document()}, fh, separators=(",", ":"))
        fh.write("\n")
    m = Measurement(attempted=plain.attempted + marked.attempted,
                    failed=plain.failed + marked.failed,
                    problems=plain.problems + marked.problems)
    return m, metrics, overhead


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="run length at reference speed; sets the number of "
                        f"rounds (at least {MIN_ROUNDS})")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
        import workloads
        if args.workload not in workloads.WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}; choose "
                             f"one of {', '.join(workloads.WORKLOADS)}")
        WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as workdir:
            inputs = workloads.make_inputs(args.workload, args.seed, workdir)
            jobs = workloads.make_jobs(args.workload, inputs)
            if args.setup_probe:
                print("ready", flush=True)
                return 0
            pins, nominal = load_pins(args.workload, args.seed, jobs,
                                      workloads.PIN_SEED)
            rounds = max(MIN_ROUNDS, round(
                args.seconds / workloads.ROUND_SECONDS[args.workload]))
            measure(args, jobs, pins, nominal, rounds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


def measure(args, jobs, pins, nominal, rounds: int) -> None:
    info = machine()
    print(f"machine: {json.dumps(info)}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(jobs)} jobs x {rounds} rounds after one warm-up round  "
          f"answers pinned for {sorted(pins) or 'no job'}")
    if args.trace:
        import tracing
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        m, metrics, overhead = traced(jobs, pins, rounds, trace_path, info)
        wall = metrics["job.wall_s"]
        for name, unit in tracing.LAYER_METRICS:
            share = ""
            if name.endswith(".self_s") and wall:
                share = f"  {100 * metrics[name] / wall:5.1f}% of job time"
            print(f"  {name:40s} {metrics[name]:.6g} {unit}{share}")
        for name, (t, u) in overhead.items():
            print(f"  tracing overhead {name:22s} traced {t:.4f} s  "
                  f"untraced {u:.4f} s at reference speed  "
                  f"({100 * (t / u - 1):+.1f}%)")
        gap = tracing.accounting_gap(metrics)
        adds_up = abs(gap) <= 1e-9 * max(wall, 1.0)
        print(f"  layer self times + job.other_s - job.wall_s = {gap:.3g} s "
              f"({'ok' if adds_up else 'MISMATCH'})")
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
        if not adds_up:
            m.problems.append("self times do not add up to the job wall time")
        result = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in tracing.LAYER_METRICS}
    else:
        setup_s, setup_measured = setup_seconds(args.workload, args.seed)
        probe = SpeedProbe()
        m, metrics, notes = end_to_end(jobs, pins, nominal, rounds, setup_s,
                                       probe)
        notes["setup_s"] += f"; {setup_measured:.6g} s measured"
        print(f"  job times at reference speed (speed probe "
              f"{REFERENCE_PROBE_S * 1e3:.3g} ms on the reference machine, "
              f"median {1e3 * statistics.median(probe.samples):.4g} ms over "
              f"{len(probe.samples)} probes here)")
        for job in jobs:
            print(f"  job {job.name:22s} {notes.get(job.name, 'no timing')}")
        for name, unit in END_TO_END:
            if name in metrics:
                print(f"  {name:20s} {metrics[name]:.6g} {unit}  "
                      f"{notes.get(name, '')}")
        result = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in RESULT_METRICS if name in metrics}
    for problem in m.problems:
        print(f"FAILED {problem}")
    print(json.dumps({"correct": not m.problems, "attempted": m.attempted,
                      "failed": m.failed, "metrics": result}))


if __name__ == "__main__":
    sys.exit(main())
