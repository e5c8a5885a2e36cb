"""Command-line front door.

Subcommands: generate, verify, frontier, export-svg, selftest.  The time
step tau is the cop's duration cut into whole steps no shorter than the
grid spacing.  Exit codes: 0 success (verify: capture), 1 selftest
failure, 2 usage, input or evidence errors, 3 verified survival, 4
invalid resolution parameters (non-finite, a resolution at or below zero, a
grid spacing at or below 10^-6, a capture radius below the soundness floor,
a grid above 10^6 samples, a vertex-to-sample table above 10^7 cells, or a
step count, duration / spacing, above 10^6).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from .critical import FAMILIES, EvidenceError, build_family, frontier_table, \
    frontier_to_csv, frontier_to_json
from .graph import GraphValidationError, load_graph
from .strategies import StrategyError, lambda_root
from .svg import save_svg
from .trajectory import (PathValidationError, load_path, path_to_dict,
                         save_path, write_json)
from .verifier import (GameMismatchError, ParameterError, brute_force_oracle,
                       result_to_dict, save_report, verify)

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_USAGE = 2
EXIT_SURVIVAL = 3
EXIT_PARAMETER_FLOOR = 4


def finite_positive(text: str) -> float:
    """Parse a finite positive float flag (argparse reports a ValueError)."""
    x = float(text)
    if not 0 < x < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text!r}")
    return x


def _non_negative_int(text: str) -> int:
    """Parse a non-negative int flag (argparse reports a ValueError)."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return n


def _speed_list(text: str) -> tuple[float, ...]:
    """Parse a comma-separated --speeds list of finite positive floats."""
    speeds = tuple(finite_positive(x) for x in text.split(",") if x.strip())
    if not speeds:
        raise argparse.ArgumentTypeError("--speeds list is empty")
    return speeds


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="graphchase",
        description="Pursuit on metric graphs: construct pursuer strategies, "
                    "verify them against every unit-speed evader, and "
                    "estimate capture-speed frontiers.",
        epilog="exit codes: 0 ok/capture, 1 selftest failure, 2 usage, "
               "input or evidence error, 3 verified survival, 4 invalid "
               "resolution parameters, a grid spacing at or below 10^-6, a "
               "grid or step count above 10^6 or a vertex-to-sample table "
               "above 10^7 cells")
    sub = p.add_subparsers(dest="command", required=True)

    def add_resolution(q):
        q.add_argument("--resolution", type=float, default=None, metavar="H",
                       help="target sample spacing (default: min edge / 50)")
        q.add_argument("--eps", type=float, default=None,
                       help="capture radius (default: twice the grid "
                            "spacing; must exceed the spacing)")

    q = sub.add_parser("generate", help="construct a strategy trajectory")
    q.add_argument("--graph", required=True, help="graph JSON file")
    q.add_argument("--kind", required=True, choices=list(FAMILIES))
    q.add_argument("--speed", type=float, required=True)
    q.add_argument("--delta", type=finite_positive, default=None,
                   help="truncation scale for cascade openings "
                        "(default: min edge / 100)")
    q.add_argument("--out", default=None,
                   help="trajectory JSON output (default: stdout)")
    q.set_defaults(handler=cmd_generate)

    q = sub.add_parser("verify", help="decide capture vs survival")
    q.add_argument("--graph", required=True)
    q.add_argument("--strategy", required=True, help="trajectory JSON file")
    add_resolution(q)
    q.add_argument("--report", default=None, help="write JSON report here")
    q.add_argument("--witness", default=None,
                   help="write the survival witness trajectory here")
    q.set_defaults(handler=cmd_verify)

    q = sub.add_parser("frontier", help="verdict table over a speed list")
    q.add_argument("--graph", required=True)
    q.add_argument("--family", required=True, choices=list(FAMILIES))
    q.add_argument("--speeds", required=True, type=_speed_list,
                   help="comma-separated speed list, e.g. 0.5,1,1.5,2")
    q.add_argument("--delta", type=finite_positive, default=None)
    add_resolution(q)
    q.add_argument("--out", default=None, help="CSV output (default: stdout)")
    q.add_argument("--json", dest="as_json", action="store_true",
                   help="emit JSON instead of CSV")
    q.set_defaults(handler=cmd_frontier)

    q = sub.add_parser("export-svg", help="time-space diagram of a strategy")
    q.add_argument("--graph", required=True)
    q.add_argument("--strategy", required=True)
    q.add_argument("--witness", default=None,
                   help="overlay this evader trajectory")
    q.add_argument("--eps", type=finite_positive, default=None,
                   help="shade a capture-radius tube of this width")
    q.add_argument("--out", required=True)
    q.set_defaults(handler=cmd_export_svg)

    q = sub.add_parser("selftest",
                       help="randomized agreement suite against the "
                            "brute-force oracle")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--cases", type=_non_negative_int, default=40)
    q.set_defaults(handler=cmd_selftest)
    return p


def cmd_generate(cfg: argparse.Namespace) -> int:
    g = load_graph(cfg.graph)
    path = build_family(g, cfg.kind, cfg.speed, cfg.delta)
    if cfg.out:
        save_path(path, cfg.out)
        print(f"wrote {cfg.out}")
    else:
        write_json(path_to_dict(path), sys.stdout)
    print(f"kind {path.metadata.get('kind', cfg.kind)}  "
          f"duration {path.duration:.6g}  breakpoints {len(path.times)}")
    return EXIT_OK


def cmd_verify(cfg: argparse.Namespace) -> int:
    g = load_graph(cfg.graph)
    cop = load_path(g, cfg.strategy)
    res = verify(cop, h=cfg.resolution, eps=cfg.eps)
    witness = cfg.witness if res.witness is not None else None
    if cfg.report:
        save_report(res, cfg.report, witness)
    elif witness:
        # result_to_dict builds the witness document whichever files are
        # written; it renders as save_path writes it
        with open(witness, "w", encoding="utf-8") as fh:
            write_json(result_to_dict(res)["witness"], fh)
    if res.captured:
        print(f"capture: every unit-speed evader within eps={res.eps:.6g} "
              f"by t={res.time_bound:.6g} "
              f"(h={res.h:.6g} tau={res.tau:.6g} steps={res.n_steps})")
        return EXIT_OK
    print(f"survival: witness evader keeps clearance "
          f"{res.min_clearance:.6g} over the whole horizon "
          f"(eps={res.eps:.6g} h={res.h:.6g} tau={res.tau:.6g})")
    if witness:
        print(f"witness written to {witness}")
    return EXIT_SURVIVAL


def cmd_frontier(cfg: argparse.Namespace) -> int:
    g = load_graph(cfg.graph)
    rows = frontier_table(g, cfg.family, cfg.speeds, truncation=cfg.delta,
                          h=cfg.resolution, eps=cfg.eps)
    text = frontier_to_json(rows) if cfg.as_json else frontier_to_csv(rows)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {cfg.out} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_export_svg(cfg: argparse.Namespace) -> int:
    g = load_graph(cfg.graph)
    cop = load_path(g, cfg.strategy)
    witness = load_path(g, cfg.witness) if cfg.witness else None
    save_svg(cop, cfg.out, witness=witness, eps=cfg.eps)
    print(f"wrote {cfg.out}")
    return EXIT_OK


def cmd_selftest(cfg: argparse.Namespace) -> int:
    from .graph import build_graph
    from .randgen import oracle_instance
    from .strategies import cycle_loop, sweep_strategy

    failures = 0
    rng = random.Random(cfg.seed)
    for i in range(cfg.cases):
        cop, h, eps = oracle_instance(rng)
        slow = brute_force_oracle(cop, h=h, eps=eps)
        # the boolean game decides the verdict and time bound, which must
        # be the oracle's exactly; on a survival the maximin game builds
        # the witness and must find a survivor too
        try:
            fast = verify(cop, h=h, eps=eps)
        except GameMismatchError as exc:
            failures += 1
            print(f"case {i}: DISAGREE {exc}")
            continue
        if (fast.verdict, fast.time_bound) != (slow.verdict, slow.time_bound):
            failures += 1
            print(f"case {i}: DISAGREE fast={fast.verdict}/{fast.time_bound} "
                  f"oracle={slow.verdict}/{slow.time_bound}")
    print(f"randomized: {cfg.cases} cases, {failures} disagreements")

    canned = 0
    path = build_graph(["a", "b"], [("a", "b", 1.0)])
    res = verify(sweep_strategy(path, 0.5), h=0.02)
    if not res.captured:
        canned += 1
        print("canned: path sweep should capture")
    cyc = build_graph(["a", "b", "c"],
                      [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])
    res = verify(cycle_loop(cyc, 1.0, 6.0), h=0.05)
    if res.captured or res.min_clearance <= 0:
        canned += 1
        print("canned: unit-speed cycle loop should admit a surviving evader")
    lam = lambda_root(3, 3.5)
    if abs(lam - 1.25) > 1e-12:
        canned += 1
        print("canned: growth factor closed form mismatch")
    print(f"canned: 3 checks, {canned} failures")
    if failures or canned:
        print("selftest FAILED")
        return EXIT_SELFTEST_FAILED
    print("selftest ok")
    return EXIT_OK


def main(argv=None) -> int:
    cfg = make_parser().parse_args(argv)
    try:
        return cfg.handler(cfg)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER_FLOOR
    except (StrategyError, GraphValidationError, PathValidationError,
            EvidenceError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
