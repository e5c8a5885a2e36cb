import dataclasses
import json
import pathlib
import tracemalloc

import pytest

from graphchase import (EvidenceError, build_family, build_graph,
                        cycle_loop, load_graph, load_path, path_to_dict,
                        result_to_dict, save_graph, save_path, save_report,
                        sweep_strategy, verify)
from graphchase import cli, trajectory, verifier
from graphchase.cli import main

from common import (hand_built_path, odd_graph, path_graph, star,
                    unit_cycle, unit_path)


@pytest.fixture
def cycle_file(tmp_path):
    f = tmp_path / "cycle.json"
    save_graph(unit_cycle(), f)
    return str(f)


@pytest.fixture
def path_file(tmp_path):
    f = tmp_path / "path.json"
    save_graph(unit_path(), f)
    return str(f)


def test_generate_writes_trajectory(cycle_file, tmp_path, capsys):
    out = str(tmp_path / "strategy.json")
    rc = main(["generate", "--graph", cycle_file, "--kind", "cycle",
               "--speed", "2.0", "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "duration" in text
    doc = json.loads(pathlib.Path(out).read_text())
    assert doc["speed"] == 2.0


def test_generate_stdout_is_loadable(cycle_file, capsys):
    rc = main(["generate", "--graph", cycle_file, "--kind", "cycle",
               "--speed", "2.0"])
    assert rc == 0
    # the whole of stdout is the strategy; the summary goes to stderr
    doc = json.loads(capsys.readouterr().out)
    assert doc["breakpoints"][0]["t"] == 0.0


def test_generate_below_threshold_exits_2(cycle_file, capsys):
    rc = main(["generate", "--graph", cycle_file, "--kind", "cycle",
               "--speed", "1.0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_verify_capture_roundtrip(path_file, tmp_path, capsys):
    strat = str(tmp_path / "s.json")
    report = str(tmp_path / "r.json")
    rc = main(["generate", "--graph", path_file, "--kind", "sweep",
               "--speed", "1.0", "--out", strat])
    assert rc == 0
    rc = main(["verify", "--graph", path_file, "--strategy", strat,
               "--resolution", "0.05", "--report", report])
    assert rc == 0
    assert "capture" in capsys.readouterr().out
    doc = json.loads(pathlib.Path(report).read_text())
    assert doc["verdict"] == "capture"
    assert set(doc["params"]) == {"h", "eps", "spacing", "tau", "steps",
                                  "samples"}


def test_verify_survival_writes_witness(cycle_file, tmp_path, capsys):
    strat = str(tmp_path / "s.json")
    wit = str(tmp_path / "w.json")
    rc = main(["generate", "--graph", cycle_file, "--kind", "sweep",
               "--speed", "1.0", "--out", strat])
    assert rc == 0
    rc = main(["verify", "--graph", cycle_file, "--strategy", strat,
               "--resolution", "0.05", "--witness", wit])
    assert rc == 3
    assert "survival" in capsys.readouterr().out
    g = unit_cycle()
    w = load_path(g, wit)
    assert w.speed_bound == 1.0


def test_verify_prints_tau_as_the_time_step(path_file, tmp_path, capsys):
    # spacing 0.25, but the 2/0.7 duration is cut into 5 steps of 0.2857
    strat = str(tmp_path / "s.json")
    save_path(sweep_strategy(unit_path(), 0.7), strat)
    rc = main(["verify", "--graph", path_file, "--strategy", strat,
               "--resolution", "0.3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "tau=0.285714 steps=5" in out and "dt=" not in out


def test_verify_floor_violation_exits_4(path_file, tmp_path, capsys):
    strat = str(tmp_path / "s.json")
    main(["generate", "--graph", path_file, "--kind", "sweep",
          "--speed", "1.0", "--out", strat])
    rc = main(["verify", "--graph", path_file, "--strategy", strat,
               "--resolution", "0.1", "--eps", "0.05"])
    assert rc == 4
    assert "floor" in capsys.readouterr().err


def test_verify_below_the_spacing_floor_exits_4(tmp_path, capsys):
    # an edge of 1e-300 used to end in an OverflowError traceback
    graph, strat = str(tmp_path / "g.json"), str(tmp_path / "s.json")
    save_graph(build_graph(["a", "b"], [("a", "b", 1e-300)]), graph)
    main(["generate", "--graph", graph, "--kind", "sweep", "--speed", "5.5",
          "--out", strat])
    capsys.readouterr()
    rc = main(["verify", "--graph", graph, "--strategy", strat])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "not above the floor" in err


def test_verify_has_no_time_step_flag(cycle_file, tmp_path, capsys):
    # a time step below the spacing shrank every evader step to a self
    # loop and certified a unit-speed cycle loop as a capture
    strat = str(tmp_path / "s.json")
    main(["generate", "--graph", cycle_file, "--kind", "cycle",
          "--speed", "2.0", "--out", strat])
    for command in (["verify", "--strategy", strat],
                    ["frontier", "--family", "cycle", "--speeds", "1"]):
        with pytest.raises(SystemExit) as e:
            main(command + ["--graph", cycle_file, "--resolution", "0.01",
                            "--dt", "0.006"])
        assert e.value.code == 2
    assert "unrecognized arguments: --dt" in capsys.readouterr().err


def test_verify_non_finite_eps_exits_4(path_file, tmp_path, capsys):
    strat = str(tmp_path / "s.json")
    main(["generate", "--graph", path_file, "--kind", "sweep",
          "--speed", "1.0", "--out", strat])
    rc = main(["verify", "--graph", path_file, "--strategy", strat,
               "--eps", "nan"])
    assert rc == 4
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("resolution", ["0", "-0.01"])
def test_verify_nonpositive_resolution_exits_4(path_file, tmp_path, capsys,
                                               resolution):
    strat = str(tmp_path / "s.json")
    main(["generate", "--graph", path_file, "--kind", "sweep",
          "--speed", "1.0", "--out", strat])
    rc = main(["verify", "--graph", path_file, "--strategy", strat,
               "--resolution", resolution])
    assert rc == 4
    assert "resolution must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("resolution", ["1e-9", "1e-320"])
def test_verify_oversized_grid_exits_4_without_allocating(
        path_file, tmp_path, capsys, resolution):
    # 1e-9 on a unit path would be 10^9 samples, about 240 GB
    strat = str(tmp_path / "s.json")
    main(["generate", "--graph", path_file, "--kind", "sweep",
          "--speed", "1.0", "--out", strat])
    tracemalloc.start()
    try:
        rc = main(["verify", "--graph", path_file, "--strategy", strat,
                   "--resolution", resolution])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 4
    assert "above the limit" in capsys.readouterr().err
    assert peak < 2 ** 20


@pytest.mark.parametrize("graph, speed, flags, message", [
    # a sweep lasting 10^4: 10^7 steps of the grid spacing 1e-3
    (unit_path(), "1e-4", ["--resolution", "1e-3"], "steps"),
    # 11 vertices x 950,001 samples: under the sample limit, but an 80 MB
    # vertex-to-sample table
    (path_graph(10), "1.0", ["--resolution", repr(1 / 95000)], "table"),
], ids=["long-path", "vertex-table"])
def test_verify_oversized_run_exits_4_before_building_the_grid(
        graph, speed, flags, message, tmp_path, capsys):
    gfile, strat = str(tmp_path / "g.json"), str(tmp_path / "s.json")
    save_graph(graph, gfile)
    main(["generate", "--graph", gfile, "--kind", "sweep", "--speed", speed,
          "--out", strat])
    tracemalloc.start()
    try:
        rc = main(["verify", "--graph", gfile, "--strategy", strat] + flags)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 4
    err = capsys.readouterr().err
    assert message in err and "above the limit" in err
    assert peak < 2 ** 20


def test_missing_and_malformed_files_exit_2(tmp_path, capsys):
    rc = main(["generate", "--graph", str(tmp_path / "nope.json"),
               "--kind", "cycle", "--speed", "2.0"])
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    rc = main(["generate", "--graph", str(bad), "--kind", "cycle",
               "--speed", "2.0"])
    assert rc == 2
    bad.write_text(json.dumps({"vertices": ["a", "b"], "edges": [
        {"id": "e0", "from": "a", "to": "b", "length": "abc"}]}),
        encoding="utf-8")
    rc = main(["generate", "--graph", str(bad), "--kind", "sweep",
               "--speed", "2.0"])
    assert rc == 2
    bad.write_text(json.dumps({"vertices": ["a", 1], "edges": [
        {"id": "e0", "from": "a", "to": 1, "length": 1.0}]}),
        encoding="utf-8")
    rc = main(["generate", "--graph", str(bad), "--kind", "sweep",
               "--speed", "2.0"])
    assert rc == 2
    capsys.readouterr()


def test_lengths_and_times_that_are_no_numbers_exit_2(path_file, tmp_path,
                                                      capsys):
    # a boolean length and a string time used to be read as numbers
    graph = tmp_path / "bool.json"
    graph.write_text(json.dumps({"vertices": ["a", "b"], "edges": [
        {"id": "e0", "from": "a", "to": "b", "length": True}]}),
        encoding="utf-8")
    assert main(["generate", "--graph", str(graph), "--kind", "sweep",
                 "--speed", "2.0"]) == 2
    strat = tmp_path / "s.json"
    assert main(["generate", "--graph", path_file, "--kind", "sweep",
                 "--speed", "2.0", "--out", str(strat)]) == 0
    doc = json.loads(strat.read_text(encoding="utf-8"))
    doc["breakpoints"][-1]["t"] = str(doc["breakpoints"][-1]["t"])
    strat.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--graph", path_file, "--strategy",
                 str(strat)]) == 2
    assert "is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["sweep", "finiteness", "star"])
def test_generate_on_integer_ids_exits_2_with_one_line(kind, tmp_path,
                                                       capsys):
    graph = tmp_path / "ints.json"
    graph.write_text(json.dumps({"vertices": [0, 1, 2, 3], "edges": [
        {"id": i, "from": 0, "to": i + 1, "length": 1.0} for i in range(3)]}),
        encoding="utf-8")
    rc = main(["generate", "--graph", str(graph), "--kind", kind,
               "--speed", "100", "--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_generate_eps_builds_a_star_that_captures_at_that_eps(tmp_path,
                                                              capsys):
    # at the default truncation (0.005) this star survives at eps = 0.0015
    # with a witness clearance of 0.0025; built for that eps it captures
    graph, path = tmp_path / "star4.json", tmp_path / "s.json"
    save_graph(star(4, 0.5), graph)
    argv = ["--graph", str(graph), "--eps", "0.0015"]
    assert main(["generate", "--kind", "star", "--speed", "5.5",
                 "--out", str(path)] + argv) == 0
    assert main(["verify", "--strategy", str(path),
                 "--resolution", "0.0005"] + argv) == 0
    assert "capture" in capsys.readouterr().out
    assert main(["generate", "--kind", "star", "--speed", "5.5",
                 "--out", str(path), "--graph", str(graph)]) == 0
    assert main(["verify", "--strategy", str(path),
                 "--resolution", "0.0005"] + argv) == 3


def test_finiteness_at_a_large_speed_builds_and_captures(tmp_path, capsys):
    graph, path = tmp_path / "star.json", tmp_path / "s.json"
    save_graph(build_graph(["O", "a", "b", "c", "d"],
                           [("O", "a", 1.0), ("O", "b", 1.0), ("O", "c", 1.0),
                            ("O", "d", 0.001)]), graph)
    assert main(["generate", "--graph", str(graph), "--kind", "finiteness",
                 "--speed", "100000", "--out", str(path)]) == 0
    assert main(["verify", "--graph", str(graph),
                 "--strategy", str(path)]) == 0
    assert "capture" in capsys.readouterr().out


def test_undecodable_graph_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    rc = main(["generate", "--graph", str(bad), "--kind", "cycle",
               "--speed", "2.0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_undecodable_strategy_file_exits_2(cycle_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    rc = main(["verify", "--graph", cycle_file, "--strategy", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_frontier_csv_stdout(cycle_file, capsys):
    rc = main(["frontier", "--graph", cycle_file, "--family", "cycle",
               "--speeds", "0.5,1.5", "--resolution", "0.05"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "s,verdict,time_bound,clearance,h,dt,eps"
    assert lines[1].startswith("0.5,survival")
    assert lines[2].startswith("1.5,capture")


def test_frontier_json_flag(cycle_file, capsys):
    rc = main(["frontier", "--graph", cycle_file, "--family", "cycle",
               "--speeds", "1.5", "--resolution", "0.05", "--json"])
    assert rc == 0
    docs = json.loads(capsys.readouterr().out)
    assert docs[0]["verdict"] == "capture"


def test_frontier_out_file(cycle_file, tmp_path, capsys):
    out = tmp_path / "f.csv"
    rc = main(["frontier", "--graph", cycle_file, "--family", "cycle",
               "--speeds", "0.5,1.5", "--resolution", "0.05",
               "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == f"wrote {out} (2 rows)\n"
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "s,verdict,time_bound,clearance,h,dt,eps"
    assert len(lines) == 3


def test_frontier_bad_speeds_exit_2(cycle_file, capsys):
    with pytest.raises(SystemExit) as e:
        main(["frontier", "--graph", cycle_file, "--family", "cycle",
              "--speeds", "1.5,abc"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["frontier", "--graph", cycle_file, "--family", "cycle",
              "--speeds", ","])
    assert e.value.code == 2
    capsys.readouterr()


def test_frontier_evidence_error_exits_2(cycle_file, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise EvidenceError("capture time increased with speed")

    monkeypatch.setattr(cli, "frontier_table", fail)
    rc = main(["frontier", "--graph", cycle_file, "--family", "cycle",
               "--speeds", "1.5"])
    assert rc == 2
    assert "capture time increased" in capsys.readouterr().err


def test_export_svg_deterministic(path_file, tmp_path, capsys):
    strat = str(tmp_path / "s.json")
    main(["generate", "--graph", path_file, "--kind", "sweep",
          "--speed", "1.0", "--out", strat])
    outs = []
    for name in ("a.svg", "b.svg"):
        out = str(tmp_path / name)
        rc = main(["export-svg", "--graph", path_file, "--strategy", strat,
                   "--eps", "0.1", "--out", out])
        assert rc == 0
        outs.append(pathlib.Path(out).read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].startswith(b"<svg")
    capsys.readouterr()


@pytest.mark.parametrize("eps", ["inf", "nan", "-0.1", "0", "-0.0", "1e999"])
def test_export_svg_eps_must_be_finite_and_positive(path_file, tmp_path,
                                                    capsys, eps):
    strat, out = str(tmp_path / "s.json"), tmp_path / "d.svg"
    main(["generate", "--graph", path_file, "--kind", "sweep",
          "--speed", "1.0", "--out", strat])
    with pytest.raises(SystemExit) as e:
        main(["export-svg", "--graph", path_file, "--strategy", strat,
              "--eps", eps, "--out", str(out)])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "--eps: value must be finite and positive" in err
    assert not out.exists()


def test_export_svg_with_witness(cycle_file, tmp_path, capsys):
    strat = str(tmp_path / "s.json")
    wit = str(tmp_path / "w.json")
    main(["generate", "--graph", cycle_file, "--kind", "sweep",
          "--speed", "1.0", "--out", strat])
    main(["verify", "--graph", cycle_file, "--strategy", strat,
          "--resolution", "0.05", "--witness", wit])
    out = str(tmp_path / "d.svg")
    rc = main(["export-svg", "--graph", cycle_file, "--strategy", strat,
               "--witness", wit, "--out", out])
    assert rc == 0
    assert "witness" in pathlib.Path(out).read_text()
    capsys.readouterr()


def test_selftest_passes(capsys):
    rc = main(["selftest", "--seed", "3", "--cases", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 disagreements" in out
    assert "selftest ok" in out


def test_selftest_refuses_a_negative_case_count(monkeypatch, capsys):
    # as the installed console script calls it: argv from sys.argv
    monkeypatch.setattr("sys.argv", ["graphchase", "selftest", "--cases", "-3"])
    with pytest.raises(SystemExit) as e:
        main()
    assert e.value.code == 2
    assert "must be non-negative" in capsys.readouterr().err


def test_file_roundtrip_matches_in_memory(tmp_path, capsys):
    g = path_graph(2)
    gf = str(tmp_path / "g.json")
    sf = str(tmp_path / "s.json")
    save_graph(g, gf)
    cop = sweep_strategy(g, 1.5)
    save_path(cop, sf)
    direct = verify(cop, h=0.05)
    rc = main(["verify", "--graph", gf, "--strategy", sf,
               "--resolution", "0.05"])
    assert (rc == 0) == direct.captured
    out = capsys.readouterr().out
    assert f"{direct.time_bound:.6g}" in out


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_reports_equal_json_dumps_byte_for_byte(tmp_path):
    g = odd_graph()
    survival = verify(cycle_loop(g, 1.0, 6.0), h=0.05)
    capture = verify(cycle_loop(g, 3.0, 6.0), h=0.05)
    hand = dataclasses.replace(survival, witness=hand_built_path(g))
    assert survival.witness is not None and capture.witness is None
    for res in (survival, capture, hand):
        f = tmp_path / "r.json"
        save_report(res, f)
        assert f.read_bytes() == dumps(result_to_dict(res)).encode("utf-8")


def test_cli_outputs_equal_json_dumps_byte_for_byte(tmp_path, capsys):
    graph = str(tmp_path / "g.json")
    save_graph(odd_graph(), graph)
    g = load_graph(graph)
    expected = dumps(path_to_dict(build_family(g, "cycle", 2.0)))
    assert main(["generate", "--graph", graph, "--kind", "cycle",
                 "--speed", "2.0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err.startswith("kind cycle")
    out = tmp_path / "s.json"
    assert main(["generate", "--graph", graph, "--kind", "cycle",
                 "--speed", "2.0", "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode("utf-8")

    strategy, report, witness = (tmp_path / f"{name}.json"
                                 for name in ("c", "r", "w"))
    save_path(cycle_loop(g, 1.0, 6.0), strategy)
    assert main(["verify", "--graph", graph, "--strategy", str(strategy),
                 "--resolution", "0.05", "--report", str(report),
                 "--witness", str(witness)]) == cli.EXIT_SURVIVAL
    res = verify(load_path(g, str(strategy)), h=0.05)
    assert report.read_bytes() == dumps(result_to_dict(res)).encode("utf-8")
    assert witness.read_bytes() == \
        dumps(path_to_dict(res.witness)).encode("utf-8")



@pytest.mark.parametrize("speed, flags", [
    (1.0, ("--report", "--witness")), (1.0, ("--report",)),
    (1.0, ("--witness",)), (3.0, ("--report", "--witness")),
], ids=["survival-both", "survival-report", "survival-witness",
        "capture-both"])
def test_verify_files_share_one_witness_document(tmp_path, monkeypatch,
                                                 speed, flags):
    # the files are rendered from the witness's own columns, building no
    # path_to_dict document, and each file equals its own json.dumps render
    graph, strategy = str(tmp_path / "g.json"), tmp_path / "c.json"
    save_graph(odd_graph(), graph)
    g = load_graph(graph)
    save_path(cycle_loop(g, speed, 6.0), strategy)
    files = {flag: tmp_path / f"{flag[2:]}.json" for flag in flags}
    built = []
    real = trajectory.path_to_dict
    for module in (trajectory, verifier, cli):
        monkeypatch.setattr(module, "path_to_dict",
                            lambda p: built.append(p) or real(p),
                            raising=False)
    rc = main(["verify", "--graph", graph, "--strategy", str(strategy),
               "--resolution", "0.05"]
              + [x for flag, f in files.items() for x in (flag, str(f))])
    monkeypatch.undo()
    res = verify(load_path(g, str(strategy)), h=0.05)
    assert rc == (cli.EXIT_OK if res.captured else cli.EXIT_SURVIVAL)
    assert built == []
    if "--report" in files:
        assert files["--report"].read_bytes() == \
            json.dumps(result_to_dict(res), indent=2,
                       sort_keys=True).encode("utf-8") + b"\n"
    if "--witness" in files:
        assert files["--witness"].exists() == (res.witness is not None)
    if res.witness is not None and "--witness" in files:
        assert files["--witness"].read_bytes() == \
            json.dumps(path_to_dict(res.witness), indent=2,
                       sort_keys=True).encode("utf-8") + b"\n"


def test_verify_refuses_one_file_for_report_and_witness(tmp_path, monkeypatch,
                                                        capsys):
    # the two documents would interleave in one file; the refusal comes
    # before the graph is loaded, and writes nothing
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "load_graph",
                        lambda path: pytest.fail("graph loaded"))
    out = tmp_path / "out.json"
    for report, witness in (("out.json", "out.json"),
                            ("out.json", "./out.json"),
                            (str(out), "sub/../out.json")):
        rc = main(["verify", "--graph", "g.json", "--strategy", "c.json",
                   "--report", report, "--witness", witness])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


def test_report_and_witness_render_the_witness_once(tmp_path):
    # the witness streamed from its own columns into both files a chunk at
    # a time peaks at about 0.25 times the report's size here; building its
    # path_to_dict document first peaks at about 2.2 times
    res = verify(cycle_loop(unit_cycle(), 1.0, 10.0), h=1 / 400)
    assert len(res.witness.times) >= 4000
    report, witness = tmp_path / "r.json", tmp_path / "w.json"
    tracemalloc.start()
    try:
        save_report(res, report, witness)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < report.stat().st_size / 2
    assert witness.read_bytes() == \
        json.dumps(path_to_dict(res.witness), indent=2,
                   sort_keys=True).encode("utf-8") + b"\n"
